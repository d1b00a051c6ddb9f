"""Check that every figure dataset is unchanged against a git revision.

    python bench/figcheck.py REV

REV is unpacked with `git archive` into a temporary directory (so no
worktree is recorded in the repository), and every `--figure` id runs in a
fresh process in that tree and in the tree this script belongs to.  The
file lists and every file's bytes are compared; a sidecar (`*.meta.json`)
may differ only in its `created_utc`.  For a data file that differs, the
largest absolute deviation of its numbers is printed.  Exits 0 when
everything matches and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDECAR = ".meta.json"


def unpack(rev: str, dest: Path) -> None:
    """The committed tree of `rev`, extracted under `dest`."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"figcheck: git archive {rev} failed")


def figure_ids(tree: Path) -> list:
    code = "from starkdtc.figures import FIGURE_IDS; print(' '.join(FIGURE_IDS))"
    return run_python(tree, ["-c", code]).split()


def run_python(tree: Path, args: list) -> str:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"figcheck: {args} in {tree} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def cells(text: str, name: str) -> list:
    """The values of a CSV or JSON file in reading order: numbers as floats,
    anything else as it stands."""
    if name.endswith(".json"):
        out = []

        def walk(node):
            if isinstance(node, dict):
                for key in sorted(node):
                    out.append(key)
                    walk(node[key])
            elif isinstance(node, list):
                for item in node:
                    walk(item)
            else:
                number = isinstance(node, (int, float)) and not isinstance(node, bool)
                out.append(float(node) if number else node)

        walk(json.loads(text))
        return out
    out = []
    for line in text.splitlines():
        for cell in line.split(","):
            try:
                out.append(float(cell))
            except ValueError:
                out.append(cell)
    return out


def deviation(old: str, new: str, name: str) -> float:
    """Largest |new - old| over the numbers of two files of the same layout;
    inf when the layouts or any other values differ."""
    a, b = cells(old, name), cells(new, name)
    if len(a) != len(b):
        return math.inf
    worst = 0.0
    for x, y in zip(a, b):
        if isinstance(x, float) and isinstance(y, float):
            if x != y:
                worst = max(worst, abs(x - y) if math.isfinite(x - y) else math.inf)
        elif x != y:
            return math.inf
    return worst


def compare(figure_id: str, old_dir: Path, new_dir: Path) -> int:
    """Print each difference of one figure's outputs; returns their count."""
    old_files = {p.name for p in old_dir.iterdir()}
    new_files = {p.name for p in new_dir.iterdir()}
    problems = 0
    for name in sorted(old_files ^ new_files):
        side = "only at REV" if name in old_files else "only in this tree"
        print(f"  {figure_id}/{name}: {side}")
        problems += 1
    for name in sorted(old_files & new_files):
        old = (old_dir / name).read_text(encoding="utf-8")
        new = (new_dir / name).read_text(encoding="utf-8")
        if old == new:
            continue
        if name.endswith(SIDECAR):
            old_meta, new_meta = json.loads(old), json.loads(new)
            old_meta.pop("created_utc", None)
            new_meta.pop("created_utc", None)
            if old_meta == new_meta:
                continue
            print(f"  {figure_id}/{name}: sidecar differs beyond created_utc")
        else:
            print(f"  {figure_id}/{name}: differs, largest |deviation| {deviation(old, new, name):.3e}")
        problems += 1
    print(f"{figure_id}: {len(old_files | new_files)} files, {problems} differing")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="figcheck-") as scratch:
        scratch = Path(scratch)
        old_tree = scratch / "rev"
        unpack(args.rev, old_tree)
        ids = figure_ids(ROOT)
        problems = 0
        for figure_id in ids:
            outputs = {}
            for label, tree in (("rev", old_tree), ("new", ROOT)):
                outputs[label] = scratch / "out" / label / figure_id
                run_python(tree, ["-m", "starkdtc.cli", "--figure", figure_id, "--out", str(outputs[label])])
            problems += compare(figure_id, outputs["rev"], outputs["new"])
    print(f"figcheck against {args.rev}: {'identical' if problems == 0 else f'{problems} differences'}"
          f" over {len(ids)} figure ids")
    return 0 if problems == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
