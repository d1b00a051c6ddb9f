"""Check every figure dataset against a git revision, file by file.

    python bench/figcheck.py REV

REV is unpacked with `git archive` into a temporary directory (so no
worktree is recorded in the repository), and every `--figure` id runs in a
fresh process in that tree and in the tree this script belongs to.  The
file lists must match, and a sidecar (`*.meta.json`) may differ only in its
`created_utc`.  A data file that differs is held to its rule (`judge`):
  - its numbers within 1e-12;
  - within 1e-11 for the 5000-cycle files (fig4a, fig4b);
  - a fig2 overlap table by quasi-energy (1e-12) and by the overlap sums
    over runs of sorted quasi-energies closer than 1e-5 rad (1e-12): inside
    such a nearly degenerate pair the eigensolver may rotate the weight;
  - `n_c` and `first_reversal` identical, and every other text cell too.
Each differing file is printed with its largest deviation next to its rule.
Exits 0 when every file keeps its rule and 1 otherwise.
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
TOL = 1e-12
# the files read off 5000-cycle series, where roundoff grows with the cycles
LONG_FILES = ("fig4a_", "fig4b_")
LONG_TOL = 1e-11
# fig2 overlap rows closer than this in quasi-energy (rad) are compared by their sum
PAIR_GAP = 1e-5
# fields compared exactly in every file
EXACT = ("n_c", "first_reversal")


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


def fields(text: str, name: str) -> list:
    """The (key, value) cells of a CSV or JSON file in reading order: numbers
    as floats, anything else as it stands.  A CSV cell's key is its column
    name (None in the header), a JSON value's key the name it is stored
    under."""
    if name.endswith(".json"):
        out = []

        def walk(node, key):
            if isinstance(node, dict):
                for child in sorted(node):
                    out.append((None, child))
                    walk(node[child], child)
            elif isinstance(node, list):
                for item in node:
                    walk(item, key)
            else:
                number = isinstance(node, (int, float)) and not isinstance(node, bool)
                out.append((key, float(node) if number else node))

        walk(json.loads(text), None)
        return out
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    out = [(None, cell) for cell in header]
    for line in lines[1:]:
        for i, cell in enumerate(line.split(",")):
            key = header[i] if i < len(header) else None
            try:
                out.append((key, float(cell)))
            except ValueError:
                out.append((key, cell))
    return out


def deviation(old: str, new: str, name: str) -> float:
    """Largest |new - old| over the numbers of two files of the same layout;
    inf when the layouts, a text cell or an `EXACT` field differ."""
    a, b = fields(old, name), fields(new, name)
    if len(a) != len(b):
        return math.inf
    worst = 0.0
    for (key, x), (other_key, y) in zip(a, b):
        if key != other_key:
            return math.inf
        if isinstance(x, float) and isinstance(y, float):
            if x != y:
                if key in EXACT:
                    return math.inf
                worst = max(worst, abs(x - y) if math.isfinite(x - y) else math.inf)
        elif x != y:
            return math.inf
    return worst


def overlap_table(text: str):
    """Header and (quasi_energy, overlap) rows of a fig2 overlap CSV."""
    header, *rows = text.splitlines()
    return header, [tuple(float(cell) for cell in row.split(",")) for row in rows]


def pair_deviations(old: str, new: str):
    """Largest |new - old| of the quasi-energies of two overlap tables, and
    of their overlap sums over runs of sorted quasi-energies (of `old`)
    closer than `PAIR_GAP`, on the circle; (inf, inf) when the headers or
    row counts differ."""
    (old_header, a), (new_header, b) = overlap_table(old), overlap_table(new)
    if old_header != new_header or len(a) != len(b) or not a:
        return math.inf, math.inf
    energy_dev = max(abs(x[0] - y[0]) for x, y in zip(a, b))
    runs = [[0]]
    for i in range(1, len(a)):
        if a[i][0] - a[i - 1][0] < PAIR_GAP:
            runs[-1].append(i)
        else:
            runs.append([i])
    # the first and the last quasi-energy are neighbours across +-pi
    if len(runs) > 1 and a[0][0] + 2 * math.pi - a[-1][0] < PAIR_GAP:
        runs[0] += runs.pop()
    sum_dev = max(abs(sum(b[i][1] for i in run) - sum(a[i][1] for i in run)) for run in runs)
    return energy_dev, sum_dev


def judge(name: str, old: str, new: str):
    """(rule, largest deviations, whether they keep the rule) of a data file
    that differs from its version at REV."""
    if name.startswith("fig2_overlaps_"):
        energy_dev, sum_dev = pair_deviations(old, new)
        return (f"{TOL:g} by quasi-energy and by sums over pairs closer than {PAIR_GAP:g} rad",
                f"quasi-energy {energy_dev:.3e}, pair sums {sum_dev:.3e}", max(energy_dev, sum_dev) <= TOL)
    tol = LONG_TOL if name.startswith(LONG_FILES) else TOL
    dev = deviation(old, new, name)
    return f"{tol:g}, {' and '.join(EXACT)} identical", f"{dev:.3e}", dev <= tol


def without_created(sidecar: str) -> dict:
    meta = json.loads(sidecar)
    meta.pop("created_utc", None)
    return meta


def compare(figure_id: str, old_dir: Path, new_dir: Path) -> int:
    """Print each difference of one figure's outputs with its rule; returns
    the number of files that miss their rule."""
    old_files = {p.name for p in old_dir.iterdir()}
    new_files = {p.name for p in new_dir.iterdir()}
    misses = differing = 0
    for name in sorted(old_files ^ new_files):
        side = "only at REV" if name in old_files else "only in this tree"
        print(f"  {figure_id}/{name}: {side}: MISS")
        misses += 1
    for name in sorted(old_files & new_files):
        old = (old_dir / name).read_text(encoding="utf-8")
        new = (new_dir / name).read_text(encoding="utf-8")
        if old == new or (name.endswith(SIDECAR) and without_created(old) == without_created(new)):
            continue
        differing += 1
        if name.endswith(SIDECAR):
            text, found, ok = "only created_utc may differ", "beyond created_utc", False
        else:
            text, found, ok = judge(name, old, new)
        print(f"  {figure_id}/{name}: largest |deviation| {found} (rule: {text}): {'ok' if ok else 'MISS'}")
        misses += not ok
    print(f"{figure_id}: {len(old_files | new_files)} files, {differing} differing, {misses} missing their rule")
    return misses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="figcheck-") as scratch:
        scratch = Path(scratch)
        old_tree = scratch / "rev"
        unpack(args.rev, old_tree)
        ids = figure_ids(ROOT)
        misses = 0
        for figure_id in ids:
            outputs = {}
            for label, tree in (("rev", old_tree), ("new", ROOT)):
                outputs[label] = scratch / "out" / label / figure_id
                run_python(tree, ["-m", "starkdtc.cli", "--figure", figure_id, "--out", str(outputs[label])])
            misses += compare(figure_id, outputs["rev"], outputs["new"])
    print(f"figcheck against {args.rev}: {'every file within its rule' if misses == 0 else f'{misses} misses'}"
          f" over {len(ids)} figure ids")
    return 0 if misses == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
