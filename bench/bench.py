"""Write the benchmark record of this checkout, BENCH_<pr>.json.

    python bench/bench.py --pr N [--seeds 5] [--seconds 27]

For each workload of `perfbench/run.py` it makes --seeds runs at --trace 0
(the end-to-end view: each metric's median beside its quartiles and IQR)
and one run at --trace 1 (the per-layer view).  It also times each
`--figure` id and the tier-1 suite, each in a fresh process.  The file
holds the record and result lines of every run verbatim, the src line
count, the number of exported names (`starkdtc.__all__`) and the per-layer
view's known defects, and is strict JSON (no NaN or Infinity).  It is
written to the root of the checkout; the run that wrote BENCH_22.json took
8 minutes on 2 vCPUs.  Compare numbers across files as a trajectory only:
a claim still needs alternating runs from one session.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("api_map", "long_series", "overlaps_l12")
END_TO_END = ("setup_s", "wall_s", "points_per_s", "peak_rss_mb", "ok_frac")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
# what the per-layer view is known to get wrong; fixed by spans in src
KNOWN_DEFECTS = [
    "sweep.stage1_builds and sweep.stage1_keys read 0: the tracer counts them only under "
    "PropagatorFactory.get, which the grouped sweep does not call per key",
    "the evolution loop (_evolve_block) has no span, so its time sits in run_sweep.self_s",
    "floquet.apply.* reads 0: no command calls FloquetPropagator.apply",
    "observables.fourier_spectrum is charged N^2 * 16 bytes, the DFT matrix the FFT no longer forms",
    "trace.overhead_s can be negative",
    "floquet.u1_from_eigensystem.s reads 0 for overlaps_l12: X formation assembles its block rows "
    "through floquet._block_rows, which no tracer binding wraps",
    "hamiltonian.build_h1.* reads 0: stage 1 builds its sector blocks straight from the reflection "
    "orbits (floquet._sector_h1) and no longer calls build_h1",
]


def run(args: list, env: dict, check: bool = True) -> tuple:
    """stdout lines, wall seconds and exit code of `python args` run from
    the root; a nonzero exit stops the script when `check` is set."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if check and done.returncode != 0:
        raise SystemExit(f"bench: {' '.join(args)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return done.stdout.splitlines(), wall, done.returncode


def perfbench(workload: str, seed: int, seconds: int, trace: int, env: dict) -> dict:
    lines, _, _ = run(["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)], env)
    record = next(line for line in lines if line.startswith('{"record"'))
    return {"seed": seed, "trace": trace, "record_line": record, "result_line": lines[-1]}


def strict(line: str):
    """A JSON line parsed with NaN and Infinity read as None."""
    return json.loads(line, parse_constant=lambda constant: None)


def spread(values: list) -> dict:
    values = [v for v in values if isinstance(v, (int, float))]
    if not values:
        return {"median": None, "q1": None, "q3": None, "iqr": None, "n": 0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def workload_view(workload: str, seeds: list, seconds: int, env: dict) -> dict:
    runs = [perfbench(workload, seed, seconds, 0, env) for seed in seeds]
    results = [strict(r["result_line"]) for r in runs]
    end_to_end = {name: spread([res["metrics"].get(name, {}).get("value") for res in results])
                  for name in END_TO_END}
    traced = perfbench(workload, seeds[0], seconds, 1, env)
    layers = {name: metric.get("value") for name, metric in strict(traced["result_line"])["metrics"].items()}
    return {
        "end_to_end": end_to_end,
        "correct": [res.get("correct") for res in results],
        "per_layer": layers,
        "per_layer_correct": strict(traced["result_line"]).get("correct"),
        "runs": runs + [traced],
    }


def figure_walls(env: dict) -> dict:
    ids, _, _ = run(["-c", "from starkdtc.figures import FIGURE_IDS; print(' '.join(FIGURE_IDS))"], env)
    walls = {}
    with tempfile.TemporaryDirectory() as tmp:
        for figure_id in ids[-1].split():
            _, walls[figure_id], _ = run(["-m", "starkdtc.cli", "--figure", figure_id,
                                       "--out", str(Path(tmp) / figure_id)], env)
    return walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=27)
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    seeds = list(range(1, args.seeds + 1))
    workloads = {}
    for workload in WORKLOADS:
        workloads[workload] = workload_view(workload, seeds, args.seconds, env)
        print(f"bench: {workload} done", file=sys.stderr)
    machine = strict(workloads[WORKLOADS[0]]["runs"][0]["record_line"])["record"]
    exported, _, _ = run(["-c", "import starkdtc; print(len(starkdtc.__all__))"], env)
    payload = {
        "pr": args.pr,
        "machine": machine,
        "src_lines": machine["src_lines"],
        "exported_names": int(exported[-1]),
        "seeds": seeds,
        "seconds": args.seconds,
        "workloads": workloads,
        "figures_wall_s": figure_walls(env),
        "tier1": None,
        "known_defects": KNOWN_DEFECTS,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    # written before tier-1 runs too, since a test there reads this file
    out.write_text(json.dumps(payload, indent=1, allow_nan=False) + "\n")
    lines, wall, code = run(TIER1, env, check=False)
    payload["tier1"] = {"wall_s": wall, "exit_code": code, "summary": lines[-1] if lines else ""}
    out.write_text(json.dumps(payload, indent=1, allow_nan=False) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
