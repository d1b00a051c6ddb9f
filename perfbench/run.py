"""Seeded end-to-end and per-layer benchmark of the starkdtc CLI.

Usage, from the root of a starkdtc checkout:

    python3 perfbench/run.py --workload api_map|long_series|overlaps_l12 \
        --seed N --seconds S --trace 0|1

The seed picks the parameter points (see workloads.py); the work per run is
fixed by the workload and --seconds.  A unit (one pass over the workload's
CLI calls, sent one at a time) runs in a fresh process through
`starkdtc.cli.main`, with `src/` of the checkout on the path; a run makes
round(S / nominal unit seconds) units, at least one.

--trace 0 reports the end-to-end metrics, taken with tracing off:
setup_s (median over every fresh process, with extra set-up-only processes
so there are at least three), and the medians over units of wall_s,
points_per_s and peak_rss_mb, and ok_frac.  --trace 1 runs one untraced
unit, one traced unit (per-layer spans, see tracer.py), for api_map one more
unit at --threads 1, and a memory-bandwidth triad, and reports the per-layer
metrics.  Both modes check the outputs against an independent reference
(reference.py) outside the timed region, print a machine and build record
as one JSON line, and end with the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Operations are parameter points.  One fails on a non-zero exit, a sweep
error marker, or an output outside the reference tolerance.  Files go to
.perfbench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import machine
import reference
import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
RUNS_DIR = ".perfbench_runs"
SETUP_SAMPLES = 3
RUN_BUDGET_S = 170.0  # every child is killed past this, to end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "points_per_s": "1/s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
# per-layer metrics measured outside the spans (the rest: tracer.LAYER_METRICS)
EXTRA_LAYER_UNITS = {
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "sweep.pool_speedup": "ratio",
    "machine.stream_gbps": "GB/s",
    "machine.stream_array_bytes": "bytes",
    "machine.l3_bytes": "bytes",
    "machine.nproc": "count",
    "src.lines": "count",
}


class Runner:
    """Starts unit processes one at a time and waits for each to end."""

    def __init__(self, root: Path, run_dir: Path, deadline: float):
        self.root = root
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, self.env.get("PYTHONPATH"))))

    def unit(self, tag: str, calls, traced: bool = False):
        """Run `calls` in a fresh process; its result dict, or None if it died."""
        unit_dir = self.run_dir / tag
        unit_dir.mkdir(parents=True)
        spec = {
            "calls": [
                {
                    "config_path": str(unit_dir / f"{call.name}.json"),
                    "config_text": call.config_text(),
                    "argv": call.argv(unit_dir / f"{call.name}.json", unit_dir / call.name),
                }
                for call in calls
            ],
            "result_path": str(unit_dir / "result.json"),
            "spans_path": str(unit_dir / "spans.jsonl") if traced else None,
        }
        spec_path = unit_dir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        with open(unit_dir / "log.txt", "w", encoding="utf-8") as log:
            launch = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "unit.py"), str(spec_path), repr(launch)],
                cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
            try:
                proc.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
            except subprocess.TimeoutExpired:
                pass
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        result_path = unit_dir / "result.json"
        if proc.returncode != 0 or not result_path.exists():
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["dir"] = unit_dir
        return result


def _rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Checker:
    """Compares unit outputs with the reference; collects failures by point."""

    def __init__(self, workload: wl.Workload):
        self.workload = workload
        self.messages = []
        self.series = {}
        self.returns = {}
        cycles = max(call.cycles_per_point for call in workload.calls)
        for point in workload.samples:
            model = reference.Model(workload.L, point)
            if workload.return_ns:
                self.returns[point] = model.return_amplitudes(workload.return_ns)
            else:
                self.series[point] = model.series(cycles)

    def fail(self, where: str, what: str) -> None:
        self.messages.append(f"{where}: {what}")

    def unit(self, result, tag: str, calls) -> tuple:
        """(attempted, failed) points of one unit."""
        attempted = sum(len(call.points) for call in calls)
        if result is None:
            self.fail(tag, "unit process died or timed out")
            return attempted, attempted
        failed = 0
        for call, rc in zip(calls, result["returns"]):
            where = f"{tag}/{call.name}"
            if rc != 0:
                self.fail(where, f"exit code {rc}")
                failed += len(call.points)
                continue
            try:
                bad = self._call(result["dir"] / call.name, call, where)
            except (OSError, KeyError, ValueError) as exc:
                self.fail(where, f"unreadable output: {exc}")
                bad = set(call.points)
            failed += len(bad)
        return attempted, failed

    def _call(self, out: Path, call: wl.Call, where: str) -> set:
        command = call.config["command"]
        if command == "sweep":
            return self._sweep(out / "sweep.csv", call, where)
        point = call.points[0]
        if command == "spectrum":
            got = np.array([float(r["magnitude"]) for r in _rows(out / "spectrum.csv")])
            want = reference.dft_magnitudes(self.series[point])
            return self._close(got, want, point, f"{where} DFT magnitudes")
        if command == "overlaps":
            return self._overlaps(out / "overlaps.csv", point, where)
        if command == "series":
            got = np.array([float(r["c"]) for r in _rows(out / "series.csv")])
            want = self.series[point][: got.size]
            if got.size != call.cycles_per_point + 1:
                self.fail(where, f"{got.size} samples, expected {call.cycles_per_point + 1}")
                return {point}
            return self._close(got, want, point, f"{where} C(n)")
        raise ValueError(f"unchecked command {command!r}")

    def _close(self, got, want, point, what) -> set:
        dev = float(np.max(np.abs(got - want))) if got.shape == want.shape else float("inf")
        if dev > reference.TOL:
            self.fail(what, f"deviates from the reference by {dev:.3e} at {point}")
            return {point}
        return set()

    def _sweep(self, path: Path, call: wl.Call, where: str) -> set:
        rows = _rows(path)
        if len(rows) != len(call.points):
            self.fail(where, f"{len(rows)} rows for {len(call.points)} points")
            return set(call.points)
        bad = set()
        for point, row in zip(call.points, rows):
            if (float(row["epsilon"]), float(row["F_T2"])) != (point.eps_t1, point.f_t2):
                self.fail(where, f"row {row} out of grid order at {point}")
                bad.add(point)
            elif row["error"]:
                self.fail(where, f"error marker {row['error']!r} at {point}")
                bad.add(point)
            elif point in self.series:
                bad |= self._sample_row(row, point, call, where)
        return bad

    def _sample_row(self, row, point, call, where) -> set:
        values = self.series[point][: call.cycles_per_point + 1]
        if call.config["sweep"]["observable"] == "a_pi":
            want = reference.dft_magnitudes(values)[(values.size - 1) // 2]
            return self._close(np.array(float(row["a_pi"])), np.array(want), point, f"{where} A_pi")
        first, n_c, depth, aligned = reference.reversal(values)
        got_nc = None if row["n_c"] == "not_observed" else int(row["n_c"])
        got_first = int(row["first_reversal"]) if row["first_reversal"] else None
        got_depth = float(row["reversal_depth"]) if row["reversal_depth"] else None
        ok = reference.same_index(got_nc, n_c, aligned) and reference.same_index(got_first, first, aligned)
        if ok and depth is not None:
            ok = got_depth is not None and abs(got_depth - depth) <= reference.TOL
        if not ok:
            self.fail(where, f"lifetime {row} differs from reference n_c={n_c} "
                      f"first_reversal={first} depth={depth} at {point}")
            return {point}
        return set()

    def _overlaps(self, path: Path, point, where) -> set:
        rows = _rows(path)
        energies = np.array([float(r["quasi_energy"]) for r in rows])
        weights = np.array([float(r["overlap"]) for r in rows])
        total = float(weights.sum())
        if len(rows) != 1 << self.workload.L or abs(total - 1.0) > reference.OVERLAP_SUM_TOL:
            self.fail(where, f"{len(rows)} overlaps summing to {total!r} at {point}")
            return {point}
        for n, want in self.returns[point].items():
            got = abs(np.sum(weights * np.exp(-1j * energies * n)))
            if abs(got - want) > reference.TOL:
                self.fail(where, f"return amplitude at n={n}: {got!r} against reference {want!r} at {point}")
                return {point}
        return set()


def _metric(value, unit):
    if value is None:
        return {"value": None, "unit": unit, "absent": True}
    return {"value": value, "unit": unit}


def _units_per_run(workload: wl.Workload, seconds: int) -> int:
    return max(1, round(seconds / wl.NOMINAL_UNIT_S[workload.name]))


def end_to_end(runner, workload, seconds, record) -> tuple:
    units = [runner.unit(f"unit{i}", workload.calls) for i in range(_units_per_run(workload, seconds))]
    setups = [u["setup_s"] for u in units if u]
    probe = 0
    while len(setups) < SETUP_SAMPLES:
        result = runner.unit(f"setup{probe}", ())
        probe += 1
        if result is None:
            break
        setups.append(result["setup_s"])
    done = [u for u in units if u]
    if not done:
        return units, None
    record["units"] = [{"wall_s": u["wall_s"], "maxrss_kb": u["maxrss_kb"], "returns": u["returns"]} for u in done]
    record["setup_samples_s"] = setups
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(u["wall_s"] for u in done),
        "points_per_s": statistics.median(workload.points / u["wall_s"] for u in done),
        "peak_rss_mb": statistics.median(u["maxrss_kb"] / 1024 for u in done),
    }
    metrics = {name: _metric(value, END_TO_END_UNITS[name]) for name, value in values.items()}
    return [(f"unit{i}", workload.calls, u) for i, u in enumerate(units)], metrics


def per_layer(runner, workload, record) -> tuple:
    plain = runner.unit("untraced", workload.calls)
    traced = runner.unit("traced", workload.calls, traced=True)
    units = [("untraced", workload.calls, plain), ("traced", workload.calls, traced)]
    single = None
    if any(call.threads > 1 for call in workload.calls):
        serial = workload.with_threads(1)
        single = runner.unit("threads1", serial.calls)
        units.append(("threads1", serial.calls, single))
    if any(result is None for _, _, result in units):
        return units, None

    stream = machine.stream_triad(record["cache_bytes"]["L3"])
    record["stream_triad"] = stream
    record["absent_bindings"] = traced["absent"]
    record["units"] = {tag: {"wall_s": u["wall_s"], "returns": u["returns"]} for tag, _, u in units}
    spans = tracer.read_spans(traced["dir"] / "spans.jsonl")
    layers = tracer.layer_metrics(spans, traced["wall_s"], traced["absent"], stream["gbps"])
    metrics = {name: _metric(value, unit) for name, (value, unit) in layers.items()}
    extra = {
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        # threads-1 wall over the workload's own: 1 where its setting already is 1
        "sweep.pool_speedup": single["wall_s"] / plain["wall_s"] if single else 1.0,
        "machine.stream_gbps": stream["gbps"],
        "machine.stream_array_bytes": stream["array_bytes"],
        "machine.l3_bytes": stream["l3_bytes"],
        "machine.nproc": record["nproc"],
        "src.lines": record["src_lines"],
    }
    metrics.update({name: _metric(value, EXTRA_LAYER_UNITS[name]) for name, value in extra.items()})
    return units, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=27)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    # a terminated run still kills and reaps its unit process (Runner.unit)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "starkdtc" / "cli.py").is_file():
        print(f"perfbench: no starkdtc sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    workload = wl.make_workload(args.workload, args.seed)
    run_dir = root / RUNS_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(root, run_dir, started + RUN_BUDGET_S)

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "counts": workload.counts()}
    record.update(machine.record(root))
    cpu_before = machine.cpu_times()
    if args.trace:
        units, metrics = per_layer(runner, workload, record)
    else:
        units, metrics = end_to_end(runner, workload, args.seconds, record)
    record["cpu_steal_frac"] = machine.steal_frac(cpu_before, machine.cpu_times())
    if metrics is None:
        print("perfbench: a unit process died; nothing was measured", file=sys.stderr)
        return 1

    checker = Checker(workload)
    attempted = failed = 0
    for tag, calls, result in units:
        a, f = checker.unit(result, tag, calls)
        attempted, failed = attempted + a, failed + f
    if workload.check_calls:
        a, f = checker.unit(runner.unit("check", workload.check_calls), "check", workload.check_calls)
        attempted, failed = attempted + a, failed + f
    if not args.trace:
        metrics["ok_frac"] = _metric(1.0 - failed / attempted, END_TO_END_UNITS["ok_frac"])

    record["check_failures"] = checker.messages
    record["run_s"] = time.monotonic() - started
    for message in checker.messages:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    (run_dir / "record.json").write_text(json.dumps(record, indent=2, default=str), encoding="utf-8")
    print(json.dumps({"record": record}, default=str))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(result, indent=2), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
