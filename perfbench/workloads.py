"""Seeded workloads: the seed picks parameter points, never the amount of work.

A workload is a fixed list of CLI calls (a JSON config plus CLI flags each),
sent one at a time by a single client, plus the untimed calls and sample
points its correctness check needs.  Two seeds give different points but the
same L, point count, stage-1 key count, cycle count and thread setting; the
program only ever sees the generated configs, never the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace

# model constants shared by every workload (T1 = 1, so eps*T1 = epsilon)
T1 = 1.0
T2 = 10.0
V_T1 = 0.1
OMEGA_T1 = "pi/2"
KERNEL = "NN"

# the paper's Fig. 3 Stark grid: F*T2 = 0 .. 0.5 in steps of 0.02
F_GRID = tuple(round(0.02 * k, 10) for k in range(26))

API_MAP_ROWS = 1  # seed-drawn epsilon rows per api_map sweep
API_MAP_CYCLES = 100
API_MAP_THREADS = 2
API_MAP_SAMPLES = 2  # api_map points whose C(n) and A_pi are checked
LONG_EPS_ROWS = 2
LONG_F_COLS = 3
LONG_CYCLES = 5000
LONG_SERIES_CHECK_CYCLES = 1000  # C(n) prefix compared with the reference
OVERLAP_RETURN_CYCLES = 3  # n values of the return-amplitude check
OVERLAP_MAX_N = 40

NAMES = ("api_map", "long_series", "overlaps_l12")

# nominal seconds of one unit (one pass over a workload's calls) on a
# 2-core Xeon; the unit count of a run is derived from --seconds with these.
# api_map's time varies mostly from process to process (its two workers and
# the BLAS threads contend for two cores), so it runs many short units.
NOMINAL_UNIT_S = {"api_map": 4.5, "long_series": 25.0, "overlaps_l12": 50.0}


@dataclass(frozen=True)
class Point:
    eps_t1: float
    f_t2: float

    def params(self, L: int) -> dict:
        return _base_params(L) | {"epsT1": self.eps_t1, "FT2": self.f_t2}


@dataclass(frozen=True)
class Call:
    """One CLI invocation: `starkdtc --config <name>.json --out <dir> --threads N`."""

    name: str
    config: dict
    threads: int
    points: tuple  # the parameter points it evaluates, in output row order
    cycles_per_point: int

    def config_text(self) -> str:
        return json.dumps(self.config, indent=2, sort_keys=True) + "\n"

    def argv(self, config_path, out_dir) -> list:
        return ["--config", str(config_path), "--out", str(out_dir), "--threads", str(self.threads)]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    L: int
    calls: tuple  # timed, in order
    check_calls: tuple  # untimed, run once per benchmark run for the check
    samples: tuple  # points checked against the reference
    return_ns: tuple = ()  # overlaps_l12 only: cycles of the return-amplitude check

    @property
    def points(self) -> int:
        return sum(len(call.points) for call in self.calls)

    def counts(self) -> dict:
        """Work per unit; identical for every seed of a workload."""
        keys = {(call.config["params"]["L"], p.eps_t1) for call in self.calls for p in call.points}
        return {
            "L": self.L,
            "points": self.points,
            "stage1_keys": len(keys),
            "cycles": sum(len(call.points) * call.cycles_per_point for call in self.calls),
            "threads": tuple(call.threads for call in self.calls),
        }

    def with_threads(self, threads: int) -> "Workload":
        return replace(self, calls=tuple(replace(call, threads=threads) for call in self.calls))


def _base_params(L: int) -> dict:
    return {"L": L, "OmegaT1": OMEGA_T1, "VT1": V_T1, "T1": T1, "T2": T2, "kernel": KERNEL}


def _distinct(rng: random.Random, count: int, low: float, high: float) -> list:
    values = []
    while len(values) < count:
        value = round(rng.uniform(low, high), 6)
        if value not in values:
            values.append(value)
    return values


def _sweep_call(name, L, eps_values, f_values, observable, threads, cycles) -> Call:
    config = {
        "command": "sweep",
        "params": _base_params(L),
        "sweep": {
            "axes": [
                {"name": "epsilon", "values": list(eps_values)},
                {"name": "F_T2", "values": list(f_values)},
            ],
            "observable": observable,
        },
    }
    config["n_max" if observable == "lifetime" else "n_cycles"] = cycles
    points = tuple(Point(e, f) for e in eps_values for f in f_values)
    return Call(name, config, threads, points, cycles)


def _point_call(name, command, L, point: Point, cycles) -> Call:
    config = {"command": command, "params": point.params(L)}
    if command in ("series", "spectrum"):
        config["n_cycles"] = cycles
    return Call(name, config, 1, (point,), cycles)


def api_map(seed: int) -> Workload:
    rng = random.Random(f"api_map/{seed}")
    eps = _distinct(rng, API_MAP_ROWS, 0.0, 0.5)
    sweep = _sweep_call("sweep", 10, eps, F_GRID, "a_pi", API_MAP_THREADS, API_MAP_CYCLES)
    samples = tuple(rng.sample(sweep.points, API_MAP_SAMPLES))
    checks = tuple(
        _point_call(f"check_series_{i}", "series", 10, p, API_MAP_CYCLES) for i, p in enumerate(samples)
    )
    return Workload("api_map", seed, 10, (sweep,), checks, samples)


def long_series(seed: int) -> Workload:
    rng = random.Random(f"long_series/{seed}")
    eps = _distinct(rng, LONG_EPS_ROWS, 0.2, 0.3)
    f_values = _distinct(rng, LONG_F_COLS, 0.1, 0.4)
    sweep = _sweep_call("lifetime", 10, eps, f_values, "lifetime", 1, LONG_CYCLES)
    # the spectrum runs at a sweep point, so one reference series checks both
    point = rng.choice(sweep.points)
    spectrum = _point_call("spectrum", "spectrum", 10, point, LONG_CYCLES)
    check = _point_call("check_series", "series", 10, point, LONG_SERIES_CHECK_CYCLES)
    return Workload("long_series", seed, 10, (sweep, spectrum), (check,), (point,))


def overlaps_l12(seed: int) -> Workload:
    rng = random.Random(f"overlaps_l12/{seed}")
    point = Point(_distinct(rng, 1, 0.2, 0.4)[0], _distinct(rng, 1, 0.15, 0.35)[0])
    call = _point_call("overlaps", "overlaps", 12, point, 0)
    ns = tuple(sorted(rng.sample(range(1, OVERLAP_MAX_N + 1), OVERLAP_RETURN_CYCLES)))
    return Workload("overlaps_l12", seed, 12, (call,), (), (point,), ns)


def make_workload(name: str, seed: int) -> Workload:
    generators = {"api_map": api_map, "long_series": long_series, "overlaps_l12": overlaps_l12}
    if name not in generators:
        raise ValueError(f"unknown workload {name!r}, expected one of {NAMES}")
    return generators[name](seed)
