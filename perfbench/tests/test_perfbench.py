"""Tests of the benchmark's own parts: run with `python3 -m pytest perfbench/tests`."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def _texts(workload):
    return [call.config_text().encode() for call in workload.calls + workload.check_calls]


@pytest.mark.parametrize("name", wl.NAMES)
def test_one_seed_gives_byte_identical_configs(name):
    first, second = wl.make_workload(name, 7), wl.make_workload(name, 7)
    assert _texts(first) == _texts(second)
    assert (first.samples, first.return_ns) == (second.samples, second.return_ns)


@pytest.mark.parametrize("name", wl.NAMES)
def test_two_seeds_change_points_but_not_work(name):
    first, second = wl.make_workload(name, 1), wl.make_workload(name, 2)
    points = lambda w: [p for call in w.calls for p in call.points]  # noqa: E731
    assert points(first) != points(second)
    assert first.counts() == second.counts()
    assert all("seed" not in text.decode() for text in _texts(first))


def test_work_counts_match_the_workload_definitions():
    assert wl.make_workload("api_map", 3).counts() == {
        "L": 10, "points": 26, "stage1_keys": 1, "cycles": 2600, "threads": (2,),
    }
    assert wl.make_workload("long_series", 3).counts() == {
        "L": 10, "points": 7, "stage1_keys": 2, "cycles": 35000, "threads": (1, 1),
    }
    assert wl.make_workload("overlaps_l12", 3).counts() == {
        "L": 12, "points": 1, "stage1_keys": 1, "cycles": 0, "threads": (1,),
    }


@pytest.mark.parametrize("cycles", [40, reference.DENSE_STAGE1_CYCLES + 2])
def test_reference_series_matches_dense_exponentials(cycles):
    model = reference.Model(4, wl.Point(0.3, 0.25))
    h1 = 1j * model.a1.toarray() / wl.T1
    u_f = model.phase2[:, None] * scipy.linalg.expm(-1j * wl.T1 * h1)
    psi, expected = model.psi0, [1.0]
    for _ in range(cycles):
        psi = u_f @ psi
        expected.append(float((np.abs(psi) ** 2) @ model.z_total / model.L))
    assert np.max(np.abs(model.series(cycles) - expected)) < 1e-11


def test_reversal_follows_the_parity_definition():
    values = np.array([1.0, -0.9, 0.8, -0.7, 0.6, 0.2, -0.3, 0.5, 0.1])
    first, n_c, depth, _ = reference.reversal(values)
    assert (first, n_c, depth) == (5, 7, 0.5)
    assert reference.reversal(np.array([1.0, -1.0, 1.0, -1.0]))[:3] == (None, None, None)


def test_missing_binding_is_absent_not_fatal(monkeypatch):
    monkeypatch.setattr(
        tracer, "TARGETS", (("floquet.overlaps", "starkdtc.cli", "no_such_function"),)
    )
    spy = tracer.Tracer()
    spy.install()
    assert spy.absent == ["starkdtc.cli.no_such_function"]
    metrics = tracer.layer_metrics([], 1.0, spy.absent, stream_gbps=10.0)
    assert metrics["floquet.overlaps.s"] == (None, "s")
    assert metrics["floquet.quasi_spectrum.s"] == (0, "s")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 1, "name": "sweep.run_sweep", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "name": "floquet.apply", "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "name": "floquet.apply", "parent": 1, "start": 3.0, "end": 6.0},
    ]
    index = tracer.SpanIndex(spans)
    assert index.self_s("sweep.run_sweep") == pytest.approx(5.0)
    assert index.total_s("floquet.apply") == pytest.approx(6.0)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(wl.NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    layers = {name: unit for name, (unit, _) in tracer.LAYER_METRICS.items()} | run.EXTRA_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers
