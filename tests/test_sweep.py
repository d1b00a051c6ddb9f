
import gc
import json
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starkdtc.floquet as floquet_module
import starkdtc.sweep as sweep_module
from starkdtc import (
    ConfigError,
    SimulationParams,
    SweepAxis,
    SweepSpec,
    autocorrelator_series,
    floquet_operator,
    fourier_spectrum,
    run_sweep,
)
from starkdtc.floquet import propagator_u2
from starkdtc.hamiltonian import KERNEL_VARIANTS, build_h2_diagonal
from starkdtc.hilbert import basis_index, sigma_z_stack
from starkdtc.sweep import PropagatorFactory, _block_series, series_record

from _oracles import dense_u_f, expm_multiply_series
from test_floquet import point_pattern

BASE = SimulationParams(L=4, omega=np.pi / 2, epsilon=0.2, v=0.1, t1=1.0, t2=10.0)


def small_spec(observable="a_pi", **kwargs):
    defaults = dict(
        axes=(SweepAxis("epsilon", (0.0, 0.1, 0.2)), SweepAxis("F_T2", (0.0, 0.25))),
        base=BASE,
        observable=observable,
        n_cycles=20,
        n_max=50,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(axes=(), base=BASE, observable="a_pi")
    with pytest.raises(ValueError):
        SweepSpec(
            axes=(SweepAxis("epsilon", (0.0,)),) * 3, base=BASE, observable="a_pi"
        )
    with pytest.raises(ValueError):
        SweepSpec(
            axes=(SweepAxis("epsilon", (0.0,)), SweepAxis("epsilon", (0.1,))),
            base=BASE,
            observable="a_pi",
        )
    with pytest.raises(ValueError):
        small_spec(observable="entropy")
    with pytest.raises(ValueError):
        SweepAxis("temperature", (1.0,))
    with pytest.raises(ValueError):
        SweepAxis("epsilon", ())
    with pytest.raises(ValueError):
        small_spec(grid_cap=3)


def test_l_axis_takes_whole_site_counts_up_to_the_cap():
    # L = 2.5 used to run at L = 2, and L = 15 to pass the axis
    with pytest.raises(ValueError, match="L takes whole site counts, got 2.5"):
        SweepAxis("L", (2, 2.5))
    with pytest.raises(ValueError, match="L=15 exceeds the site cap of 14"):
        SweepAxis("L", (3, 15))
    with pytest.raises(ValueError, match="positive integer"):
        SweepAxis("L", (0,))
    assert SweepAxis("L", (2.0, 3)).values == (2.0, 3)


def test_kernel_and_initial_state_axes_check_their_values():
    # "XX" used to run and fill its rows with error markers, 1111 to run as "1111"
    with pytest.raises(ValueError, match="unknown kernel variant 'XX'"):
        SweepAxis("kernel", ("NN", "XX"))
    with pytest.raises(ValueError, match="initial_state takes bit strings, got 1111"):
        SweepAxis("initial_state", (1111, "1010"))
    assert SweepAxis("kernel", ["ALL"]).values == ("ALL",)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SimulationParams(L=True), "L must be a positive integer, got True"),
        (lambda: SweepAxis("L", (True,)), "L takes whole site counts, got True"),
        (lambda: SweepAxis("epsilon", (True,)), "epsilon takes finite numbers, got True"),
        (lambda: SweepAxis("initial_state", ("10x",)), "initial_state takes bit strings, got '10x'"),
        (lambda: small_spec("series", n_cycles=2.5), "n_cycles must be a positive integer, got 2.5"),
        (lambda: small_spec("series", n_cycles=True), "n_cycles must be a positive integer, got True"),
        (lambda: small_spec(axes=(SweepAxis("F_T2", (0.0,)),), grid_cap=2.5),
         "grid_cap must be a positive integer, got 2.5"),
        (lambda: small_spec(initial_state="10x"), "initial_state takes bit strings, got '10x'"),
        (lambda: basis_index(5, BASE.L), "initial_state takes bit strings, got 5"),
        # a long value is named by its type and length, not echoed whole
        (lambda: SimulationParams(L=2, kernel="X" * 5000),
         "unknown kernel variant str of length 5000, expected one of ('NN', 'NNN', 'NNNN', 'ALL')"),
        (lambda: small_spec("series", n_cycles="9" * 5000), "n_cycles must be a positive integer, got str of length 5000"),
        (lambda: SweepAxis("kernel", ("NN", "X" * 5000)),
         "unknown kernel variant str of length 5000, expected one of ('NN', 'NNN', 'NNNN', 'ALL')"),
        (lambda: SweepAxis("V", ("1" * 5000,)), "V takes finite numbers, got str of length 5000"),
        # an int past str()'s 4300 digits is named by its size, not converted
        (lambda: SimulationParams(L=2, v=10**5000), "v takes finite numbers, got int of 16610 bits"),
        # a numpy bool is a bool, once taken as the Python scalar it holds
        (lambda: SweepAxis("epsilon", (np.True_,)), "epsilon takes finite numbers, got True"),
    ],
    ids=["params_bool_L", "axis_bool_L", "axis_bool_epsilon", "axis_state", "fractional_n_cycles",
         "bool_n_cycles", "fractional_grid_cap", "spec_state", "int_bits", "long_kernel", "long_n_cycles",
         "long_axis_kernel", "long_rate", "huge_int_rate", "numpy_bool_epsilon"],
)
def test_run_types_refuse_bad_inputs(build, message):
    # each used to be taken (True as 1, 2.5 cycles as a traceback in the
    # evolution, "10x" as error markers in every row) or to raise TypeError;
    # the CLI side is test_cli.py::test_inputs_the_run_types_refuse_exit_2_naming_the_key
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: small_spec(base=replace(BASE, L=np.int64(3))),
        lambda: small_spec(axes=(SweepAxis("L", (np.int64(3), 4)),)),
        lambda: small_spec(axes=(SweepAxis("epsilon", (np.int64(0), 0.1)),)),
        lambda: small_spec(n_cycles=np.int64(10)),
        lambda: small_spec("lifetime", n_max=np.int64(10)),
        lambda: small_spec(grid_cap=np.int64(100)),
    ],
    ids=["params_L", "axis_L", "axis_rate", "n_cycles", "n_max", "grid_cap"],
)
def test_numpy_integers_are_stored_as_python_ints(tmp_path, build):
    # each passed its check as an np.int64 and then made the journal or the
    # CSV sidecar raise TypeError: Object of type int64 is not JSON serializable
    spec = build()
    stored = [spec.base.L, spec.n_cycles, spec.n_max, spec.grid_cap, *(v for axis in spec.axes for v in axis.values)]
    assert all(type(value) in (int, float) for value in stored)
    result = run_sweep(spec, journal_path=tmp_path / "journal.jsonl")
    result.to_csv(tmp_path / "sweep.csv")
    assert json.loads((tmp_path / "sweep.csv.meta.json").read_text())["fingerprint"] == spec.fingerprint()


def test_grid_enumeration_row_major():
    spec = small_spec()
    points = list(spec.grid_points())
    assert len(points) == 6
    assert points[0] == (0, {"epsilon": 0.0, "F_T2": 0.0})
    assert points[1] == (1, {"epsilon": 0.0, "F_T2": 0.25})
    assert points[5] == (5, {"epsilon": 0.2, "F_T2": 0.25})


def test_point_inputs_resolution():
    spec = small_spec()
    params, bits = spec.point_inputs({"epsilon": 0.1, "F_T2": 0.25})
    assert params.epsilon == 0.1
    assert params.f == pytest.approx(0.025)
    assert bits == "1111"
    spec2 = SweepSpec(
        axes=(SweepAxis("L", (2, 3)), SweepAxis("kernel", ("NN", "ALL"))),
        base=BASE,
        observable="a_pi",
    )
    params, bits = spec2.point_inputs({"L": 3, "kernel": "ALL"})
    assert params.L == 3 and params.kernel == "ALL"
    assert bits == "111"  # all-ones tracks the per-point L


def test_single_point_perfect_dtc():
    spec = SweepSpec(
        axes=(SweepAxis("epsilon", (0.0,)), SweepAxis("F_T2", (0.0,))),
        base=SimulationParams(L=3, omega=np.pi / 2, v=0.0),
        observable="a_pi",
        n_cycles=20,
    )
    result = run_sweep(spec)
    assert result.values[0]["a_pi"] == pytest.approx(1.0, abs=1e-10)
    assert result.errors == [None]


def test_sweep_matches_direct_evaluation():
    # the cached-eigensystem path must agree with fresh per-point builds
    spec = small_spec()
    result = run_sweep(spec)
    for coords, record in zip(result.coords, result.values):
        params, bits = spec.point_inputs(coords)
        prop = floquet_operator(params)
        series = autocorrelator_series(prop, bits, spec.n_cycles)
        assert record["a_pi"] == pytest.approx(fourier_spectrum(series).a_pi, abs=1e-12)


def test_sweep_point_independence():
    # removing a grid point does not change any other point's value
    full = run_sweep(small_spec())
    reduced_spec = SweepSpec(
        axes=(SweepAxis("epsilon", (0.0, 0.2)), SweepAxis("F_T2", (0.0, 0.25))),
        base=BASE,
        observable="a_pi",
        n_cycles=20,
    )
    reduced = run_sweep(reduced_spec)
    kept = {(c["epsilon"], c["F_T2"]): v["a_pi"] for c, v in zip(full.coords, full.values)}
    for coords, record in zip(reduced.coords, reduced.values):
        assert record["a_pi"] == kept[(coords["epsilon"], coords["F_T2"])]

    # three points per stage-1 key in the full grid, two after the cut
    wide = run_sweep(small_spec(axes=(SweepAxis("epsilon", (0.0, 0.1)), SweepAxis("F_T2", (0.0, 0.1, 0.25)))))
    narrow = run_sweep(small_spec(axes=(SweepAxis("epsilon", (0.0, 0.1)), SweepAxis("F_T2", (0.0, 0.25)))))
    kept = {(c["epsilon"], c["F_T2"]): v["a_pi"] for c, v in zip(wide.coords, wide.values)}
    for coords, record in zip(narrow.coords, narrow.values):
        assert record["a_pi"] == kept[(coords["epsilon"], coords["F_T2"])]


def test_sweep_journal_and_resume(tmp_path):
    spec = small_spec()
    journal = tmp_path / "journal.jsonl"
    reference = run_sweep(spec, journal_path=journal)
    ref_csv = reference.to_csv(tmp_path / "ref.csv").read_bytes()

    # truncate the journal to simulate an interrupted sweep, then resume
    lines = journal.read_text().splitlines()
    assert len(lines) == 1 + spec.grid_size()
    (tmp_path / "journal.jsonl").write_text("\n".join(lines[:4]) + "\n")
    resumed = run_sweep(spec, journal_path=journal, resume=True)
    resumed_csv = resumed.to_csv(tmp_path / "resumed.csv").read_bytes()
    assert resumed_csv == ref_csv

    lines_after = journal.read_text().splitlines()
    assert len(lines_after) == 1 + spec.grid_size()


def test_sweep_resume_after_torn_journal_line(tmp_path):
    # three points per stage-1 key, so the resumed points run as a block
    spec = small_spec(axes=(SweepAxis("epsilon", (0.0, 0.1)), SweepAxis("F_T2", (0.0, 0.1, 0.25))))
    journal = tmp_path / "journal.jsonl"
    fresh = run_sweep(spec, journal_path=journal).to_csv(tmp_path / "fresh.csv").read_bytes()

    blob = journal.read_bytes()
    journal.write_bytes(blob[:-20])  # an interruption in the middle of the last write
    resumed = run_sweep(spec, journal_path=journal, resume=True)
    assert resumed.to_csv(tmp_path / "resumed.csv").read_bytes() == fresh
    lines = journal.read_text().splitlines()
    assert len(lines) == 1 + spec.grid_size()
    assert sorted(json.loads(line)["index"] for line in lines[1:]) == list(range(spec.grid_size()))


def test_sweep_resume_rejects_corrupt_inner_journal_line(tmp_path):
    journal = tmp_path / "journal.jsonl"
    run_sweep(small_spec(), journal_path=journal)
    lines = journal.read_text().splitlines()
    lines[2] = lines[2][:-20]
    journal.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="line 3"):
        run_sweep(small_spec(), journal_path=journal, resume=True)


def test_sweep_resume_rejects_mismatched_spec(tmp_path):
    journal = tmp_path / "journal.jsonl"
    run_sweep(small_spec(), journal_path=journal)
    other = small_spec(n_cycles=30)
    with pytest.raises(ConfigError):
        run_sweep(other, journal_path=journal, resume=True)


def test_sweep_spec_refuses_a_state_that_misfits_an_l_value():
    # such a state used to mark its L = 3 point with a ValueError row and the
    # sweep to exit 0; the spec now checks each state against every L value
    def spec(state, states=None):
        axes = (SweepAxis("L", (3, 4)),) + (() if states is None else (SweepAxis("initial_state", states),))
        return SweepSpec(axes=axes, base=BASE, observable="a_pi", n_cycles=10, initial_state=state)

    with pytest.raises(ValueError, match=r"^initial_state takes length-3 bit strings, got '1111'$"):
        spec("1111")
    with pytest.raises(ValueError, match=r"^initial_state takes length-4 bit strings, got '111'$"):
        spec("all_ones", ("all_ones", "111"))
    assert spec("all_ones", ("all_ones",)).site_counts() == [3, 4]
    assert small_spec().site_counts() == [BASE.L]


def test_lifetime_observable_record():
    spec = SweepSpec(
        axes=(SweepAxis("F_T2", (0.0,)),),
        base=SimulationParams(L=1, omega=np.pi / 2, epsilon=0.05),
        observable="lifetime",
        n_max=200,
    )
    result = run_sweep(spec)
    record = result.values[0]
    assert record["first_reversal"] == 16
    assert record["n_max"] == 200


def test_series_and_overlap_observables_roundtrip(tmp_path):
    for observable in ("series", "spectrum", "overlaps"):
        spec = SweepSpec(
            axes=(SweepAxis("F_T2", (0.0, 0.25)),),
            base=SimulationParams(L=3, omega=np.pi / 2, epsilon=0.2, v=0.1),
            observable=observable,
            n_cycles=10,
        )
        result = run_sweep(spec, journal_path=tmp_path / f"{observable}.jsonl")
        fresh = result.to_csv(tmp_path / f"{observable}_fresh.csv").read_bytes()
        resumed = run_sweep(spec, journal_path=tmp_path / f"{observable}.jsonl", resume=True)
        again = resumed.to_csv(tmp_path / f"{observable}_resumed.csv").read_bytes()
        assert fresh == again


def counting_stage1(monkeypatch):
    """Epsilon of every stage-1 build the sweep module makes, in call order."""
    built = []

    def stage1_unitary(params):
        built.append(params.epsilon)
        return real_stage1(params)

    real_stage1 = sweep_module.stage1_unitary
    monkeypatch.setattr(sweep_module, "stage1_unitary", stage1_unitary)
    return built


def test_propagator_factory_cache_reuse(monkeypatch):
    built = counting_stage1(monkeypatch)
    factory = PropagatorFactory()
    p1 = BASE.with_f_t2(0.1)
    p2 = BASE.with_f_t2(0.3)
    prop1 = factory.get(p1)
    prop2 = factory.get(p2)
    # stage-1 data shared, diagonal stage rebuilt
    assert prop1.u1 is prop2.u1
    assert not np.array_equal(prop1.phase2, prop2.phase2)
    direct = floquet_operator(p2)
    assert np.max(np.abs(dense_u_f(prop2) - dense_u_f(direct))) < 1e-12
    # only the last key is kept: A, B, A builds three times
    other = replace(BASE, epsilon=0.3)
    factory.stage1(other)
    assert factory.stage1(p1) is not prop1.u1
    assert built == [BASE.epsilon, other.epsilon, BASE.epsilon]


def test_propagators_of_one_key_assemble_u1_once(monkeypatch):
    # U1 keeps its blocks, so two propagators of one key share one assembly
    # across two series; each series used to assemble its own
    assembled = []
    assemble = floquet_module.u1_from_eigensystem

    def counted(theta, vecs):
        assembled.append(vecs.shape[0])
        return assemble(theta, vecs)

    monkeypatch.setattr(floquet_module, "u1_from_eigensystem", counted)
    factory = PropagatorFactory()
    for f_t2 in (0.1, 0.3):
        autocorrelator_series(factory.get(BASE.with_f_t2(f_t2)), "1" * BASE.L, 10)
    assert assembled == [10, 6]  # one even and one odd block at L=4


def test_a_sweep_frees_each_keys_u1_without_the_cyclic_gc(monkeypatch):
    # U1 and the blocks it keeps form no reference cycle, so reference
    # counting frees a key's U1 as soon as the factory lets it go, before
    # the next key's is built; a cycle would leave every key's U1 and blocks
    # to the cyclic collector, and a sweep's peak would grow with its keys
    built = []
    stage1 = sweep_module.stage1_unitary

    def tracked(params):
        assert all(ref() is None for ref in built), "an earlier key's U1 is alive"
        u1 = stage1(params)
        built.append(weakref.ref(u1))
        return u1

    monkeypatch.setattr(sweep_module, "stage1_unitary", tracked)
    gc.disable()
    try:
        result = run_sweep(small_spec())
        assert all(ref() is None for ref in built)
    finally:
        gc.enable()
    assert len(built) == 3 and result.errors == [None] * 6


@pytest.mark.parametrize("observable", ["a_pi", "overlaps"])
def test_key_alternating_grid_builds_each_key_once(monkeypatch, observable):
    eps, f_t2 = (0.0, 0.1, 0.2), (0.0, 0.1, 0.25)
    rows = run_sweep(small_spec(observable, axes=(SweepAxis("epsilon", eps), SweepAxis("F_T2", f_t2))))
    built = counting_stage1(monkeypatch)
    # epsilon on the inner axis: consecutive points alternate stage-1 keys
    spec = small_spec(observable, axes=(SweepAxis("F_T2", f_t2), SweepAxis("epsilon", eps)))
    alternating = run_sweep(spec)
    assert sorted(built) == list(eps)
    by_coords = {(c["epsilon"], c["F_T2"]): v for c, v in zip(rows.coords, rows.values)}
    assert all(error is None for error in alternating.errors)
    for coords, value in zip(alternating.coords, alternating.values):
        assert value == by_coords[coords["epsilon"], coords["F_T2"]]


def kernel_grid(base, f_grid, n_cycles):
    """A_pi of every interaction kernel against F*T2, as fig3d runs it."""
    axes = (SweepAxis("kernel", KERNEL_VARIANTS), SweepAxis("F_T2", f_grid))
    return run_sweep(SweepSpec(axes=axes, base=base, observable="a_pi", n_cycles=n_cycles))


def test_kernel_comparison_coincides_at_zero_v():
    base = SimulationParams(L=4, omega=np.pi / 2, epsilon=0.2, v=0.0)
    result = kernel_grid(base, (0.0, 0.2), n_cycles=20)
    by_kernel = {}
    for coords, record in zip(result.coords, result.values):
        by_kernel.setdefault(coords["F_T2"], []).append(record["a_pi"])
    for values in by_kernel.values():
        assert len(set(values)) == 1  # bitwise identical when interaction is off


def test_kernel_comparison_emits_kernel_column():
    base = SimulationParams(L=3, omega=np.pi / 2, epsilon=0.1, v=0.1)
    result = kernel_grid(base, (0.0,), n_cycles=10)
    header, rows = result.rows()
    assert header[0] == "kernel"
    assert {row[0] for row in rows} == {"NN", "NNN", "NNNN", "ALL"}


def state_grid(base, states, f_values, n_cycles, observable="series"):
    """C(nT) (or another observable) per (initial state, F*T2), as fig5 runs it."""
    axes = (SweepAxis("initial_state", states), SweepAxis("F_T2", f_values))
    return run_sweep(SweepSpec(axes=axes, base=base, observable=observable, n_cycles=n_cycles))


def test_initial_state_comparison_single_site_symmetry():
    # sigma^x symmetry: |0> and |1> give identical a_pi for a single site
    base = SimulationParams(L=1, omega=np.pi / 2, epsilon=0.1)
    api = [rec["a_pi"] for rec in state_grid(base, ("0", "1"), (0.0,), 20, "a_pi").values]
    assert api[0] == pytest.approx(api[1], abs=1e-12)


def test_initial_state_comparison_tables_keyed_by_state():
    base = SimulationParams(L=4, omega=np.pi / 2, epsilon=0.2, v=0.1)
    series = state_grid(base, ("1111", "1010"), (0.0, 0.4), 10)
    spectra = state_grid(base, ("1111", "1010"), (0.0, 0.4), 10, "spectrum")
    assert len(series.values) == len(spectra.values) == 4
    assert {c["initial_state"] for c in series.coords} == {"1111", "1010"}
    # a spectrum read off an evolved series equals the spectrum sweep's record
    for series_rec, spectra_rec in zip(series.values, spectra.values):
        assert series_record("spectrum", np.asarray(series_rec["c"])) == spectra_rec
    # with L not swept, a state of the wrong length is refused before any
    # point runs; with an L axis it fails its own points only
    # (test_sweep_error_markers_stay_local)
    with pytest.raises(ValueError, match="^initial_state takes length-4 bit strings, got '111'$"):
        state_grid(base, ("111",), (0.0,), 10)


@settings(max_examples=40, deadline=None)
@given(
    L=st.integers(2, 6),
    epsilon=st.floats(0.0, 0.5),
    width=st.integers(1, 9),
    data=st.data(),
)
def test_block_column_bits_independent_of_block(L, epsilon, width, data):
    # a point's C(n) is bitwise the same alone and at any position of any block
    position = data.draw(st.integers(0, width - 1))
    f_values = data.draw(st.lists(st.floats(0.0, 0.5), min_size=width, max_size=width))
    starts = data.draw(st.lists(st.integers(0, (1 << L) - 1), min_size=width, max_size=width))
    base = SimulationParams(L=L, omega=np.pi / 2, epsilon=epsilon, v=0.1)
    u1 = PropagatorFactory().stage1(base).assemble()
    sz = sigma_z_stack(base.basis)
    columns = [(base.with_f_t2(f), start) for f, start in zip(f_values, starts)]
    block, errors = _block_series(u1, columns, sz, 30)
    alone, alone_errors = _block_series(u1, [columns[position]], sz, 30)
    assert errors == [None] * width and alone_errors == [None]
    assert np.array_equal(block[:, position], alone[:, 0])


def test_sweep_failure_stays_in_its_column(monkeypatch):
    spec = small_spec(axes=(SweepAxis("F_T2", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)),))
    clean = run_sweep(spec)
    bad_index = 2
    bad_h2 = build_h2_diagonal(spec.point_inputs({"F_T2": 0.2})[0])

    def skewed_phase(h2, t2):
        phase = propagator_u2(h2, t2)
        return phase * 1.001 if np.array_equal(h2, bad_h2) else phase

    monkeypatch.setattr(sweep_module, "propagator_u2", skewed_phase)
    broken = run_sweep(spec)
    assert broken.values[bad_index] is None
    assert broken.errors[bad_index].startswith("NumericError: state norm drifted")
    for index in range(spec.grid_size()):
        if index != bad_index:
            assert broken.errors[index] is None
            assert broken.values[index] == clean.values[index]


def test_sweep_failure_marker_names_point_and_tolerance(monkeypatch):
    spec = small_spec(axes=(SweepAxis("F_T2", (0.0, 0.2)),))
    bad_params = spec.point_inputs({"F_T2": 0.2})[0]
    bad_h2 = build_h2_diagonal(bad_params)

    def skewed_phase(h2, t2):
        phase = propagator_u2(h2, t2)
        return phase * 1.001 if np.array_equal(h2, bad_h2) else phase

    monkeypatch.setattr(sweep_module, "propagator_u2", skewed_phase)
    broken = run_sweep(spec)
    assert broken.errors[0] is None
    assert re.search(r"tolerance 1e-08\) for \(" + point_pattern(bad_params), broken.errors[1])


def test_grouped_sweep_matches_expm_multiply_oracle_at_l10():
    base = SimulationParams(L=10, omega=np.pi / 2, epsilon=0.3, v=0.1, t1=1.0, t2=10.0)
    spec = SweepSpec(
        axes=(SweepAxis("F_T2", (0.0, 0.2, 0.4)),), base=base, observable="series", n_cycles=40
    )
    result = run_sweep(spec)
    for coords, record, error in zip(result.coords, result.values, result.errors):
        assert error is None
        params, bits = spec.point_inputs(coords)
        reference = expm_multiply_series(
            params.L, params.omega, params.epsilon, params.v, params.f,
            params.t1, params.t2, bits, spec.n_cycles, params.kernel,
        )
        assert np.max(np.abs(np.asarray(record["c"]) - reference)) < 1e-9


def test_grouped_sweep_and_fast_point_match_expm_multiply_oracle_at_l12():
    base = SimulationParams(L=12, omega=np.pi / 2, epsilon=0.3, v=0.1, t1=1.0, t2=10.0)
    spec = SweepSpec(
        axes=(SweepAxis("F_T2", (0.0, 0.2, 0.4)),), base=base, observable="series", n_cycles=20
    )
    result = run_sweep(spec)

    def oracle(params, bits):
        return expm_multiply_series(
            params.L, params.omega, params.epsilon, params.v, params.f,
            params.t1, params.t2, bits, spec.n_cycles, params.kernel,
        )

    for coords, record, error in zip(result.coords, result.values, result.errors):
        assert error is None
        params, bits = spec.point_inputs(coords)
        assert np.max(np.abs(np.asarray(record["c"]) - oracle(params, bits))) < 1e-9
    # the single-point path of a z-product state
    params, bits = base.with_f_t2(0.2), "110100111001"
    series = autocorrelator_series(floquet_operator(params), bits, spec.n_cycles)
    assert np.max(np.abs(series.values - oracle(params, bits))) < 1e-9


@pytest.mark.parametrize(
    "observable, counts",
    [("a_pi", {"n_cycles": 101}), ("spectrum", {"n_cycles": 7}), ("lifetime", {"n_max": 1})],
)
def test_sweep_spec_rejects_unusable_cycle_counts(observable, counts):
    with pytest.raises(ValueError):
        small_spec(observable, **counts)
    # a series takes any count, and the other observable's count is not checked
    small_spec("series", n_cycles=101, n_max=1)
