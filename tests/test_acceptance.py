"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Quantitative criteria run
the exact parameter sets of the bundled figure datasets (fig2..fig5);
property criteria use seeded randomness and independent oracles from
_oracles.py.
"""

import time

import numpy as np
import pytest

from starkdtc import (
    SimulationParams,
    SweepAxis,
    SweepSpec,
    autocorrelator_series,
    find_pi_pair,
    floquet_operator,
    fourier_spectrum,
    lifetime,
    overlaps,
    run_sweep,
)
from starkdtc.hamiltonian import KERNEL_VARIANTS
from starkdtc.hilbert import occupations
from starkdtc.sweep import PropagatorFactory
from _oracles import coevolution_series, dense_u_f, product_vector, trotter_floquet

PI = np.pi


@pytest.fixture(scope="module")
def factory():
    return PropagatorFactory()


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion}: {detail}"


# 1. Perfect-DTC baseline ----------------------------------------------------

def test_criterion_1_perfect_dtc_baseline(factory):
    # property holds at any L; timed here at L up to 8 where a dense
    # eigendecomposition fits the stated 1 s budget
    worst_c = 0.0
    worst_api = 0.0
    elapsed = 0.0
    for L in (1, 2, 4, 8):
        params = SimulationParams(L=L, omega=PI / 2, epsilon=0.0, v=0.0, f=0.0)
        start = time.perf_counter()
        prop = factory.get(params)
        series = autocorrelator_series(prop, "1" * L, 100)
        a_pi = fourier_spectrum(series).a_pi
        elapsed = max(elapsed, time.perf_counter() - start)
        worst_c = max(worst_c, np.max(np.abs(series.values - (-1.0) ** np.arange(101))))
        worst_api = max(worst_api, abs(a_pi - 1.0))
    ok = worst_c < 1e-10 and worst_api < 1e-10 and elapsed < 1.0
    report(
        "criterion 1 (perfect-DTC baseline)",
        ok,
        f"max|C-(-1)^n|={worst_c:.1e}, |A_pi-1|={worst_api:.1e}, slowest L took {elapsed:.2f}s",
    )


# 2. fig2 subharmonic contrast ----------------------------------------------

FIG2_BASE = SimulationParams(L=12, omega=PI / 2, epsilon=0.3, v=0.1, t1=1.0, t2=10.0)


def _fig2_a_pi(factory, f_t2):
    params = FIG2_BASE.with_f_t2(f_t2)
    prop = factory.get(params)
    series = autocorrelator_series(prop, "1" * 12, 100)
    return fourier_spectrum(series).a_pi


def test_criterion_2_fig2_subharmonic_contrast(factory):
    start = time.perf_counter()
    a_off = _fig2_a_pi(factory, 0.0)
    t_first = time.perf_counter() - start
    start = time.perf_counter()
    a_on = _fig2_a_pi(factory, 0.25)
    t_second = time.perf_counter() - start
    per_point = max(t_first, t_second)
    ok = a_off < 0.1 and a_on > 0.4 and a_on > 5 * a_off and per_point < 30.0
    report(
        "criterion 2 (fig2 A_pi contrast)",
        ok,
        f"A_pi(FT2=0)={a_off:.4f} (<0.1), A_pi(0.25)={a_on:.4f} (>0.4), "
        f"ratio={a_on / a_off:.1f} (>5), slowest point {per_point:.1f}s (<30s)",
    )


# 3. pi-pair in the quasi-spectrum --------------------------------------------

def _dominant_pi_pair(factory, f_t2):
    params = FIG2_BASE.with_f_t2(f_t2)
    prop = factory.get(params)
    table = overlaps(prop.spectrum(), "1" * 12)
    pair = find_pi_pair(table)
    if pair is None:
        return None, None
    outside = np.delete(table.overlaps, [pair.index_a, pair.index_b])
    return pair, float(outside.max())


def test_criterion_3_pi_pair(factory):
    start = time.perf_counter()
    pair_on, best_other_on = _dominant_pi_pair(factory, 0.25)
    pair_off, best_other_off = _dominant_pi_pair(factory, 0.0)
    elapsed = time.perf_counter() - start
    found = (
        pair_on is not None
        and abs(pair_on.gap - PI) <= 0.05
        and pair_on.combined_overlap > best_other_on
    )
    absent = pair_off is None or pair_off.combined_overlap <= best_other_off
    ok = found and absent and elapsed < 120.0
    gap_txt = f"{pair_on.gap:.5f}" if pair_on else "n/a"
    mass_txt = f"{pair_on.combined_overlap:.3f}" if pair_on else "n/a"
    report(
        "criterion 3 (pi-pair)",
        ok,
        f"FT2=0.25: gap={gap_txt} (|gap-pi|<=0.05), mass={mass_txt} > best other "
        f"{best_other_on if best_other_on is not None else float('nan'):.3f}; "
        f"FT2=0: dominant pair {'absent' if absent else 'present'}; {elapsed:.0f}s (<120s)",
    )


# 4. Lifetime at the fig4a reference point ------------------------------------------

FIG4_BASE = SimulationParams(L=10, omega=PI / 2, epsilon=0.25, v=0.1, t1=1.0, t2=10.0)


def test_criterion_4_lifetime_value(factory):
    start = time.perf_counter()
    params = FIG4_BASE.with_f_t2(0.25)
    prop = factory.get(params)
    result = lifetime(prop, "1" * 10, 5000)
    elapsed = time.perf_counter() - start
    ok = result.observed and abs(result.n_c - 3042) <= 152 and elapsed < 60.0
    report(
        "criterion 4 (lifetime N_c)",
        ok,
        f"N_c={result.n_c} vs 3042 +/- 152 (first flip at {result.first_reversal}, "
        f"reversal depth {result.reversal_depth:.3f}); {elapsed:.0f}s (<60s)",
    )


# 5. Lifetime monotonicity in the Stark strength -------------------------------

def test_criterion_5_lifetime_monotonicity():
    start = time.perf_counter()
    spec = SweepSpec(
        axes=(SweepAxis("epsilon", (0.20, 0.25, 0.30)), SweepAxis("F_T2", (0.1, 0.2, 0.3, 0.4))),
        base=FIG4_BASE,
        observable="lifetime",
        n_max=5000,
    )
    result = run_sweep(spec)
    curves = {}
    for coords, record in zip(result.coords, result.values):
        value = record["n_c"]
        curves.setdefault(coords["epsilon"], []).append(
            np.inf if value == "not_observed" else value
        )
    violations = {
        eps: sum(1 for a, b in zip(curve, curve[1:]) if b < a) for eps, curve in curves.items()
    }
    elapsed = time.perf_counter() - start
    ok = all(v <= 1 for v in violations.values()) and elapsed < 1200.0
    detail = "; ".join(
        f"eps={eps}: N_c={['inf' if not np.isfinite(v) else int(v) for v in curve]}"
        f" ({violations[eps]} violation(s))"
        for eps, curve in sorted(curves.items())
    )
    report("criterion 5 (lifetime monotonicity)", ok, f"{detail}; {elapsed:.0f}s (<1200s)")


# 6. Kernel insensitivity -------------------------------------------------------

def test_criterion_6_kernel_insensitivity():
    start = time.perf_counter()
    base = SimulationParams(L=10, omega=PI / 2, epsilon=0.3, v=0.1, t1=1.0, t2=10.0)
    f_grid = tuple(round(0.05 * k, 10) for k in range(11))
    spec = SweepSpec(
        axes=(SweepAxis("kernel", KERNEL_VARIANTS), SweepAxis("F_T2", f_grid)),
        base=base,
        observable="a_pi",
        n_cycles=100,
    )
    result = run_sweep(spec)
    a_pi = {}
    for coords, record in zip(result.coords, result.values):
        a_pi[(coords["kernel"], coords["F_T2"])] = record["a_pi"]
    d_nn = max(abs(a_pi[("ALL", f)] - a_pi[("NN", f)]) for f in f_grid)
    d_nnnn = max(abs(a_pi[("ALL", f)] - a_pi[("NNNN", f)]) for f in f_grid)
    elapsed = time.perf_counter() - start
    ok = d_nn < 0.05 and d_nnnn < 1e-3 and elapsed < 600.0
    report(
        "criterion 6 (kernel insensitivity)",
        ok,
        f"max|A_pi(ALL)-A_pi(NN)|={d_nn:.4f} (<0.05), "
        f"max|A_pi(ALL)-A_pi(NNNN)|={d_nnnn:.2e} (<1e-3); {elapsed:.0f}s (<600s)",
    )


# 7. Initial-state independence -------------------------------------------------

def test_criterion_7_initial_state_independence():
    start = time.perf_counter()
    spec = SweepSpec(
        axes=(SweepAxis("initial_state", ("1111000000", "1111010010")), SweepAxis("F_T2", (0.0, 0.4))),
        base=FIG4_BASE,
        observable="a_pi",
        n_cycles=100,
    )
    result = run_sweep(spec)
    a_pi = {}
    for coords, record in zip(result.coords, result.values):
        a_pi[(coords["initial_state"], coords["F_T2"])] = record["a_pi"]
    ratios = {
        state: a_pi[(state, 0.4)] / a_pi[(state, 0.0)]
        for state in ("1111000000", "1111010010")
    }
    elapsed = time.perf_counter() - start
    ok = all(r > 3.0 for r in ratios.values()) and elapsed < 60.0
    detail = "; ".join(
        f"{state}: A_pi(0.4)/A_pi(0)={ratio:.1f} (>3)" for state, ratio in ratios.items()
    )
    report("criterion 7 (initial-state independence)", ok, f"{detail}; {elapsed:.0f}s (<60s)")


# 8. Trotter oracle equivalence ---------------------------------------------------

def test_criterion_8_trotter_oracle(factory):
    rng = np.random.default_rng(2024)
    worst_trotter = 0.0
    worst_unitarity = 0.0
    for _ in range(20):
        params = SimulationParams(
            L=int(rng.integers(2, 7)),
            omega=float(rng.uniform(0.5, 2.5)),
            epsilon=float(rng.uniform(-0.5, 0.5)),
            v=float(rng.uniform(0.0, 0.3)),
            f=float(rng.uniform(0.0, 0.06)),
            t1=1.0,
            t2=10.0,
            kernel=str(rng.choice(["NN", "NNN", "NNNN", "ALL"])),
        )
        u_f = dense_u_f(floquet_operator(params))
        gram = u_f.conj().T @ u_f
        worst_unitarity = max(
            worst_unitarity, float(np.max(np.abs(gram - np.eye(params.dimension))))
        )
        u_ref = trotter_floquet(
            params.L, params.omega, params.epsilon, params.v, params.f,
            params.t1, params.t2, params.kernel,
        )
        worst_trotter = max(worst_trotter, float(np.max(np.abs(u_f - u_ref))))
    ok = worst_trotter < 1e-6 and worst_unitarity < 1e-10
    report(
        "criterion 8 (Trotter oracle equivalence)",
        ok,
        f"max elementwise |U_F - U_trotter|={worst_trotter:.2e} (<1e-6), "
        f"max unitarity deviation={worst_unitarity:.2e} (<1e-10) over 20 parameter sets",
    )


# 9. Stark-echo invariant ----------------------------------------------------------

def test_criterion_9_stark_echo(factory):
    worst = 0.0
    for L in (2, 6, 10):
        for f_t2 in (0.1, 0.25, 0.5):  # F in {0.01, 0.025, 0.05} with T2 = 10
            params = SimulationParams(L=L, omega=PI / 2, epsilon=0.0, v=0.0).with_f_t2(f_t2)
            prop = factory.get(params)
            sz = 2.0 * occupations(params.L) - 1.0
            psi = product_vector("10" * (L // 2) + "1" * (L % 2))
            reference = sz @ np.abs(psi) ** 2
            for _ in range(4):  # every 2 periods, checked over 8 periods
                psi = prop.apply(prop.apply(psi))
                worst = max(worst, float(np.max(np.abs(sz @ np.abs(psi) ** 2 - reference))))
    ok = worst < 1e-10
    report(
        "criterion 9 (Stark-echo invariant)",
        ok,
        f"max per-site deviation of <sigma_z> after even periods = {worst:.2e} (<1e-10) "
        f"for F in {{0.01, 0.025, 0.05}}, L up to 10",
    )


# 10. Autocorrelator path equivalence ------------------------------------------------

def test_criterion_10_path_equivalence(factory):
    rng = np.random.default_rng(77)
    params = SimulationParams(L=8, omega=PI / 2, epsilon=0.25, v=0.1, f=0.025)
    prop = factory.get(params)
    worst = 0.0
    for _ in range(10):
        bits = "".join(rng.choice(["0", "1"], size=8))
        fast = autocorrelator_series(prop, bits, 50)
        general = coevolution_series(prop, product_vector(bits), 50)
        worst = max(worst, float(np.max(np.abs(fast.values - general))))
    ok = worst < 1e-10
    report(
        "criterion 10 (path equivalence)",
        ok,
        f"max |C_fast - C_general| = {worst:.2e} (<1e-10) over 10 random product states",
    )
