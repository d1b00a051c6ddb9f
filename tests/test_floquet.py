import json
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from starkdtc import (
    NumericError,
    OverlapTable,
    ResourceLimitError,
    SimulationParams,
    StateVector,
    build_h1,
    build_h2_diagonal,
    find_pi_pair,
    floquet_operator,
    overlaps,
    propagator_u2,
    quasi_spectrum,
    z_product_state,
)
import starkdtc.floquet as floquet
from starkdtc.cli import main
from starkdtc.floquet import circular_gap, unitarity_deviation
from starkdtc.sweep import PropagatorFactory
from _oracles import trotter_floquet


def random_params(rng, l_max=6):
    return SimulationParams(
        L=int(rng.integers(2, l_max + 1)),
        omega=float(rng.uniform(0.5, 2.5)),
        epsilon=float(rng.uniform(-0.5, 0.5)),
        v=float(rng.uniform(0.0, 0.3)),
        f=float(rng.uniform(0.0, 0.06)),
        t1=1.0,
        t2=10.0,
        kernel=str(rng.choice(["NN", "NNN", "NNNN", "ALL"])),
    )


def test_propagator_u2():
    assert np.allclose(propagator_u2(np.zeros(4), 3.0), np.ones(4), atol=1e-15)
    phases = propagator_u2(np.array([0.0, 0.025, 0.05, 0.175]), 10.0)
    assert phases[3] == pytest.approx(np.exp(-1.75j), abs=1e-14)
    assert np.max(np.abs(np.abs(phases) - 1.0)) < 1e-14
    with pytest.raises(ValueError):
        propagator_u2(np.array([1j, 0.0]), 1.0)


def test_floquet_operator_single_site_examples():
    p = SimulationParams(L=1, omega=np.pi / 2, epsilon=0.0, v=0.0, f=0.0)
    assert np.allclose(floquet_operator(p).u_f, [[0, -1j], [-1j, 0]], atol=1e-14)

    p = SimulationParams(L=1, omega=np.pi / 2, f=0.1, t2=10.0)
    expected = np.array([[0, -1j], [-1j * np.exp(-1j), 0]])
    assert np.allclose(floquet_operator(p).u_f, expected, atol=1e-14)


def test_floquet_operator_diagonal_when_drive_off():
    p = SimulationParams(L=3, omega=1.1, epsilon=-1.1, v=0.2, f=0.05)
    u_f = floquet_operator(p).u_f
    off = u_f - np.diag(np.diag(u_f))
    assert np.max(np.abs(off)) < 1e-12


def test_unitarity_of_random_propagators():
    rng = np.random.default_rng(7)
    for _ in range(10):
        prop = floquet_operator(random_params(rng))
        gram = prop.u_f.conj().T @ prop.u_f
        assert np.max(np.abs(gram - np.eye(prop.dimension))) < 1e-10


def test_trotter_oracle_agreement():
    # independent second-order product formula, dt = T / 1e5
    rng = np.random.default_rng(42)
    for _ in range(5):
        p = random_params(rng, l_max=5)
        u_ref = trotter_floquet(p.L, p.omega, p.epsilon, p.v, p.f, p.t1, p.t2, p.kernel)
        u_pkg = floquet_operator(p).u_f
        assert np.max(np.abs(u_pkg - u_ref)) < 1e-6


def test_composition_consistency():
    # applying U1 then U2 stagewise agrees with the dense U_F
    rng = np.random.default_rng(9)
    p = SimulationParams(L=6, omega=np.pi / 2, epsilon=0.21, v=0.1, f=0.02)
    prop = floquet_operator(p)
    u1 = scipy.linalg.expm(-1j * p.t1 * build_h1(p))
    phase2 = propagator_u2(build_h2_diagonal(p), p.t2)
    for _ in range(50):
        psi = rng.normal(size=64) + 1j * rng.normal(size=64)
        psi /= np.linalg.norm(psi)
        assert np.max(np.abs(prop.u_f @ psi - phase2 * (u1 @ psi))) < 1e-10


def test_stark_echo_two_periods():
    # with exact flips the Stark phase echoes out: U_F^2 is a global phase
    basis_sizes = (2, 5, 8)
    rng = np.random.default_rng(13)
    for L in basis_sizes:
        for f_t2 in (0.01, 0.025, 0.05):
            p = SimulationParams(L=L, omega=np.pi / 2, epsilon=0.0, v=0.0).with_f_t2(f_t2)
            prop = floquet_operator(p)
            sz = 2.0 * p.basis.occupations() - 1.0
            states = [z_product_state("1" * L, p.basis).amplitudes]
            psi = rng.normal(size=p.dimension) + 1j * rng.normal(size=p.dimension)
            states.append(psi / np.linalg.norm(psi))
            for psi0 in states:
                psi2 = prop.apply(prop.apply(psi0))
                before = sz @ np.abs(psi0) ** 2
                after = sz @ np.abs(psi2) ** 2
                assert np.max(np.abs(after - before)) < 1e-10


def test_quasi_spectrum_identity_and_pi_gap():
    p_id = SimulationParams(L=1, omega=0.0)
    spec = quasi_spectrum(floquet_operator(p_id))
    assert np.allclose(spec.quasi_energies, [0.0, 0.0], atol=1e-12)

    p = SimulationParams(L=1, omega=np.pi / 2)
    spec = quasi_spectrum(floquet_operator(p))
    assert np.allclose(np.sort(spec.quasi_energies), [-np.pi / 2, np.pi / 2], atol=1e-12)
    assert spec.quasi_energies[1] - spec.quasi_energies[0] == pytest.approx(np.pi, abs=1e-12)


def test_quasi_spectrum_folding_and_moduli():
    rng = np.random.default_rng(17)
    for _ in range(8):
        prop = floquet_operator(random_params(rng))
        spec = quasi_spectrum(prop)
        assert (spec.quasi_energies > -np.pi).all()
        assert (spec.quasi_energies <= np.pi).all()
        assert np.max(np.abs(np.abs(spec.eigenvalues()) - 1.0)) < 1e-10
        # residual and orthonormality
        resid = prop.u_f @ spec.eigenstates - spec.eigenstates * spec.eigenvalues()
        assert np.max(np.linalg.norm(resid, axis=0)) < 1e-8
        gram = spec.eigenstates.conj().T @ spec.eigenstates
        assert np.max(np.abs(gram - np.eye(prop.dimension))) < 1e-8


def test_quasi_spectrum_against_schur_oracle():
    # same eigenvalue multiset as an independent Schur decomposition
    rng = np.random.default_rng(23)
    for _ in range(6):
        prop = floquet_operator(random_params(rng))
        spec = quasi_spectrum(prop)
        t_mat, _ = scipy.linalg.schur(prop.u_f, output="complex")
        ref = np.sort(np.angle(np.diag(t_mat)))
        got = np.sort(np.angle(np.exp(-1j * spec.quasi_energies)))
        assert np.max(np.abs(got - ref)) < 1e-9


def test_quasi_spectrum_against_schur_and_powers_at_l10():
    # figure scale: the quasi-energies match an independent complex Schur
    # decomposition of the dense U_F, and the spectral sum
    # sum_a w_a exp(-i n E_a) reproduces <psi0|U_F^n psi0> from repeated
    # applies, which holds however a near-degenerate pair is rotated
    p = SimulationParams(L=10, omega=np.pi / 2, epsilon=0.3, v=0.1).with_f_t2(0.25)
    prop = floquet_operator(p)
    spec = quasi_spectrum(prop)
    t_mat, _ = scipy.linalg.schur(prop.u_f, output="complex")
    ref = np.sort(np.angle(np.diag(t_mat)))
    got = np.sort(np.angle(spec.eigenvalues()))
    assert np.max(np.abs(got - ref)) < 1e-9

    psi0 = z_product_state("1" * p.L, p.basis)
    amplitudes = spec.eigenstates.conj().T @ psi0.amplitudes
    weights = np.abs(amplitudes) ** 2
    psi = psi0.amplitudes.copy()
    for n in range(1, 41):
        psi = prop.apply(psi)
        direct = np.vdot(psi0.amplitudes, psi)
        spectral = np.sum(weights * np.exp(-1j * n * spec.quasi_energies))
        assert abs(spectral - direct) < 1e-9


def test_spectrum_cache_returns_same_object():
    p = SimulationParams(L=3, omega=np.pi / 2, epsilon=0.1, v=0.1, f=0.02)
    prop = floquet_operator(p)
    assert prop.spectrum() is prop.spectrum()


def test_overlaps_eigenvector_input():
    p = SimulationParams(L=4, omega=np.pi / 2, epsilon=0.2, v=0.1, f=0.03)
    prop = floquet_operator(p)
    spec = prop.spectrum()
    from starkdtc import StateVector

    table = overlaps(spec, StateVector(spec.eigenstates[:, 5].copy(), p.basis))
    assert table.overlaps[5] == pytest.approx(1.0, abs=1e-10)
    assert np.sum(table.overlaps) == pytest.approx(1.0, abs=1e-10)
    assert np.all(table.overlaps >= 0)
    assert np.all(table.overlaps <= 1 + 1e-12)


def test_overlaps_completeness_random_states():
    rng = np.random.default_rng(31)
    p = SimulationParams(L=5, omega=np.pi / 2, epsilon=0.3, v=0.1, f=0.025)
    spec = floquet_operator(p).spectrum()
    from starkdtc import StateVector

    for _ in range(5):
        psi = rng.normal(size=32) + 1j * rng.normal(size=32)
        table = overlaps(spec, StateVector(psi / np.linalg.norm(psi), p.basis))
        assert np.sum(table.overlaps) == pytest.approx(1.0, abs=1e-8)
        assert np.all(np.diff(table.quasi_energies) >= 0)


def test_overlaps_dimension_mismatch():
    p = SimulationParams(L=3, omega=np.pi / 2)
    spec = floquet_operator(p).spectrum()
    with pytest.raises(ValueError):
        overlaps(spec, z_product_state("11", SimulationParams(L=2).basis))


def test_find_pi_pair_single_qubit():
    p = SimulationParams(L=1, omega=np.pi / 2)
    table = overlaps(floquet_operator(p).spectrum(), z_product_state("1", p.basis))
    pair = find_pi_pair(table, tol=0.05)
    assert pair is not None
    assert pair.gap == pytest.approx(np.pi, abs=1e-12)
    assert pair.combined_overlap == pytest.approx(1.0, abs=1e-10)


def test_find_pi_pair_rejects_gap_zero():
    table = OverlapTable(
        quasi_energies=np.array([-1.0, -0.95, 2.0]),
        overlaps=np.array([0.5, 0.45, 0.05]),
    )
    assert find_pi_pair(table, tol=0.05) is None


def test_find_pi_pair_input_validation():
    table = OverlapTable(quasi_energies=np.array([0.0]), overlaps=np.array([1.0]))
    with pytest.raises(ValueError):
        find_pi_pair(table)
    two = OverlapTable(quasi_energies=np.array([0.0, 1.0]), overlaps=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        find_pi_pair(two, tol=0.0)


def test_circular_gap():
    assert circular_gap(np.pi - 0.01, -np.pi + 0.01) == pytest.approx(0.02, abs=1e-12)
    assert circular_gap(0.5, 0.5 + np.pi) == pytest.approx(np.pi, abs=1e-12)


def test_overlap_table_completeness_guard():
    with pytest.raises(NumericError):
        OverlapTable(quasi_energies=np.array([0.0, 1.0]), overlaps=np.array([0.5, 0.4]))


def test_unitarity_deviation_detects_failure(monkeypatch):
    bad = np.eye(4, dtype=complex)
    bad[0, 0] = 1.5
    assert unitarity_deviation(bad) > 0.1
    # a non-unitary U1 is rejected on both paths that build one
    real_u1 = floquet.u1_from_eigensystem
    monkeypatch.setattr(floquet, "u1_from_eigensystem", lambda *args: 1.5 * real_u1(*args))
    p = SimulationParams(L=3, omega=np.pi / 2, epsilon=0.1, v=0.1, f=0.02)
    with pytest.raises(NumericError, match="unitarity"):
        floquet_operator(p)
    with pytest.raises(NumericError, match="unitarity"):
        PropagatorFactory().stage1(p)


def test_unitarity_check_covers_each_sector(monkeypatch):
    # L=4: even block 10 x 10, odd block 6 x 6; spoil one block at a time
    p = SimulationParams(L=4, omega=np.pi / 2, epsilon=0.1, v=0.1)
    real_u1 = floquet.u1_from_eigensystem
    for size, name in ((10, "even"), (6, "odd")):
        monkeypatch.setattr(
            floquet,
            "u1_from_eigensystem",
            lambda eigs, vecs, t1, size=size: (1.5 if eigs.size == size else 1.0) * real_u1(eigs, vecs, t1),
        )
        with pytest.raises(NumericError, match=f"{name} sector"):
            floquet.stage1_unitary(p)


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(1, 7),
    kernel=st.sampled_from(["NN", "NNN", "NNNN", "ALL"]),
    omega=st.floats(-3.0, 3.0),
    epsilon=st.floats(-1.0, 1.0),
    v=st.floats(-2.0, 2.0),
    width=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_sector_unitary_against_expm(L, kernel, omega, epsilon, v, width, seed):
    p = SimulationParams(L=L, omega=omega, epsilon=epsilon, v=v, kernel=kernel)
    u1 = floquet.stage1_unitary(p)
    dense = u1.dense()
    assert np.max(np.abs(dense - scipy.linalg.expm(-1j * p.t1 * build_h1(p)))) < 1e-12
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(p.dimension, width)) + 1j * rng.normal(size=(p.dimension, width))
    assert np.max(np.abs(u1.apply(block) - dense @ block)) < 1e-12
    assert np.max(np.abs(u1.apply(block[:, 0]) - dense @ block[:, 0])) < 1e-12


def test_stage1_unitarity_error_names_key_and_tolerance(monkeypatch):
    real_u1 = floquet.u1_from_eigensystem
    monkeypatch.setattr(floquet, "u1_from_eigensystem", lambda *args: 1.5 * real_u1(*args))
    p = SimulationParams(L=3, omega=1.25, epsilon=0.125, v=0.5, kernel="NNN", t1=2.0)
    key = "L=3, Omega=1.25, epsilon=0.125, V=0.5, kernel=NNN, T1=2.0"
    with pytest.raises(NumericError, match=re.escape(key) + r".*tolerance 1e-10"):
        floquet.stage1_unitary(p)


def patch_first_eigh(monkeypatch, dim, change):
    """Pass the first in-place eigh(X) of dimension `dim` through `change`;
    the changed vectors overwrite X, as the real eigenvectors do."""
    real_eigh = floquet._eigh_in_place
    calls = []

    def eigh(x):
        vals, info = real_eigh(x)
        if x.shape == (dim, dim) and not calls:
            calls.append(dim)
            vals, vecs = change(vals, x.copy())
            x[...] = vecs
        return vals, info

    monkeypatch.setattr(floquet, "_eigh_in_place", eigh)


ERROR_POINT = SimulationParams(L=4, omega=np.pi / 2, epsilon=0.1, v=0.2, kernel="NNN").with_f_t2(0.25)


def point_pattern(p):
    return re.escape(f"L={p.L}, Omega={p.omega!r}") + ".*" + re.escape(f"F*T2={p.f_t2!r}")


def test_quasi_spectrum_moduli_error_names_point(monkeypatch):
    # shifted cos values leave sin as it was, so |lambda| != 1
    prop = floquet_operator(ERROR_POINT)
    patch_first_eigh(monkeypatch, prop.dimension, lambda vals, vecs: (vals + 0.5, vecs))
    with pytest.raises(NumericError, match=point_pattern(ERROR_POINT) + ".*moduli.*tolerance"):
        quasi_spectrum(prop)


def test_quasi_spectrum_residual_error_names_point(monkeypatch):
    # cos -> -cos keeps every |lambda| = 1 but no eigenpair
    prop = floquet_operator(ERROR_POINT)
    patch_first_eigh(monkeypatch, prop.dimension, lambda vals, vecs: (-vals[::-1], vecs[:, ::-1]))
    with pytest.raises(NumericError, match=point_pattern(ERROR_POINT) + ".*residual.*tolerance"):
        quasi_spectrum(prop)


def test_quasi_spectrum_orthonormality_error_names_point(monkeypatch):
    # U_F = 1 here, so a skewed basis still holds exact eigenpairs
    p = SimulationParams(L=2, omega=0.0)
    prop = floquet_operator(p)
    skewed = np.eye(4)
    skewed[0, 1] = 0.5
    patch_first_eigh(monkeypatch, 4, lambda vals, vecs: (vals, skewed))
    with pytest.raises(NumericError, match=point_pattern(p) + ".*orthonormal.*tolerance"):
        quasi_spectrum(prop)


def test_quasi_spectrum_eigensolver_failure_names_point(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(floquet, "_eigh_in_place", lambda x: (np.zeros(x.shape[0]), 1))
    with pytest.raises(NumericError, match=point_pattern(ERROR_POINT) + ".*info=1"):
        quasi_spectrum(floquet_operator(ERROR_POINT))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "command": "overlaps",
        "params": {"L": 3, "OmegaT1": "pi/2", "epsT1": 0.1, "VT1": 0.1, "FT2": 0.2},
    }))
    assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == 3
    assert "info=1" in capsys.readouterr().err


def test_eigh_in_place_overwrites_its_argument():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((7, 7))
    a = a + a.T
    x = np.array(a, order="F")
    vals, info = floquet._eigh_in_place(x)
    ref_vals, ref_vecs = np.linalg.eigh(a)
    assert info == 0
    assert np.allclose(vals, ref_vals, atol=1e-12)
    assert np.allclose(np.abs(x.T @ ref_vecs), np.eye(7), atol=1e-10)


@pytest.mark.parametrize("dim", [1, 2, 7, 64])
def test_permute_columns_matches_fancy_indexing(dim):
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
    order = rng.permutation(dim)
    expected = a[:, order]
    floquet._permute_columns(a, order)
    assert np.array_equal(a, expected)


def circular_match(a, b):
    """Largest distance on the circle from an entry of either set to the other set."""
    dist = np.abs(np.angle(np.exp(-1j * (a[:, None] - b[None, :]))))
    return max(dist.min(axis=0).max(), dist.min(axis=1).max())


def rate_or_zero(low, high):
    return st.one_of(st.just(0.0), st.floats(low, high))


@settings(max_examples=40, deadline=None)
@given(
    L=st.integers(1, 7),
    kernel=st.sampled_from(["NN", "NNN", "NNNN", "ALL"]),
    omega=rate_or_zero(-3.0, 3.0),
    epsilon=rate_or_zero(-1.0, 1.0),
    v=rate_or_zero(-2.0, 2.0),
    f_t2=rate_or_zero(-2.0, 2.0),
    panel=st.sampled_from([1, 2, 3]),
)
def test_quasi_spectrum_narrow_panels(L, kernel, omega, epsilon, v, f_t2, panel):
    # panels of 1-3 columns make clusters straddle the nominal panel edges
    p = SimulationParams(L=L, omega=omega, epsilon=epsilon, v=v, kernel=kernel).with_f_t2(f_t2)
    prop = floquet_operator(p)
    reference = quasi_spectrum(prop)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(floquet, "RESIDUAL_PANEL", panel)
        spec = quasi_spectrum(prop)
    assert circular_match(spec.quasi_energies, reference.quasi_energies) < 1e-12
    resid = prop.u_f @ spec.eigenstates - spec.eigenstates * spec.eigenvalues()
    assert np.max(np.linalg.norm(resid, axis=0)) < 1e-8
    gram = spec.eigenstates.conj().T @ spec.eigenstates
    assert np.max(np.abs(gram - np.eye(prop.dimension))) < 1e-8


def test_quasi_spectrum_memory_estimate(monkeypatch):
    available = floquet._available_memory()
    assert available is None or available > 0
    # a 7.7 GB machine runs L=12 and L=13 but refuses L=14
    monkeypatch.setattr(floquet, "_available_memory", lambda: int(7.7e9))
    floquet.check_quasi_spectrum_memory(12)
    floquet.check_quasi_spectrum_memory(13)
    with pytest.raises(ResourceLimitError, match="L=14"):
        floquet.check_quasi_spectrum_memory(14)
    # an unreadable MemAvailable skips the check
    monkeypatch.setattr(floquet, "_available_memory", lambda: None)
    floquet.check_quasi_spectrum_memory(14)


def test_overlap_completeness_error_names_point_and_tolerance():
    spectrum = floquet_operator(ERROR_POINT).spectrum()
    psi0 = StateVector(spectrum.eigenstates[:, 3].copy(), ERROR_POINT.basis)
    spectrum.eigenstates[:, 3] *= 1.01  # a skewed eigenstate column: overlap 1.0201
    pattern = r"overlaps at \(" + point_pattern(ERROR_POINT) + r"\): completeness .* by 2\.01e-02, tolerance 1e-08"
    with pytest.raises(NumericError, match=pattern):
        overlaps(spectrum, psi0)
