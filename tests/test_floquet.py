import contextlib
import json
import re
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from starkdtc import (
    NumericError,
    ResourceLimitError,
    SimulationParams,
    autocorrelator_series,
    find_pi_pair,
    floquet_operator,
    overlaps,
)
import starkdtc.floquet as floquet
from starkdtc.cli import main
from starkdtc.floquet import OverlapTable, circular_gap, propagator_u2, quasi_spectrum, unitarity_deviation
from starkdtc.hamiltonian import build_h1, build_h2_diagonal
from starkdtc.sweep import PropagatorFactory
from _oracles import bits_of, dense_u_f, h2_diagonal, product_vector, trotter_floquet
from test_trace_bindings import load_tracer


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
    assert np.allclose(dense_u_f(floquet_operator(p)), [[0, -1j], [-1j, 0]], atol=1e-14)

    p = SimulationParams(L=1, omega=np.pi / 2, f=0.1, t2=10.0)
    expected = np.array([[0, -1j], [-1j * np.exp(-1j), 0]])
    assert np.allclose(dense_u_f(floquet_operator(p)), expected, atol=1e-14)


def test_floquet_operator_diagonal_when_drive_off():
    p = SimulationParams(L=3, omega=1.1, epsilon=-1.1, v=0.2, f=0.05)
    u_f = dense_u_f(floquet_operator(p))
    off = u_f - np.diag(np.diag(u_f))
    assert np.max(np.abs(off)) < 1e-12


def test_unitarity_of_random_propagators():
    rng = np.random.default_rng(7)
    for _ in range(10):
        u_f = dense_u_f(floquet_operator(random_params(rng)))
        gram = u_f.conj().T @ u_f
        assert np.max(np.abs(gram - np.eye(u_f.shape[0]))) < 1e-10


def test_trotter_oracle_agreement():
    # independent second-order product formula, dt = T / 1e5
    rng = np.random.default_rng(42)
    for _ in range(5):
        p = random_params(rng, l_max=5)
        u_ref = trotter_floquet(p.L, p.omega, p.epsilon, p.v, p.f, p.t1, p.t2, p.kernel)
        u_pkg = dense_u_f(floquet_operator(p))
        assert np.max(np.abs(u_pkg - u_ref)) < 1e-6


def test_composition_consistency():
    # one period of the package agrees with U1 then U2 applied stagewise
    rng = np.random.default_rng(9)
    p = SimulationParams(L=6, omega=np.pi / 2, epsilon=0.21, v=0.1, f=0.02)
    prop = floquet_operator(p)
    u1 = scipy.linalg.expm(-1j * p.t1 * build_h1(p))
    phase2 = propagator_u2(build_h2_diagonal(p), p.t2)
    for _ in range(50):
        psi = rng.normal(size=64) + 1j * rng.normal(size=64)
        psi /= np.linalg.norm(psi)
        assert np.max(np.abs(prop.apply(psi) - phase2 * (u1 @ psi))) < 1e-10


def test_traced_apply_builds_no_dense_u_f():
    # the benchmark tracer sizes each traced `apply` from `prop.u_f`, which
    # used to build and cache a dense U_F (1 MiB at L=8, 268 MB at L=12)
    p = SimulationParams(L=8, omega=np.pi / 2, epsilon=0.3, v=0.1).with_f_t2(0.25)
    prop = floquet_operator(p)
    psi = product_vector("1" * p.L)
    result = prop.apply(psi)
    with contextlib.suppress(AttributeError):  # the tracer drops an attribute it cannot read
        load_tracer()._apply_attrs((prop, psi), {}, result)
    held = {**vars(prop), **vars(prop.u1)}
    # a sector eigensystem is a (theta, W) pair
    parts = {name: value if isinstance(value, tuple) else (value,) for name, value in held.items()}
    assert [name for name, values in parts.items() if (p.dimension,) * 2 in map(np.shape, values)] == []


def test_stark_echo_two_periods():
    # with exact flips the Stark phase echoes out: U_F^2 is a global phase
    basis_sizes = (2, 5, 8)
    rng = np.random.default_rng(13)
    for L in basis_sizes:
        for f_t2 in (0.01, 0.025, 0.05):
            p = SimulationParams(L=L, omega=np.pi / 2, epsilon=0.0, v=0.0).with_f_t2(f_t2)
            prop = floquet_operator(p)
            sz = 2.0 * p.basis.occupations() - 1.0
            states = [product_vector("1" * L)]
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
        states = spec.eigenstates()
        resid = dense_u_f(prop) @ states - states * spec.eigenvalues()
        assert np.max(np.linalg.norm(resid, axis=0)) < 1e-8
        gram = states.conj().T @ states
        assert np.max(np.abs(gram - np.eye(prop.dimension))) < 1e-8


def test_quasi_spectrum_against_schur_oracle():
    # same eigenvalue multiset as an independent Schur decomposition
    rng = np.random.default_rng(23)
    for _ in range(6):
        prop = floquet_operator(random_params(rng))
        spec = quasi_spectrum(prop)
        t_mat, _ = scipy.linalg.schur(dense_u_f(prop), output="complex")
        ref = np.sort(np.angle(np.diag(t_mat)))
        got = np.sort(np.angle(np.exp(-1j * spec.quasi_energies)))
        assert np.max(np.abs(got - ref)) < 1e-9


def test_quasi_spectrum_against_schur_and_powers_at_l10():
    # figure scale: the quasi-energies match an independent complex Schur
    # decomposition of the dense U_F, and the spectral sum
    # sum_a w_a exp(-i n E_a) of the overlaps w_a reproduces <psi0|U_F^n psi0>
    # from repeated applies, which holds however a near-degenerate pair is
    # rotated
    p = SimulationParams(L=10, omega=np.pi / 2, epsilon=0.3, v=0.1).with_f_t2(0.25)
    prop = floquet_operator(p)
    spec = quasi_spectrum(prop)
    t_mat, _ = scipy.linalg.schur(dense_u_f(prop), output="complex")
    ref = np.sort(np.angle(np.diag(t_mat)))
    got = np.sort(np.angle(spec.eigenvalues()))
    assert np.max(np.abs(got - ref)) < 1e-9

    weights = overlaps(spec, "1" * p.L).overlaps
    psi0 = product_vector("1" * p.L)
    psi = psi0
    for n in range(1, 41):
        psi = prop.apply(psi)
        direct = np.vdot(psi0, psi)
        spectral = np.sum(weights * np.exp(-1j * n * spec.quasi_energies))
        assert abs(spectral - direct) < 1e-9


def test_spectrum_is_recomputed_on_each_call():
    # a cached quasi-spectrum kept V (128 MiB at L=12) alive for as long as
    # its propagator; each call now computes the same spectrum anew
    p = SimulationParams(L=3, omega=np.pi / 2, epsilon=0.1, v=0.1, f=0.02)
    prop = floquet_operator(p)
    first, second = prop.spectrum(), prop.spectrum()
    assert first is not second
    assert np.array_equal(bits(first.quasi_energies), bits(second.quasi_energies))
    assert np.array_equal(bits(first.vectors), bits(second.vectors))


def test_overlaps_eigenvector_input():
    # with Omega + epsilon = 0 no spin flips and U_F is diagonal, so every
    # z-product state is an eigenstate: overlap 1 at the quasi-energy of its
    # diagonal phase exp(-i (H_int T1 + H2 T2)); V = 0.37 under the ALL
    # kernel and F = 0.0113 leave those phases nondegenerate
    p = SimulationParams(L=4, omega=0.0, epsilon=0.0, v=0.37, f=0.0113, kernel="ALL")
    spec = floquet_operator(p).spectrum()
    h_int = h2_diagonal(p.L, p.v, 0.0, p.kernel)
    phases = np.exp(-1j * (h_int * p.t1 + h2_diagonal(p.L, p.v, p.f, p.kernel) * p.t2))
    for b in range(p.dimension):
        table = overlaps(spec, bits_of(b, p.L))
        a = int(np.argmax(table.overlaps))
        assert table.overlaps[a] == pytest.approx(1.0, abs=1e-10)
        assert np.sum(table.overlaps) == pytest.approx(1.0, abs=1e-10)
        assert np.all(table.overlaps >= 0)
        assert abs(np.exp(-1j * table.quasi_energies[a]) - phases[b]) < 1e-10


def test_overlaps_completeness_random_states():
    rng = np.random.default_rng(31)
    p = SimulationParams(L=5, omega=np.pi / 2, epsilon=0.3, v=0.1, f=0.025)
    spec = floquet_operator(p).spectrum()
    for _ in range(5):
        table = overlaps(spec, "".join(rng.choice(["0", "1"], size=p.L)))
        assert np.sum(table.overlaps) == pytest.approx(1.0, abs=1e-8)
        assert np.all(np.diff(table.quasi_energies) >= 0)


def test_overlaps_dimension_mismatch():
    p = SimulationParams(L=3, omega=np.pi / 2)
    spec = floquet_operator(p).spectrum()
    with pytest.raises(ValueError, match="^initial_state takes length-3 bit strings, got '11'$"):
        overlaps(spec, "11")


def test_find_pi_pair_single_qubit():
    p = SimulationParams(L=1, omega=np.pi / 2)
    table = overlaps(floquet_operator(p).spectrum(), "1")
    pair = find_pi_pair(table)
    assert pair is not None
    assert pair.gap == pytest.approx(np.pi, abs=1e-12)
    assert pair.combined_overlap == pytest.approx(1.0, abs=1e-10)


def test_find_pi_pair_rejects_gap_zero():
    table = OverlapTable(
        quasi_energies=np.array([-1.0, -0.95, 2.0]),
        overlaps=np.array([0.5, 0.45, 0.05]),
    )
    assert find_pi_pair(table) is None


def test_find_pi_pair_input_validation():
    table = OverlapTable(quasi_energies=np.array([0.0]), overlaps=np.array([1.0]))
    with pytest.raises(ValueError):
        find_pi_pair(table)


def test_circular_gap():
    assert circular_gap(np.pi - 0.01, -np.pi + 0.01) == pytest.approx(0.02, abs=1e-12)
    assert circular_gap(0.5, 0.5 + np.pi) == pytest.approx(np.pi, abs=1e-12)


def test_overlap_table_completeness_guard():
    with pytest.raises(NumericError):
        OverlapTable(quasi_energies=np.array([0.0, 1.0]), overlaps=np.array([0.5, 0.4]))


def spoil_eigenvectors(monkeypatch, size=None):
    """Scale by 1.5 the eigenvectors of every eigh (of dimension `size`
    only, if given): a non-orthogonal W in stage 1."""
    real_eigh = np.linalg.eigh

    def eigh(h):
        vals, vecs = real_eigh(h)
        return vals, (1.5 if size in (None, h.shape[0]) else 1.0) * vecs

    monkeypatch.setattr(np.linalg, "eigh", eigh)


def spoil_assembly(monkeypatch, size=None):
    """Scale by 1.5 the imaginary half of every assembled block (of
    dimension `size` only, if given)."""
    real_u1 = floquet.u1_from_eigensystem

    def u1_from_eigensystem(theta, vecs):
        block = real_u1(theta, vecs)
        if size in (None, theta.size):
            block.imag *= 1.5
        return block

    monkeypatch.setattr(floquet, "u1_from_eigensystem", u1_from_eigensystem)


def test_unitarity_deviation_detects_failure(monkeypatch):
    bad = np.eye(4, dtype=complex)
    bad[0, 0] = 1.5
    assert unitarity_deviation(bad) > 0.1
    assert unitarity_deviation(bad, full_dim=0) > 0.1
    # a non-orthogonal W is rejected on both paths that build U1
    spoil_eigenvectors(monkeypatch)
    p = SimulationParams(L=3, omega=np.pi / 2, epsilon=0.1, v=0.1, f=0.02)
    with pytest.raises(NumericError, match="unitarity by .* in its eigenvectors"):
        floquet_operator(p)
    with pytest.raises(NumericError, match="unitarity by .* in its eigenvectors"):
        PropagatorFactory().stage1(p)


def test_unitarity_check_covers_each_sector(monkeypatch):
    # L=4: even sector 10 x 10, odd sector 6 x 6; spoil one at a time, first
    # its eigenvectors W, then the imaginary half of its assembled block
    p = SimulationParams(L=4, omega=np.pi / 2, epsilon=0.1, v=0.1)
    u1 = floquet.stage1_unitary(p)
    for size, name in ((10, "even"), (6, "odd")):
        with pytest.MonkeyPatch.context() as patch:
            spoil_eigenvectors(patch, size)
            with pytest.raises(NumericError, match=f"{name} sector.* in its eigenvectors"):
                floquet.stage1_unitary(p)
        with pytest.MonkeyPatch.context() as patch:
            spoil_assembly(patch, size)
            with pytest.raises(NumericError, match=f"{name} sector.* once assembled"):
                u1.assemble()


def test_spoiled_stage1_exits_3_naming_key_and_sector(tmp_path, monkeypatch, capsys):
    # a non-orthogonal W fails stage 1, a corrupted imaginary half the
    # assembly before the evolution; both exit 3 with the key and the sector
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "command": "series",
        "params": {"L": 4, "OmegaT1": 1.25, "epsT1": 0.125, "VT1": 0.5, "FT2": 0.2},
    }))
    key = re.escape("L=4, Omega=1.25, epsilon=0.125, V=0.5, kernel=NN, T1=1.0")
    for spoil, where in ((spoil_eigenvectors, "in its eigenvectors"), (spoil_assembly, "once assembled")):
        with pytest.MonkeyPatch.context() as patch:
            spoil(patch, 6)
            assert main(["--config", str(config), "--out", str(tmp_path / spoil.__name__)]) == 3
        assert re.search(r"odd sector\) at key \(" + key + r"\) .* " + where, capsys.readouterr().err)


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
    expected = scipy.linalg.expm(-1j * p.t1 * build_h1(p))
    rng = np.random.default_rng(seed)
    # X = Re(D^1/2 U1 D^1/2) in orbit order, as the quasi-spectrum forms it
    # from the sector eigensystems, and every tile width gives the same bits
    # (tiles are never narrower than X_TILE_MIN pairs)
    half = np.exp(-0.5j * rng.uniform(-np.pi, np.pi, p.dimension))
    x_expected = (half[:, None] * expected[np.ix_(u1.order, u1.order)] * half).real
    tiles = []
    for tile in (1, 7, 64, p.dimension):
        x = np.empty((p.dimension,) * 2, order="F")
        floquet._form_x(u1, half, x, tile)
        assert np.max(np.abs(x - x_expected)) < 1e-12
        tiles.append(x)
    assert all(np.array_equal(bits(x), bits(tiles[0])) for x in tiles)
    block = rng.normal(size=(p.dimension, width)) + 1j * rng.normal(size=(p.dimension, width))
    # one period is U1 through the assembled blocks, then the stage-2 phase
    prop = floquet.FloquetPropagator(p, u1)
    expected = propagator_u2(build_h2_diagonal(p), p.t2)[:, None] * expected
    assert np.max(np.abs(dense_u_f(prop) - expected)) < 1e-12
    assert np.max(np.abs(prop.apply(block) - expected @ block)) < 1e-12
    assert np.max(np.abs(prop.apply(block[:, 0]) - expected @ block[:, 0])) < 1e-12


def bits(a):
    """The raw bits of a float or complex array, so -0.0 differs from 0.0."""
    return np.ascontiguousarray(a).view(np.uint64)


def two_temporary_projection(h, n_fixed):
    """Even and odd sector blocks of a real symmetric matrix h in orbit
    order, each paired block summed from its lo and hi halves, as separate
    temporaries."""
    s = floquet.SQRT_HALF
    n_pairs = (h.shape[0] - n_fixed) // 2
    f, lo, hi = slice(0, n_fixed), slice(n_fixed, n_fixed + n_pairs), slice(n_fixed + n_pairs, None)
    even = np.empty((n_fixed + n_pairs,) * 2)
    odd = np.empty((n_pairs,) * 2)
    even[f, f] = h[f, f]
    even[f, n_fixed:] = (h[f, lo] + h[f, hi]) * s
    even[n_fixed:, f] = (h[lo, f] + h[hi, f]) * s
    for out, op in ((even[n_fixed:, n_fixed:], np.add), (odd, np.subtract)):
        out[...] = op(op(h[lo, lo], h[lo, hi]) * s, op(h[hi, lo], h[hi, hi]) * s) * s
    return even, odd


@pytest.mark.parametrize("kernel", ["NN", "NNN", "NNNN", "ALL"])
def test_sector_blocks_equal_the_projection_of_the_dense_h1(kernel):
    # stage 1 scatters H1 straight into each reflection sector; the reference
    # is the dense H1 permuted into orbit order and projected.  With NN the
    # interaction diagonal is reflection symmetric to the bit and the blocks
    # keep every bit; longer-range kernels sum the diagonal in site order,
    # so a state and its mirror image can differ by rounding
    rng = np.random.default_rng(25)
    for L in range(1, 11):
        draws = [(np.pi / 2, 0.3, 0.7)] + [tuple(rng.uniform((-3, -1, -2), (3, 1, 2))) for _ in range(2)]
        for omega, epsilon, v in draws:
            p = SimulationParams(L=L, omega=omega, epsilon=epsilon, v=v, kernel=kernel)
            fixed, lo, hi = p.basis.reflection_orbits()
            order = np.concatenate((fixed, lo, hi))
            h = build_h1(p)[np.ix_(order, order)]
            for sector, expected in zip(("even", "odd"), two_temporary_projection(h, fixed.size)):
                block = floquet._sector_h1(p, sector)
                assert block.shape == expected.shape
                if kernel == "NN":
                    assert np.array_equal(bits(block), bits(expected)), (L, sector)
                else:
                    assert np.max(np.abs(block - expected), initial=0.0) <= 1e-15 * np.max(np.abs(h))


@settings(max_examples=40, deadline=None)
@given(
    L=st.integers(1, 10),
    kernel=st.sampled_from(["NN", "NNN", "NNNN", "ALL"]),
    omega=st.floats(-3.0, 3.0),
    epsilon=st.floats(-1.0, 1.0),
    v=st.floats(-2.0, 2.0),
    t1=st.floats(0.01, 3.0),
)
def test_stage1_steps_keep_the_bits_of_their_temporary_forms(L, kernel, omega, epsilon, v, t1):
    # stage 1 writes its products through one work buffer and subtracts the
    # identity in place; every bit must equal the forms with temporaries
    p = SimulationParams(L=L, omega=omega, epsilon=epsilon, v=v, kernel=kernel, t1=t1)
    sector_h1 = [floquet._sector_h1(p, sector) for sector in ("even", "odd")]
    for h_sector in sector_h1:
        if h_sector.size == 0:
            continue
        eigs, vecs = np.linalg.eigh(h_sector)
        theta = eigs * t1
        block = floquet.u1_from_eigensystem(theta, vecs)
        real = (vecs * np.cos(theta)) @ vecs.T
        imag = (vecs * np.sin(theta)) @ vecs.T
        assert np.array_equal(bits(block), bits(real - 1j * imag))
        eye = np.eye(block.shape[0])
        assert unitarity_deviation(block) == float(np.max(np.abs(block.conj().T @ block - eye)))
        assert unitarity_deviation(vecs) == float(np.max(np.abs(vecs.T @ vecs - eye)))
    # the evolution's blocks, assembled from the stored eigensystems, have
    # the bits of the blocks assembled from the sector projections
    blocks = floquet.stage1_unitary(p).assemble()
    for block, h_sector in zip((blocks.even, blocks.odd), sector_h1):
        eigs, vecs = np.linalg.eigh(h_sector)
        theta = eigs * t1
        expected = (vecs * np.cos(theta)) @ vecs.T - 1j * ((vecs * np.sin(theta)) @ vecs.T)
        assert np.array_equal(bits(block), bits(expected))


def form_x_from_blocks(blocks, half, x, tile):
    """X = Re(D^1/2 U1 D^1/2) in orbit order from U1's assembled sector
    blocks, `tile` columns at a time through one complex tile: `_form_x`
    as it read the blocks before U1 was kept as its eigensystems."""
    nf, n_pairs, dim = blocks.n_fixed, blocks.odd.shape[0], blocks.dimension
    even, odd = blocks.even, blocks.odd
    fixed_rows, paired = even[:nf, nf:], even[nf:, nf:]
    f, lo, hi = slice(0, nf), slice(nf, nf + n_pairs), slice(nf + n_pairs, None)
    bounds = (0, nf, nf + n_pairs, dim)
    buf = np.empty((dim, min(tile, dim)), dtype=complex, order="F")
    for at in range(0, dim, tile):
        stop = min(at + tile, dim)
        t = buf[:, :stop - at]
        for run in range(3):
            c0, c1 = max(at, bounds[run]), min(stop, bounds[run + 1])
            if c0 >= c1:
                continue
            k = slice(c0 - at, c1 - at)
            if run == 0:
                t[f, k] = even[:nf, c0:c1]
                np.multiply(even[nf:, c0:c1], floquet.SQRT_HALF, out=t[lo, k])
                t[hi, k] = t[lo, k]
                continue
            p = slice(c0 - bounds[run], c1 - bounds[run])
            np.multiply(fixed_rows[:, p], floquet.SQRT_HALF, out=t[f, k])
            same, cross = (t[lo, k], t[hi, k]) if run == 1 else (t[hi, k], t[lo, k])
            np.add(paired[:, p], odd[:, p], out=same)
            same *= 0.5
            np.subtract(paired[:, p], odd[:, p], out=cross)
            cross *= 0.5
        t *= half[:, None]
        t *= half[at:stop]
        x[:, at:stop] = t.real


@pytest.mark.parametrize("L", range(1, 11))
def test_x_from_eigensystems_has_the_bits_of_the_assembled_blocks(L):
    # X tiled straight from W and theta equals X read off the assembled
    # blocks bit for bit at every tile width: from L=9 on there are several
    # tiles, cut at multiples of 16 pairs, and tiles of 1 and 7 pairs are
    # widened to X_TILE_MIN (a one-column product would run as gemv, and a
    # tile a few columns over a multiple of 16 through the kernels' edge
    # path)
    p = SimulationParams(L=L, omega=1.3, epsilon=0.21, v=0.37, kernel="ALL").with_f_t2(0.3)
    u1 = floquet.stage1_unitary(p)
    half = np.exp(-0.5j * (build_h2_diagonal(p) * p.t2))[u1.order]
    expected = np.empty((p.dimension,) * 2, order="F")
    form_x_from_blocks(u1.assemble(), half, expected, 64)
    for tile in (1, 7, 64, 100, floquet.X_TILE, p.dimension):
        x = np.empty((p.dimension,) * 2, order="F")
        floquet._form_x(u1, half, x, tile)
        assert np.array_equal(bits(x), bits(expected)), tile


def overlap_sums(quasi_energies, weights, gap=1e-8):
    """Overlaps summed over runs of sorted quasi-energies closer than `gap`,
    where a degenerate eigenspace leaves the single overlaps undefined."""
    order = np.argsort(quasi_energies)
    energies, weights = quasi_energies[order], weights[order]
    starts = np.flatnonzero(np.diff(energies, prepend=-np.inf) > gap)
    return energies[starts], np.add.reduceat(weights, starts)


def test_overlaps_of_random_states_against_dense_oracle():
    # the overlaps of every basis state b, |<b|psi_a>|^2 = V[b, a]^2, against
    # row b of the eigenvectors of an independent complex Schur
    # decomposition of the dense U_F
    rng = np.random.default_rng(41)
    for _ in range(6):
        p = random_params(rng)
        spec = quasi_spectrum(floquet_operator(p))
        t_mat, z_mat = scipy.linalg.schur(dense_u_f(floquet_operator(p)), output="complex")
        energies = floquet._fold_quasi_energies(np.diag(t_mat))
        states = spec.eigenstates()
        for b in range(p.dimension):
            table = overlaps(spec, bits_of(b, p.L))
            got = overlap_sums(table.quasi_energies, table.overlaps)
            ref = overlap_sums(energies, np.abs(z_mat[b]) ** 2)
            assert got[0].size == ref[0].size
            assert np.max(np.abs(got[0] - ref[0])) < 1e-9
            assert np.max(np.abs(got[1] - ref[1])) < 1e-10
            # and the complex eigenstates D^1/2 V give the same overlaps
            assert np.max(np.abs(table.overlaps - np.abs(states[b]) ** 2)) < 1e-14


def test_unitarity_deviation_samples_gram_rows_above_1024():
    # above dimension 1024 the 16 sampled Gram rows stand for the columns:
    # the Gram matrix is Hermitian, so both hold the same entries
    rng = np.random.default_rng(7)
    dim = 1100
    unitary, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    cols = np.linspace(0, dim - 1, 16).astype(int)
    eye_cols = np.zeros((dim, cols.size))
    eye_cols[cols, np.arange(cols.size)] = 1.0

    def column_form(u):
        return float(np.max(np.abs(u.conj().T @ u[:, cols] - eye_cols)))

    assert unitarity_deviation(unitary) < 1e-13
    assert abs(unitarity_deviation(unitary) - column_form(unitary)) < 1e-14
    unitary[:, cols[5]] *= 1.5  # one sampled column off: |1.5|^2 - 1 on the diagonal
    assert abs(unitarity_deviation(unitary) - 1.25) < 1e-12
    assert abs(unitarity_deviation(unitary) - column_form(unitary)) < 1e-12


def test_stage1_unitarity_error_names_key_and_tolerance(monkeypatch):
    spoil_eigenvectors(monkeypatch)
    p = SimulationParams(L=3, omega=1.25, epsilon=0.125, v=0.5, kernel="NNN", t1=2.0)
    key = "L=3, Omega=1.25, epsilon=0.125, V=0.5, kernel=NNN, T1=2.0"
    with pytest.raises(NumericError, match=re.escape(key) + r".*tolerance 1e-10"):
        floquet.stage1_unitary(p)


def patch_first_eigh(monkeypatch, dim, change):
    """Pass the first eigendecomposition of an X of dimension `dim`
    through `change`, which returns the eigenvalues and an F-order
    eigenvector matrix."""
    real_eigenvectors = floquet._eigenvectors
    calls = []

    def eigenvectors(d, e, blocks, point):
        vals, vecs = real_eigenvectors(d, e, blocks, point)
        if d.size == dim and not calls:
            calls.append(dim)
            vals, vecs = change(vals, vecs)
        return vals, np.asfortranarray(vecs)

    monkeypatch.setattr(floquet, "_eigenvectors", eigenvectors)


def fail_lapack(monkeypatch, *names):
    """Make each LAPACK routine in `names` report info=1 (its results kept)."""
    real_lapack = floquet._lapack

    def lapack(name, *args, **kwargs):
        results, info = real_lapack(name, *args, **kwargs)
        return results, 1 if name in names else info

    monkeypatch.setattr(floquet, "_lapack", lapack)


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
    # a failed dstemr falls back to dstebz and dstein; a nonzero info from
    # any other step is a numeric error naming the point and the routine
    for failing, routine in ((("dsytrd",), "dsytrd"), (("dstemr", "dstebz"), "dstebz"),
                             (("dstemr", "dstein"), "dstein")):
        with pytest.MonkeyPatch.context() as patch:
            fail_lapack(patch, *failing)
            with pytest.raises(NumericError, match=point_pattern(ERROR_POINT) + f".*LAPACK {routine} failed with info=1"):
                quasi_spectrum(floquet_operator(ERROR_POINT))
    fail_lapack(monkeypatch, "dsytrd")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "command": "overlaps",
        "params": {"L": 3, "OmegaT1": "pi/2", "epsT1": 0.1, "VT1": 0.1, "FT2": 0.2},
    }))
    assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == 3
    assert "dsytrd failed with info=1" in capsys.readouterr().err


def test_eigh_overwrites_its_argument():
    # dsytrd works on x itself, not on a copy f2py made of it
    rng = np.random.default_rng(5)
    a = rng.standard_normal((7, 7))
    a = a + a.T
    x = np.array(a, order="F")
    vals, vecs = floquet._eigenvectors(*floquet._tridiagonalize(x, "test"), "test")
    ref_vals, ref_vecs = np.linalg.eigh(a)
    assert not np.array_equal(x, a)
    assert np.allclose(vals, ref_vals, atol=1e-12)
    assert np.allclose(np.abs(vecs.T @ ref_vecs), np.eye(7), atol=1e-10)


def eigh_by_steps(a):
    vals, vecs = floquet._eigenvectors(*floquet._tridiagonalize(np.array(a, order="F"), "test"), "test")
    assert vecs.flags.f_contiguous
    return vals, vecs


def assert_eigensystem(a, vals, vecs, tol=1e-12):
    n = a.shape[0]
    assert np.max(np.abs(vals - np.linalg.eigh(a)[0])) < tol
    assert np.max(np.abs(a @ vecs - vecs * vals)) < tol
    assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) < tol


B = floquet.REFLECTOR_BLOCK


def symmetric_matrix(case):
    """A random symmetric matrix of dimension `case`, or one at 2B + 1 on
    which dsytrd makes reflectors with tau = 0: a tridiagonal one (all of
    them) or one of two diagonal blocks split inside the first reflector
    block (the two reflectors at the split, between nonzero ones)."""
    n = case if isinstance(case, int) else 2 * B + 1
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    a = (a + a.T) / (2 * np.sqrt(n))
    if case == "tridiagonal":
        a = np.triu(np.tril(a, 1), -1)
    elif case == "block-diagonal":
        split = B // 2 + 3
        a[:split, split:] = a[split:, :split] = 0.0
    return a


@pytest.mark.parametrize("case", [1, 2, 3, B - 1, B, B + 1, 2 * B + 1, "tridiagonal", "block-diagonal"])
def test_eigensolver_steps_against_numpy(case):
    # n - 2 reflectors in blocks of B: none, one partial block, one full
    # block, a full and a partial one; 2B + 1 eigenvectors also fill more
    # than one back-transform chunk, the last one partly
    a = symmetric_matrix(case)
    assert_eigensystem(a, *eigh_by_steps(a))


@pytest.mark.parametrize("case", [B + 1, "tridiagonal", "block-diagonal"])
def test_wy_factor_matches_the_reflector_product(case):
    # I - V T V^T of each block equals H_j0 ... H_j1-1 formed one reflector
    # at a time, and a reflector with tau = 0 gets a zero column of T
    a = symmetric_matrix(case)
    _, _, blocks = floquet._tridiagonalize(np.array(a, order="F"), "test")
    zero_taus = 0
    for j0, v, tau in blocks:
        m, k = v.shape
        assert np.array_equal(np.triu(v[:k], 1), np.zeros((k, k))) and np.all(np.diag(v) == 1.0)
        t = floquet._wy_factor(v, tau)
        product = np.eye(m)
        for i in range(k):
            product -= tau[i] * np.outer(product @ v[:, i], v[:, i])
        assert np.max(np.abs(np.eye(m) - v @ t @ v.T - product)) < 1e-13
        assert np.array_equal(t, np.triu(t))
        assert not np.any(t[:, tau == 0.0])
        zero_taus += np.count_nonzero(tau == 0.0)
    assert zero_taus == {B + 1: 0, "tridiagonal": 2 * B - 1, "block-diagonal": 2}[case]


def test_dstemr_failure_falls_back_to_bisection(monkeypatch):
    # a degenerate X on which dstemr itself fails (info=22): dstebz and
    # dstein then give the eigenvectors, sorted as dsyevr sorts them
    real_lapack = floquet._lapack
    infos = []

    def lapack(name, *args, **kwargs):
        results, info = real_lapack(name, *args, **kwargs)
        if name == "dstemr":
            infos.append(info)
        return results, info

    monkeypatch.setattr(floquet, "_lapack", lapack)
    p = SimulationParams(L=6, omega=0.0, epsilon=-0.8252431878373903, v=0.0)
    prop = floquet_operator(p)
    spec = quasi_spectrum(prop)
    assert infos[-1] != 0
    states = spec.eigenstates()
    assert np.max(np.linalg.norm(dense_u_f(prop) @ states - states * spec.eigenvalues(), axis=0)) < 1e-12
    assert np.max(np.abs(states.conj().T @ states - np.eye(p.dimension))) < 1e-12
    # an injected dstemr failure on a random matrix and on a random point
    monkeypatch.setattr(floquet, "_lapack", real_lapack)
    a = np.random.default_rng(3).standard_normal((2 * B + 1,) * 2)
    a = (a + a.T) / (2 * np.sqrt(a.shape[0]))
    point = random_params(np.random.default_rng(8))
    reference = quasi_spectrum(floquet_operator(point))
    fail_lapack(monkeypatch, "dstemr")
    assert_eigensystem(a, *eigh_by_steps(a))
    spec = quasi_spectrum(floquet_operator(point))
    assert np.max(np.abs(spec.quasi_energies - reference.quasi_energies)) < 1e-12


def test_x_is_released_before_the_eigenvectors_are_formed(monkeypatch):
    # W, X and the eigenvectors never coexist: X is gone once dstemr runs
    real_tridiagonalize, real_eigenvectors = floquet._tridiagonalize, floquet._eigenvectors
    held = []

    def tridiagonalize(x, point):
        held.append(weakref.ref(x))
        return real_tridiagonalize(x, point)

    def eigenvectors(d, e, blocks, point):
        assert held[-1]() is None
        return real_eigenvectors(d, e, blocks, point)

    monkeypatch.setattr(floquet, "_tridiagonalize", tridiagonalize)
    monkeypatch.setattr(floquet, "_eigenvectors", eigenvectors)
    quasi_spectrum(floquet_operator(ERROR_POINT))
    assert len(held) == 1


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
    states = spec.eigenstates()
    resid = dense_u_f(prop) @ states - states * spec.eigenvalues()
    assert np.max(np.linalg.norm(resid, axis=0)) < 1e-8
    gram = states.conj().T @ states
    assert np.max(np.abs(gram - np.eye(prop.dimension))) < 1e-8


@pytest.mark.parametrize("noise", [0.0, 1e-4])
@pytest.mark.parametrize("L, kernel, omega, v, f_t2", [
    (5, "NN", np.pi / 2, 0.4, 0.0), (6, "NNN", np.pi / 2, 0.4, 0.0), (7, "ALL", np.pi / 2, 0.4, 0.0),
    (8, "NNNN", np.pi / 2, 0.4, 0.0), (6, "NN", np.pi / 2, 0.4, 0.3), (8, "ALL", np.pi / 2, 0.4, 0.25),
    (6, "NN", 0.0, 0.0, 0.0),
])
def test_pass_residual_matches_the_dense_oracle(monkeypatch, L, kernel, omega, v, f_t2, noise):
    # the residual the validation pass computes from u = B v alone equals
    # max |U_F psi - lambda psi| from the dense U_F, for the eigenvalues it
    # returns and the (rotated, gathered) columns it leaves; with noise in
    # the panels the residual is large (and the call raises), so the
    # identity is checked away from roundoff too.  The last point is U_F =
    # exp(-i epsilon T1 sum sigma^x), whose quasi-energies +-E share a cos,
    # so its clusters need their rotation
    p = SimulationParams(L=L, omega=omega, epsilon=0.3, v=v, kernel=kernel).with_f_t2(f_t2)
    prop = floquet_operator(p)
    rng = np.random.default_rng(L)
    real_pass, seen = floquet._resolve_panel, []

    def spy(u1, half, cos_vals, panel, clusters, work):
        panel += noise * rng.standard_normal(panel.shape)
        eigenvalues, residual = real_pass(u1, half, cos_vals, panel, clusters, work)
        seen.append((eigenvalues, panel.copy(), residual))
        return eigenvalues, residual

    monkeypatch.setattr(floquet, "_resolve_panel", spy)
    monkeypatch.setattr(floquet, "RESIDUAL_PANEL", 16)
    with pytest.raises(NumericError) if noise else contextlib.nullcontext():
        quasi_spectrum(prop)
    assert len(seen) > 1
    u_f, half = dense_u_f(prop), np.exp(-0.5j * prop.h2_diagonal * p.t2)
    for eigenvalues, panel, residual in seen:
        psi = half[:, None] * panel
        dense = np.max(np.linalg.norm(u_f @ psi - psi * eigenvalues, axis=0))
        assert abs(residual - dense) <= 1e-12 + 1e-6 * dense
        assert dense > 1e-6 if noise else dense < 1e-10


def test_quasi_spectrum_memory_estimate(monkeypatch):
    available = floquet._available_memory()
    assert available is None or available > 0
    # a 4 GB machine runs L=12 and L=13 but refuses L=14 (about 4.2 GiB)
    monkeypatch.setattr(floquet, "_available_memory", lambda: int(4e9))
    floquet.check_memory(12, quasi_spectrum=True)
    floquet.check_memory(13, quasi_spectrum=True)
    with pytest.raises(ResourceLimitError, match=r"L=14 needs about 4\.2 GiB"):
        floquet.check_memory(14, quasi_spectrum=True)
    # the validation pass's panel buffers are counted, which a second
    # quasi-spectrum in one process can find resident: a fresh `--figure
    # fig2` process peaks at 336.8 MiB above its baseline, within the 348
    # MiB estimate
    panels = floquet.QUASI_SPECTRUM_PANEL_BYTES * 2**12 * floquet.RESIDUAL_PANEL
    assert panels == 40 << 20
    assert floquet.quasi_spectrum_bytes(12) > 337 << 20
    # at L=11 the 4^L term, not the base, sets the estimate: 136 MiB, where
    # a fresh process peaks at 105 MiB (tests/test_cli.py)
    assert floquet.QUASI_SPECTRUM_BYTES_PER_4L * 4**11 > floquet.QUASI_SPECTRUM_BASE_BYTES
    monkeypatch.setattr(floquet, "_available_memory", lambda: 120 << 20)
    floquet.check_memory(10, quasi_spectrum=True)
    with pytest.raises(ResourceLimitError, match="L=11"):
        floquet.check_memory(11, quasi_spectrum=True)
    # an unreadable MemAvailable skips the check
    monkeypatch.setattr(floquet, "_available_memory", lambda: None)
    floquet.check_memory(14, quasi_spectrum=True)


def test_quasi_spectrum_holds_no_complex_square_array(monkeypatch):
    # traced allocations of one L=10 quasi-spectrum, after stage 1 (so W
    # is not counted) and the scipy import: dstemr's eigenvectors (8 bytes
    # per 4^L) beside the reflector blocks (4) and the back-transform's
    # update buffer set the peak at about 14 bytes per 4^L (with narrow
    # panels; X's tile buffers are mapped, not traced); X beside the
    # eigenvectors, as in dsyevr (21.4), or a dim x dim complex array (16)
    # would pass 17
    import scipy.linalg.lapack  # noqa: F401

    monkeypatch.setattr(floquet, "RESIDUAL_PANEL", 16)
    p = SimulationParams(L=10, omega=np.pi / 2, epsilon=0.3, v=0.1).with_f_t2(0.25)
    prop = floquet_operator(p)
    tracemalloc.start()
    try:
        quasi_spectrum(prop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 17 * 4**p.L


def test_no_assembled_block_is_alive_when_x_is_formed(monkeypatch):
    # README's flow: a series, then the overlaps of the same propagator.  U1
    # keeps its blocks after the series, and the quasi-spectrum drops them
    # before it forms X, so the blocks never sit beside X and V
    p = SimulationParams(L=6, omega=np.pi / 2, epsilon=0.3, v=0.1).with_f_t2(0.25)
    prop = floquet_operator(p)
    autocorrelator_series(prop, "1" * p.L, 10)
    blocks = weakref.ref(prop.u1.assemble())
    assert blocks() is not None
    form_x, formed = floquet._form_x, []

    def checked(u1, half, x, *args):
        formed.append(blocks() is None)
        form_x(u1, half, x, *args)

    monkeypatch.setattr(floquet, "_form_x", checked)
    overlaps(prop.spectrum(), "1" * p.L)
    assert formed == [True]


def test_stage1_memory_estimate(monkeypatch):
    # stage 1 at L=14 (its dense H1 twice, 4 GiB) fits in 7.7 GB but not in 4 GB
    monkeypatch.setattr(floquet, "_available_memory", lambda: int(7.7e9))
    floquet.check_memory(14, quasi_spectrum=False)
    monkeypatch.setattr(floquet, "_available_memory", lambda: int(4e9))
    floquet.check_memory(13, quasi_spectrum=False)
    with pytest.raises(ResourceLimitError, match=r"stage 1 at L=14 needs about 4\.0 GiB, but only 3\.7 GiB"):
        floquet.check_memory(14, quasi_spectrum=False)
    monkeypatch.setattr(floquet, "_available_memory", lambda: None)
    floquet.check_memory(14, quasi_spectrum=False)


def test_overlap_completeness_error_names_point_and_tolerance():
    spectrum = floquet_operator(ERROR_POINT).spectrum()
    spectrum.vectors[0b1011] *= 1.01  # a skewed row of V: overlaps summing to 1.0201
    pattern = r"overlaps at \(" + point_pattern(ERROR_POINT) + r"\): completeness .* by 2\.01e-02, tolerance 1e-08"
    with pytest.raises(NumericError, match=pattern):
        overlaps(spectrum, "1101")
