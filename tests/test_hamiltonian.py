import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starkdtc import SimulationParams
from starkdtc.hamiltonian import (
    KERNEL_VARIANTS,
    build_h1,
    build_h2_diagonal,
    interaction_diagonal,
    stark_diagonal,
)
from _oracles import h2_diagonal, interaction_energy, kernel_class_diagonal, kernel_max_distance


def test_params_validation():
    with pytest.raises(ValueError):
        SimulationParams(L=0)
    with pytest.raises(ValueError):
        SimulationParams(L=2, t1=0.0)
    with pytest.raises(ValueError):
        SimulationParams(L=2, t2=-1.0)
    with pytest.raises(ValueError):
        SimulationParams(L=2, v=float("nan"))
    with pytest.raises(ValueError):
        SimulationParams(L=2, kernel="NNNNN")


def test_dimensionless_groups():
    p = SimulationParams(L=4, omega=np.pi / 2, epsilon=0.3, v=0.1, f=0.025, t1=1.0, t2=10.0)
    groups = p.dimensionless_groups()
    assert groups["omega_t1"] == pytest.approx(np.pi / 2)
    assert groups["epsilon_t1"] == pytest.approx(0.3)
    assert groups["v_t1"] == pytest.approx(0.1)
    assert groups["v_t2"] == pytest.approx(1.0)
    assert groups["f_t2"] == pytest.approx(0.25)
    assert p.with_f_t2(0.4).f == pytest.approx(0.04)


def test_kernel_coupling():
    # a state with exactly sites i and j occupied has energy V_ij
    def pair_energy(L, i, j, kernel):
        return interaction_diagonal(SimulationParams(L=L, v=0.1, kernel=kernel))[(1 << (i - 1)) | (1 << (j - 1))]

    assert interaction_diagonal(SimulationParams(L=5, v=0.1))[1 << 2] == 0.0
    assert pair_energy(5, 3, 4, "NN") == pytest.approx(0.1)
    assert pair_energy(5, 3, 5, "NN") == 0.0
    assert pair_energy(5, 3, 5, "NNN") == pytest.approx(0.1 / 2**6)
    assert pair_energy(5, 2, 5, "NNN") == 0.0
    assert pair_energy(8, 1, 8, "ALL") == pytest.approx(0.1 / 7**6)
    with pytest.raises(ValueError):
        SimulationParams(L=5, v=0.1, kernel="XY")


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(1, 12),
    kernel=st.sampled_from(KERNEL_VARIANTS),
    v=st.one_of(st.floats(-10, 10, allow_nan=False), st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 0.1])),
)
def test_interaction_diagonal_bits_match_kernel_class(L, kernel, v):
    # the coupling rule moved from InteractionKernel into interaction_diagonal
    # with the same float operations in the same order
    diag = interaction_diagonal(SimulationParams(L=L, v=v, kernel=kernel))
    assert np.array_equal(diag.view(np.uint64), kernel_class_diagonal(L, v, kernel).view(np.uint64))


def test_interaction_diagonal_examples():
    # one adjacent pair
    d = interaction_diagonal(SimulationParams(L=2, v=0.1))
    assert d[3] == pytest.approx(0.1)
    # |101>: no adjacent pair under NN
    d = interaction_diagonal(SimulationParams(L=3, v=0.1))
    assert d[0b101] == 0.0
    # |101> under ALL: one pair at distance 2
    d = interaction_diagonal(SimulationParams(L=3, v=0.1, kernel="ALL"))
    assert d[0b101] == pytest.approx(0.1 / 2**6)
    assert 0.1 / 2**6 == pytest.approx(0.0015625)


def test_interaction_diagonal_against_oracle():
    for kernel in ("NN", "NNN", "NNNN", "ALL"):
        params = SimulationParams(L=6, v=0.13, kernel=kernel)
        d = interaction_diagonal(params)
        md = kernel_max_distance(kernel)
        expected = [interaction_energy(b, 6, 0.13, md) for b in range(64)]
        assert np.allclose(d, expected, atol=1e-15)


def test_kernel_nesting_order():
    # included-pair sets are nested, so diagonals are ordered elementwise
    diags = [
        interaction_diagonal(SimulationParams(L=7, v=0.1, kernel=k))
        for k in ("NN", "NNN", "NNNN", "ALL")
    ]
    for tighter, wider in zip(diags, diags[1:]):
        assert (tighter <= wider + 1e-15).all()


def test_long_range_correction_bound():
    # corrections beyond NN are O(V/64) per pair
    params_nn = SimulationParams(L=10, v=0.1, kernel="NN")
    params_all = SimulationParams(L=10, v=0.1, kernel="ALL")
    delta = interaction_diagonal(params_all) - interaction_diagonal(params_nn)
    bound = 0.1 * (10 - 2) / 2**6 * (10 / 2)
    assert delta.max() <= bound


def test_stark_diagonal_examples():
    params = SimulationParams(L=2, f=0.025)
    d = stark_diagonal(params)
    assert d[0b10] == pytest.approx(0.05)   # only site j=2 occupied
    assert d[0b11] == pytest.approx(0.075)  # F*(1+2)
    assert np.array_equal(stark_diagonal(SimulationParams(L=5, f=0.0)), np.zeros(32))


def test_build_h1_single_site():
    h1 = build_h1(SimulationParams(L=1, omega=np.pi / 2, epsilon=0.0, v=0.0))
    assert np.allclose(h1, [[0, np.pi / 2], [np.pi / 2, 0]], atol=1e-15)


def test_build_h1_two_site_enumeration():
    # oracle: enumerate the 4x4 matrix by definition
    a, v = 0.7, 0.1
    h1 = build_h1(SimulationParams(L=2, omega=a, epsilon=0.0, v=v))
    expected = np.zeros((4, 4))
    for b in range(4):
        for k in range(2):
            expected[b ^ (1 << k), b] += a
    expected[3, 3] = v
    assert np.allclose(h1, expected, atol=1e-15)


def test_build_h1_hermitian_and_flip_off_limit():
    rng = np.random.default_rng(3)
    for _ in range(5):
        params = SimulationParams(
            L=int(rng.integers(1, 7)),
            omega=float(rng.uniform(0.2, 2.0)),
            epsilon=float(rng.uniform(-0.5, 0.5)),
            v=float(rng.uniform(0, 0.3)),
            kernel=str(rng.choice(["NN", "ALL"])),
        )
        h1 = build_h1(params)
        assert np.max(np.abs(h1 - h1.T)) == 0.0
    # epsilon = -Omega switches the drive off entirely
    h1 = build_h1(SimulationParams(L=4, omega=1.3, epsilon=-1.3, v=0.2))
    assert np.max(np.abs(h1 - np.diag(np.diag(h1)))) == 0.0


def test_build_h2_diagonal_example():
    d = build_h2_diagonal(SimulationParams(L=2, v=0.1, f=0.025))
    assert np.allclose(d, [0.0, 0.025, 0.05, 0.175], atol=1e-15)
    assert np.array_equal(build_h2_diagonal(SimulationParams(L=3)), np.zeros(8))
    # no pairs at L=1
    d1 = build_h2_diagonal(SimulationParams(L=1, v=5.0, f=0.3))
    assert np.allclose(d1, [0.0, 0.3], atol=1e-15)


def test_build_h2_diagonal_against_oracle():
    params = SimulationParams(L=7, v=0.11, f=0.017, kernel="NNN")
    assert np.allclose(build_h2_diagonal(params), h2_diagonal(7, 0.11, 0.017, "NNN"), atol=1e-14)


def test_dense_guard():
    # the site cap is checked once, where a parameter point is made
    with pytest.raises(ValueError, match="L=15 exceeds the site cap of 14"):
        SimulationParams(L=15)
    assert SimulationParams(L=14).dimension == 1 << 14
