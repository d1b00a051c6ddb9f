import numpy as np
import pytest

from starkdtc import state_from_amplitudes, z_product_state
from starkdtc.hilbert import BasisConfig, StateVector, sigma_z_stack
from _oracles import bits_of


def test_basis_dimension_and_validation():
    assert BasisConfig(1).dimension == 2
    assert BasisConfig(12).dimension == 4096
    with pytest.raises(ValueError):
        BasisConfig(0)
    with pytest.raises(ValueError):
        BasisConfig(-3)
    # a bool is refused as SimulationParams refuses it, not taken as 1 or 0
    for flag in (True, False, np.True_):
        with pytest.raises(ValueError, match="site count must be a positive integer"):
            BasisConfig(flag)


def test_z_product_state_single_site():
    basis = BasisConfig(1)
    state = z_product_state("1", basis)
    assert state.amplitudes[1] == 1.0
    assert state.amplitudes[0] == 0.0


def test_z_product_state_encoding_convention():
    # leftmost character is site 1, which sits on bit 0
    basis = BasisConfig(2)
    state = z_product_state("10", basis)
    assert state.product_state_index() == 1


def test_z_product_state_all_ones_l12():
    # oracle: sum of 2^(j-1) over j = 1..12
    expected = sum(2 ** (j - 1) for j in range(1, 13))
    assert expected == 4095
    state = z_product_state("1" * 12, BasisConfig(12))
    assert state.product_state_index() == expected
    assert np.linalg.norm(state.amplitudes) == 1.0


def test_z_product_state_round_trip():
    basis = BasisConfig(7)
    rng = np.random.default_rng(11)
    for _ in range(20):
        bits = "".join(rng.choice(["0", "1"], size=7))
        state = z_product_state(bits, basis)
        assert bits_of(state.product_state_index(), 7) == bits


def test_z_product_state_rejects_bad_input():
    basis = BasisConfig(3)
    with pytest.raises(ValueError):
        z_product_state("10", basis)
    with pytest.raises(ValueError):
        z_product_state("10x", basis)


def test_occupation_diagonal_examples():
    # row j-1 of BasisConfig.occupations() is the diagonal of n_j
    assert BasisConfig(1).occupations()[0].tolist() == [0, 1]
    assert BasisConfig(2).occupations()[1].tolist() == [0, 0, 1, 1]
    assert BasisConfig(2).occupations()[0].tolist() == [0, 1, 0, 1]


def test_occupation_sum_is_popcount():
    basis = BasisConfig(6)
    total = basis.occupations().sum(axis=0)
    expected = [bin(b).count("1") for b in range(basis.dimension)]
    assert total.tolist() == expected


def test_sigma_z_diagonal():
    # row j-1 of sigma_z_stack is the diagonal of sigma^z_j = 2 n_j - 1
    assert sigma_z_stack(BasisConfig(1)).tolist() == [[-1, 1]]
    assert sigma_z_stack(BasisConfig(2))[0].tolist() == [-1, 1, -1, 1]
    basis = BasisConfig(5)
    d = sigma_z_stack(basis)
    assert np.array_equal(d, 2 * basis.occupations() - 1)
    assert np.array_equal(d**2, np.ones((5, basis.dimension)))


def test_state_vector_norm_guard():
    basis = BasisConfig(2)
    # the norm is printed as a plain float, not as a numpy repr
    with pytest.raises(ValueError, match=r"^state vector norm 1\.414213562373\d* deviates"):
        StateVector(np.array([1.0, 1.0, 0, 0]), basis)
    # a NaN norm compares False with any tolerance, and must still fail
    with pytest.raises(ValueError, match=r"^state vector norm nan deviates"):
        StateVector(np.array([np.nan, 0, 0, 0]), basis)
    state = z_product_state("01", basis)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 5.0  # amplitudes frozen after construction


def test_state_from_amplitudes():
    basis = BasisConfig(2)
    a = 1 / np.sqrt(2)
    state = state_from_amplitudes([(0, a, 0.0), (3, 0.0, a)], basis)
    assert state.amplitudes[0] == pytest.approx(a)
    assert state.amplitudes[3] == pytest.approx(1j * a)
    assert state.product_state_index() is None

    # slightly off norm is renormalized, far off is rejected
    ok = state_from_amplitudes([(0, a * (1 + 1e-7), 0.0), (3, a, 0.0)], basis)
    assert np.linalg.norm(ok.amplitudes) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match=r"^amplitude list norm 0\.5 deviates"):
        state_from_amplitudes([(0, 0.5, 0.0)], basis)
    with pytest.raises(ValueError):
        state_from_amplitudes([(0, a, 0.0), (0, a, 0.0)], basis)
    with pytest.raises(ValueError):
        state_from_amplitudes([(4, 1.0, 0.0)], basis)

    # numpy integers are indices; booleans and fractions are not truncated
    assert state_from_amplitudes([(np.int64(2), 1.0, 0.0)], basis).product_state_index() == 2
    for index in (True, 1.5, 1.0, "1"):
        with pytest.raises(ValueError, match=r"^amplitude index .* is not an integer"):
            state_from_amplitudes([(index, 1.0, 0.0)], basis)
    for re, im in ((np.nan, 0.0), (1.0, np.inf), (-np.inf, 0.0)):
        with pytest.raises(ValueError, match=r"^amplitude of index 0 is not finite"):
            state_from_amplitudes([(0, re, im)], basis)
    with pytest.raises(ValueError, match="does not hold real numbers"):
        state_from_amplitudes([(0, None, 0.0)], basis)


@pytest.mark.parametrize("L", range(1, 13))
def test_reflection_orbits_partition_the_basis(L):
    basis = BasisConfig(L)
    fixed, lo, hi = basis.reflection_orbits()
    dim = basis.dimension
    assert np.array_equal(np.sort(np.concatenate([fixed, lo, hi])), np.arange(dim))
    assert np.all(lo < hi)
    # the map the orbits define is the site reflection, an involution
    mirror = np.arange(dim)
    mirror[lo], mirror[hi] = hi, lo
    assert np.array_equal(mirror[mirror], np.arange(dim))
    for b in range(dim):
        assert bits_of(int(mirror[b]), L) == bits_of(b, L)[::-1]
    # sector sizes (2^L +- 2^ceil(L/2)) / 2
    half = 1 << ((L + 1) // 2)
    assert (fixed.size + lo.size, lo.size) == ((dim + half) // 2, (dim - half) // 2)
    known = {1: (2, 0), 10: (528, 496), 12: (2080, 2016)}
    if L in known:
        assert (fixed.size + lo.size, lo.size) == known[L]
