import sys

import numpy as np
import pytest

from starkdtc import SimulationParams
from starkdtc.hilbert import basis_index, occupations, reflection_orbits, shown, sigma_z_stack
from _oracles import bits_of


def test_basis_dimension_and_validation():
    # SimulationParams is the one holder of the site-count rule; the basis
    # functions take the L it accepted
    assert SimulationParams(L=1).dimension == 2
    assert SimulationParams(L=12).dimension == 4096
    assert occupations(12).shape == (12, 4096)
    with pytest.raises(ValueError):
        SimulationParams(L=0)
    with pytest.raises(ValueError):
        SimulationParams(L=-3)
    # a bool is refused, not taken as 1 or 0
    for flag in (True, False, np.True_):
        with pytest.raises(ValueError, match="L must be a positive integer"):
            SimulationParams(L=flag)


def test_z_product_state_single_site():
    assert basis_index("1", 1) == 1
    assert basis_index("0", 1) == 0


def test_z_product_state_encoding_convention():
    # leftmost character is site 1, which sits on bit 0
    assert basis_index("10", 2) == 1
    assert basis_index("01", 2) == 2
    assert basis_index("1100", 4) == 0b0011


def test_z_product_state_all_ones_l12():
    # oracle: sum of 2^(j-1) over j = 1..12
    expected = sum(2 ** (j - 1) for j in range(1, 13))
    assert expected == 4095
    assert basis_index("1" * 12, 12) == expected


def test_z_product_state_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        bits = "".join(rng.choice(["0", "1"], size=7))
        assert bits_of(basis_index(bits, 7), 7) == bits
    assert [basis_index(bits_of(b, 5), 5) for b in range(32)] == list(range(32))


def test_z_product_state_rejects_bad_input():
    for bits, message in (("10", "length-3 bit strings, got '10'"), ("10x", "bit strings, got '10x'"),
                          ("", "bit strings, got ''"), (101, "bit strings, got 101"),
                          ([[0, 1.0, 0.0]], r"bit strings, got \[\[0, 1\.0, 0\.0\]\]")):
        with pytest.raises(ValueError, match=f"^initial_state takes {message}$"):
            basis_index(bits, 3)


def test_occupation_diagonal_examples():
    # row j-1 of occupations(L) is the diagonal of n_j
    assert occupations(1)[0].tolist() == [0, 1]
    assert occupations(2)[1].tolist() == [0, 0, 1, 1]
    assert occupations(2)[0].tolist() == [0, 1, 0, 1]


def test_occupation_sum_is_popcount():
    total = occupations(6).sum(axis=0)
    expected = [bin(b).count("1") for b in range(1 << 6)]
    assert total.tolist() == expected


def test_sigma_z_diagonal():
    # row j-1 of sigma_z_stack is the diagonal of sigma^z_j = 2 n_j - 1
    assert sigma_z_stack(1).tolist() == [[-1, 1]]
    assert sigma_z_stack(2)[0].tolist() == [-1, 1, -1, 1]
    d = sigma_z_stack(5)
    assert np.array_equal(d, 2 * occupations(5) - 1)
    assert np.array_equal(d**2, np.ones((5, 1 << 5)))


@pytest.mark.parametrize("L", range(1, 13))
def test_reflection_orbits_partition_the_basis(L):
    fixed, lo, hi = reflection_orbits(L)
    dim = 1 << L
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


def test_shown_names_a_value_nested_past_the_recursion_limit():
    # json.loads takes a config nested nearly to the recursion limit, and
    # repr of such a value used to raise RecursionError out of a refusal
    value = []
    for _ in range(sys.getrecursionlimit()):
        value = [value]
    assert shown(value) == "list nested too deeply to show"
    assert shown([[0, 1.0]]) == "[[0, 1.0]]"
