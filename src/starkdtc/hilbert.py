"""Computational basis, elementary spin operators and initial states.

A chain of L two-level atoms is encoded on integers 0 .. 2^L - 1: site
j (1-based) occupies bit j-1, bit value 1 is the Rydberg state |r> and
0 the ground state |g>.  With that choice sigma^z_j = |r><r| - |g><g|
has eigenvalue +1 on occupied sites and occupation extraction is a
shift-and-mask.  An initial state is a z-product state, given as its bit
string (leftmost character = site 1); `basis_index` checks it and gives
the basis integer, which is all the evolution and the overlaps read of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BasisConfig:
    """z-basis of an L-site chain; dimension 2^L.  L is an integer >= 1,
    not a bool (ValueError otherwise)."""

    L: int

    def __post_init__(self):
        if isinstance(self.L, bool) or not isinstance(self.L, (int, np.integer)) or self.L < 1:
            raise ValueError(f"site count must be a positive integer, got {shown(self.L)}")

    @property
    def dimension(self) -> int:
        return 1 << self.L

    def occupations(self) -> np.ndarray:
        """(L, 2^L) array with n_j(b) = bit j-1 of b, rows indexed by j-1."""
        b = np.arange(self.dimension, dtype=np.int64)
        return np.stack([(b >> (j - 1)) & 1 for j in range(1, self.L + 1)]).astype(float)

    def reflection_orbits(self):
        """Orbits of the site reflection R: j -> L+1-j on the basis integers.

        Returns (fixed, lo, hi): the states with R(b) = b, and the pairs
        (lo[k], hi[k] = R(lo[k])) with lo[k] < hi[k], each ascending in its
        first member.  Together they hold every basis state exactly once.
        """
        b = np.arange(self.dimension, dtype=np.int64)
        mirrored = np.zeros_like(b)
        for k in range(self.L):
            mirrored |= ((b >> k) & 1) << (self.L - 1 - k)
        pair = b < mirrored
        return b[b == mirrored], b[pair], mirrored[pair]


def shown(value) -> str:
    """`value` as a refusal names it: its repr, or, if that is long or
    multi-line, its type and length (its repr's if it has none; an int's
    bit length, since str() raises past 4300 digits)."""
    if isinstance(value, int) and abs(value) >= 10 ** 64:
        return f"{type(value).__name__} of {value.bit_length()} bits"
    text = repr(value)
    if len(text) <= 64 and "\n" not in text:
        return text
    return f"{type(value).__name__} of length {len(value) if hasattr(value, '__len__') else len(text)}"


def check_bits(bits, length=None) -> None:
    """Refuse anything but a non-empty 0/1 string (of `length` characters, if
    given)."""
    if not isinstance(bits, str) or not bits or any(ch not in "01" for ch in bits):
        raise ValueError(f"initial_state takes bit strings, got {shown(bits)}")
    if length is not None and len(bits) != length:
        raise ValueError(f"initial_state takes length-{length} bit strings, got {shown(bits)}")


def basis_index(bits, L: int) -> int:
    """Basis index of the z-product state `bits`, leftmost character = site 1.

    '1' puts the site in the Rydberg state |r>, '0' in the ground state |g>;
    anything but a length-L bit string raises ValueError (`check_bits`).
    """
    check_bits(bits, L)
    return int(bits[::-1], 2)


def sigma_z_stack(basis: BasisConfig) -> np.ndarray:
    """(L, 2^L) array of all sigma^z_j diagonals."""
    return 2.0 * basis.occupations() - 1.0
