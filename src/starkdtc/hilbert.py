"""Computational basis, elementary spin operators and initial states.

A chain of L two-level atoms is encoded on integers 0 .. 2^L - 1: site
j (1-based) occupies bit j-1, bit value 1 is the Rydberg state |r> and
0 the ground state |g>.  With that choice sigma^z_j = |r><r| - |g><g|
has eigenvalue +1 on occupied sites and occupation extraction is a
shift-and-mask.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-10
# amplitude lists from config files may carry rounded-off entries
LOAD_NORM_TOL = 1e-6


@dataclass(frozen=True)
class BasisConfig:
    """z-basis of an L-site chain; dimension 2^L."""

    L: int

    def __post_init__(self):
        if not isinstance(self.L, (int, np.integer)) or self.L < 1:
            raise ValueError(f"site count must be a positive integer, got {self.L!r}")

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


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitudes over the z-basis of `basis`."""

    amplitudes: np.ndarray
    basis: BasisConfig
    label: str = field(default="", compare=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.basis.dimension,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({self.basis.dimension},)"
            )
        norm = np.linalg.norm(amps)
        # written so that a NaN norm fails too
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state vector norm {float(norm)!r} deviates from 1 beyond {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    def product_state_index(self) -> int | None:
        """Basis index if this is a z-product state, else None."""
        nz = np.flatnonzero(self.amplitudes)
        if nz.size == 1:
            return int(nz[0])
        return None


def check_bits(bits, length=None) -> None:
    """Refuse anything but a non-empty 0/1 string (of `length` characters, if given)."""
    if not isinstance(bits, str) or not bits or any(ch not in "01" for ch in bits):
        raise ValueError(f"initial_state takes bit strings, got {bits!r}")
    if length is not None and len(bits) != length:
        raise ValueError(f"initial_state takes length-{length} bit strings, got {bits!r}")


def z_product_state(bits: str, basis: BasisConfig) -> StateVector:
    """Computational basis state from a bit string, leftmost character = site 1.

    '1' puts the site in the Rydberg state |r>, '0' in the ground state |g>.
    """
    check_bits(bits, basis.L)
    index = sum(1 << (j - 1) for j, ch in enumerate(bits, start=1) if ch == "1")
    amps = np.zeros(basis.dimension, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps, basis, label=bits)


def state_from_amplitudes(triples, basis: BasisConfig) -> StateVector:
    """State from (basis-index, real, imag) triples, e.g. entangled config input.

    The vector is renormalized if its norm is within 1e-6 of one and rejected
    otherwise; duplicate indices, indices that are not integers (booleans
    and fractional numbers are not truncated) and non-finite amplitudes are
    rejected.
    """
    amps = np.zeros(basis.dimension, dtype=complex)
    seen = set()
    for entry in triples:
        try:
            index, re, im = entry
        except (TypeError, ValueError):
            raise ValueError(f"amplitude entry {entry!r} is not an (index, real, imag) triple")
        if isinstance(index, bool) or not isinstance(index, numbers.Integral):
            raise ValueError(f"amplitude index {index!r} is not an integer")
        index = int(index)
        if not 0 <= index < basis.dimension:
            raise ValueError(f"amplitude index {index} out of range for L={basis.L}")
        if index in seen:
            raise ValueError(f"duplicate amplitude index {index}")
        seen.add(index)
        try:
            amplitude = float(re) + 1j * float(im)
        except (TypeError, ValueError):
            raise ValueError(f"amplitude entry {entry!r} does not hold real numbers")
        if not np.isfinite(amplitude):
            raise ValueError(f"amplitude of index {index} is not finite: {amplitude!r}")
        amps[index] = amplitude
    norm = np.linalg.norm(amps)
    if not abs(norm - 1.0) <= LOAD_NORM_TOL:
        raise ValueError(f"amplitude list norm {float(norm)!r} deviates from 1 beyond {LOAD_NORM_TOL}")
    return StateVector(amps / norm, basis, label="amplitudes")


def sigma_z_stack(basis: BasisConfig) -> np.ndarray:
    """(L, 2^L) array of all sigma^z_j diagonals."""
    return 2.0 * basis.occupations() - 1.0
