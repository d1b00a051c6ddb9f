"""One-period Floquet propagator, quasi-spectrum and initial-state overlaps.

The period is U_F = U2 U1.  H1 depends on site distances only, so it
commutes with the site reflection R: j -> L+1-j and U1 = exp(-i H1 T1)
splits into an even and an odd reflection sector of about half the
dimension each.  `stage1_unitary` projects H1 onto both sectors, assembles
each block from the eigendecomposition of its real symmetric projection
and checks it for unitarity; U1 is kept only as those two blocks
(`SectorUnitary`).  U2 = exp(-i H2 T2) is diagonal and kept as a phase
vector Phi; the Stark ramp breaks the reflection, so one period is a
sector product with U1, back in the z-basis, followed by a row scaling.

The quasi-spectrum exploits the two-stage structure: with D^1/2 =
exp(-i H2 T2 / 2), conjugating U_F gives the complex symmetric unitary
D^1/2 U1 D^1/2 = X + iY, whose real and imaginary parts are commuting real
symmetric matrices, so one real eigendecomposition of X plus small
per-cluster diagonalizations of Y yields an orthonormal Floquet eigenbasis
several times faster than a complex Schur decomposition at dimension 4096.
It is the one place the dense U1 is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .exceptions import NumericError
from .hamiltonian import SimulationParams, build_h1, build_h2_diagonal
from .hilbert import StateVector

UNITARITY_TOL = 1e-10
RESIDUAL_TOL = 1e-8
# eigenvalues of the real part closer than this are treated as one cluster;
# large enough that eigenvector mixing across a cluster gap stays ~1e-11
COS_CLUSTER_TOL = 1e-5
PI_PAIR_TOL = 0.05
# eigenpair residuals are formed this many columns at a time, so validating
# an L=12 quasi-spectrum holds no second dim x dim complex temporary
RESIDUAL_PANEL = 256
SQRT_HALF = math.sqrt(0.5)


def propagator_u2(h2_diagonal: np.ndarray, t2: float) -> np.ndarray:
    """Diagonal of U2 = exp(-i H2 t2) as a phase vector, never densified."""
    diag = np.asarray(h2_diagonal)
    if np.iscomplexobj(diag):
        raise ValueError("stage-2 diagonal must be real")
    return np.exp(-1j * diag * t2)


def u1_from_eigensystem(eigs: np.ndarray, vecs: np.ndarray, t1: float) -> np.ndarray:
    """W exp(-i eigs t1) W^T for real orthogonal W, as two real gemms."""
    theta = eigs * t1
    real = (vecs * np.cos(theta)) @ vecs.T
    imag = (vecs * np.sin(theta)) @ vecs.T
    return real - 1j * imag


def unitarity_deviation(matrix: np.ndarray) -> float:
    """max |(U^dag U - I)| elementwise, sampled on 16 columns above dim 1024."""
    dim = matrix.shape[0]
    if dim <= 1024:
        gram = matrix.conj().T @ matrix
        return float(np.max(np.abs(gram - np.eye(dim))))
    cols = np.linspace(0, dim - 1, 16).astype(int)
    gram_cols = matrix.conj().T @ matrix[:, cols]
    eye_cols = np.zeros((dim, cols.size))
    eye_cols[cols, np.arange(cols.size)] = 1.0
    return float(np.max(np.abs(gram_cols - eye_cols)))


def _to_sectors(x: np.ndarray, fixed, lo, hi):
    """Sector components of x (rows = basis states): the even part holds
    x[fixed] then (x[lo] + x[hi])/sqrt 2, the odd part (x[lo] - x[hi])/sqrt 2.
    Both come back in F order with the columns of x."""
    tail = x.shape[1:]
    nf = fixed.size
    even = np.empty((nf + lo.size,) + tail, dtype=x.dtype, order="F")
    odd = np.empty((lo.size,) + tail, dtype=x.dtype, order="F")
    x_lo, x_hi = x[lo], x[hi]
    even[:nf] = x[fixed]
    np.add(x_lo, x_hi, out=even[nf:])
    even[nf:] *= SQRT_HALF
    np.subtract(x_lo, x_hi, out=odd)
    odd *= SQRT_HALF
    return even, odd


def _from_sectors(even: np.ndarray, odd: np.ndarray, fixed, lo, hi) -> np.ndarray:
    """Inverse of `_to_sectors`: z-basis rows, in F order."""
    nf = fixed.size
    out = np.empty((nf + 2 * lo.size,) + even.shape[1:], dtype=even.dtype, order="F")
    out[fixed] = even[:nf]
    paired = even[nf:]
    out[lo] = (paired + odd) * SQRT_HALF
    out[hi] = (paired - odd) * SQRT_HALF
    return out


class SectorUnitary:
    """U1 kept as its even and odd reflection-sector blocks.

    `fixed`, `lo` and `hi` are the reflection orbits of the basis (see
    `BasisConfig.reflection_orbits`); the even block acts on the fixed
    states and the symmetric pair combinations, the odd block on the
    antisymmetric ones (empty at L=1).
    """

    def __init__(self, even: np.ndarray, odd: np.ndarray, fixed, lo, hi):
        self.even = even
        self.odd = odd
        self.fixed, self.lo, self.hi = fixed, lo, hi

    @property
    def dimension(self) -> int:
        return self.fixed.size + 2 * self.lo.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        """U1 x for a vector or a column block; one product per sector.

        The products are written in F order, as the sweep's padded blocks
        need for column-independent bits (see `sweep._PANEL`).
        """
        x_even, x_odd = _to_sectors(x, self.fixed, self.lo, self.hi)
        y_even = np.empty(x_even.shape, dtype=complex, order="F")
        y_odd = np.empty(x_odd.shape, dtype=complex, order="F")
        np.matmul(self.even, x_even, out=y_even)
        np.matmul(self.odd, x_odd, out=y_odd)
        return _from_sectors(y_even, y_odd, self.fixed, self.lo, self.hi)

    def dense(self) -> np.ndarray:
        """The full U1 in the z-basis, for the quasi-spectrum and checks."""
        fixed, lo, hi = self.fixed, self.lo, self.hi
        nf = fixed.size
        out = np.empty((self.dimension, self.dimension), dtype=complex)
        out[np.ix_(fixed, fixed)] = self.even[:nf, :nf]
        rows = self.even[:nf, nf:] * SQRT_HALF
        out[np.ix_(fixed, lo)] = rows
        out[np.ix_(fixed, hi)] = rows
        cols = self.even[nf:, :nf] * SQRT_HALF
        out[np.ix_(lo, fixed)] = cols
        out[np.ix_(hi, fixed)] = cols
        paired = self.even[nf:, nf:]
        same = (paired + self.odd) * 0.5
        out[np.ix_(lo, lo)] = same
        out[np.ix_(hi, hi)] = same
        del same
        cross = (paired - self.odd) * 0.5
        out[np.ix_(lo, hi)] = cross
        out[np.ix_(hi, lo)] = cross
        return out


def stage1_unitary(params: SimulationParams) -> SectorUnitary:
    """U1 = exp(-i H1 T1) of one parameter point, as its two sector blocks.

    H1 is projected onto the even and odd reflection sectors; each real
    symmetric projection is diagonalized, its block assembled and checked
    for unitarity.  The sector transform is orthogonal, so the two checks
    together check U1.  No eigensystem outlives the assembly.
    """
    orbits = params.basis.reflection_orbits()
    h1 = build_h1(params)
    rows = _to_sectors(h1, *orbits)
    del h1
    # H1 is symmetric: the sector rows, transposed, are H1 S; project again
    projections = [_to_sectors(block.T, *orbits)[sector] for sector, block in enumerate(rows)]
    del rows
    blocks = []
    for name, h in zip(("even", "odd"), projections):
        if h.size == 0:
            blocks.append(np.zeros(h.shape, dtype=complex))
            continue
        eigs, vecs = np.linalg.eigh(h)
        block = u1_from_eigensystem(eigs, vecs, params.t1)
        del eigs, vecs
        dev = unitarity_deviation(block)
        if dev > UNITARITY_TOL:
            raise NumericError(
                f"stage-1 propagator ({name} sector) deviates from unitarity by {dev:.2e}"
            )
        blocks.append(block)
    return SectorUnitary(*blocks, *orbits)


class FloquetPropagator:
    """One period U_F = U2 U1 of one parameter point, kept as its two stages.

    `u1` is the stage-1 unitary as its two reflection-sector blocks
    (`SectorUnitary`), already checked by `stage1_unitary`; `phase2` is the
    stage-2 phase vector derived from `h2_diagonal`.  `apply` advances
    states by Phi * (U1 psi).  The dense U_F is formed only when `u_f` is
    read, which no library path does.  The quasi-spectrum is computed once
    and cached.
    """

    def __init__(self, params: SimulationParams, u1: SectorUnitary, h2_diagonal: np.ndarray):
        self.params = params
        self.u1 = u1
        self.h2_diagonal = h2_diagonal
        self.phase2 = propagator_u2(h2_diagonal, params.t2)
        self._spectrum: Optional[QuasiSpectrum] = None

    @property
    def dimension(self) -> int:
        return self.u1.dimension

    @cached_property
    def u_f(self) -> np.ndarray:
        """Dense U_F = diag(Phi) U1, built on first read."""
        u_f = self.u1.dense()
        u_f *= self.phase2[:, None]
        return u_f

    def apply(self, state: np.ndarray) -> np.ndarray:
        """Advance amplitudes (vector or stacked columns) by one period."""
        out = self.u1.apply(state)
        out *= self.phase2 if out.ndim == 1 else self.phase2[:, None]
        return out

    def spectrum(self) -> "QuasiSpectrum":
        """Quasi-spectrum, computed once and cached."""
        if self._spectrum is None:
            self._spectrum = quasi_spectrum(self)
        return self._spectrum


def floquet_operator(params: SimulationParams) -> FloquetPropagator:
    """The propagator of one parameter point; U1 acts first in time."""
    return FloquetPropagator(params, stage1_unitary(params), build_h2_diagonal(params))


@dataclass(frozen=True)
class QuasiSpectrum:
    """Floquet eigenpairs: U_F |psi_a> = exp(-i E_a) |psi_a>.

    Quasi-energies lie in (-pi, pi] and are sorted ascending; eigenvector
    columns are orthonormal.
    """

    quasi_energies: np.ndarray
    eigenstates: np.ndarray

    @property
    def dimension(self) -> int:
        return self.eigenstates.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.exp(-1j * self.quasi_energies)


def _fold_quasi_energies(eigenvalues: np.ndarray) -> np.ndarray:
    energies = -np.angle(eigenvalues)
    return np.where(energies <= -np.pi, energies + 2.0 * np.pi, energies)


def quasi_spectrum(prop: FloquetPropagator) -> QuasiSpectrum:
    """Full eigendecomposition of U_F from its stages, with orthonormal
    eigenvectors by construction; the eigenpair residual and the
    orthonormality of the basis are checked on every call."""
    eigenvalues, eigenstates = _spectrum_from_stages(prop)
    mod_dev = np.max(np.abs(np.abs(eigenvalues) - 1.0))
    if mod_dev > UNITARITY_TOL:
        raise NumericError(f"quasi-spectrum eigenvalue moduli deviate from 1 by {mod_dev:.2e}")
    energies = _fold_quasi_energies(eigenvalues)
    order = np.argsort(energies, kind="stable")
    energies = energies[order]
    eigenstates = eigenstates[:, order]
    spectrum = QuasiSpectrum(quasi_energies=energies, eigenstates=eigenstates)
    _validate_spectrum(prop, spectrum)
    return spectrum


def _spectrum_from_stages(prop: FloquetPropagator):
    """Joint real diagonalization of the conjugated symmetric unitary.

    With U_F = D U1, D = diag(exp(-i beta)) and U1 = W exp(-i lam T1) W^T for
    real orthogonal W, the conjugation D^{-1/2} U_F D^{1/2} = D^{1/2} U1 D^{1/2}
    is unitary and complex symmetric, so its real and imaginary parts X, Y
    are real symmetric and commute (X^2 + Y^2 = 1).  Eigenvectors of U_F are
    D^{1/2} times the joint real eigenbasis of (X, Y); clusters of nearly
    equal X-eigenvalues (the cos of the quasi-energy is two-to-one) are
    resolved by diagonalizing Y inside the cluster.
    """
    beta = prop.h2_diagonal * prop.params.t2
    half = np.exp(-0.5j * beta)
    # in place: the dense U1 is the largest array held here
    sym_unitary = prop.u1.dense()
    sym_unitary *= half[:, None]
    sym_unitary *= half
    x_mat = sym_unitary.real + sym_unitary.real.T
    x_mat *= 0.5
    y_mat = sym_unitary.imag + sym_unitary.imag.T
    y_mat *= 0.5
    del sym_unitary

    cos_vals, basis = np.linalg.eigh(x_mat)
    del x_mat
    y_basis = y_mat @ basis
    del y_mat

    dim = cos_vals.size
    sin_vals = np.empty(dim)
    cos_out = cos_vals.copy()
    boundaries = np.flatnonzero(np.diff(cos_vals) > COS_CLUSTER_TOL) + 1
    start = 0
    for stop in list(boundaries) + [dim]:
        idx = slice(start, stop)
        size = stop - start
        if size == 1:
            sin_vals[start] = basis[:, start] @ y_basis[:, start]
        else:
            block = basis[:, idx].T @ y_basis[:, idx]
            block = (block + block.T) * 0.5
            sy, rot = np.linalg.eigh(block)
            basis[:, idx] = basis[:, idx] @ rot
            sin_vals[idx] = sy
            cos_out[idx] = ((cos_vals[idx][:, None] * rot) * rot).sum(axis=0)
        start = stop

    eigenvalues = cos_out + 1j * sin_vals
    eigenstates = half[:, None] * basis
    return eigenvalues, eigenstates


def _validate_spectrum(prop: FloquetPropagator, spectrum: QuasiSpectrum) -> None:
    eigenvalues = spectrum.eigenvalues()
    residual = 0.0
    for at in range(0, spectrum.dimension, RESIDUAL_PANEL):
        cols = slice(at, at + RESIDUAL_PANEL)
        panel = prop.apply(spectrum.eigenstates[:, cols])
        panel -= spectrum.eigenstates[:, cols] * eigenvalues[cols]
        residual = max(residual, np.max(np.linalg.norm(panel, axis=0)))
    if residual > RESIDUAL_TOL:
        raise NumericError(f"quasi-spectrum eigenpair residual {residual:.2e} exceeds {RESIDUAL_TOL}")
    # orthonormality on a sample of Gram columns (exact by construction up to roundoff)
    dim = spectrum.dimension
    cols = np.linspace(0, dim - 1, min(dim, 16)).astype(int)
    gram_cols = spectrum.eigenstates.conj().T @ spectrum.eigenstates[:, cols]
    eye_cols = np.zeros((dim, cols.size))
    eye_cols[cols, np.arange(cols.size)] = 1.0
    dev = np.max(np.abs(gram_cols - eye_cols))
    if dev > RESIDUAL_TOL:
        raise NumericError(f"quasi-spectrum eigenbasis deviates from orthonormal by {dev:.2e}")


@dataclass(frozen=True)
class OverlapTable:
    """(quasi-energy, |<psi(0)|psi^F_a>|^2) pairs sorted by quasi-energy."""

    quasi_energies: np.ndarray
    overlaps: np.ndarray

    def __post_init__(self):
        total = float(np.sum(self.overlaps))
        if abs(total - 1.0) > 1e-8:
            raise NumericError(f"overlap completeness sum {total!r} deviates from 1 beyond 1e-8")

    def __len__(self) -> int:
        return self.quasi_energies.size

    def rows(self):
        """(quasi_energy, overlap) tuples for table output."""
        return list(zip(self.quasi_energies.tolist(), self.overlaps.tolist()))


@dataclass(frozen=True)
class PiPair:
    """Two dominant Floquet eigenstates split by a quasi-energy gap of pi."""

    index_a: int
    index_b: int
    gap: float
    combined_overlap: float


def overlaps(spectrum: QuasiSpectrum, psi0: StateVector) -> OverlapTable:
    """Overlap of the initial state with every Floquet eigenstate."""
    if psi0.dimension != spectrum.dimension:
        raise ValueError(
            f"state dimension {psi0.dimension} does not match spectrum dimension {spectrum.dimension}"
        )
    amplitudes = spectrum.eigenstates.conj().T @ psi0.amplitudes
    weight = np.abs(amplitudes) ** 2
    return OverlapTable(quasi_energies=spectrum.quasi_energies.copy(), overlaps=weight)


def circular_gap(e1: float, e2: float) -> float:
    """Distance between two quasi-energies on the circle of circumference 2 pi."""
    d = abs(e1 - e2) % (2.0 * np.pi)
    return min(d, 2.0 * np.pi - d)


def find_pi_pair(table: OverlapTable, tol: float = PI_PAIR_TOL) -> Optional[PiPair]:
    """The two largest-overlap entries, if their circular gap is within tol of pi.

    Returns None when the dominant pair is not pi-split.  The default
    tolerance of 0.05 rad separates a genuine pair from background while
    tolerating finite-size splitting.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if len(table) < 2:
        raise ValueError("overlap table needs at least two entries")
    top = np.argsort(table.overlaps, kind="stable")[-2:]
    i, j = int(top[1]), int(top[0])
    gap = circular_gap(table.quasi_energies[i], table.quasi_energies[j])
    if abs(gap - np.pi) > tol:
        return None
    return PiPair(
        index_a=min(i, j),
        index_b=max(i, j),
        gap=gap,
        combined_overlap=float(table.overlaps[i] + table.overlaps[j]),
    )
