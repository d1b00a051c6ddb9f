"""One-period Floquet propagator, quasi-spectrum and initial-state overlaps.

The period is U_F = U2 U1 with U1 = exp(-i H1 T1) from the Hermitian
eigendecomposition of H1 and U2 = exp(-i H2 T2) kept as a phase vector, so
composing the stages is a row scaling instead of a dense matmul.

The quasi-spectrum exploits the two-stage structure: conjugating U_F by the
square root of the diagonal stage gives a complex symmetric unitary X + iY
whose real and imaginary parts are commuting real symmetric matrices, so one
real eigendecomposition of X plus small per-cluster diagonalizations of Y
yields an orthonormal Floquet eigenbasis several times faster than a complex
Schur decomposition at dimension 4096.  A Schur-based path covers propagators
without stage structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .exceptions import NumericError
from .hamiltonian import SimulationParams, build_h1, build_h2_diagonal
from .hilbert import StateVector

UNITARITY_TOL = 1e-10
RESIDUAL_TOL = 1e-8
HERMITICITY_TOL = 1e-10
# eigenvalues of the real part closer than this are treated as one cluster;
# large enough that eigenvector mixing across a cluster gap stays ~1e-11
COS_CLUSTER_TOL = 1e-5
PI_PAIR_TOL = 0.05


def propagator_u1(h1: np.ndarray, t1: float) -> np.ndarray:
    """U1 = exp(-i h1 t1) via the Hermitian eigendecomposition of h1."""
    _check_hermitian(h1)
    eigs, vecs = np.linalg.eigh(h1)
    return u1_from_eigensystem(eigs, vecs, t1)


def propagator_u2(h2_diagonal: np.ndarray, t2: float) -> np.ndarray:
    """Diagonal of U2 = exp(-i H2 t2) as a phase vector, never densified."""
    diag = np.asarray(h2_diagonal)
    if np.iscomplexobj(diag):
        raise ValueError("stage-2 diagonal must be real")
    return np.exp(-1j * diag * t2)


def _check_hermitian(h1: np.ndarray) -> None:
    h1 = np.asarray(h1)
    if h1.ndim != 2 or h1.shape[0] != h1.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h1.shape}")
    dev = np.max(np.abs(h1 - h1.conj().T))
    if dev > HERMITICITY_TOL:
        raise ValueError(f"matrix deviates from Hermitian by {dev:.2e}")


def u1_from_eigensystem(eigs: np.ndarray, vecs: np.ndarray, t1: float) -> np.ndarray:
    # real eigenvectors allow two real gemms instead of one complex one
    if not np.iscomplexobj(vecs):
        theta = eigs * t1
        real = (vecs * np.cos(theta)) @ vecs.T
        imag = (vecs * np.sin(theta)) @ vecs.T
        return real - 1j * imag
    return (vecs * np.exp(-1j * eigs * t1)) @ vecs.conj().T


class FloquetPropagator:
    """One-period unitary with the stage factorization it was built from.

    `u_f` is the dense matrix U2 U1.  When built through `floquet_operator`
    the H1 eigensystem and the stage-2 diagonal are retained; they drive the
    fast quasi-spectrum path and stage-level consistency checks.  Instances
    are immutable after construction apart from the lazily cached spectrum.
    """

    def __init__(
        self,
        u_f: np.ndarray,
        params: Optional[SimulationParams] = None,
        h1_eigenvalues: Optional[np.ndarray] = None,
        h1_eigenvectors: Optional[np.ndarray] = None,
        h2_diagonal: Optional[np.ndarray] = None,
        phase2: Optional[np.ndarray] = None,
        validate: bool = True,
    ):
        self.u_f = u_f
        self.params = params
        self.h1_eigenvalues = h1_eigenvalues
        self.h1_eigenvectors = h1_eigenvectors
        self.h2_diagonal = h2_diagonal
        self.phase2 = phase2
        self._spectrum: Optional[QuasiSpectrum] = None
        if validate:
            self._check_unitarity()

    @property
    def dimension(self) -> int:
        return self.u_f.shape[0]

    @property
    def has_stage_factorization(self) -> bool:
        return (
            self.h1_eigenvalues is not None
            and self.h1_eigenvectors is not None
            and self.h2_diagonal is not None
            and not np.iscomplexobj(self.h1_eigenvectors)
        )

    def apply(self, state: np.ndarray) -> np.ndarray:
        """Advance amplitudes (vector or stacked columns) by one period."""
        return self.u_f @ state

    def spectrum(self, validate: bool = True) -> "QuasiSpectrum":
        """Quasi-spectrum, computed once and cached."""
        if self._spectrum is None:
            self._spectrum = quasi_spectrum(self, validate=validate)
        return self._spectrum

    def _check_unitarity(self) -> None:
        dev = unitarity_deviation(self.u_f)
        if dev > UNITARITY_TOL:
            raise NumericError(f"propagator deviates from unitarity by {dev:.2e}")


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


def floquet_operator(params: SimulationParams, validate: bool = True) -> FloquetPropagator:
    """Build U_F = U2 U1 for one parameter point; U1 acts first in time."""
    h1 = build_h1(params)
    eigs, vecs = np.linalg.eigh(h1)
    h2 = build_h2_diagonal(params)
    return floquet_operator_from_stages(params, eigs, vecs, h2, validate=validate)


def floquet_operator_from_stages(
    params: SimulationParams,
    h1_eigenvalues: np.ndarray,
    h1_eigenvectors: np.ndarray,
    h2_diagonal: np.ndarray,
    validate: bool = True,
) -> FloquetPropagator:
    """Assemble the propagator from a precomputed H1 eigensystem.

    Sweeps varying only the Stark strength reuse the eigensystem and pay just
    the O(dim^2) row scaling here.
    """
    u1 = u1_from_eigensystem(h1_eigenvalues, h1_eigenvectors, params.t1)
    phase2 = propagator_u2(h2_diagonal, params.t2)
    u_f = phase2[:, None] * u1
    return FloquetPropagator(
        u_f,
        params=params,
        h1_eigenvalues=h1_eigenvalues,
        h1_eigenvectors=h1_eigenvectors,
        h2_diagonal=h2_diagonal,
        phase2=phase2,
        validate=validate,
    )


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


def quasi_spectrum(
    prop: FloquetPropagator,
    validate: bool = True,
    cluster_tol: float = COS_CLUSTER_TOL,
) -> QuasiSpectrum:
    """Full eigendecomposition of the unitary U_F.

    Uses the commuting-real-parts path when the stage factorization is
    available, otherwise a complex Schur decomposition (exact for normal
    matrices).  Both give orthonormal eigenvectors by construction.
    """
    if prop.has_stage_factorization:
        eigenvalues, eigenstates = _spectrum_from_stages(prop, cluster_tol)
    else:
        t_mat, q_mat = scipy.linalg.schur(prop.u_f, output="complex")
        eigenvalues = np.diag(t_mat).copy()
        eigenstates = q_mat
    mod_dev = np.max(np.abs(np.abs(eigenvalues) - 1.0))
    if mod_dev > UNITARITY_TOL:
        raise NumericError(f"quasi-spectrum eigenvalue moduli deviate from 1 by {mod_dev:.2e}")
    energies = _fold_quasi_energies(eigenvalues)
    order = np.argsort(energies, kind="stable")
    energies = energies[order]
    eigenstates = eigenstates[:, order]
    spectrum = QuasiSpectrum(quasi_energies=energies, eigenstates=eigenstates)
    if validate:
        _validate_spectrum(prop, spectrum)
    return spectrum


def _spectrum_from_stages(prop: FloquetPropagator, cluster_tol: float):
    """Joint real diagonalization of the conjugated symmetric unitary.

    With U_F = D U1, D = diag(exp(-i beta)) and U1 = W exp(-i lam T1) W^T for
    real orthogonal W, the conjugation D^{-1/2} U_F D^{1/2} = M E M^T with
    M = D^{1/2} W unitary is complex symmetric, so its real and imaginary
    parts X, Y are real symmetric and commute (X^2 + Y^2 = 1).  Eigenvectors
    of U_F are D^{1/2} times the joint real eigenbasis of (X, Y); clusters of
    nearly equal X-eigenvalues (the cos of the quasi-energy is two-to-one)
    are resolved by diagonalizing Y inside the cluster.
    """
    params = prop.params
    beta = prop.h2_diagonal * params.t2
    half = np.exp(-0.5j * beta)
    m_mat = half[:, None] * prop.h1_eigenvectors
    sym_unitary = (m_mat * np.exp(-1j * prop.h1_eigenvalues * params.t1)) @ m_mat.T
    x_mat = sym_unitary.real
    x_mat = (x_mat + x_mat.T) * 0.5
    y_mat = sym_unitary.imag
    y_mat = (y_mat + y_mat.T) * 0.5

    cos_vals, basis = np.linalg.eigh(x_mat)
    y_basis = y_mat @ basis

    dim = cos_vals.size
    sin_vals = np.empty(dim)
    cos_out = cos_vals.copy()
    boundaries = np.flatnonzero(np.diff(cos_vals) > cluster_tol) + 1
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
    residual_matrix = prop.u_f @ spectrum.eigenstates - spectrum.eigenstates * spectrum.eigenvalues()
    residual = np.max(np.linalg.norm(residual_matrix, axis=0))
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
