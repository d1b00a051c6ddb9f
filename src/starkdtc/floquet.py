"""One-period Floquet propagator, quasi-spectrum and initial-state overlaps.

The period is U_F = U2 U1.  H1 depends on site distances only, so it
commutes with the site reflection R: j -> L+1-j and U1 = exp(-i H1 T1)
splits into an even and an odd reflection sector of about half the
dimension each.  Internally the basis is kept in reflection-orbit order
(fixed states, then the lower and the upper member of each pair), where the
transform into sector components is slice arithmetic on contiguous rows.
`stage1_unitary` permutes H1 into that order once, projects it onto both
sectors and diagonalizes each real symmetric projection; U1 is kept as the
two eigensystems, W exp(-i theta) W^T per sector with W real orthogonal
(`SectorUnitary`), after W is checked for orthogonality.  The per-cycle
evolution assembles the two complex blocks once per run
(`SectorUnitary.assemble`): on narrow blocks one zgemm per sector is
faster than the two real products of the eigensystem form.  U2 =
exp(-i H2 T2) is diagonal and kept as a phase vector Phi; the Stark ramp
breaks the reflection, so one period is a sector product with U1 followed
by a row scaling.

The quasi-spectrum exploits the two-stage structure: with D^1/2 =
exp(-i H2 T2 / 2), conjugating U_F gives the complex symmetric unitary
D^1/2 U1 D^1/2 = X + iY, whose real and imaginary parts are commuting real
symmetric matrices.  Only X is formed, a tile of block columns at a time
from the sector eigensystems, and diagonalized (LAPACK dsyevr through
scipy, which is imported only there).  The eigenstates are D^1/2 V with V
real orthogonal: one pass of the true U_F over the eigenvectors, with U1 in
its eigensystem form, yields Y on them (which resolves the sign of each
quasi-energy and rotates clusters of nearly equal cos, a real rotation) and
the eigenpair residual that validates the result.  V stays real, with
D^1/2 kept beside it.  At dimension 4096 this is several times faster than
a complex Schur decomposition.  No dense U1 is ever formed, and no
assembled block exists during a quasi-spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import NumericError, ResourceLimitError
from .hamiltonian import SimulationParams, build_h1, build_h2_diagonal
from .hilbert import StateVector

UNITARITY_TOL = 1e-10
RESIDUAL_TOL = 1e-8
# eigenvalues of the real part closer than this are treated as one cluster;
# large enough that eigenvector mixing across a cluster gap stays ~1e-11
COS_CLUSTER_TOL = 1e-5
PI_PAIR_TOL = 0.05
COMPLETENESS_TOL = 1e-8
# the quasi-spectrum applies U_F to at most this many eigenvectors at a
# time, through one set of panel buffers
RESIDUAL_PANEL = 256
# X is formed from the block columns of at least this many mirror pairs at
# a time, and never from fewer than X_TILE_MIN (see `_form_x`)
X_TILE = 96
X_TILE_MIN = 64
# the unitarity check forms the whole Gram matrix up to this dimension and
# 16 sampled Gram rows above it
FULL_GRAM_DIM = 1024
SQRT_HALF = math.sqrt(0.5)
# peak memory of stage 1 plus one quasi-spectrum above the process baseline:
# U1's sector eigensystems take 4 bytes per 4^L, X and the eigenvectors
# dsyevr writes beside it 8 each (while X is formed, the four scaled copies
# of W take the eigenvectors' place), plus scipy, the tile and panel
# buffers and BLAS buffers; measured 67 / 127 / 357 MiB for `overlaps` at
# L=10 / 11 / 12
QUASI_SPECTRUM_BYTES_PER_4L = 20
QUASI_SPECTRUM_BASE_BYTES = 56 << 20
# peak memory of stage 1 and an evolution above the process baseline: the
# dense H1 and its orbit-ordered copy take 8 bytes per 4^L each, and the
# evolution's assembly about as much (the sector eigensystems 4, the
# assembled blocks 8, a scaled copy of W and a work buffer 2 each);
# measured 22 / 71 / 266 MiB for `series` at L=10 / 11 / 12
STAGE1_BYTES_PER_4L = 16
STAGE1_BASE_BYTES = 24 << 20


def propagator_u2(h2_diagonal: np.ndarray, t2: float) -> np.ndarray:
    """Diagonal of U2 = exp(-i H2 t2) as a phase vector, never densified."""
    diag = np.asarray(h2_diagonal)
    if np.iscomplexobj(diag):
        raise ValueError("stage-2 diagonal must be real")
    return np.exp(-1j * diag * t2)


def u1_from_eigensystem(theta: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """W exp(-i theta) W^T for real orthogonal W, as two real gemms.

    Each product goes through one reused real buffer into its half of the
    block, the imaginary half as 0 - sin product: the bits of `real - 1j *
    imag` (signed zeros included, since a gemm sum is never -0) without its
    three complex temporaries.  Only one scaled copy of W is held at a
    time."""
    block = np.empty(vecs.shape, dtype=complex)
    part = np.empty(vecs.shape)
    np.matmul(vecs * np.cos(theta), vecs.T, out=part)
    np.copyto(block.real, part)
    np.matmul(vecs * np.sin(theta), vecs.T, out=part)
    np.subtract(0.0, part, out=block.imag)
    return block


def unitarity_deviation(matrix: np.ndarray, full_dim: int = FULL_GRAM_DIM) -> float:
    """max |(U^dag U - I)| elementwise, for a complex U or a real W: over
    the whole Gram matrix up to dimension `full_dim`, above it over 16
    sampled Gram rows (the Gram matrix is Hermitian, so they hold the
    sampled columns' values).  The identity is subtracted in place, and
    only the sampled columns of U are conjugated (a real W is never
    copied for it)."""
    dim = matrix.shape[0]
    if dim <= full_dim:
        gram = matrix.conj().T @ matrix
        gram.flat[::dim + 1] -= 1.0
    else:
        cols = np.linspace(0, dim - 1, min(dim, 16)).astype(int)
        gram = matrix[:, cols].conj().T @ matrix
        gram[np.arange(cols.size), cols] -= 1.0
    return float(np.max(np.abs(gram)))


def _leading(buffer: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """A C-order (rows, cols) array over the start of the flat `buffer`,
    so one buffer serves every width up to the one it was made for."""
    return buffer[:rows * cols].reshape(rows, cols)


def _split(x: np.ndarray, n_fixed: int, even: np.ndarray, odd: np.ndarray) -> None:
    """Sector components of orbit-ordered rows x (`fixed || lo || hi`):
    `even` gets x_f, then (x_lo + x_hi)/sqrt 2, `odd` gets (x_lo - x_hi)/sqrt 2."""
    n_pairs = odd.shape[0]
    x_lo, x_hi = x[n_fixed:n_fixed + n_pairs], x[n_fixed + n_pairs:]
    even[:n_fixed] = x[:n_fixed]
    paired = even[n_fixed:]
    np.add(x_lo, x_hi, out=paired)
    paired *= SQRT_HALF
    np.subtract(x_lo, x_hi, out=odd)
    odd *= SQRT_HALF


def _merge(even: np.ndarray, odd: np.ndarray, n_fixed: int, out: np.ndarray) -> np.ndarray:
    """Inverse of `_split`: orbit-ordered rows, written to `out`."""
    n_pairs = odd.shape[0]
    out[:n_fixed] = even[:n_fixed]
    paired = even[n_fixed:]
    out_lo, out_hi = out[n_fixed:n_fixed + n_pairs], out[n_fixed + n_pairs:]
    np.add(paired, odd, out=out_lo)
    out_lo *= SQRT_HALF
    np.subtract(paired, odd, out=out_hi)
    out_hi *= SQRT_HALF
    return out


def _project(h: np.ndarray, n_fixed: int):
    """Even and odd sector blocks of a real symmetric matrix h in orbit
    order, from contiguous blocks; the same bits as `_split` on the rows of
    h and then on the columns, without the intermediate sector rows.  With
    s = 1/sqrt 2: even = [[h_ff, s (h_fl + h_fh)], [s (h_lf + h_hf),
    s (s (h_ll + h_lh) + s (h_hl + h_hh))]] and odd = s (s (h_ll - h_lh) -
    s (h_hl - h_hh))."""
    n_pairs = (h.shape[0] - n_fixed) // 2
    f, lo, hi = slice(0, n_fixed), slice(n_fixed, n_fixed + n_pairs), slice(n_fixed + n_pairs, None)
    even = np.empty((n_fixed + n_pairs,) * 2)
    odd = np.empty((n_pairs,) * 2)
    even[f, f] = h[f, f]
    for out, a, b in ((even[f, n_fixed:], h[f, lo], h[f, hi]), (even[n_fixed:, f], h[lo, f], h[hi, f])):
        np.add(a, b, out=out)
        out *= SQRT_HALF
    # the upper term is formed in the output block itself, the lower in one
    # work block shared by both sectors
    lower = np.empty_like(odd)
    for out, op in ((even[n_fixed:, n_fixed:], np.add), (odd, np.subtract)):
        op(h[lo, lo], h[lo, hi], out=out)
        out *= SQRT_HALF
        op(h[hi, lo], h[hi, hi], out=lower)
        lower *= SQRT_HALF
        op(out, lower, out=out)
        out *= SQRT_HALF
    return even, odd


class SectorUnitary:
    """U1 kept as the eigensystem of each reflection sector.

    `even` and `odd` each hold (theta, W): U1 on the sector is W
    exp(-i theta) W^T, with W real orthogonal (checked by `stage1_unitary`)
    and theta = lambda T1 for the eigenvalues lambda of the sector's
    projection of H1.  The sectors act on the basis in reflection-orbit
    order `fixed || lo || hi` (see `BasisConfig.reflection_orbits`);
    `order` maps each orbit position to its z-basis index and `inverse`
    maps back.  The even sector acts on the fixed states and the symmetric
    pair combinations, the odd sector on the antisymmetric ones (empty at
    L=1).  In orbit order the sector transform is slice arithmetic on
    contiguous rows (`_split`, `_merge`).  `product` is U1 on orbit-ordered
    rows in this form; `assemble` gives the complex blocks that the
    per-cycle evolution multiplies by.
    """

    def __init__(self, even, odd, fixed, lo, hi):
        self.even = even
        self.odd = odd
        self.order = np.concatenate((fixed, lo, hi))
        self.inverse = np.argsort(self.order)
        self.n_fixed = fixed.size

    @property
    def dimension(self) -> int:
        return self.order.size

    def _rows(self):
        return (self.even[1].shape[0], self.odd[1].shape[0]) * 2

    def workspace(self, width: int):
        """Flat complex sector buffers (x_even, x_odd, y_even, y_odd) for
        `product`, and for `SectorBlocks.product`, on up to `width`
        columns."""
        return tuple(np.empty(rows * width, dtype=complex) for rows in self._rows())

    def views(self, work, width: int):
        """C-order (rows, width) views over the start of the `workspace`
        buffers."""
        return tuple(_leading(buf, rows, width) for buf, rows in zip(work, self._rows()))

    def product(self, x: np.ndarray, out: np.ndarray, work) -> np.ndarray:
        """U1 x on orbit-ordered rows (a 2-d block), into `out` (which may
        be x itself): per sector W^T, the phases exp(-i theta), then W.
        Each product is a real gemm on the float view of a complex C-order
        buffer, whose rows hold the real and imaginary parts of a row side
        by side.  `work` comes from `workspace(width)`, width >= x's."""
        x_even, x_odd, y_even, y_odd = self.views(work, x.shape[1])
        _split(x, self.n_fixed, x_even, x_odd)
        for (theta, w), xs, ys in zip((self.even, self.odd), (x_even, x_odd), (y_even, y_odd)):
            np.matmul(w.T, xs.view(float), out=ys.view(float))
            ys *= np.exp(-1j * theta)[:, None]
            np.matmul(w, ys.view(float), out=xs.view(float))
        return _merge(x_even, x_odd, self.n_fixed, out)

    def assemble(self, params: SimulationParams) -> "SectorBlocks":
        """The complex blocks W exp(-i theta) W^T (`u1_from_eigensystem`),
        each checked on 16 sampled Gram rows at every size, which catches
        an assembly fault (W itself was checked in full).  A block off by
        more than `UNITARITY_TOL` raises `NumericError` naming the key of
        `params` and the sector."""
        blocks = []
        for name, (theta, w) in (("even", self.even), ("odd", self.odd)):
            block = u1_from_eigensystem(theta, w)
            if block.size:
                _check_unitarity(unitarity_deviation(block, full_dim=0), params, name, "once assembled")
            blocks.append(block)
        return SectorBlocks(*blocks, self)


class SectorBlocks:
    """U1 as its two assembled complex sector blocks, for the per-cycle
    evolution (`observables._evolve_block`).  `u1` is the `SectorUnitary`
    they were assembled from: it holds the orbit order and makes the
    sector buffers (`u1.workspace`).  `product` is one zgemm per sector,
    which on narrow blocks is faster than the two real gemms of the
    eigensystem form.
    """

    def __init__(self, even: np.ndarray, odd: np.ndarray, u1: SectorUnitary):
        self.even = even
        self.odd = odd
        self.u1 = u1

    def product(self, x: np.ndarray, out: np.ndarray, work) -> np.ndarray:
        """U1 x on orbit-ordered rows (a C-order 2-d block), one product
        per sector, into `out` (which may be x itself).  `work` comes from
        `u1.workspace(width)`, width >= x's; its views are C-order, so a
        C-order block gets C-order products (the sweep's padded blocks
        need them for column-independent bits, see `sweep._PANEL`)."""
        x_even, x_odd, y_even, y_odd = self.u1.views(work, x.shape[1])
        _split(x, self.u1.n_fixed, x_even, x_odd)
        np.matmul(self.even, x_even, out=y_even)
        np.matmul(self.odd, x_odd, out=y_odd)
        return _merge(y_even, y_odd, self.u1.n_fixed, out)


def _available_memory() -> Optional[int]:
    """MemAvailable from /proc/meminfo in bytes, or None if it cannot be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def quasi_spectrum_bytes(L: int) -> int:
    """Estimated peak memory of stage 1 plus a quasi-spectrum at L sites,
    above the process baseline."""
    return QUASI_SPECTRUM_BYTES_PER_4L * 4 ** L + QUASI_SPECTRUM_BASE_BYTES


def stage1_bytes(L: int) -> int:
    """Estimated peak memory of stage 1 and the evolution after it at L
    sites, above the process baseline."""
    return STAGE1_BYTES_PER_4L * 4 ** L + STAGE1_BASE_BYTES


def _check_memory(what: str, need: int) -> None:
    available = _available_memory()
    if available is not None and need > available:
        raise ResourceLimitError(
            f"{what} needs about {need / 2**30:.1f} GiB, "
            f"but only {available / 2**30:.1f} GiB of memory is available"
        )


def check_quasi_spectrum_memory(L: int) -> None:
    """Raise `ResourceLimitError` when stage 1 plus a quasi-spectrum at L
    sites would not fit in the available memory; skipped when that cannot
    be read.  Called before stage 1, so nothing is allocated or written."""
    _check_memory(f"a quasi-spectrum at L={L}", quasi_spectrum_bytes(L))


def check_stage1_memory(L: int) -> None:
    """`check_quasi_spectrum_memory` for the commands that only evolve
    states: stage 1 at L sites and the evolution after it."""
    _check_memory(f"stage 1 at L={L}", stage1_bytes(L))


def _key_text(params: SimulationParams) -> str:
    """The stage-1 key of a point, for error messages."""
    return (
        f"L={params.L}, Omega={params.omega!r}, epsilon={params.epsilon!r}, "
        f"V={params.v!r}, kernel={params.kernel}, T1={params.t1!r}"
    )


def _point_text(params: SimulationParams) -> str:
    """The full parameter point, for error messages."""
    return f"{_key_text(params)}, T2={params.t2!r}, F*T2={params.f_t2!r}"


def _check_unitarity(dev: float, params: SimulationParams, sector: str, where: str) -> None:
    if dev > UNITARITY_TOL:
        raise NumericError(
            f"stage-1 propagator ({sector} sector) at key ({_key_text(params)}) deviates "
            f"from unitarity by {dev:.2e} {where}, tolerance {UNITARITY_TOL:.0e}"
        )


def stage1_unitary(params: SimulationParams) -> SectorUnitary:
    """U1 = exp(-i H1 T1) of one parameter point, as its two sector
    eigensystems.

    H1 is permuted into reflection-orbit order once and projected onto the
    even and odd reflection sectors (`_project`); each real symmetric
    projection is diagonalized, and its eigenvectors W are checked for
    orthogonality (`unitarity_deviation`: the whole W^T W - I up to
    dimension 1024, 16 sampled rows above).  U1 = W exp(-i theta) W^T
    deviates from unitarity only as far as W from orthogonality, so no
    block is assembled for the check, and the sector transform is
    orthogonal, so the two checks together check U1.  No projection
    outlives its diagonalization, so the peak is the dense H1 beside its
    orbit-ordered copy (`stage1_bytes`); the result holds dim^2 / 2
    doubles.
    """
    fixed, lo, hi = params.basis.reflection_orbits()
    order = np.concatenate((fixed, lo, hi))
    projections = list(_project(build_h1(params)[np.ix_(order, order)], fixed.size))
    sectors = []
    for name in ("even", "odd"):
        # each projection is released once diagonalized
        h = projections.pop(0)
        eigs, vecs = np.linalg.eigh(h)
        del h
        if vecs.size:
            _check_unitarity(unitarity_deviation(vecs), params, name, "in its eigenvectors")
        sectors.append((eigs * params.t1, vecs))
    return SectorUnitary(*sectors, fixed, lo, hi)


class FloquetPropagator:
    """One period U_F = U2 U1 of one parameter point, kept as its two stages.

    `u1` is the stage-1 unitary as its two reflection-sector eigensystems
    (`SectorUnitary`), already checked by `stage1_unitary`; `phase2` is the
    stage-2 phase vector derived from `h2_diagonal`.  `apply` advances
    z-basis states by Phi * (U1 psi), one period per call, with U1 in its
    eigensystem form; the evolution loops assemble U1's blocks and work in
    orbit order instead (`observables._evolve_block`).  No dense U_F is
    ever formed.  The quasi-spectrum is computed once and cached.
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

    def apply(self, state: np.ndarray) -> np.ndarray:
        """Advance z-basis amplitudes (vector or stacked columns) by one
        period: into orbit order, `u1.product`, back, then the phase."""
        u1 = self.u1
        state = np.asarray(state, dtype=complex)
        ordered = np.ascontiguousarray(state[u1.order]).reshape(u1.dimension, -1)
        out = u1.product(ordered, ordered, u1.workspace(ordered.shape[1]))[u1.inverse]
        out *= self.phase2[:, None]
        return out.reshape(state.shape)

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

    Quasi-energies lie in (-pi, pi] and are sorted ascending.  The
    eigenstates are psi_a = D^1/2 v_a: `vectors` is the real orthogonal
    matrix of the v_a (z-basis rows, one column per quasi-energy) and
    `phases` the z-basis diagonal of D^1/2 = exp(-i H2 T2 / 2), so the
    complex eigenstate matrix is not stored; `eigenstates()` forms it, a
    new dim x dim complex array on every call.  `params` names the point in
    error messages.
    """

    quasi_energies: np.ndarray
    vectors: np.ndarray
    phases: np.ndarray
    params: Optional[SimulationParams] = None

    @property
    def dimension(self) -> int:
        return self.vectors.shape[0]

    def eigenstates(self) -> np.ndarray:
        """The orthonormal eigenstate columns D^1/2 V, as a new complex
        array (writes to it do not reach `vectors`)."""
        return self.phases[:, None] * self.vectors

    def eigenvalues(self) -> np.ndarray:
        return np.exp(-1j * self.quasi_energies)


def _fold_quasi_energies(eigenvalues: np.ndarray) -> np.ndarray:
    energies = -np.angle(eigenvalues)
    return np.where(energies <= -np.pi, energies + 2.0 * np.pi, energies)


def quasi_spectrum(prop: FloquetPropagator) -> QuasiSpectrum:
    """Full eigendecomposition of U_F from its stages, with orthonormal
    eigenvectors by construction.

    With U_F = Phi U1, D^1/2 = diag(exp(-i beta/2)) for the stage-2 phases
    Phi = exp(-i beta), and U1 = W exp(-i theta) W^T per sector for real
    orthogonal W, the conjugation D^-1/2 U_F D^1/2 = D^1/2 U1 D^1/2 = X + iY
    is unitary and complex symmetric, so X and Y are real symmetric and
    commute.  Only X is formed (`_form_x`, from U1's sector eigensystems)
    and diagonalized: cos, V = eigh(X), where the eigenvector matrix that
    dsyevr writes beside X becomes V (`_eigh`).  The true U_F is then
    applied to the eigenstates psi = D^1/2 v once, with U1 in its
    eigensystem form, a panel of at most `RESIDUAL_PANEL` columns at a time
    with the cuts on cluster boundaries, through one set of panel buffers.
    That one pass gives Y v = Im(D^-1/2 U_F psi), hence sin = v.(Y v) for
    an isolated cos and, inside a cluster of nearly equal cos (the cos of a
    quasi-energy is two-to-one), the real rotation that diagonalizes V^T Y
    V; it also gives the eigenpair residual |U_F psi - lambda psi|.  Each
    panel of V is rotated and its rows gathered into the z-basis in place,
    so V stays real.  The eigenvalue moduli, the largest residual and the
    orthonormality of a 16-column sample of V are checked on every call;
    the columns are then sorted by quasi-energy in place.  At its peak the
    call holds 2.5 dim^2 doubles: U1's eigensystems (dim^2 / 2), X, and
    either the four scaled copies of W (while X is formed) or V (while
    dsyevr runs).
    """
    u1, params = prop.u1, prop.params
    point = _point_text(params)
    phases = np.exp(-0.5j * (prop.h2_diagonal * params.t2))
    half = phases[u1.order]
    phase = prop.phase2[u1.order]
    dim = u1.dimension
    x = np.empty((dim, dim), order="F")
    _form_x(u1, half, x)
    cos_vals, vectors, info = _eigh(x)
    del x  # overwritten by dsyevr
    if info != 0:
        raise NumericError(f"quasi-spectrum at ({point}): LAPACK dsyevr failed with info={info}")

    eigenvalues = np.empty(dim, dtype=complex)
    residual = 0.0
    panels = list(_panels(cos_vals))
    # `_resolve_panel`'s buffers, made once for the widest panel: the real
    # panel, two complex panels and the sector buffers of `u1.product`
    width = max(stop - at for at, stop, _ in panels)
    work = (np.empty(dim * width), np.empty(dim * width, dtype=complex),
            np.empty(dim * width, dtype=complex), u1.workspace(width))
    for at, stop, clusters in panels:
        cols = slice(at, stop)
        eigenvalues[cols], panel_residual = _resolve_panel(
            u1, half, phase, cos_vals[cols], vectors[:, cols], clusters, work
        )
        residual = max(residual, panel_residual)
    del work

    mod_dev = np.max(np.abs(np.abs(eigenvalues) - 1.0))
    if mod_dev > UNITARITY_TOL:
        raise NumericError(
            f"quasi-spectrum at ({point}): eigenvalue moduli deviate from 1 by {mod_dev:.2e}, "
            f"tolerance {UNITARITY_TOL:.0e}"
        )
    if residual > RESIDUAL_TOL:
        raise NumericError(
            f"quasi-spectrum at ({point}): eigenpair residual {residual:.2e} exceeds "
            f"tolerance {RESIDUAL_TOL:.0e}"
        )
    # orthonormality on a sample of Gram rows (exact by construction up to
    # roundoff); |D^1/2| = 1, so the eigenstates' Gram matrix is V's
    sample = np.linspace(0, dim - 1, min(dim, 16)).astype(int)
    gram_rows = vectors[:, sample].T @ vectors
    gram_rows[np.arange(sample.size), sample] -= 1.0
    dev = np.max(np.abs(gram_rows))
    if dev > RESIDUAL_TOL:
        raise NumericError(
            f"quasi-spectrum at ({point}): eigenbasis deviates from orthonormal by {dev:.2e}, "
            f"tolerance {RESIDUAL_TOL:.0e}"
        )
    energies = _fold_quasi_energies(eigenvalues)
    ranking = np.argsort(energies, kind="stable")
    _permute_columns(vectors, ranking)
    return QuasiSpectrum(quasi_energies=energies[ranking], vectors=vectors, phases=phases, params=params)


def _form_x(u1: SectorUnitary, half: np.ndarray, x: np.ndarray, tile: int = X_TILE) -> None:
    """X = Re(D^1/2 U1 D^1/2) in orbit order, written into x from U1's
    sector eigensystems, the block columns of at least `tile` mirror pairs
    at a time.

    With E and O the complex sector blocks, U1's column in the fixed run is
    [E_ff; E_pf/sqrt 2; E_pf/sqrt 2] and its column for pair p in the lo
    (hi) run is [E_fp/sqrt 2; (E_pp +- O)/2; (E_pp -+ O)/2]; each column is
    then scaled by `half` on its rows and by its own entry of `half`.  The
    pairs are split into tiles of at least max(`tile`, `X_TILE_MIN`) pairs
    rounded up to a multiple of 16 (or one tile), cut at multiples of 16
    pairs; a tile's block columns (even column n_fixed + p and odd column
    p for its pairs p, and the fixed columns with the first tile, 32 or
    more whenever there are two tiles) are assembled from four scaled
    copies of W made once (`_block_columns`).  Cut so, a tile's gemm has
    no ragged edge that the whole block's product lacks (BLAS kernels work
    on panels of up to 16 columns and take another path through a few
    left over) and is never so small that OpenBLAS hands it to gemv or a
    small-matrix kernel (16-pair tiles at L=7 lose the bits), so its
    columns get the bits of the whole block's products at every `tile`
    (`tests/test_floquet.py` checks it at L 1-10 for several widths), and
    X has the bits of the same steps on the blocks `u1_from_eigensystem`
    assembles.  X is symmetric up to roundoff.
    """
    (_, w_even), (_, w_odd) = u1.even, u1.odd
    nf, n_pairs, dim = u1.n_fixed, w_odd.shape[0], u1.dimension
    scaled = [(w * np.cos(theta), w * np.sin(theta)) for theta, w in (u1.even, u1.odd)]
    step = -(-max(tile, X_TILE_MIN) // 16) * 16
    n_tiles = max(1, n_pairs // step)
    cuts = [j * n_pairs // n_tiles // 16 * 16 for j in range(n_tiles)] + [n_pairs]
    widest = nf + max(b - a for a, b in zip(cuts, cuts[1:]))
    part = np.empty(w_even.shape[0] * widest)
    even_buf = np.empty(w_even.shape[0] * widest, dtype=complex)
    odd_buf = np.empty(w_odd.shape[0] * widest, dtype=complex)
    tiles = np.empty((dim, widest), dtype=complex, order="F")
    f, lo, hi = slice(0, nf), slice(nf, nf + n_pairs), slice(nf + n_pairs, None)
    for p0, p1 in zip(cuts, cuts[1:]):
        first = nf if p0 == 0 else 0
        even = _block_columns(scaled[0], w_even[nf + p0 - first:nf + p1], even_buf, part)
        odd = _block_columns(scaled[1], w_odd[p0:p1], odd_buf, part)
        if first:
            t = tiles[:, :nf]
            t[f] = even[:nf, :nf]
            np.multiply(even[nf:, :nf], SQRT_HALF, out=t[lo])
            t[hi] = t[lo]
            t *= half[:, None]
            t *= half[:nf]
            x[:, :nf] = t.real
        if p1 == p0:
            continue
        fixed_rows, paired = even[:nf, first:], even[nf:, first:]
        t = tiles[:, :p1 - p0]
        for start, same_rows, cross_rows in ((nf, lo, hi), (nf + n_pairs, hi, lo)):
            np.multiply(fixed_rows, SQRT_HALF, out=t[f])
            same, cross = t[same_rows], t[cross_rows]
            np.add(paired, odd, out=same)
            same *= 0.5
            np.subtract(paired, odd, out=cross)
            cross *= 0.5
            t *= half[:, None]
            t *= half[start + p0:start + p1]
            x[:, start + p0:start + p1] = t.real


def _block_columns(scaled, rows: np.ndarray, out: np.ndarray, part: np.ndarray) -> np.ndarray:
    """The columns of W exp(-i theta) W^T that belong to `rows` (rows of
    W), with scaled = (W cos theta, W sin theta): the real half through the
    real buffer `part`, the imaginary half as 0 - sin product, as in
    `u1_from_eigensystem`.  Each product is formed transposed, rows (W
    cos theta)^T, whose gemm splits its few rows of output faster than the
    few columns of the other orientation and (a product being the same
    either way round) gives the same bits.  Written over the start of the
    flat `out` and returned as an F-order view.

    `u1_from_eigensystem` does not call this on all rows of W: the
    evolution multiplies by a C-order block, which this orientation would
    give only through a copy or an F-order view (a different zgemm call,
    which need not give the same bits), and the assembly holds one scaled
    copy of W at a time, where this takes both."""
    cos_w, sin_w = scaled
    size, width = cos_w.shape[0], rows.shape[0]
    block, work = _leading(out, width, size), _leading(part, width, size)
    np.matmul(rows, cos_w.T, out=work)
    np.copyto(block.real, work)
    np.matmul(rows, sin_w.T, out=work)
    np.subtract(0.0, work, out=block.imag)
    return block.T


def _eigh(x: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors of the real symmetric matrix
    x, from its lower triangle, and LAPACK's info.  x must be F-contiguous
    float64 (otherwise f2py would diagonalize a copy) and is destroyed.
    dsyevr (MRRR) needs only its dim x dim eigenvector output, returned as
    the eigenvectors, and O(dim) workspace beside x, where dsyevd needs
    1 + 6 dim + 2 dim^2 doubles."""
    # scipy is imported here, not at module top: it costs ~0.3 s and ~20 MB,
    # and only the quasi-spectrum needs it
    from scipy.linalg.lapack import dsyevr, dsyevr_lwork

    lwork, liwork, _ = dsyevr_lwork(x.shape[0], lower=1)
    vals, vecs, _, _, info = dsyevr(x, lower=1, lwork=int(lwork), liwork=liwork, overwrite_a=1)
    return vals, vecs, info


def _permute_columns(a: np.ndarray, order: np.ndarray) -> None:
    """a[:, order] in place: each cycle of the permutation is followed with
    one column of scratch."""
    scratch = np.empty(a.shape[0], dtype=a.dtype)
    done = np.zeros(order.size, dtype=bool)
    for start in range(order.size):
        if done[start] or order[start] == start:
            continue
        scratch[:] = a[:, start]
        j = start
        while order[j] != start:
            done[j] = True
            a[:, j] = a[:, order[j]]
            j = order[j]
        done[j] = True
        a[:, j] = scratch


def _panels(cos_vals: np.ndarray):
    """(start, stop, clusters) column panels of at most `RESIDUAL_PANEL`
    columns, cut only where neighbouring cos differ by more than
    `COS_CLUSTER_TOL`; a wider cluster is a panel of its own.  `clusters`
    lists the (start, stop) of each cluster of two or more columns,
    relative to the panel."""
    dim = cos_vals.size
    ends = np.append(np.flatnonzero(np.diff(cos_vals) > COS_CLUSTER_TOL) + 1, dim)
    at = 0
    while at < dim:
        first = np.searchsorted(ends, at, side="right")
        last = np.searchsorted(ends, at + RESIDUAL_PANEL, side="right") - 1
        cuts = ends[first:max(first, last) + 1]
        starts = np.concatenate(([at], cuts[:-1]))
        stop = int(cuts[-1])
        clusters = [(int(s) - at, int(e) - at) for s, e in zip(starts, cuts) if e - s > 1]
        yield at, stop, clusters
        at = stop


def _resolve_panel(u1, half, phase, cos_vals, panel, clusters, work):
    """Eigenvalues and the largest eigenpair residual of one panel of
    eigenvectors of X (`panel`, orbit-ordered rows, eigenvalues
    `cos_vals`), through the buffers `work` made by `quasi_spectrum`.  The
    panel is rotated inside each cluster and its rows are gathered into the
    z-basis in place."""
    dim, width = panel.shape
    basis_buf, states_buf, image_buf, sectors = work
    basis = _leading(basis_buf, dim, width)
    states = _leading(states_buf, dim, width)
    image = _leading(image_buf, dim, width)
    basis[...] = panel
    np.multiply(half[:, None], basis, out=states)
    u1.product(states, image, sectors)
    image *= phase[:, None]
    # D^-1/2 U_F psi = (X + iY) b, so Y b is its imaginary part
    np.multiply(half.conj()[:, None], image, out=states)
    y_basis = states.imag
    sin_vals = np.einsum("ij,ij->j", basis, y_basis)
    cos_out = cos_vals.copy()
    for start, stop in clusters:
        idx = slice(start, stop)
        block = basis[:, idx].T @ y_basis[:, idx]
        block = (block + block.T) * 0.5
        sy, rot = np.linalg.eigh(block)
        basis[:, idx] = basis[:, idx] @ rot
        image[:, idx] = image[:, idx] @ rot
        sin_vals[idx] = sy
        cos_out[idx] = ((cos_vals[idx][:, None] * rot) * rot).sum(axis=0)
    eigenvalues = cos_out + 1j * sin_vals
    # U_F psi - lambda psi, with psi = D^1/2 b of the rotated b
    np.multiply(half[:, None], basis, out=states)
    states *= eigenvalues
    image -= states
    panel[...] = basis[u1.inverse]
    return eigenvalues, float(np.max(np.linalg.norm(image, axis=0)))


@dataclass(frozen=True)
class OverlapTable:
    """(quasi-energy, |<psi(0)|psi^F_a>|^2) pairs sorted by quasi-energy.

    The overlaps must sum to 1 within `COMPLETENESS_TOL`; `params` names
    the point in the error message.
    """

    quasi_energies: np.ndarray
    overlaps: np.ndarray
    params: Optional[SimulationParams] = None

    def __post_init__(self):
        dev = abs(float(np.sum(self.overlaps)) - 1.0)
        if dev > COMPLETENESS_TOL:
            where = "" if self.params is None else f" at ({_point_text(self.params)})"
            raise NumericError(
                f"overlaps{where}: completeness sum deviates from 1 by {dev:.2e}, "
                f"tolerance {COMPLETENESS_TOL:.0e}"
            )

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
    # <psi0|psi_a> = (conj(psi0) * D^1/2)^T v_a: the real and imaginary parts
    # of that row against the real V, with no complex copy of V
    row = psi0.amplitudes.conj() * spectrum.phases
    parts = np.stack((row.real, row.imag)) @ spectrum.vectors
    weight = parts[0] ** 2 + parts[1] ** 2
    return OverlapTable(
        quasi_energies=spectrum.quasi_energies.copy(), overlaps=weight, params=spectrum.params
    )


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
