"""One-period Floquet propagator, quasi-spectrum and initial-state overlaps.

The period is U_F = U2 U1.  H1 depends on site distances only, so it
commutes with the site reflection R: j -> L+1-j and U1 = exp(-i H1 T1)
splits into an even and an odd reflection sector of about half the
dimension each.  Internally the basis is kept in reflection-orbit order
(fixed states, then the lower and the upper member of each pair), where the
transform into sector components is slice arithmetic on contiguous rows.
`stage1_unitary` permutes H1 into that order once, projects it onto both
sectors, assembles each block from the eigendecomposition of its real
symmetric projection and checks it for unitarity; U1 is kept only as those
two blocks (`SectorUnitary`).  U2 = exp(-i H2 T2) is diagonal and kept as a
phase vector Phi; the Stark ramp breaks the reflection, so one period is a
sector product with U1 followed by a row scaling.

The quasi-spectrum exploits the two-stage structure: with D^1/2 =
exp(-i H2 T2 / 2), conjugating U_F gives the complex symmetric unitary
D^1/2 U1 D^1/2 = X + iY, whose real and imaginary parts are commuting real
symmetric matrices.  Only X is formed, a tile of columns at a time from
U1's two sector blocks straight into the buffer that becomes the
eigenstates, and diagonalized there (LAPACK dsyevr through scipy, which is
imported only there); one pass of the true U_F over its eigenvectors then
yields Y on them (which resolves the sign of each quasi-energy and rotates
clusters of nearly equal cos) and the eigenpair residual that validates
the result, and writes the eigenstates back over the eigenvectors they
came from.  At dimension 4096 this is several times faster than a complex
Schur decomposition.  No dense U1 is ever formed.
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
# time, so its one pass holds no second dim x dim complex temporary
RESIDUAL_PANEL = 128
# X is formed this many columns at a time, through one complex tile
X_TILE = 64
SQRT_HALF = math.sqrt(0.5)
# peak memory of stage 1 plus one quasi-spectrum above the process baseline:
# the sector blocks of U1, X and the eigenvectors dsyevr writes beside it
# take 8 bytes per 4^L each, and at the end the eigenstates 16 beside U1,
# plus the U_F pass's panels and BLAS buffers; measured 67 / 162 / 468 MiB
# for `overlaps` at L=10 / 11 / 12
QUASI_SPECTRUM_BYTES_PER_4L = 26
QUASI_SPECTRUM_BASE_BYTES = 72 << 20
# peak memory of stage 1 and an evolution above the process baseline: the
# dense H1 and its orbit-ordered copy take 8 bytes per 4^L each, more than
# the assembly of either block; measured 25 / 77 / 256 MiB for `series`,
# `spectrum`, `lifetime` and a sweep at L=10 / 11 / 12
STAGE1_BYTES_PER_4L = 16
STAGE1_BASE_BYTES = 24 << 20


def propagator_u2(h2_diagonal: np.ndarray, t2: float) -> np.ndarray:
    """Diagonal of U2 = exp(-i H2 t2) as a phase vector, never densified."""
    diag = np.asarray(h2_diagonal)
    if np.iscomplexobj(diag):
        raise ValueError("stage-2 diagonal must be real")
    return np.exp(-1j * diag * t2)


def u1_from_eigensystem(eigs: np.ndarray, vecs: np.ndarray, t1: float) -> np.ndarray:
    """W exp(-i eigs t1) W^T for real orthogonal W, as two real gemms.

    Each product goes through one reused real buffer into its half of the
    block, the imaginary half as 0 - sin product: the bits of `real - 1j *
    imag` (signed zeros included, since a gemm sum is never -0) without its
    three complex temporaries."""
    theta = eigs * t1
    block = np.empty(vecs.shape, dtype=complex)
    part = np.empty(vecs.shape)
    np.matmul(vecs * np.cos(theta), vecs.T, out=part)
    np.copyto(block.real, part)
    np.matmul(vecs * np.sin(theta), vecs.T, out=part)
    np.subtract(0.0, part, out=block.imag)
    return block


def unitarity_deviation(matrix: np.ndarray) -> float:
    """max |(U^dag U - I)| elementwise, on 16 sampled Gram rows above dim 1024
    (the Gram matrix is Hermitian, so they hold the sampled columns' values).
    The identity is subtracted in place, and only the sampled columns of U
    are conjugated."""
    dim = matrix.shape[0]
    if dim <= 1024:
        gram = matrix.conj().T @ matrix
        gram.flat[::dim + 1] -= 1.0
    else:
        cols = np.linspace(0, dim - 1, 16).astype(int)
        gram = matrix[:, cols].conj().T @ matrix
        gram[np.arange(cols.size), cols] -= 1.0
    return float(np.max(np.abs(gram)))


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
    """U1 kept as its even and odd reflection-sector blocks.

    The blocks act on the basis in reflection-orbit order `fixed || lo ||
    hi` (see `BasisConfig.reflection_orbits`); `order` maps each orbit
    position to its z-basis index and `inverse` maps back.  The even block
    acts on the fixed states and the symmetric pair combinations, the odd
    block on the antisymmetric ones (empty at L=1).  In orbit order the
    sector transform is slice arithmetic on contiguous rows (`_split`,
    `_merge`); `product` is U1 on orbit-ordered rows.
    """

    def __init__(self, even: np.ndarray, odd: np.ndarray, fixed, lo, hi):
        self.even = even
        self.odd = odd
        self.order = np.concatenate((fixed, lo, hi))
        self.inverse = np.argsort(self.order)
        self.n_fixed = fixed.size

    @property
    def dimension(self) -> int:
        return self.order.size

    def workspace(self, x: np.ndarray):
        """Empty complex sector buffers (x_even, x_odd, y_even, y_odd) for
        `product` on x: its trailing shape and its memory order, so a
        C-order block gets C-order products (the sweep's padded blocks need
        them for column-independent bits, see `sweep._PANEL`) and an F-order
        panel F-order ones."""
        return tuple(
            np.empty_like(x, dtype=complex, shape=(rows,) + x.shape[1:])
            for rows in (self.even.shape[0], self.odd.shape[0]) * 2
        )

    def product(self, x: np.ndarray, out: np.ndarray, work) -> np.ndarray:
        """U1 x on orbit-ordered rows, one product per sector, into `out`
        (which may be x itself).  `work` comes from `workspace(x)`."""
        x_even, x_odd, y_even, y_odd = work
        _split(x, self.n_fixed, x_even, x_odd)
        np.matmul(self.even, x_even, out=y_even)
        np.matmul(self.odd, x_odd, out=y_odd)
        return _merge(y_even, y_odd, self.n_fixed, out)


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


def stage1_unitary(params: SimulationParams) -> SectorUnitary:
    """U1 = exp(-i H1 T1) of one parameter point, as its two sector blocks.

    H1 is permuted into reflection-orbit order once and projected onto the
    even and odd reflection sectors (`_project`); each real symmetric
    projection is diagonalized, its block assembled and checked for
    unitarity.  The sector transform is orthogonal, so the two checks
    together check U1.  No projection outlives its diagonalization and no
    eigensystem its assembly, so the peak is the dense H1 beside its
    orbit-ordered copy (`stage1_bytes`).
    """
    fixed, lo, hi = params.basis.reflection_orbits()
    order = np.concatenate((fixed, lo, hi))
    projections = list(_project(build_h1(params)[np.ix_(order, order)], fixed.size))
    blocks = []
    for name in ("even", "odd"):
        # each projection is released once diagonalized
        h = projections.pop(0)
        if h.size == 0:
            blocks.append(np.zeros(h.shape, dtype=complex))
            continue
        eigs, vecs = np.linalg.eigh(h)
        del h
        block = u1_from_eigensystem(eigs, vecs, params.t1)
        del eigs, vecs
        dev = unitarity_deviation(block)
        if dev > UNITARITY_TOL:
            raise NumericError(
                f"stage-1 propagator ({name} sector) at key ({_key_text(params)}) deviates "
                f"from unitarity by {dev:.2e}, tolerance {UNITARITY_TOL:.0e}"
            )
        blocks.append(block)
    return SectorUnitary(*blocks, fixed, lo, hi)


class FloquetPropagator:
    """One period U_F = U2 U1 of one parameter point, kept as its two stages.

    `u1` is the stage-1 unitary as its two reflection-sector blocks
    (`SectorUnitary`), already checked by `stage1_unitary`; `phase2` is the
    stage-2 phase vector derived from `h2_diagonal`.  `apply` advances
    z-basis states by Phi * (U1 psi), one period per call; the evolution
    loops work in orbit order instead (`observables._evolve_block`).  No
    dense U_F is ever formed.  The quasi-spectrum is computed once and
    cached.
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
        ordered = np.asarray(state, dtype=complex)[u1.order]
        out = u1.product(ordered, ordered, u1.workspace(ordered))[u1.inverse]
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
    columns are orthonormal.  `params` names the point in error messages.
    """

    quasi_energies: np.ndarray
    eigenstates: np.ndarray
    params: Optional[SimulationParams] = None

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
    eigenvectors by construction.

    With U_F = Phi U1, D^1/2 = diag(exp(-i beta/2)) for the stage-2 phases
    Phi = exp(-i beta), and U1 = W exp(-i lam T1) W^T for real orthogonal W,
    the conjugation D^-1/2 U_F D^1/2 = D^1/2 U1 D^1/2 = X + iY is unitary and
    complex symmetric, so X and Y are real symmetric and commute.  Only X is
    formed, in the first half of the complex buffer that is returned as the
    eigenstates, and diagonalized there: cos, B = eigh(X) with B
    overwriting X (`_eigh_in_place`).  The true U_F is then applied to the
    eigenvectors psi = D^1/2 B once, a panel of at most `RESIDUAL_PANEL`
    columns at a time with the cuts on cluster boundaries, last panel
    first, and each panel's psi is written back over the columns of B it
    came from.  That one pass
    gives Y B = Im(D^-1/2 U_F psi), hence sin = b.(Y b) for an isolated
    cos and, inside a cluster of nearly equal cos (the cos of a quasi-energy
    is two-to-one), the rotation that diagonalizes B^T Y B; it also gives
    the eigenpair residual |U_F psi - lambda psi|.  The eigenvalue moduli,
    the largest residual and the orthonormality of a 16-column sample are
    checked on every call.  Rows stay in reflection-orbit order until the
    eigenvectors are written back in the z-basis; they are then sorted by
    quasi-energy in place.  At its peak the call holds U1's two blocks and
    2 dim^2 doubles: X and the eigenvectors dsyevr writes beside it before
    they are copied over X, later the complex eigenstates and one panel.
    """
    u1, params = prop.u1, prop.params
    point = _point_text(params)
    half = np.exp(-0.5j * (prop.h2_diagonal * params.t2))[u1.order]
    phase = prop.phase2[u1.order]
    dim = u1.dimension
    states = np.empty((dim, dim), dtype=complex, order="F")
    # X in the first dim^2 doubles of `states`, then its eigenvectors B over it
    basis = states.ravel(order="F").view(float)[:dim * dim].reshape((dim, dim), order="F")
    _form_x(u1, half, basis)
    cos_vals, info = _eigh_in_place(basis)
    if info != 0:
        raise NumericError(f"quasi-spectrum at ({point}): LAPACK dsyevr failed with info={info}")

    eigenvalues = np.empty(dim, dtype=complex)
    residual = 0.0
    # complex column j starts at double 2 j dim, so writing a panel [at, stop)
    # touches no real column < at: walked last first, every panel is read
    # before a write reaches it, and _resolve_panel has consumed the panel's
    # own real columns before they are overwritten by its eigenvectors
    for at, stop, clusters in reversed(list(_panels(cos_vals))):
        cols = slice(at, stop)
        eigenvalues[cols], panel, panel_residual = _resolve_panel(
            u1, half, phase, cos_vals[cols], basis[:, cols], clusters
        )
        for k in range(stop - at):
            # the column gathered into the z-basis, with no dim x panel
            # temporary; the indices are valid, and mode "raise" would buffer
            np.take(panel[:, k], u1.inverse, out=states[:, at + k], mode="clip")
        residual = max(residual, panel_residual)

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
    # orthonormality on a sample of Gram rows (exact by construction up to roundoff)
    sample = np.linspace(0, dim - 1, min(dim, 16)).astype(int)
    gram_rows = states[:, sample].conj().T @ states
    gram_rows[np.arange(sample.size), sample] -= 1.0
    dev = np.max(np.abs(gram_rows))
    if dev > RESIDUAL_TOL:
        raise NumericError(
            f"quasi-spectrum at ({point}): eigenbasis deviates from orthonormal by {dev:.2e}, "
            f"tolerance {RESIDUAL_TOL:.0e}"
        )
    energies = _fold_quasi_energies(eigenvalues)
    ranking = np.argsort(energies, kind="stable")
    _permute_columns(states, ranking)
    return QuasiSpectrum(quasi_energies=energies[ranking], eigenstates=states, params=params)


def _form_x(u1: SectorUnitary, half: np.ndarray, x: np.ndarray, tile: int = X_TILE) -> None:
    """X = Re(D^1/2 U1 D^1/2) in orbit order, written into x `tile` columns at
    a time through one complex tile.  With E and O the sector blocks, U1's
    column in the fixed run is [E_ff; E_pf/sqrt 2; E_pf/sqrt 2] and its
    column in the lo (hi) run is [E_fp/sqrt 2; (E_pp +- O)/2; (E_pp -+ O)/2];
    each tile is then scaled by `half` on its rows and on its columns.
    X is symmetric up to roundoff."""
    nf, n_pairs, dim = u1.n_fixed, u1.odd.shape[0], u1.dimension
    even, odd = u1.even, u1.odd
    fixed_rows, paired = even[:nf, nf:], even[nf:, nf:]
    f, lo, hi = slice(0, nf), slice(nf, nf + n_pairs), slice(nf + n_pairs, None)
    # the first column of the fixed, lo and hi runs, and the end
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
                np.multiply(even[nf:, c0:c1], SQRT_HALF, out=t[lo, k])
                t[hi, k] = t[lo, k]
                continue
            p = slice(c0 - bounds[run], c1 - bounds[run])
            np.multiply(fixed_rows[:, p], SQRT_HALF, out=t[f, k])
            same, cross = (t[lo, k], t[hi, k]) if run == 1 else (t[hi, k], t[lo, k])
            np.add(paired[:, p], odd[:, p], out=same)
            same *= 0.5
            np.subtract(paired[:, p], odd[:, p], out=cross)
            cross *= 0.5
        t *= half[:, None]
        t *= half[at:stop]
        x[:, at:stop] = t.real


def _eigh_in_place(x: np.ndarray):
    """Eigenvalues (ascending) of the real symmetric matrix x, from its
    lower triangle, and LAPACK's info.  The eigenvectors overwrite x, which
    must be F-contiguous float64 (otherwise f2py would diagonalize a copy).
    dsyevr (MRRR) needs only its dim x dim eigenvector output and O(dim)
    workspace beside x, where dsyevd needs 1 + 6 dim + 2 dim^2 doubles."""
    # scipy is imported here, not at module top: it costs ~0.3 s and ~20 MB,
    # and only the quasi-spectrum needs it
    from scipy.linalg.lapack import dsyevr, dsyevr_lwork

    lwork, liwork, _ = dsyevr_lwork(x.shape[0], lower=1)
    vals, vecs, _, _, info = dsyevr(x, lower=1, lwork=int(lwork), liwork=liwork, overwrite_a=1)
    x[...] = vecs
    return vals, info


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


def _resolve_panel(u1, half, phase, cos_vals, basis, clusters):
    """Eigenvalues, eigenvectors and the largest eigenpair residual of one
    panel of eigenvectors of X (`basis`, orbit-ordered rows, eigenvalues
    `cos_vals`).  The eigenvectors D^1/2 B, rotated inside each cluster,
    come back in orbit order."""
    basis = np.asfortranarray(basis)
    states = half[:, None] * basis
    image = u1.product(states, np.empty_like(states), u1.workspace(states))
    image *= phase[:, None]
    # D^-1/2 U_F psi = (X + iY) b
    y_basis = np.asfortranarray((half.conj()[:, None] * image).imag)
    sin_vals = np.einsum("ij,ij->j", basis, y_basis)
    cos_out = cos_vals.copy()
    for start, stop in clusters:
        idx = slice(start, stop)
        block = basis[:, idx].T @ y_basis[:, idx]
        block = (block + block.T) * 0.5
        sy, rot = np.linalg.eigh(block)
        states[:, idx] = states[:, idx] @ rot
        image[:, idx] = image[:, idx] @ rot
        sin_vals[idx] = sy
        cos_out[idx] = ((cos_vals[idx][:, None] * rot) * rot).sum(axis=0)
    eigenvalues = cos_out + 1j * sin_vals
    image -= states * eigenvalues
    return eigenvalues, states, float(np.max(np.linalg.norm(image, axis=0)))


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
    # conj(psi0)^T V is the conjugate of V^dag psi0; no conjugate copy of V
    weight = np.abs(psi0.amplitudes.conj() @ spectrum.eigenstates) ** 2
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
