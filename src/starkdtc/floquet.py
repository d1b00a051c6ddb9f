"""One-period Floquet propagator, quasi-spectrum and initial-state overlaps.

The period is U_F = U2 U1.  H1 depends on site distances only, so it
commutes with the site reflection R: j -> L+1-j and U1 = exp(-i H1 T1)
splits into an even and an odd reflection sector of about half the
dimension each.  Internally the basis is kept in reflection-orbit order
(fixed states, then the lower and the upper member of each pair), where the
transform into sector components is slice arithmetic on contiguous rows.
`stage1_unitary` builds each sector's projection of H1 straight from the
orbits and diagonalizes it; U1 is kept as the two eigensystems, W exp(-i
theta) W^T per sector with W real orthogonal (`SectorUnitary`), after W is
checked for orthogonality.  The per-cycle evolution assembles the two
complex blocks once per run (`SectorUnitary.assemble`): on narrow blocks
one zgemm per sector is faster than the two real products of the
eigensystem form.  U2 = exp(-i H2 T2) is diagonal and kept as a phase
vector Phi; the Stark ramp breaks the reflection, so one period is a
sector product with U1 followed by a row scaling.

The quasi-spectrum exploits the two-stage structure: with D^1/2 =
exp(-i H2 T2 / 2), conjugating U_F gives the complex symmetric unitary
D^1/2 U1 D^1/2 = X + iY, whose real and imaginary parts are commuting real
symmetric matrices.  Only X is formed, a tile of block rows at a time from
the sector eigensystems, and diagonalized in the steps of LAPACK dsyevr:
dsytrd and dstemr through scipy (which is imported only there), with X
released once its reflectors are copied out, and the back-transform of
dstemr's eigenvectors in compact-WY blocks, I - V T V^T, as numpy gemms.
The eigenstates are D^1/2 V with V real orthogonal.  One pass over the
eigenvectors validates them through a square-root factor of the conjugated
U_F: with S the transform into sector components, D^1/2 U1 D^1/2 = B^T B
for B = exp(-i theta/2) W^T S D^1/2 per sector, and the pass forms only u =
B v, one W^T gemm per sector.  lambda = u^T u (unconjugated) gives Y on the
eigenvectors (which resolves the sign of each quasi-energy and rotates
clusters of nearly equal cos, a real rotation), and |U_F psi - lambda psi|
= |u - lambda conj(u)| is the eigenpair residual that validates the result.
That identity holds because B is unitary, which rests on W's orthogonality
(checked by `stage1_unitary` to `UNITARITY_TOL`).  V stays real, with D^1/2
kept beside it.  At dimension 4096 this is several times faster than a
complex Schur decomposition.  No dense U1 is ever formed, no assembled
block exists during a quasi-spectrum, and W, X and V never coexist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import NumericError, ResourceLimitError
# build_h1 is unused here; the benchmark tracer's H1 span binds to this name
from .hamiltonian import SimulationParams, build_h1, build_h2_diagonal, interaction_diagonal  # noqa: F401
from .hilbert import basis_index

UNITARITY_TOL = 1e-10
RESIDUAL_TOL = 1e-8
# eigenvalues of the real part closer than this are treated as one cluster;
# large enough that eigenvector mixing across a cluster gap stays ~1e-11
COS_CLUSTER_TOL = 1e-5
PI_PAIR_TOL = 0.05
COMPLETENESS_TOL = 1e-8
# the quasi-spectrum's validation pass forms u = B v for at most this many
# eigenvectors at a time, through one set of panel buffers
RESIDUAL_PANEL = 256
# X is formed from the block columns of at least this many mirror pairs at
# a time, and never from fewer than X_TILE_MIN (see `_form_x`)
X_TILE = 96
X_TILE_MIN = 64
# the unitarity check forms the whole Gram matrix up to this dimension and
# 16 sampled Gram rows above it
FULL_GRAM_DIM = 1024
# the eigensolver keeps dsytrd's reflectors in column blocks of this many,
# and back-transforms this many eigenvectors at a time
REFLECTOR_BLOCK = 128
BACK_TRANSFORM_CHUNK = 128
SQRT_HALF = math.sqrt(0.5)
# peak memory of stage 1 plus quasi-spectra above the process baseline:
# U1's sector eigensystems take 4 bytes per 4^L throughout; X takes 8 while
# it is formed and tridiagonalized, and gives way to the reflector blocks (4)
# beside dstemr's eigenvectors (8), which the validation pass then reuses.
# The pass's panel buffers take 40 bytes per row of a `RESIDUAL_PANEL`-column
# panel (a real panel, a complex panel and the complex sector buffer); they
# can stay resident on the heap through the next quasi-spectrum's
# eigenvector phase (`--figure fig2`, overlap-table sweeps).  The base is
# scipy, the back-transform's update buffer and BLAS buffers.  Measured
# 54.1 / 104.7 / 297.3 MiB for `overlaps` at L=10 / 11 / 12 and 336.8 MiB
# for `--figure fig2`, against 78 / 136 / 348 MiB estimated
QUASI_SPECTRUM_BYTES_PER_4L = 16
QUASI_SPECTRUM_PANEL_BYTES = 40
QUASI_SPECTRUM_BASE_BYTES = 52 << 20
# peak memory of stage 1 and an evolution above the process baseline, set by
# the evolution's assembly: the sector eigensystems 4 bytes per 4^L, the
# blocks 8, a scaled copy of W and a work buffer 2 each (stage 1 alone: 197
# MiB at L=12); measured 21.5 / 71.6 / 265.6 MiB for `series` at L=10/11/12
STAGE1_BYTES_PER_4L = 16
STAGE1_BASE_BYTES = 24 << 20


def propagator_u2(h2_diagonal: np.ndarray, t2: float) -> np.ndarray:
    """Diagonal of U2 = exp(-i H2 t2) as a phase vector, never densified."""
    diag = np.asarray(h2_diagonal)
    if np.iscomplexobj(diag):
        raise ValueError("stage-2 diagonal must be real")
    return np.exp(-1j * diag * t2)


def u1_from_eigensystem(theta: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """W exp(-i theta) W^T for real orthogonal W, as two real gemms: the
    block rows of all of W (`_block_rows`), into a new C-order block."""
    size = vecs.shape[0]
    block = np.empty(vecs.shape, dtype=complex)
    _block_rows((theta, vecs), slice(None), block.reshape(-1), np.empty(size * size), np.empty(size * size))
    return block


def _block_rows(system, rows: slice, out: np.ndarray, part: np.ndarray, scaled: np.ndarray) -> np.ndarray:
    """Rows `rows` of W exp(-i theta) W^T, system = (theta, W): the real
    half (W[rows] cos theta) W^T through the real buffer `part`, the
    imaginary half as 0 - (W[rows] sin theta) W^T, with the scaled rows
    formed in the real buffer `scaled`.  That gives the bits of `real - 1j
    * imag` (signed zeros included, since a gemm sum is never -0) without
    its three complex temporaries, and a row tile gets the bits of the
    same rows of the whole block (see `_form_x` for the cuts that keep
    them).  Written over the start of the flat `out` and returned as a
    C-order view, the layout the evolution's zgemm needs."""
    theta, w = system
    picked = w[rows]
    count, size = picked.shape
    block, work, scaled_rows = (_leading(buf, count, size) for buf in (out, part, scaled))
    np.multiply(picked, np.cos(theta), out=scaled_rows)
    np.matmul(scaled_rows, w.T, out=work)
    np.copyto(block.real, work)
    np.multiply(picked, np.sin(theta), out=scaled_rows)
    np.matmul(scaled_rows, w.T, out=work)
    np.subtract(0.0, work, out=block.imag)
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


def _mapped(count: int, dtype=float) -> np.ndarray:
    """np.empty(count, dtype) in a private anonymous memory mapping of its
    own, returned to the system when the array is released.  glibc serves
    requests below its mmap threshold from the heap, and that threshold
    rises to 32 MiB once stage 1 frees its odd sector block; the
    heap's freed top then stays resident, so a phase's buffers would count
    towards the next phase's peak.  Huge pages are asked for, as numpy
    asks for them on its own large arrays."""
    import mmap

    buffer = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize), flags=mmap.MAP_PRIVATE)
    try:
        buffer.madvise(mmap.MADV_HUGEPAGE)
    except (AttributeError, OSError):  # no huge pages on this system
        pass
    return np.frombuffer(buffer, dtype=dtype, count=count)


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


def _sector_h1(params: SimulationParams, sector: str) -> np.ndarray:
    """H1 projected onto the "even" or "odd" reflection sector, scattered
    straight from the z-basis: each state goes to its orbit's block row
    with its weight in the sector's basis vector (1 fixed, even sector
    only; 1/sqrt 2 paired, -1/sqrt 2 for the upper member in the odd
    sector), and `np.add.at` sums (h_b'b w_b) w_b' over the interaction
    diagonal and the L 2^L single-bit flips (Omega + epsilon) that stay in
    the sector.  No entry gets more than two terms, so with a reflection-
    symmetric diagonal (to the bit with NN) the block has the bits of the
    orbit-ordered dense H1 projected slice by slice."""
    fixed, lo, hi = params.basis.reflection_orbits()
    even = sector == "even"
    nf = fixed.size if even else 0
    slot, weight = np.full(params.dimension, -1), np.zeros(params.dimension)
    if even:
        slot[fixed], weight[fixed] = np.arange(nf), 1.0
    slot[lo] = slot[hi] = nf + np.arange(lo.size)
    weight[lo], weight[hi] = SQRT_HALF, SQRT_HALF if even else -SQRT_HALF
    states = np.flatnonzero(slot >= 0)
    block = np.zeros((nf + lo.size,) * 2)
    np.add.at(block, (slot[states],) * 2, interaction_diagonal(params)[states] * weight[states] * weight[states])
    flipped = states ^ (1 << np.arange(params.L))[:, None]
    inside = slot[flipped] >= 0
    ends, starts = flipped[inside], np.broadcast_to(states, flipped.shape)[inside]
    np.add.at(block, (slot[ends], slot[starts]), (params.omega + params.epsilon) * weight[starts] * weight[ends])
    return block


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
    """Estimated peak memory of stage 1 plus quasi-spectra at L sites,
    above the process baseline: one quasi-spectrum beside the panel
    buffers an earlier one may have left resident."""
    return (QUASI_SPECTRUM_BYTES_PER_4L * 4 ** L + QUASI_SPECTRUM_PANEL_BYTES * 2 ** L * RESIDUAL_PANEL
            + QUASI_SPECTRUM_BASE_BYTES)


def stage1_bytes(L: int) -> int:
    """Estimated peak memory of stage 1 and the evolution after it at L
    sites, above the process baseline."""
    return STAGE1_BYTES_PER_4L * 4 ** L + STAGE1_BASE_BYTES


def check_memory(L: int, quasi_spectrum: bool) -> None:
    """Raise `ResourceLimitError` when stage 1 at L sites, plus a
    quasi-spectrum if `quasi_spectrum` or else the evolution after it,
    would not fit in the available memory; skipped when that cannot be
    read.  Called before stage 1, so nothing is allocated or written."""
    if quasi_spectrum:
        what, need = f"a quasi-spectrum at L={L}", quasi_spectrum_bytes(L)
    else:
        what, need = f"stage 1 at L={L}", stage1_bytes(L)
    available = _available_memory()
    if available is not None and need > available:
        raise ResourceLimitError(
            f"{what} needs about {need / 2**30:.1f} GiB, "
            f"but only {available / 2**30:.1f} GiB of memory is available"
        )


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

    Each sector's projection of H1 (`_sector_h1`) is diagonalized and
    released in turn, and its eigenvectors W are checked for orthogonality
    (`unitarity_deviation`: the whole W^T W - I up to dimension 1024, 16
    sampled rows above).  U1 = W exp(-i theta) W^T deviates from unitarity
    only as far as W from orthogonality, so no block is assembled for the
    check, and the sector transform is orthogonal, so the two checks
    together check U1.  The peak is the even sector's eigh (its block,
    LAPACK's copy, workspace and eigenvectors); the result holds dim^2 / 2
    doubles.
    """
    sectors = []
    for name in ("even", "odd"):
        eigs, vecs = np.linalg.eigh(_sector_h1(params, name))
        if vecs.size:
            _check_unitarity(unitarity_deviation(vecs), params, name, "in its eigenvectors")
        sectors.append((eigs * params.t1, vecs))
    return SectorUnitary(*sectors, *params.basis.reflection_orbits())


class FloquetPropagator:
    """One period U_F = U2 U1 of one parameter point, kept as its two stages.

    `u1` is the stage-1 unitary as its two reflection-sector eigensystems
    (`SectorUnitary`), already checked by `stage1_unitary`; `phase2` is the
    stage-2 phase vector derived from `h2_diagonal`.  `apply` advances
    z-basis amplitudes by Phi * (U1 psi), one period per call, with U1 in
    its eigensystem form: the tests' reference step, which no command
    calls.  The evolution loops assemble U1's blocks and work in orbit
    order instead (`observables._evolve_block`).  No dense U_F is ever
    formed.  The quasi-spectrum is computed once and cached.
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
    and diagonalized: cos, V = eigh(X), with X reduced to tridiagonal form
    in place (`_tridiagonalize`) and released before the eigenvector
    matrix, which becomes V, is formed and back-transformed in place
    (`_eigenvectors`).  The eigenvectors are then validated in one pass,
    a panel of at most `RESIDUAL_PANEL` columns at a time with the cuts on
    cluster boundaries, through one set of panel buffers (`_resolve_panel`):
    with S the orthogonal transform into sector components, X + iY = B^T B
    for B = exp(-i theta/2) W^T S D^1/2, and the pass forms only u = B v,
    one W^T gemm per sector.  lambda = v^T (X + iY) v = u^T u, so sin =
    2 Re(u).Im(u) for an isolated cos and, inside a cluster of nearly equal
    cos (the cos of a quasi-energy is two-to-one), V^T Y V = Im(U^T U)
    gives the real rotation that diagonalizes it.  B is unitary, since W is
    orthogonal (checked by `stage1_unitary` to `UNITARITY_TOL`), and
    conj(B) B^T = I, so the eigenpair residual |U_F psi - lambda psi| of
    psi = D^1/2 v is |u - lambda conj(u)|, from the stage data alone.  Each
    panel of V is rotated and its rows gathered into the z-basis in place,
    so V stays real.  The eigenvalue moduli, the largest residual and the
    orthonormality of a 16-column sample of V are checked on every call;
    the columns are then sorted by quasi-energy in place.  At its peak the
    call holds 2 dim^2 doubles: U1's eigensystems (dim^2 / 2) beside X and
    its reflector blocks (dim^2 / 2) while they are copied out, and beside
    the reflector blocks and V while the eigenvectors are formed, with one
    dim x `BACK_TRANSFORM_CHUNK` update buffer.
    """
    u1, params = prop.u1, prop.params
    point = _point_text(params)
    phases = np.exp(-0.5j * (prop.h2_diagonal * params.t2))
    half = phases[u1.order]
    dim = u1.dimension
    x = np.empty((dim, dim), order="F")
    _form_x(u1, half, x)
    reduced = _tridiagonalize(x, point)
    del x  # its reflectors were copied out, so W, X and V never coexist
    cos_vals, vectors = _eigenvectors(*reduced, point)
    del reduced

    eigenvalues = np.empty(dim, dtype=complex)
    residual = 0.0
    panels = list(_panels(cos_vals))
    # `_resolve_panel`'s buffers, made once for the widest panel: the real
    # panel, the complex panel that takes psi and then u, and the complex
    # buffer of the two sectors, 40 bytes per row and column in all
    width = max(stop - at for at, stop, _ in panels)
    work = (np.empty(dim * width), np.empty(dim * width, dtype=complex), np.empty(dim * width, dtype=complex))
    for at, stop, clusters in panels:
        cols = slice(at, stop)
        eigenvalues[cols], panel_residual = _resolve_panel(
            u1, half, cos_vals[cols], vectors[:, cols], clusters, work
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
    # orthonormality on 16 sampled Gram rows (exact by construction up to
    # roundoff); |D^1/2| = 1, so the eigenstates' Gram matrix is V's
    dev = unitarity_deviation(vectors, full_dim=0)
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
    sector eigensystems, the rows of at least `tile` mirror pairs at a
    time.

    With E and O the complex sector blocks, U1's row in the fixed run is
    [E_ff, E_fp/sqrt 2, E_fp/sqrt 2] and its row for pair p in the lo (hi)
    run is [E_pf/sqrt 2, (E_pp +- O)/2, (E_pp -+ O)/2]; each row is then
    scaled by its own entry of `half` and by `half` on its columns.  The
    pairs are split into tiles of at least max(`tile`, `X_TILE_MIN`) pairs
    rounded up to a multiple of 16 (or one tile), cut at multiples of 16
    pairs; a tile's block rows (even row n_fixed + p and odd row p for its
    pairs p, and the fixed rows with the first tile, 32 or more whenever
    there are two tiles) are assembled from its rows of W alone, scaled by
    cos theta and sin theta in a tile buffer (`_block_rows`), so no scaled
    copy of all of W is held.  Cut so, a tile's gemm has no ragged edge
    that the whole block's product lacks (BLAS kernels work on panels of
    up to 16 columns and take another path through a few left over) and is
    never so small that OpenBLAS hands it to gemv or a small-matrix kernel
    (16-pair tiles at L=7 lose the bits), so its rows get the bits of the
    whole block's rows at every `tile` (`tests/test_floquet.py` checks it
    at L 1-10 for several widths), and X has the bits of the same steps on
    the blocks `u1_from_eigensystem` assembles.  X is symmetric up to
    roundoff.
    """
    nf, n_pairs, dim = u1.n_fixed, u1.odd[1].shape[0], u1.dimension
    size = u1.even[1].shape[0]
    step = -(-max(tile, X_TILE_MIN) // 16) * 16
    n_tiles = max(1, n_pairs // step)
    cuts = [j * n_pairs // n_tiles // 16 * 16 for j in range(n_tiles)] + [n_pairs]
    widest = nf + max(b - a for a, b in zip(cuts, cuts[1:]))
    part, scaled = _mapped(widest * size), _mapped(widest * size)
    even_buf = _mapped(widest * size, complex)
    odd_buf = _mapped(widest * n_pairs, complex)
    tile_buf = _mapped(widest * dim, complex)
    f, lo, hi = slice(0, nf), slice(nf, nf + n_pairs), slice(nf + n_pairs, None)
    for p0, p1 in zip(cuts, cuts[1:]):
        first = nf if p0 == 0 else 0
        even = _block_rows(u1.even, slice(nf + p0 - first, nf + p1), even_buf, part, scaled)
        odd = _block_rows(u1.odd, slice(p0, p1), odd_buf, part, scaled)
        if first:
            t = _leading(tile_buf, nf, dim)
            t[:, f] = even[:nf, :nf]
            np.multiply(even[:nf, nf:], SQRT_HALF, out=t[:, lo])
            t[:, hi] = t[:, lo]
            t *= half[:nf, None]
            t *= half
            x[:nf] = t.real
        if p1 == p0:
            continue
        fixed_cols, paired = even[first:, :nf], even[first:, nf:]
        t = _leading(tile_buf, p1 - p0, dim)
        for start, same_cols, cross_cols in ((nf, lo, hi), (nf + n_pairs, hi, lo)):
            np.multiply(fixed_cols, SQRT_HALF, out=t[:, f])
            same, cross = t[:, same_cols], t[:, cross_cols]
            np.add(paired, odd, out=same)
            same *= 0.5
            np.subtract(paired, odd, out=cross)
            cross *= 0.5
            t *= half[start + p0:start + p1, None]
            t *= half
            x[start + p0:start + p1] = t.real


def _lapack(name: str, *args, **kwargs):
    """scipy.linalg.lapack's `name` on the arguments: its results and,
    apart, the info it ends with."""
    # scipy is imported here, not at module top: it costs ~0.3 s and ~20 MB,
    # and only the quasi-spectrum needs it
    from scipy.linalg import lapack

    *results, info = getattr(lapack, name)(*args, **kwargs)
    return results, info


def _require(info: int, name: str, point: str) -> None:
    if info != 0:
        raise NumericError(f"quasi-spectrum at ({point}): LAPACK {name} failed with info={info}")


def _tridiagonalize(x: np.ndarray, point: str):
    """dsytrd on the lower triangle of the real symmetric x, in place: the
    diagonal d and subdiagonal e of T = Q^T X Q, and the reflectors whose
    product is Q, copied out of x so that x can be released before the
    eigenvectors are formed.  x must be F-contiguous float64 (otherwise
    f2py would reduce a copy) and is destroyed.

    Reflector j (0-based) is H_j = I - tau_j v_j v_j^T, with v_j zero above
    row j + 1, 1 on it and x[j + 2:, j] below it; Q = H_0 H_1 ...  The last
    one, of length 1, is the identity, so n - 2 reflectors are kept, in
    column blocks of `REFLECTOR_BLOCK`: the block of reflectors j0:j1 is
    the explicit F-order matrix V of their v_j on rows j0 + 1:, copied from
    x[j0 + 1:, j0:j1] with its strict upper triangle zeroed and its
    diagonal set to 1 (the compact-WY form `_eigenvectors` applies).  All
    blocks lie in one buffer of about dim^2 / 2 doubles.  Returns (d, e,
    blocks) with blocks a list of (j0, V, tau)."""
    n = x.shape[0]
    (lwork,), info = _lapack("dsytrd_lwork", n, lower=1)
    _require(info, "dsytrd", point)
    (reduced, d, e, tau), info = _lapack("dsytrd", x, lower=1, lwork=int(lwork), overwrite_a=1)
    _require(info, "dsytrd", point)
    count = max(n - 2, 0)
    starts = range(0, count, REFLECTOR_BLOCK)
    stops = [min(j0 + REFLECTOR_BLOCK, count) for j0 in starts]
    store = np.empty(sum((n - 1 - j0) * (j1 - j0) for j0, j1 in zip(starts, stops)))
    blocks, at = [], 0
    for j0, j1 in zip(starts, stops):
        block = _leading(store[at:], j1 - j0, n - 1 - j0).T
        block[...] = reduced[j0 + 1:, j0:j1]
        top = block[:j1 - j0]
        top[...] = np.tril(top, -1)
        np.fill_diagonal(top, 1.0)
        blocks.append((j0, block, tau[j0:j1]))
        at += block.size
    return d, e, blocks


def _eigenvectors(d: np.ndarray, e: np.ndarray, blocks, point: str):
    """Eigenvalues (ascending) and the F-order eigenvector matrix of X from
    its tridiagonal form (`_tridiagonalize`): the steps of LAPACK dsyevr.

    dstemr (MRRR) gives the eigenvectors Z of T with O(dim) workspace; when
    it fails, dstebz (bisection) and dstein (inverse iteration) give them,
    sorted by eigenvalue, as dsyevr does.  The eigenvectors of X are Q Z,
    formed in place in the F-order Z.  Each reflector block is applied in
    its compact-WY form H_j0 ... H_j1-1 = I - V T V^T (`_wy_factor`, T
    formed once per block), last block first (Q = Q_1 Q_2 ... for the
    blocks in order), to rows j0 + 1: of Z, `BACK_TRANSFORM_CHUNK` columns
    at a time: A = V^T Z_c, then Z_c -= V (T A), all numpy gemms.  The
    update goes through one F-order buffer, laid out as Z is, so the
    subtraction runs down contiguous columns.  A nonzero info from any step
    but dstemr raises `NumericError` naming `point` and the routine."""
    n = d.size
    padded = np.append(e, 0.0)  # dstemr takes n entries of e, the last as workspace
    (lwork, liwork), info = _lapack("dstemr_lwork", d, padded, 0, 0.0, 0.0, 0, 0)
    _require(info, "dstemr", point)
    (_, vals, vecs), info = _lapack("dstemr", d, padded, 0, 0.0, 0.0, 0, 0, lwork=int(lwork), liwork=int(liwork))
    if info != 0:
        (count, vals, block_of, splits), info = _lapack("dstebz", d, e, 0, 0.0, 0.0, 0, 0, 0.0, "B")
        _require(info, "dstebz", point)
        vals = vals[:count]
        (vecs,), info = _lapack("dstein", d, e, vals, block_of, splits)
        _require(info, "dstein", point)
        ranking = np.argsort(vals, kind="stable")
        vals = vals[ranking]
        _permute_columns(vecs, ranking)
    if not blocks:
        return vals, vecs
    width = min(BACK_TRANSFORM_CHUNK, n)
    size = blocks[0][1].shape[1] * width
    inner, scaled, update = np.empty(size), np.empty(size), np.empty((n - 1) * width)
    for j0, v, tau in reversed(blocks):
        t = _wy_factor(v, tau)
        rows, k = vecs[j0 + 1:], tau.size
        for c0 in range(0, n, width):
            z = rows[:, c0:c0 + width]
            w = z.shape[1]
            a = np.matmul(v.T, z, out=_leading(inner, k, w))
            b = np.matmul(t, a, out=_leading(scaled, k, w))
            z -= np.matmul(v, b, out=_leading(update, w, z.shape[0]).T)
    return vals, vecs


def _wy_factor(v: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The upper triangular T with H_0 H_1 ... H_k-1 = I - V T V^T for the
    reflectors H_i = I - tau_i v_i v_i^T, the columns of the explicit V
    (LAPACK dlarft, forward and columnwise), from G = V^T V:
    T[:i, i] = -tau_i T[:i, :i] G[:i, i] and T[i, i] = tau_i.  A reflector
    with tau_i = 0 (the identity) gets a zero column."""
    g = v.T @ v
    t = np.zeros((tau.size,) * 2)
    for i, tau_i in enumerate(tau):
        t[:i, i] = -tau_i * (t[:i, :i] @ g[:i, i])
        t[i, i] = tau_i
    return t


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


def _resolve_panel(u1, half, cos_vals, panel, clusters, work):
    """Eigenvalues and the largest eigenpair residual of one panel of
    eigenvectors v of X (`panel`, orbit-ordered rows, eigenvalues
    `cos_vals`), through the buffers `work` made by `quasi_spectrum`: a
    real panel, a complex panel and a complex buffer for the two sectors.

    With S the transform into sector components (`_split`), U1 = S^T W
    exp(-i theta) W^T S, so D^1/2 U1 D^1/2 = B^T B for B = exp(-i theta/2)
    W^T S D^1/2 per sector, and the pass forms only u = B v: one W^T gemm
    per sector, into the complex panel.  Then lambda = v^T (X + iY) v =
    u^T u, unconjugated, so sin = 2 Re(u).Im(u), and inside a cluster
    V^T Y V = Im(U^T U), whose real rotation R turns u into U R.  B is
    unitary when W is orthogonal (checked by `stage1_unitary` to
    `UNITARITY_TOL`), and conj(B) B^T = I, so for real v the residual
    |U_F psi - lambda psi| of psi = D^1/2 v is |B^T u - lambda v| =
    |u - lambda conj(u)|, formed in the sector buffer.  The panel is
    rotated inside each cluster and its rows are gathered into the z-basis
    in place, through the sector buffer."""
    dim, width = panel.shape
    basis_buf, states_buf, sector_buf = work
    n_even = u1.even[1].shape[0]
    basis = _leading(basis_buf, dim, width)
    u = _leading(states_buf, dim, width)
    x_even = _leading(sector_buf, n_even, width)
    x_odd = _leading(sector_buf[n_even * width:], dim - n_even, width)
    basis[...] = panel
    np.multiply(half[:, None], basis, out=u)
    _split(u, u1.n_fixed, x_even, x_odd)
    for (theta, w), xs, us in zip((u1.even, u1.odd), (x_even, x_odd), (u[:n_even], u[n_even:])):
        np.matmul(w.T, xs.view(float), out=us.view(float))
        us *= np.exp(-0.5j * theta)[:, None]
    sin_vals = 2.0 * np.einsum("ij,ij->j", u.real, u.imag)
    cos_out = cos_vals.copy()
    for start, stop in clusters:
        idx = slice(start, stop)
        cross = u.real[:, idx].T @ u.imag[:, idx]
        sy, rot = np.linalg.eigh(cross + cross.T)
        basis[:, idx] = basis[:, idx] @ rot
        u[:, idx] = u[:, idx] @ rot
        sin_vals[idx] = sy
        cos_out[idx] = ((cos_vals[idx][:, None] * rot) * rot).sum(axis=0)
    eigenvalues = cos_out + 1j * sin_vals
    # the residual and the gather reuse the sector buffer, and the column
    # norms go through einsum: np.linalg.norm, fancy indexing or a conj()
    # would make panel-sized temporaries
    resid = _leading(sector_buf, dim, width)
    np.conjugate(u, out=resid)
    resid *= eigenvalues
    np.subtract(u, resid, out=resid)
    parts = resid.view(float)
    squares = np.einsum("ij,ij->j", parts, parts)
    residual = math.sqrt(float(np.max(squares[0::2] + squares[1::2])))
    gathered = _leading(sector_buf.view(float), dim, width)
    np.take(basis, u1.inverse, axis=0, out=gathered, mode="clip")
    panel[...] = gathered
    return eigenvalues, residual


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


@dataclass(frozen=True)
class PiPair:
    """Two dominant Floquet eigenstates split by a quasi-energy gap of pi."""

    index_a: int
    index_b: int
    gap: float
    combined_overlap: float


def overlaps(spectrum: QuasiSpectrum, bits: str) -> OverlapTable:
    """Overlap of the z-product state `bits` with every Floquet eigenstate.

    For basis state b, |<b|psi_a>|^2 = |<b|D^1/2 v_a>|^2 = V[b, a]^2, since
    |D^1/2_bb| = 1: the table is V's row b squared.
    """
    index = basis_index(bits, spectrum.dimension.bit_length() - 1)
    return OverlapTable(
        quasi_energies=spectrum.quasi_energies.copy(), overlaps=spectrum.vectors[index] ** 2,
        params=spectrum.params,
    )


def circular_gap(e1: float, e2: float) -> float:
    """Distance between two quasi-energies on the circle of circumference 2 pi."""
    d = abs(e1 - e2) % (2.0 * np.pi)
    return min(d, 2.0 * np.pi - d)


def find_pi_pair(table: OverlapTable) -> Optional[PiPair]:
    """The two largest-overlap entries, if their circular gap is within
    `PI_PAIR_TOL` (0.05 rad) of pi.

    Returns None when the dominant pair is not pi-split.  The tolerance
    separates a genuine pair from background while tolerating finite-size
    splitting.
    """
    if len(table) < 2:
        raise ValueError("overlap table needs at least two entries")
    top = np.argsort(table.overlaps, kind="stable")[-2:]
    i, j = int(top[1]), int(top[0])
    gap = circular_gap(table.quasi_energies[i], table.quasi_energies[j])
    if abs(gap - np.pi) > PI_PAIR_TOL:
        return None
    return PiPair(
        index_a=min(i, j),
        index_b=max(i, j),
        gap=gap,
        combined_overlap=float(table.overlaps[i] + table.overlaps[j]),
    )
