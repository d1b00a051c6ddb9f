"""Stroboscopic autocorrelator, its subharmonic spectrum and the DTC lifetime.

The order diagnostic is the site-averaged two-time correlator

    C(nT) = (1/L) sum_j <psi0| sigma^z_j (U_F^n)^dag sigma^z_j U_F^n |psi0>,

sampled once per drive period from a z-product state |psi0>, given as its
bit string.  Its discrete Fourier transform over cycles 1..N (N even) is
reported as |X(omega_k)| / N so a perfect period-doubled response has
subharmonic amplitude A_pi = 1.  The result types hold values only;
`sweep.OBSERVABLES` declares how each observable is recorded and tabulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import NumericError
from .floquet import FloquetPropagator, SectorBlocks, _point_text
from .hamiltonian import SimulationParams
from .hilbert import basis_index, sigma_z_stack

NORM_DRIFT_TOL = 1e-8
# |C(n)| may exceed 1 by this much through roundoff
MAGNITUDE_TOL = 1e-9
REVERSAL_ZERO_ATOL = 1e-12


@dataclass(frozen=True)
class AutocorrelatorSeries:
    """C(nT) samples for n = 0 .. n_cycles; C[0] = 1 by construction."""

    values: np.ndarray
    n_cycles: int

    def __post_init__(self):
        if self.values.shape != (self.n_cycles + 1,):
            raise ValueError(
                f"series of {self.values.shape} samples inconsistent with n_cycles={self.n_cycles}"
            )


@dataclass(frozen=True)
class SpectralResult:
    """Normalized DFT magnitudes |X(omega)|/N on omega_k = 2 pi k / N."""

    frequencies: np.ndarray
    magnitudes: np.ndarray
    a_pi: float


@dataclass(frozen=True)
class LifetimeResult:
    """Reversal analysis of a stroboscopic series.

    `first_reversal` is the first cycle n >= 3 whose parity subsequence sign
    (even n against sign C[2], odd n against sign C[1]) is reversed, counting
    |C[n]| below `REVERSAL_ZERO_ATOL` as reversed.  `n_c` is the DTC
    lifetime: the cycle of deepest reversed amplitude reached after
    `first_reversal`, i.e. the clearest point of the subharmonic phase slip.
    On a slowly beating envelope the raw first flip lands on a node where the
    amplitude is near zero, so it is reported separately.  Both are None when
    no reversal occurs within n_max.
    """

    n_max: int
    first_reversal: Optional[int]
    n_c: Optional[int]
    reversal_depth: Optional[float]

    @property
    def observed(self) -> bool:
        return self.n_c is not None

    def record(self) -> dict:
        return {
            "n_c": self.n_c if self.observed else "not_observed",
            "first_reversal": self.first_reversal,
            "reversal_depth": self.reversal_depth,
            "n_max": self.n_max,
        }


def _drift_error(drift: float, params: SimulationParams, cycle: int) -> NumericError:
    return NumericError(
        f"state norm drifted by {drift:.2e} (tolerance {NORM_DRIFT_TOL:.0e}) "
        f"for ({_point_text(params)}) at cycle {cycle}"
    )


def _magnitude_error(values: np.ndarray, params: SimulationParams) -> Optional[NumericError]:
    magnitude = np.abs(values)
    cycle = int(np.argmax(magnitude))
    if magnitude[cycle] <= 1.0 + MAGNITUDE_TOL:
        return None
    return NumericError(
        f"autocorrelator magnitude exceeded 1 by {magnitude[cycle] - 1.0:.2e} "
        f"(tolerance {MAGNITUDE_TOL:.0e}) for ({_point_text(params)}) at cycle {cycle}"
    )


def autocorrelator_series(
    prop: FloquetPropagator,
    bits: str,
    n_cycles: int,
    blocks: Optional[SectorBlocks] = None,
) -> AutocorrelatorSeries:
    """Stroboscopic autocorrelator over n_cycles Floquet periods.

    The initial state is the z-product state `bits`; anything but a bit
    string of the propagator's L raises `ValueError` (`hilbert.basis_index`)
    before U1's blocks are assembled.  The blocks are assembled (and
    checked) for the run, unless `blocks` gives them already assembled
    from `prop.u1`; then every cycle advances the state by
    Phi * (U1 psi) and checks the norm, as a one-column block of the
    sweep's loop (`_evolve_block`).  A failed check raises `NumericError`
    naming the parameter point, the tolerance and the cycle.
    """
    if n_cycles < 1:
        raise ValueError(f"cycle count must be >= 1, got {n_cycles}")
    index = basis_index(bits, prop.params.L)
    sz = sigma_z_stack(prop.params.basis)
    if blocks is None:
        blocks = prop.u1.assemble(prop.params)
    block, (error,) = _evolve_block(blocks, prop.phase2[:, None], [(prop.params, index)], sz, n_cycles)
    if error is not None:
        raise error
    return AutocorrelatorSeries(values=block[:, 0], n_cycles=n_cycles)


def _evolve_block(blocks, phi, columns, sz, n_cycles):
    """C(n) of z-product states evolved as one block by Psi <- Phi * (U1 Psi).

    `blocks` is the stage-1 unitary as its assembled blocks
    (`floquet.SectorBlocks`); `phi` is a (dim, width) block
    holding the stage-2 phase column of each state, in the order of
    `columns` (one (params, basis index) pair per z-product state; the
    params name the point in error messages), then zero columns as padding.
    Rows are permuted into reflection-orbit order once, and the state, the
    phase block and the sector buffers are C-order.  A cycle is one
    `blocks.product` (two sector gemms) and a few passes over preallocated
    buffers: |psi|^2 = re^2 + im^2, then one product per live column with
    the rows (1, w_c), which reads its squared norm and C_c(n) = w_c .
    |psi_c|^2 at once (w_c = (s_c . sigma^z) / L for the signs s_c of state
    c, formed once), then one vectorized norm-drift comparison for the
    block.  All but the gemms are per column, so a column's bits do not
    depend on the rest of a block padded as in `sweep._block_series`.

    Returns the (n_cycles + 1, len(columns)) series and one `NumericError`
    (or None) per state.  A state whose norm drifts is zeroed and no longer
    checked, so it cannot touch the others; the loop stops once every state
    has failed.
    """
    points, starts = zip(*columns)
    count = len(columns)
    length, dim = sz.shape
    u1 = blocks.u1
    phi = np.ascontiguousarray(phi[u1.order])
    sz = sz[:, u1.order]
    width = phi.shape[1]
    rows = u1.inverse[list(starts)]
    psi = np.zeros((dim, width), dtype=complex)
    psi[rows, np.arange(count)] = 1.0
    readout = np.ones((count, 2, dim))
    # sz entries are +-1, so the sums are exact integers
    readout[:, 1] = sz[:, rows].T @ sz / length
    work = u1.workspace(width)
    squares = np.empty((dim, 2 * width))
    prob = np.empty((dim, width))
    # per column (squared norm, C); rows of padding and failed states stay 0
    sums = np.zeros((width, 2))
    # the norm each column should keep: 1 while its state is live, 0 for
    # padding and zeroed states, so only a live state can fail
    expected = np.zeros(width)
    expected[:count] = 1.0
    errors = [None] * count
    live = list(range(count))

    values = np.zeros((n_cycles + 1, count), order="F")
    values[0] = 1.0
    for n in range(1, n_cycles + 1):
        if not live:
            break
        np.multiply(phi, blocks.product(psi, psi, work), out=psi)
        np.square(psi.view(float), out=squares)
        np.add(squares[:, 0::2], squares[:, 1::2], out=prob)
        for col in live:
            np.matmul(readout[col], prob[:, col], out=sums[col])
        drift = np.abs(np.sqrt(sums[:, 0]) - expected)
        if drift.max() > NORM_DRIFT_TOL:
            for col in list(live):
                if drift[col] > NORM_DRIFT_TOL:
                    errors[col] = _drift_error(drift[col], points[col], n)
                    psi[:, col] = 0.0
                    sums[col] = expected[col] = 0.0
                    live.remove(col)
        values[n] = sums[:count, 1]
    for col in live:
        errors[col] = _magnitude_error(values[:, col], points[col])
    return values, errors


def fourier_spectrum(series: AutocorrelatorSeries) -> SpectralResult:
    """DFT of C over cycles 1..N: X(omega_k) = sum_n C[n] exp(-i omega_k n).

    N must be even so that omega = pi sits exactly on the frequency grid;
    magnitudes are |X|/N and a_pi is the grid entry at k = N/2.
    """
    n_cycles = series.n_cycles
    if n_cycles % 2 != 0:
        raise ValueError(f"cycle count must be even for an exact omega=pi bin, got {n_cycles}")
    frequencies = 2.0 * np.pi * np.arange(n_cycles) / n_cycles
    # np.fft.fft counts the samples from n = 0, so it returns
    # X(omega_k) exp(i omega_k): the same moduli
    magnitudes = np.abs(np.fft.fft(series.values[1:])) / n_cycles
    return SpectralResult(
        frequencies=frequencies,
        magnitudes=magnitudes,
        a_pi=float(magnitudes[n_cycles // 2]),
    )


def reversal_analysis(values: np.ndarray) -> LifetimeResult:
    """Sign-reversal analysis of a stroboscopic series C[0..n_max].

    Reference signs are taken from C[1] (odd cycles) and C[2] (even cycles)
    so non-polarized initial states are handled uniformly; exact zeros count
    as reversed.
    """
    n_max = values.size - 1
    if n_max < 2:
        raise ValueError(f"need at least 2 cycles for reversal analysis, got {n_max}")
    n = np.arange(n_max + 1)
    reference = np.where(n % 2 == 0, np.sign(values[2]), np.sign(values[1]))
    aligned = reference * values
    reversed_mask = (aligned < 0) | (np.abs(values) < REVERSAL_ZERO_ATOL)
    reversed_mask[:3] = False
    hits = np.flatnonzero(reversed_mask)
    if hits.size == 0:
        return LifetimeResult(n_max=n_max, first_reversal=None, n_c=None, reversal_depth=None)
    first = int(hits[0])
    n_c = first + int(np.argmin(aligned[first:]))
    return LifetimeResult(
        n_max=n_max,
        first_reversal=first,
        n_c=n_c,
        reversal_depth=float(-aligned[n_c]),
    )


def lifetime(prop: FloquetPropagator, bits: str, n_max: int) -> LifetimeResult:
    """DTC lifetime of the z-product state `bits` from the autocorrelator
    over up to n_max cycles, evolved as in `autocorrelator_series`; see
    `reversal_analysis` for the definitions."""
    if n_max < 2:
        raise ValueError(f"cycle cap must be >= 2, got {n_max}")
    series = autocorrelator_series(prop, bits, n_max)
    return reversal_analysis(series.values)
