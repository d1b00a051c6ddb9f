"""Stage Hamiltonians of the two-stage Floquet protocol.

Stage 1 applies a global drive with flip imperfection on top of the Rydberg
interaction,

    H1 = sum_j (Omega + epsilon) sigma^x_j + H_int,

and stage 2 applies the interaction together with a linear Stark potential,

    H2 = H_int + F * sum_j j n_j              (site index j = 1 .. L).

H_int is the pairwise van der Waals interaction sum_{i<j} V / |i-j|^6 n_i n_j
restricted by the chosen kernel: NN keeps |i-j| < 2, NNN < 3, NNNN < 4 and ALL
keeps every pair.  H2 is diagonal in the z-basis and is kept as a vector;
stage 1 scatters H1 into its reflection sectors, and `build_h1`, the dense
H1, is the tests' reference.  `SimulationParams` caps the chain at
`MAX_DENSE_SITES` sites, so every builder here gets a size it can store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .hilbert import BasisConfig, shown

KERNEL_VARIANTS = ("NN", "NNN", "NNNN", "ALL")

# dense 2^L x 2^L storage beyond this is not worth supporting; checked by
# SimulationParams, which SweepAxis also builds for every L value
MAX_DENSE_SITES = 14


def check_rate(name: str, value) -> None:
    """Refuse a rate or stage duration that is not a finite number (or is a boolean)."""
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a real number, or an integer past the float range
        finite = False
    if not finite:
        raise ValueError(f"{name} takes finite numbers, got {shown(value)}")


@dataclass(frozen=True)
class SimulationParams:
    """All dimensionless knobs of one Floquet model instance.

    Rates (omega, epsilon, v, f) carry units of 1/time and the stage
    durations t1, t2 units of time; figures are labeled by the products
    omega*t1, epsilon*t1, v*t1, v*t2 and f*t2.  Construction refuses, with
    ValueError, an L that is not an integer (or is a boolean) from 1 to
    MAX_DENSE_SITES, a rate or duration `check_rate` refuses, a duration
    <= 0 and a kernel outside KERNEL_VARIANTS.  Numpy scalars are stored as
    the Python scalars they hold, which the writers serialize.
    """

    L: int
    omega: float = math.pi / 2
    epsilon: float = 0.0
    v: float = 0.0
    f: float = 0.0
    t1: float = 1.0
    t2: float = 10.0
    kernel: str = "NN"

    def __post_init__(self):
        for name, value in list(vars(self).items()):
            if isinstance(value, np.generic):  # np.bool_ too, which is then refused as a bool
                object.__setattr__(self, name, value.item())
        if isinstance(self.L, bool) or not isinstance(self.L, int) or self.L < 1:
            raise ValueError(f"L must be a positive integer, got {shown(self.L)}")
        if self.L > MAX_DENSE_SITES:
            raise ValueError(f"L={shown(self.L)} exceeds the site cap of {MAX_DENSE_SITES} (MAX_DENSE_SITES)")
        for name in ("omega", "epsilon", "v", "f", "t1", "t2"):
            check_rate(name, getattr(self, name))
        if self.t1 <= 0 or self.t2 <= 0:
            raise ValueError(f"stage durations must be positive, got t1={self.t1}, t2={self.t2}")
        if self.kernel not in KERNEL_VARIANTS:
            raise ValueError(f"unknown kernel variant {shown(self.kernel)}, expected one of {KERNEL_VARIANTS}")

    @property
    def basis(self) -> BasisConfig:
        return BasisConfig(self.L)

    @property
    def dimension(self) -> int:
        return 1 << self.L

    @property
    def f_t2(self) -> float:
        return self.f * self.t2

    def with_f_t2(self, f_t2: float) -> "SimulationParams":
        return replace(self, f=f_t2 / self.t2)

    def dimensionless_groups(self) -> dict:
        return {
            "omega_t1": self.omega * self.t1,
            "epsilon_t1": self.epsilon * self.t1,
            "v_t1": self.v * self.t1,
            "v_t2": self.v * self.t2,
            "f_t2": self.f_t2,
        }


def interaction_diagonal(params: SimulationParams) -> np.ndarray:
    """Diagonal of the pairwise interaction: d[b] = sum_{i<j} V_ij n_i(b) n_j(b).

    Equivalent to the symmetric form (1/2) sum over ordered pairs i != j;
    summing i < j once avoids double-counting bugs.  The kernel keeps the
    pairs up to its largest distance, `reach`, each with V_ij = V / |i-j|^6.
    """
    reach = {"NN": 1, "NNN": 2, "NNNN": 3}.get(params.kernel, params.L)
    occ = params.basis.occupations()
    diag = np.zeros(params.dimension)
    for i in range(1, params.L + 1):
        for j in range(i + 1, min(i + reach, params.L) + 1):
            coupling = params.v / (j - i) ** 6
            if coupling != 0.0:
                diag += coupling * occ[i - 1] * occ[j - 1]
    return diag


def stark_diagonal(params: SimulationParams) -> np.ndarray:
    """Diagonal of the linear Stark potential F * sum_j j n_j, j starting at 1.

    The site index convention changes quasi-energies (it is not a global
    offset), so it is fixed here once and for all.
    """
    occ = params.basis.occupations()
    sites = np.arange(1, params.L + 1, dtype=float)
    return params.f * (sites[:, None] * occ).sum(axis=0)


def build_h1(params: SimulationParams) -> np.ndarray:
    """Dense stage-1 Hamiltonian: (Omega+epsilon) on single-bit-flip pairs plus
    the interaction diagonal.  Real symmetric by construction."""
    dim = params.dimension
    h1 = np.zeros((dim, dim))
    drive = params.omega + params.epsilon
    b = np.arange(dim, dtype=np.int64)
    for k in range(params.L):
        h1[b ^ (1 << k), b] = drive
    h1[b, b] = interaction_diagonal(params)
    return h1


def build_h2_diagonal(params: SimulationParams) -> np.ndarray:
    """Stage-2 diagonal: interaction plus Stark potential."""
    return interaction_diagonal(params) + stark_diagonal(params)
