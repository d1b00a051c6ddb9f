"""State-vector simulator for a Stark-stabilized discrete time crystal on a
driven Rydberg chain: two-stage Floquet propagators, stroboscopic
autocorrelators, subharmonic spectra, quasi-spectrum overlaps, DTC lifetimes
and the parameter sweeps behind the bundled figure datasets."""

__version__ = "0.1.0"

from .exceptions import ConfigError, NumericError, ResourceLimitError
from .hilbert import (
    BasisConfig,
    StateVector,
    state_from_amplitudes,
    z_product_state,
)
from .hamiltonian import (
    InteractionKernel,
    SimulationParams,
    build_h1,
    build_h2_diagonal,
    interaction_diagonal,
    stark_diagonal,
)
from .floquet import (
    FloquetPropagator,
    OverlapTable,
    PiPair,
    QuasiSpectrum,
    find_pi_pair,
    floquet_operator,
    overlaps,
    propagator_u2,
    quasi_spectrum,
)
from .observables import (
    AutocorrelatorSeries,
    LifetimeResult,
    SpectralResult,
    autocorrelator_series,
    fourier_spectrum,
    lifetime,
    reversal_analysis,
)
from .sweep import (
    PropagatorFactory,
    SweepAxis,
    SweepResult,
    SweepSpec,
    initial_state_comparison,
    kernel_comparison,
    run_sweep,
)
from .config import RunConfig, parse_config
from .figures import FIGURE_IDS, figure_command, figure_parameters

__all__ = [
    "__version__",
    "ConfigError",
    "NumericError",
    "ResourceLimitError",
    "BasisConfig",
    "StateVector",
    "state_from_amplitudes",
    "z_product_state",
    "InteractionKernel",
    "SimulationParams",
    "build_h1",
    "build_h2_diagonal",
    "interaction_diagonal",
    "stark_diagonal",
    "FloquetPropagator",
    "OverlapTable",
    "PiPair",
    "QuasiSpectrum",
    "find_pi_pair",
    "floquet_operator",
    "overlaps",
    "propagator_u2",
    "quasi_spectrum",
    "AutocorrelatorSeries",
    "LifetimeResult",
    "SpectralResult",
    "autocorrelator_series",
    "fourier_spectrum",
    "lifetime",
    "reversal_analysis",
    "PropagatorFactory",
    "SweepAxis",
    "SweepResult",
    "SweepSpec",
    "initial_state_comparison",
    "kernel_comparison",
    "run_sweep",
    "RunConfig",
    "parse_config",
    "FIGURE_IDS",
    "figure_command",
    "figure_parameters",
]
