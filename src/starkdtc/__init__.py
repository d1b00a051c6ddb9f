"""State-vector simulator for a Stark-stabilized discrete time crystal on a
driven Rydberg chain: two-stage Floquet propagators, stroboscopic
autocorrelators, subharmonic spectra, quasi-spectrum overlaps, DTC lifetimes
and the parameter sweeps behind the bundled figure datasets.

The names below are the documented API; every other name is imported from
its module (e.g. `starkdtc.floquet.quasi_spectrum`)."""

__version__ = "0.1.0"

from .exceptions import ConfigError, NumericError, ResourceLimitError
from .hamiltonian import SimulationParams
from .floquet import find_pi_pair, floquet_operator, overlaps
from .observables import autocorrelator_series, fourier_spectrum, lifetime
from .sweep import SweepAxis, SweepSpec, run_sweep
from .config import parse_config
from .figures import FIGURE_IDS, figure_command

__all__ = [
    "__version__",
    "ConfigError",
    "NumericError",
    "ResourceLimitError",
    "SimulationParams",
    "floquet_operator",
    "autocorrelator_series",
    "fourier_spectrum",
    "lifetime",
    "overlaps",
    "find_pi_pair",
    "run_sweep",
    "SweepSpec",
    "SweepAxis",
    "parse_config",
    "figure_command",
    "FIGURE_IDS",
]
