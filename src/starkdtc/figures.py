"""Figure-ready datasets: one CSV per panel plus a manifest.

Each figure id maps to the exact parameter sets of the corresponding plot:
series/spectra/overlap panels at L=12 and epsilon=0.3 (fig2), the A_pi maps
and slices at L=10 (fig3a-c), the kernel comparison (fig3d), the lifetime
series and grid (fig4a/b) and the initial-state comparison (fig5).  Grids the
captions leave unreadable are pinned here: epsilon and F*T2 sampled on
[0, 0.5] with step 0.02 for the maps and step 0.05 for the kernel grid.
"""

from __future__ import annotations

import math
from pathlib import Path

from .floquet import check_quasi_spectrum_memory, overlaps
from .hamiltonian import SimulationParams
from .hilbert import z_product_state
from .observables import autocorrelator_series, fourier_spectrum, lifetime
from .output import params_metadata, write_csv, write_json, write_sidecar
from .sweep import (
    PropagatorFactory,
    SweepAxis,
    SweepSpec,
    initial_state_comparison,
    kernel_comparison,
    run_sweep,
)

FIGURE_IDS = ("fig2", "fig3a", "fig3b", "fig3c", "fig3d", "fig4a", "fig4b", "fig5")

N_CYCLES = 100
LIFETIME_N_MAX = 5000

FIG2_PARAMS = SimulationParams(L=12, omega=math.pi / 2, epsilon=0.3, v=0.1, t1=1.0, t2=10.0)
FIG3_PARAMS = SimulationParams(L=10, omega=math.pi / 2, epsilon=0.3, v=0.1, t1=1.0, t2=10.0)
FIG4_PARAMS = SimulationParams(L=10, omega=math.pi / 2, epsilon=0.25, v=0.1, t1=1.0, t2=10.0)
FIG5_STATES = ("1111000000", "1111010010")

FINE_GRID = tuple(round(0.02 * k, 10) for k in range(26))  # 0 .. 0.5 step 0.02
KERNEL_GRID = tuple(round(0.05 * k, 10) for k in range(11))  # 0 .. 0.5 step 0.05
LIFETIME_F_GRID = (0.1, 0.2, 0.3, 0.4)
LIFETIME_EPS_GRID = (0.2, 0.25, 0.3)


def _panel_sidecar(path, params, extra):
    meta = {"params": params_metadata(params)}
    meta.update(extra)
    write_sidecar(path, meta)


def _series_and_spectrum(prop, bits, n_cycles):
    psi0 = z_product_state(bits, prop.params.basis)
    series = autocorrelator_series(prop, psi0, n_cycles)
    return series, fourier_spectrum(series)


def _build_fig2(out_dir: Path) -> list:
    check_quasi_spectrum_memory(FIG2_PARAMS.L)
    factory = PropagatorFactory()
    files = []
    for label, f_t2 in (("0", 0.0), ("0.25", 0.25)):
        params = FIG2_PARAMS.with_f_t2(f_t2)
        prop = factory.get(params)
        bits = "1" * params.L
        series, spectral = _series_and_spectrum(prop, bits, N_CYCLES)

        path = write_csv(out_dir / f"fig2_series_ft2_{label}.csv", ["n", "c"], series.rows())
        _panel_sidecar(path, params, {"panel": "series", "initial_state": bits, "n_cycles": N_CYCLES})
        files.append(path)

        path = write_csv(
            out_dir / f"fig2_spectrum_ft2_{label}.csv", ["omega", "magnitude"], spectral.rows()
        )
        _panel_sidecar(
            path, params,
            {"panel": "spectrum", "initial_state": bits, "n_cycles": N_CYCLES, "a_pi": spectral.a_pi},
        )
        files.append(path)

        table = overlaps(prop.spectrum(), z_product_state(bits, params.basis))
        path = write_csv(
            out_dir / f"fig2_overlaps_ft2_{label}.csv", ["quasi_energy", "overlap"], table.rows()
        )
        _panel_sidecar(path, params, {"panel": "overlaps", "initial_state": bits})
        files.append(path)
    return files


def _build_fig3a(out_dir: Path) -> list:
    spec = SweepSpec(
        axes=(SweepAxis("epsilon", FINE_GRID), SweepAxis("F_T2", FINE_GRID)),
        base=FIG3_PARAMS,
        observable="a_pi",
        n_cycles=N_CYCLES,
    )
    result = run_sweep(spec)
    return [result.to_csv(out_dir / "fig3a_api_map.csv")]


def _build_fig3b(out_dir: Path) -> list:
    spec = SweepSpec(
        axes=(SweepAxis("epsilon", FINE_GRID), SweepAxis("F_T2", (0.0, 0.2, 0.3))),
        base=FIG3_PARAMS,
        observable="a_pi",
        n_cycles=N_CYCLES,
    )
    result = run_sweep(spec)
    return [result.to_csv(out_dir / "fig3b_api_vs_epsilon.csv")]


def _build_fig3c(out_dir: Path) -> list:
    spec = SweepSpec(
        axes=(SweepAxis("V", (0.06, 0.09, 0.12)), SweepAxis("F_T2", FINE_GRID)),
        base=FIG3_PARAMS,
        observable="a_pi",
        n_cycles=N_CYCLES,
    )
    result = run_sweep(spec)
    return [result.to_csv(out_dir / "fig3c_api_vs_ft2.csv")]


def _build_fig3d(out_dir: Path) -> list:
    result = kernel_comparison(FIG3_PARAMS, KERNEL_GRID, n_cycles=N_CYCLES)
    return [result.to_csv(out_dir / "fig3d_api_kernels.csv")]


def _build_fig4a(out_dir: Path) -> list:
    params = FIG4_PARAMS.with_f_t2(0.25)
    factory = PropagatorFactory()
    prop = factory.get(params)
    bits = "1" * params.L
    psi0 = z_product_state(bits, params.basis)
    series = autocorrelator_series(prop, psi0, LIFETIME_N_MAX)

    files = []
    path = write_csv(out_dir / "fig4a_series.csv", ["n", "c"], series.rows())
    _panel_sidecar(path, params, {"panel": "series", "initial_state": bits, "n_cycles": LIFETIME_N_MAX})
    files.append(path)

    result = lifetime(prop, psi0, LIFETIME_N_MAX)
    record = {"params": params_metadata(params), "initial_state": bits}
    record.update(result.record())
    path = write_json(out_dir / "fig4a_lifetime.json", record)
    files.append(path)
    return files


def _build_fig4b(out_dir: Path) -> list:
    spec = SweepSpec(
        axes=(SweepAxis("epsilon", LIFETIME_EPS_GRID), SweepAxis("F_T2", LIFETIME_F_GRID)),
        base=FIG4_PARAMS,
        observable="lifetime",
        n_max=LIFETIME_N_MAX,
    )
    result = run_sweep(spec)
    return [result.to_csv(out_dir / "fig4b_lifetime_grid.csv")]


def _build_fig5(out_dir: Path) -> list:
    comparison = initial_state_comparison(FIG4_PARAMS, FIG5_STATES, (0.0, 0.4), n_cycles=N_CYCLES)
    return [
        comparison.series.to_csv(out_dir / "fig5_series.csv"),
        comparison.spectra.to_csv(out_dir / "fig5_spectra.csv"),
    ]


_BUILDERS = {
    "fig2": _build_fig2,
    "fig3a": _build_fig3a,
    "fig3b": _build_fig3b,
    "fig3c": _build_fig3c,
    "fig3d": _build_fig3d,
    "fig4a": _build_fig4a,
    "fig4b": _build_fig4b,
    "fig5": _build_fig5,
}


def figure_parameters(figure_id: str) -> dict:
    """The exact parameter sets a figure id runs."""
    registry = {
        "fig2": {"base": FIG2_PARAMS, "F_T2": [0.0, 0.25], "initial_state": "all ones",
                 "n_cycles": N_CYCLES, "panels": ["series", "spectrum", "overlaps"]},
        "fig3a": {"base": FIG3_PARAMS, "epsilon": list(FINE_GRID), "F_T2": list(FINE_GRID),
                  "n_cycles": N_CYCLES},
        "fig3b": {"base": FIG3_PARAMS, "epsilon": list(FINE_GRID), "F_T2": [0.0, 0.2, 0.3],
                  "n_cycles": N_CYCLES},
        "fig3c": {"base": FIG3_PARAMS, "V": [0.06, 0.09, 0.12], "F_T2": list(FINE_GRID),
                  "n_cycles": N_CYCLES},
        "fig3d": {"base": FIG3_PARAMS, "kernels": ["NN", "NNN", "NNNN", "ALL"],
                  "F_T2": list(KERNEL_GRID), "n_cycles": N_CYCLES},
        "fig4a": {"base": FIG4_PARAMS, "F_T2": [0.25], "initial_state": "all ones",
                  "n_max": LIFETIME_N_MAX},
        "fig4b": {"base": FIG4_PARAMS, "epsilon": list(LIFETIME_EPS_GRID),
                  "F_T2": list(LIFETIME_F_GRID), "n_max": LIFETIME_N_MAX},
        "fig5": {"base": FIG4_PARAMS, "initial_states": list(FIG5_STATES), "F_T2": [0.0, 0.4],
                 "n_cycles": N_CYCLES},
    }
    if figure_id not in registry:
        raise ValueError(f"unknown figure id {figure_id!r}, expected one of {FIGURE_IDS}")
    entry = dict(registry[figure_id])
    entry["base"] = params_metadata(entry["base"])
    return entry


def figure_command(figure_id: str, out_dir) -> list:
    """Write the figure's panel files and a manifest; returns written paths."""
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure_id!r}, expected one of {FIGURE_IDS}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = _BUILDERS[figure_id](out_dir)
    manifest = {
        "figure": figure_id,
        "parameters": figure_parameters(figure_id),
        "files": [p.name for p in files],
    }
    manifest_path = write_json(out_dir / f"{figure_id}_manifest.json", manifest)
    return files + [manifest_path]
