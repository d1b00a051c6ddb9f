"""Figure-ready datasets: one CSV per panel plus a manifest.

`FIGURES` declares each figure id once: its base parameter point, grids,
cycle counts and initial states.  The builders read what they run from that
entry, but fig2 and fig4a set the all-ones state their entries label "all
ones".  The manifest's `parameters` is the same entry (with `base` written
as metadata), so a manifest states exactly what ran.  The ids cover the
series/spectra/overlap panels at L=12 and epsilon=0.3 (fig2), the A_pi maps
and slices at L=10 (fig3a-c), the kernel comparison (fig3d), the lifetime
series and grid (fig4a/b) and the initial-state comparison (fig5).  Grids the
captions leave unreadable are pinned here: epsilon and F*T2 sampled on
[0, 0.5] with step 0.02 for the maps and step 0.05 for the kernel grid.
"""

from __future__ import annotations

import copy
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from .floquet import check_memory, floquet_operator, overlaps
from .hamiltonian import KERNEL_VARIANTS, SimulationParams
from .observables import autocorrelator_series
from .output import params_metadata, write_csv, write_json, write_sidecar
from .sweep import (PropagatorFactory, SweepAxis, SweepResult, SweepSpec, overlap_record, run_sweep,
                    series_record, table)

FIG2_PARAMS = SimulationParams(L=12, omega=math.pi / 2, epsilon=0.3, v=0.1, t1=1.0, t2=10.0)
FIG3_PARAMS = SimulationParams(L=10, omega=math.pi / 2, epsilon=0.3, v=0.1, t1=1.0, t2=10.0)
FIG4_PARAMS = SimulationParams(L=10, omega=math.pi / 2, epsilon=0.25, v=0.1, t1=1.0, t2=10.0)

FINE_GRID = [round(0.02 * k, 10) for k in range(26)]  # 0 .. 0.5 step 0.02
KERNEL_GRID = [round(0.05 * k, 10) for k in range(11)]  # 0 .. 0.5 step 0.05

# an entry with `n_max` runs lifetimes, one with `n_cycles` runs A_pi or series
FIGURES = {
    "fig2": {"base": FIG2_PARAMS, "F_T2": [0.0, 0.25], "initial_state": "all ones",
             "n_cycles": 100, "panels": ["series", "spectrum", "overlaps"]},
    "fig3a": {"base": FIG3_PARAMS, "epsilon": FINE_GRID, "F_T2": FINE_GRID, "n_cycles": 100},
    "fig3b": {"base": FIG3_PARAMS, "epsilon": FINE_GRID, "F_T2": [0.0, 0.2, 0.3], "n_cycles": 100},
    "fig3c": {"base": FIG3_PARAMS, "V": [0.06, 0.09, 0.12], "F_T2": FINE_GRID, "n_cycles": 100},
    "fig3d": {"base": FIG3_PARAMS, "kernels": list(KERNEL_VARIANTS), "F_T2": KERNEL_GRID,
              "n_cycles": 100},
    "fig4a": {"base": FIG4_PARAMS, "F_T2": [0.25], "initial_state": "all ones", "n_max": 5000},
    "fig4b": {"base": FIG4_PARAMS, "epsilon": [0.2, 0.25, 0.3], "F_T2": [0.1, 0.2, 0.3, 0.4],
              "n_max": 5000},
    "fig5": {"base": FIG4_PARAMS, "initial_states": ["1111000000", "1111010010"], "F_T2": [0.0, 0.4],
             "n_cycles": 100},
}
FIGURE_IDS = tuple(FIGURES)

# the grid figures: output file, observable and (sweep axis, entry key) pairs
_GRIDS = {
    "fig3a": ("fig3a_api_map.csv", "a_pi", (("epsilon", "epsilon"), ("F_T2", "F_T2"))),
    "fig3b": ("fig3b_api_vs_epsilon.csv", "a_pi", (("epsilon", "epsilon"), ("F_T2", "F_T2"))),
    "fig3c": ("fig3c_api_vs_ft2.csv", "a_pi", (("V", "V"), ("F_T2", "F_T2"))),
    "fig3d": ("fig3d_api_kernels.csv", "a_pi", (("kernel", "kernels"), ("F_T2", "F_T2"))),
    "fig4b": ("fig4b_lifetime_grid.csv", "lifetime", (("epsilon", "epsilon"), ("F_T2", "F_T2"))),
    "fig5": ("fig5_series.csv", "series", (("initial_state", "initial_states"), ("F_T2", "F_T2"))),
}


def _grid(figure_id: str, entry: dict, out_dir: Path) -> list:
    name, observable, axes = _GRIDS[figure_id]
    spec = SweepSpec(
        axes=tuple(SweepAxis(axis, entry[key]) for axis, key in axes),
        base=entry["base"],
        observable=observable,
        **{key: entry[key] for key in ("n_cycles", "n_max") if key in entry},
    )
    result = run_sweep(spec)
    files = [result.to_csv(out_dir / name)]
    if observable == "series":
        # the spectra are read off the series just evolved, not a second evolution
        values = [None if record is None else series_record("spectrum", np.asarray(record["c"]))
                  for record in result.values]
        spectra = SweepResult(replace(spec, observable="spectrum"), result.coords, values, result.errors)
        files.append(spectra.to_csv(out_dir / f"{figure_id}_spectra.csv"))
    result.check()  # after the CSVs: a numeric marker exits 3 with the tables written
    return files


def _panel(path: Path, observable: str, record: dict, params, **meta) -> Path:
    """One panel's CSV and sidecar, laid out as for the point command of its
    `observable` (`sweep.table`), with the point and `meta` in the sidecar."""
    header, rows, values = table(observable, record)
    sidecar = {"params": params_metadata(params), "panel": observable, **values, **meta}
    write_sidecar(write_csv(path, header, rows), sidecar)
    return path


def _fig2(entry: dict, out_dir: Path) -> list:
    """Each F*T2 point's series, spectrum and overlaps.  The points share
    one U1 (`PropagatorFactory`), so its blocks are assembled once for both
    series, which run first; the first quasi-spectrum drops them."""
    factory = PropagatorFactory()
    n_cycles = entry["n_cycles"]
    points = [entry["base"].with_f_t2(f_t2) for f_t2 in entry["F_T2"]]
    bits = "1" * entry["base"].L  # the entry's "all ones"
    series_of = [autocorrelator_series(factory.get(params), bits, n_cycles) for params in points]
    files = []
    for f_t2, params, series in zip(entry["F_T2"], points, series_of):
        for panel in entry["panels"]:
            if panel == "overlaps":  # each point's quasi-spectrum is released once its overlaps are read
                record, meta = overlap_record(overlaps(factory.get(params).spectrum(), bits)), {}
            else:
                record, meta = series_record(panel, series.values), {"n_cycles": n_cycles}
            path = out_dir / f"fig2_{panel}_ft2_{f_t2:g}.csv"
            files.append(_panel(path, panel, record, params, initial_state=bits, **meta))
    return files


def _fig4a(entry: dict, out_dir: Path) -> list:
    params = entry["base"].with_f_t2(entry["F_T2"][0])
    n_max = entry["n_max"]
    bits = "1" * params.L  # the entry's "all ones"
    values = autocorrelator_series(floquet_operator(params), bits, n_max).values
    path = _panel(out_dir / "fig4a_series.csv", "series", series_record("series", values), params,
                  initial_state=bits, n_cycles=n_max)
    # the lifetime is read off the series just evolved, not a second evolution
    record = {"params": params_metadata(params), "initial_state": bits, **series_record("lifetime", values)}
    return [path, write_json(out_dir / "fig4a_lifetime.json", record)]


def figure_parameters(figure_id: str) -> dict:
    """The exact parameter sets a figure id runs: a copy of its `FIGURES`
    entry, with `base` written as metadata."""
    if figure_id not in FIGURES:
        raise ValueError(f"unknown figure id {figure_id!r}, expected one of {FIGURE_IDS}")
    entry = copy.deepcopy(FIGURES[figure_id])
    entry["base"] = params_metadata(entry["base"])
    return entry


def figure_command(figure_id: str, out_dir) -> list:
    """Write the figure's panel files and a manifest; returns written paths."""
    parameters = figure_parameters(figure_id)
    entry = FIGURES[figure_id]
    # before stage 1 and before any file: fig2 builds quasi-spectra, the others only evolve
    check_memory(entry["base"].L, quasi_spectrum=figure_id == "fig2")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if figure_id in _GRIDS:
        files = _grid(figure_id, entry, out_dir)
    elif figure_id == "fig2":
        files = _fig2(entry, out_dir)
    else:
        files = _fig4a(entry, out_dir)
    manifest = {"figure": figure_id, "parameters": parameters, "files": [p.name for p in files]}
    manifest_path = write_json(out_dir / f"{figure_id}_manifest.json", manifest)
    return files + [manifest_path]
