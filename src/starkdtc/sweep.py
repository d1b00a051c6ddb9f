"""Parameter-grid sweeps over the Floquet model.

A sweep evaluates one observable on a 1- or 2-axis grid around a base
parameter set.  Points sharing a stage-1 key (L, Omega, epsilon, V, kernel,
T1) differ only by the diagonal stage-2 phase Phi = exp(-i H2 T2).  Every
observable therefore runs key by key: the sweep builds U1 once per key, as
its sector eigensystems, then either evolves the key's z-product initial
states together as the columns of one block, Psi <- Phi * (U1 Psi), through
the two complex blocks U1 assembles once (one gemm per reflection sector and
cycle for the group, and no dense U_F per point), or, for the overlaps
observable, pairs U1 with each point in a propagator for its quasi-spectrum.

Evaluation runs on the calling thread (BLAS already uses every core) and is
deterministic: every block is padded to full zgemm panels (see _PANEL), so a
point's value does not depend on which other points share its block; results
are gathered by grid index.  A point ends with a value or a `NumericError`
marker (bad input is refused when the spec is built), and each finished
point is journaled to disk for resumability.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, NumericError
from .floquet import (
    FloquetPropagator,
    OverlapTable,
    SectorBlocks,
    SectorUnitary,
    _point_text,
    check_memory,
    overlaps,
    propagator_u2,
    stage1_unitary,
)
from .hamiltonian import SimulationParams, build_h2_diagonal, check_rate
from .hilbert import basis_index, check_bits, shown, sigma_z_stack
from .observables import AutocorrelatorSeries, _evolve_block, check_counts, fourier_spectrum, reversal_analysis
from .output import atomic_open, params_metadata, write_csv, write_sidecar

# the axes whose values are rates: numbers, which a config may give symbolically
RATE_AXES = ("epsilon", "F_T2", "V")
AXIS_NAMES = RATE_AXES + ("L", "kernel", "initial_state")
# per observable (a sweep's, a figure panel's or the point command's): the
# cycle count it reads, its per-sample columns (a point CSV's) and per-point
# values (a point sidecar's; a sweep CSV holds both), as `table` lays them out;
# the layout is fixed, so fresh and journal-resumed sweeps write the same bytes
OBSERVABLES = {
    "a_pi": ("n_cycles", (), ("a_pi",)),
    "lifetime": ("n_max", (), ("n_c", "first_reversal", "reversal_depth", "n_max")),
    "series": ("n_cycles", ("n", "c"), ()),
    "spectrum": ("n_cycles", ("omega", "magnitude"), ("a_pi",)),
    "overlaps": (None, ("quasi_energy", "overlap"), ()),
}
DEFAULT_GRID_CAP = 10_000
ALL_ONES = "all_ones"

JOURNAL_KIND = "starkdtc-sweep-journal"

# with C-order states and products, zgemm evaluates a block padded to a
# multiple of 4 columns in full panels, so every column gets the same bits
# at any width and position (the rest of the evolution loop is per column);
# narrower products fall to gemv or edge kernels that round differently.
# tests/test_blas_kernels.py checks this under OpenBLAS 0.3.31's Haswell,
# Zen, SandyBridge and (on AVX-512 CPUs) SkylakeX kernels; F-order products
# do not hold it under the first three.  Other BLAS builds may use other
# panels
_PANEL = 4
# caps the block's memory at large L; per-column cost is flat beyond ~16
_MAX_BLOCK_COLUMNS = 64


@dataclass(frozen=True)
class SweepAxis:
    """A grid axis.  Construction refuses, with ValueError, a name outside
    AXIS_NAMES, no values, and each value its axis cannot run: L values
    must be whole numbers (2.0 is taken, True is not) that `SimulationParams`
    takes as L, kernel values kernels it takes, epsilon, F_T2 and V values
    numbers `check_rate` takes, and initial_state values bit strings or
    ALL_ONES (all ones at each point's L).  Values are stored as Python scalars."""

    name: str
    values: tuple

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"unknown axis name {shown(self.name)}, expected one of {AXIS_NAMES}")
        if len(self.values) == 0:
            raise ValueError(f"axis {self.name!r} has no values")
        object.__setattr__(self, "values", tuple(v.item() if isinstance(v, np.generic) else v for v in self.values))
        # checked here, not per point: a bad value would only fill its rows with error markers
        for value in self.values:
            if self.name == "L":
                # a fractional L would be truncated to int(L) at its point
                if isinstance(value, bool) or not (isinstance(value, numbers.Real) and value % 1 == 0):
                    raise ValueError(f"L takes whole site counts, got {shown(value)}")
                SimulationParams(L=int(value))
            elif self.name == "kernel":
                SimulationParams(L=1, kernel=value)
            elif self.name in RATE_AXES:
                check_rate(self.name, value)
            elif value != ALL_ONES:  # an initial_state value
                check_bits(value)


@dataclass(frozen=True)
class SweepSpec:
    """A grid of one or two axes around `base`, and the observable to evaluate.

    Construction refuses, with ValueError: other than one or two axes,
    repeated axis names, an observable outside OBSERVABLES, counts
    `check_counts` refuses (grid_cap among them), a grid of more than
    grid_cap points, and an initial state (the spec's, or an initial_state
    axis value) that is neither ALL_ONES nor a bit string of every L the
    grid runs (`site_counts`).  The counts are stored as Python ints.
    """

    axes: tuple
    base: SimulationParams
    observable: str
    n_cycles: int = 100
    n_max: int = 5000
    initial_state: str = ALL_ONES
    grid_cap: int = DEFAULT_GRID_CAP

    def __post_init__(self):
        axes = tuple(self.axes)
        object.__setattr__(self, "axes", axes)
        if not 1 <= len(axes) <= 2:
            raise ValueError(f"sweeps take 1 or 2 axes, got {len(axes)}")
        names = [axis.name for axis in axes]
        if len(set(names)) != len(names):
            raise ValueError(f"axis names must be distinct, got {names}")
        known = tuple(OBSERVABLES)  # a tuple, so an unhashable value is refused, not a TypeError
        if self.observable not in known:
            raise ValueError(f"observable must be one of {known}, got {shown(self.observable)}")
        # rejected here, before any point is evaluated, not as a marker per point
        check_counts(self.observable, n_cycles=self.n_cycles, n_max=self.n_max, grid_cap=self.grid_cap)
        for name in ("n_cycles", "n_max", "grid_cap"):
            object.__setattr__(self, name, int(getattr(self, name)))
        lengths = self.site_counts()
        states = [bits for axis in axes if axis.name == "initial_state" for bits in axis.values]
        for bits in (self.initial_state, *states):
            if bits != ALL_ONES:
                for length in lengths:
                    check_bits(bits, length)
        size = self.grid_size()
        if size > self.grid_cap:
            raise ValueError(f"grid of {size} points exceeds the cap of {self.grid_cap}")

    def site_counts(self) -> list:
        """The L of the grid's points: the L axis's values, or base.L."""
        return [int(value) for axis in self.axes if axis.name == "L" for value in axis.values] or [self.base.L]

    def grid_size(self) -> int:
        size = 1
        for axis in self.axes:
            size *= len(axis.values)
        return size

    def grid_points(self):
        """(index, coords) pairs in row-major axis order."""
        names = [axis.name for axis in self.axes]
        for index, combo in enumerate(product(*(axis.values for axis in self.axes))):
            yield index, dict(zip(names, combo))

    def point_inputs(self, coords: dict):
        """Resolve a grid point to (params, initial-state bit string)."""
        params = self.base
        for name, value in coords.items():
            if name == "epsilon":
                params = replace(params, epsilon=float(value))
            elif name == "V":
                params = replace(params, v=float(value))
            elif name == "L":
                params = replace(params, L=int(value))
            elif name == "kernel":
                params = replace(params, kernel=str(value))
        if "F_T2" in coords:
            params = params.with_f_t2(float(coords["F_T2"]))
        bits = coords.get("initial_state", self.initial_state)
        if bits == ALL_ONES:
            bits = "1" * params.L
        return params, bits

    def fingerprint(self) -> str:
        payload = {
            "axes": [[axis.name, list(axis.values)] for axis in self.axes],
            "base": params_metadata(self.base),
            "observable": self.observable,
            "n_cycles": self.n_cycles,
            "n_max": self.n_max,
            "initial_state": self.initial_state,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


class PropagatorFactory:
    """The stage-1 unitary of the last key asked for.

    `stage1` returns U1 for the key (L, Omega, epsilon, V, kernel, T1) as
    its two reflection-sector eigensystems (`floquet.SectorUnitary`),
    building it with `floquet.stage1_unitary` (which checks each sector's
    eigenvectors for orthogonality) when the key differs from the last one;
    the previous U1 is released first, so at most one is held.  Every
    caller reads its keys back to back (the grouped sweep once per key), so
    one entry serves them all; the blocks U1 keeps go with it.  `get` pairs
    U1 with one point in a propagator, so propagators of one key share U1
    and its blocks.  Not thread-safe: sweeps run on the calling thread.
    """

    def __init__(self):
        self._key = None
        self._u1 = None

    @staticmethod
    def key(params: SimulationParams):
        return (params.L, params.omega, params.epsilon, params.v, params.kernel, params.t1)

    def stage1(self, params: SimulationParams) -> SectorUnitary:
        """U1 of the point's stage-1 key, as its reflection-sector eigensystems."""
        key = self.key(params)
        if key != self._key:
            # drop the old U1 before building: two at once would double the peak
            self._key = self._u1 = None
            self._u1 = stage1_unitary(params)
            self._key = key
        return self._u1

    def get(self, params: SimulationParams) -> FloquetPropagator:
        return FloquetPropagator(params, self.stage1(params))


@dataclass
class SweepResult:
    """Grid coordinates plus one value record (or `NumericError` marker) per point."""

    spec: SweepSpec
    coords: list
    values: list
    errors: list

    def rows(self):
        """Long-format rows: axes, value columns (one row per sample), error."""
        names = [axis.name for axis in self.spec.axes]
        _, sample_keys, point_keys = OBSERVABLES[self.spec.observable]
        header = names + list(sample_keys) + list(point_keys) + ["error"]
        rows = []
        for point, record, error in zip(self.coords, self.values, self.errors):
            base = [point[name] for name in names]
            if record is None:
                rows.append(base + [None] * (len(sample_keys) + len(point_keys)) + [error])
            else:  # one row per sample, or one for a record without samples
                _, samples, values = table(self.spec.observable, record)
                rows.extend(base + list(sample) + list(values.values()) + [None] for sample in samples or [()])
        return header, rows

    def to_csv(self, path) -> Path:
        header, rows = self.rows()
        out = write_csv(path, header, rows)
        sidecar = {
            "observable": self.spec.observable,
            "axes": [[axis.name, list(axis.values)] for axis in self.spec.axes],
            "base_params": params_metadata(self.spec.base),
            "n_cycles": self.spec.n_cycles,
            "n_max": self.spec.n_max,
            "initial_state": self.spec.initial_state,
            "fingerprint": self.spec.fingerprint(),
        }
        write_sidecar(out, sidecar)
        return out

    def check(self) -> None:
        """Raise `NumericError`, naming their count and the first, if points hold markers."""
        markers = [error for error in self.errors if error]
        if markers:
            raise NumericError(f"{len(markers)} of {len(self.errors)} sweep points failed, the first: {markers[0]}")


def _marker(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def series_record(observable: str, values: np.ndarray) -> dict:
    """The value record of `observable` (not overlaps) from one point's C(n), n = 0, 1, ..."""
    if observable == "lifetime":
        return reversal_analysis(values).record()
    if observable == "series":
        return {"n": list(range(values.size)), "c": values.tolist()}
    spectral = fourier_spectrum(AutocorrelatorSeries(values=values, n_cycles=values.size - 1))
    if observable == "a_pi":
        return {"a_pi": spectral.a_pi}
    return {
        "omega": spectral.frequencies.tolist(),
        "magnitude": spectral.magnitudes.tolist(),
        "a_pi": spectral.a_pi,
    }


def overlap_record(table: OverlapTable) -> dict:
    """The overlaps observable's value record from one point's overlap table."""
    return {"quasi_energy": table.quasi_energies.tolist(), "overlap": table.overlaps.tolist()}


def table(observable: str, record: dict):
    """(header, rows, values): the per-sample columns of `observable`, one row
    per sample of its value `record`, and its per-point values by name."""
    _, header, names = OBSERVABLES[observable]
    rows = list(zip(*(record[key] for key in header)))
    return header, rows, {name: record[name] for name in names}


def _block_series(blocks: SectorBlocks, columns, sz: np.ndarray, n_cycles: int):
    """C(n) of the z-product states of one stage-1 key, as one column block.

    `columns` holds one (params, basis index) pair per state; all share the
    stage-1 propagator, as its assembled `blocks`.  The block is widened
    with zero columns to a multiple of 4, which keeps each column's bits
    independent of the rest of the block, a lone point included.
    Returns the (n_cycles + 1, k) series and one error marker (or None) per
    column.
    """
    count = len(columns)
    width = -(-count // _PANEL) * _PANEL
    phi = np.zeros((blocks.dimension, width), dtype=complex)
    for col, (params, _) in enumerate(columns):
        phi[:, col] = propagator_u2(build_h2_diagonal(params), params.t2)
    values, faults = _evolve_block(blocks, phi, columns, sz, n_cycles)
    return values, [None if fault is None else _marker(fault) for fault in faults]


def _evaluate_group(spec: SweepSpec, members, factory: PropagatorFactory):
    """(index, coords, value, error) for the points of one stage-1 key.

    `members` are (index, coords, params, bits) tuples, yielded in order.
    Overlaps points each take their quasi-spectrum from the shared U1; for
    the others are evolved through U1's blocks (`u1.assemble()`) in padded
    blocks of up to _MAX_BLOCK_COLUMNS columns.  A `NumericError` marks its
    point, or in stage 1 and the assembly every point of its key.
    """
    try:
        u1 = factory.stage1(members[0][2])
        if spec.observable != "overlaps":
            blocks = u1.assemble()
    except NumericError as exc:
        for index, coords, _, _ in members:
            yield index, coords, None, _marker(exc)
        return
    if spec.observable == "overlaps":
        for index, coords, params, bits in members:
            try:  # unnamed, the propagator and its quasi-spectrum go once the overlaps are read
                value, error = overlap_record(overlaps(factory.get(params).spectrum(), bits)), None
            except NumericError as exc:
                value, error = None, _marker(exc)
            yield index, coords, value, error
        return
    n_cycles = getattr(spec, OBSERVABLES[spec.observable][0])
    sz = sigma_z_stack(members[0][2].basis)
    for at in range(0, len(members), _MAX_BLOCK_COLUMNS):
        chunk = members[at:at + _MAX_BLOCK_COLUMNS]
        columns = [(params, basis_index(bits, params.L)) for _, _, params, bits in chunk]
        values, errors = _block_series(blocks, columns, sz, n_cycles)
        for col, (index, coords, _, _) in enumerate(chunk):
            value = None if errors[col] else series_record(spec.observable, values[:, col])
            yield index, coords, value, errors[col]


def _evaluate_grouped(spec: SweepSpec, pending, factory: PropagatorFactory):
    """(index, coords, value, error) for the pending points, key by key."""
    groups = {}
    for index, coords in pending:
        params, bits = spec.point_inputs(coords)
        groups.setdefault(PropagatorFactory.key(params), []).append((index, coords, params, bits))
    for members in groups.values():
        done = 0
        try:
            for point in _evaluate_group(spec, members, factory):
                done += 1
                yield point
        except (MemoryError, OSError) as exc:  # stops the sweep, naming the point it struck
            index, _, params, _ = members[done]
            kind = MemoryError if isinstance(exc, MemoryError) else OSError
            raise kind(f"sweep point {index} ({_point_text(params)}): {exc}") from exc


class _Journal:
    """JSON-lines record of finished points: a header, then one line per point
    with a value.  Resuming drops entries without one (an older journal's
    markers) and a torn last line from the file, and recomputes their points."""

    def __init__(self, path, fingerprint: str, resume: bool):
        self.path = Path(path)
        self.completed = {}
        if resume and self.path.exists():
            self._load(fingerprint)
        else:
            header = {"kind": JOURNAL_KIND, "fingerprint": fingerprint}
            with atomic_open(self.path) as fh:
                fh.write(json.dumps(header, sort_keys=True) + "\n")

    def _load(self, fingerprint: str):
        with open(self.path, encoding="utf-8") as fh:
            text = fh.read()
        numbered = [(i, line) for i, line in enumerate(text.split("\n"), start=1) if line.strip()]
        if not numbered:
            raise ConfigError(f"journal {self.path} is empty")
        kept = []
        for position, (number, line) in enumerate(numbered):
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                if position == len(numbered) - 1 and position > 0:
                    break  # a write cut short by an interruption: recompute its point
                raise ConfigError(f"journal {self.path}: line {number} is not valid JSON")
            if position == 0:
                if not isinstance(entry, dict) or entry.get("kind") != JOURNAL_KIND:
                    raise ConfigError(f"{self.path} is not a sweep journal")
                if entry.get("fingerprint") != fingerprint:
                    raise ConfigError(f"journal {self.path} belongs to a different sweep spec")
            elif not isinstance(entry, dict) or not isinstance(entry.get("index"), int):
                raise ConfigError(f"journal {self.path}: line {number} is not a point record")
            elif "value" in entry:
                self.completed[entry["index"]] = entry["value"]
            else:
                continue  # an older journal's marker
            kept.append(line)
        intact = "".join(line + "\n" for line in kept)
        if intact != text:
            # drop what was not kept before appending, via a rename so a
            # second interruption cannot lose the kept lines
            with atomic_open(self.path) as fh:
                fh.write(intact)

    def record(self, index: int, coords: dict, value):
        entry = {"index": index, "coords": coords, "value": value}
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


def run_sweep(spec: SweepSpec, journal_path=None, resume: bool = False) -> SweepResult:
    """Evaluate the observable at every grid point, on the calling thread.

    The pending points are grouped by stage-1 key and each group builds U1
    once (`PropagatorFactory`).  A group assembles U1's blocks once and
    evolves its initial states as one column block, or, for overlaps,
    computes each point's quasi-spectrum from that U1.  A `NumericError`
    becomes its point's marker; a `MemoryError` or `OSError` stops the sweep
    naming the point, and any other exception is a defect and propagates.
    With `journal_path` set every point that finishes with a value is
    appended to a JSON-lines journal, and `resume=True` reuses the values of
    a journal for the identical spec and recomputes the rest, failed points
    included (a torn last line is dropped and its point recomputed).  The
    sweep first checks that stage 1 at the grid's largest L, and for
    overlaps a quasi-spectrum, fits in memory (`floquet.check_memory`).
    """
    check_memory(max(spec.site_counts()), quasi_spectrum=spec.observable == "overlaps")
    factory = PropagatorFactory()
    points = list(spec.grid_points())
    journal = _Journal(journal_path, spec.fingerprint(), resume) if journal_path else None

    completed = journal.completed if journal else {}
    values = [completed.get(index) for index, _ in points]
    errors = [None] * len(points)
    pending = [(index, coords) for index, coords in points if values[index] is None]

    for index, coords, value, error in _evaluate_grouped(spec, pending, factory):
        values[index] = value
        errors[index] = error
        if journal and error is None:
            journal.record(index, coords, value)

    return SweepResult(
        spec=spec,
        coords=[coords for _, coords in points],
        values=values,
        errors=errors,
    )
