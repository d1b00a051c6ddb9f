"""Parameter-grid sweeps over the Floquet model.

A sweep evaluates one observable on a 1- or 2-axis grid around a base
parameter set.  Points sharing a stage-1 key (L, Omega, epsilon, V, kernel,
T1) differ only by the diagonal stage-2 phase Phi = exp(-i H2 T2).  Every
observable therefore runs key by key: the sweep builds U1 once per key, as
its sector eigensystems, then either assembles U1's two complex blocks once
and evolves the key's z-product initial states together as the columns of
one block, Psi <- Phi * (U1 Psi) (one gemm per reflection sector and cycle
for the group, and no dense U_F per point), or, for the overlaps observable,
wraps U1 and each point's stage-2 diagonal in a propagator for its
quasi-spectrum.

Evaluation runs on the calling thread (BLAS already uses every core) and is
deterministic: every block is padded to full zgemm panels (see _PANEL), so a
point's value does not depend on which other points share its block; results
are gathered by grid index, and every evaluated point is journaled to disk
for resumability.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np

from .exceptions import ConfigError
from .floquet import (
    FloquetPropagator,
    SectorBlocks,
    SectorUnitary,
    check_memory,
    overlaps,
    propagator_u2,
    stage1_unitary,
)
from .hamiltonian import SimulationParams, build_h2_diagonal, check_rate
from .hilbert import check_bits, sigma_z_stack, z_product_state
from .observables import AutocorrelatorSeries, _evolve_block, fourier_spectrum, reversal_analysis
from .output import atomic_open, params_metadata, write_csv, write_sidecar

# the axes whose values are rates: numbers, which a config may give symbolically
RATE_AXES = ("epsilon", "F_T2", "V")
AXIS_NAMES = RATE_AXES + ("L", "kernel", "initial_state")
# per observable (a sweep's, or the point command of that name): the cycle
# count it reads, then its per-sample and per-point value columns; the fixed
# column layout keeps CSV bytes stable across fresh and journal-resumed runs
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


def check_counts(observable: str, **counts) -> None:
    """Refuse counts (n_cycles, n_max and a sweep's grid_cap) that `observable`,
    a sweep observable or the point command of that name, cannot run: each
    must be a positive integer, not a boolean; n_cycles must be even for a_pi
    and spectrum (an exact omega = pi bin), and n_max at least 2 for lifetime."""
    for name, count in counts.items():
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
            raise ValueError(f"{name} must be a positive integer, got {count!r}")
    if observable in ("a_pi", "spectrum") and counts["n_cycles"] % 2:
        raise ValueError(f"n_cycles must be even for {observable}'s exact omega=pi bin, got {counts['n_cycles']}")
    if observable == "lifetime" and counts["n_max"] < 2:
        raise ValueError(f"n_max must be at least 2 for lifetime, got {counts['n_max']}")


@dataclass(frozen=True)
class SweepAxis:
    """A grid axis.  Construction refuses, with ValueError, a name outside
    AXIS_NAMES, no values, and each value its axis cannot run: L values
    must be whole numbers (2.0 is taken, True is not) that `SimulationParams`
    takes as L, kernel values kernels it takes, epsilon, F_T2 and V values
    numbers `check_rate` takes, and initial_state values bit strings or
    ALL_ONES (all ones at each point's L)."""

    name: str
    values: tuple

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"unknown axis name {self.name!r}, expected one of {AXIS_NAMES}")
        if len(self.values) == 0:
            raise ValueError(f"axis {self.name!r} has no values")
        # checked here, not per point: a bad value would only fill its rows with error markers
        for value in self.values:
            if self.name == "L":
                # a fractional L would be truncated to int(L) at its point
                if isinstance(value, bool) or not (isinstance(value, numbers.Real) and value % 1 == 0):
                    raise ValueError(f"L takes whole site counts, got {value!r}")
                SimulationParams(L=int(value))
            elif self.name == "kernel":
                SimulationParams(L=1, kernel=value)
            elif self.name in RATE_AXES:
                check_rate(self.name, value)
            elif value != ALL_ONES:  # an initial_state value
                check_bits(value)
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class SweepSpec:
    """A grid of one or two axes around `base`, and the observable to evaluate.

    Construction refuses, with ValueError: other than one or two axes,
    repeated axis names, an observable outside OBSERVABLES, counts
    `check_counts` refuses (grid_cap among them), a grid of more than
    grid_cap points, and an initial state (the spec's, or an initial_state
    axis value) that is neither ALL_ONES nor a bit string of base.L
    characters; with an L axis, each point checks its state's length.
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
        if not 1 <= len(axes) <= 2:
            raise ValueError(f"sweeps take 1 or 2 axes, got {len(axes)}")
        names = [axis.name for axis in axes]
        if len(set(names)) != len(names):
            raise ValueError(f"axis names must be distinct, got {names}")
        known = tuple(OBSERVABLES)  # a tuple, so an unhashable value is refused, not a TypeError
        if self.observable not in known:
            raise ValueError(f"observable must be one of {known}, got {self.observable!r}")
        # rejected here, before any point is evaluated, not as a marker per point
        check_counts(self.observable, n_cycles=self.n_cycles, n_max=self.n_max, grid_cap=self.grid_cap)
        length = None if "L" in names else self.base.L
        states = [bits for axis in axes if axis.name == "initial_state" for bits in axis.values]
        for bits in (self.initial_state, *states):
            if bits != ALL_ONES:
                check_bits(bits, length)
        size = self.grid_size()
        if size > self.grid_cap:
            raise ValueError(f"grid of {size} points exceeds the cap of {self.grid_cap}")
        object.__setattr__(self, "axes", axes)

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
    one entry serves them all.
    `get` wraps U1 and one point's stage-2 diagonal in a propagator.  Not
    thread-safe: sweeps run on the calling thread.
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
        return FloquetPropagator(params, self.stage1(params), build_h2_diagonal(params))


@dataclass
class SweepResult:
    """Grid coordinates plus one value record (or error marker) per point."""

    spec: SweepSpec
    coords: list
    values: list
    errors: list

    def axis_names(self):
        return [axis.name for axis in self.spec.axes]

    def rows(self):
        """Long-format rows: axes, value columns (arrays expanded), error."""
        names = self.axis_names()
        array_keys, scalar_keys = (list(keys) for keys in OBSERVABLES[self.spec.observable][1:])
        header = names + array_keys + scalar_keys + ["error"]
        rows = []
        for point, record, error in zip(self.coords, self.values, self.errors):
            base = [point[name] for name in names]
            if record is None:
                rows.append(base + [None] * (len(array_keys) + len(scalar_keys)) + [error])
                continue
            scalars = [record.get(key) for key in scalar_keys]
            if array_keys:
                length = len(record[array_keys[0]])
                for i in range(length):
                    rows.append(base + [record[key][i] for key in array_keys] + scalars + [None])
            else:
                rows.append(base + scalars + [None])
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


def _marker(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _series_record(spec: SweepSpec, values: np.ndarray) -> dict:
    """The observable's value record from one point's C(n) series."""
    observable = spec.observable
    if observable == "lifetime":
        return reversal_analysis(values).record()
    if observable == "series":
        return {"n": list(range(spec.n_cycles + 1)), "c": values.tolist()}
    spectral = fourier_spectrum(AutocorrelatorSeries(values=values, n_cycles=spec.n_cycles, params=None))
    if observable == "a_pi":
        return {"a_pi": spectral.a_pi}
    return {
        "omega": spectral.frequencies.tolist(),
        "magnitude": spectral.magnitudes.tolist(),
        "a_pi": spectral.a_pi,
    }


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
    phi = np.zeros((blocks.u1.dimension, width), dtype=complex)
    for col, (params, _) in enumerate(columns):
        phi[:, col] = propagator_u2(build_h2_diagonal(params), params.t2)
    values, faults = _evolve_block(blocks, phi, columns, sz, n_cycles)
    return values, [None if fault is None else _marker(fault) for fault in faults]


def _overlap_record(u1: SectorUnitary, params: SimulationParams, bits: str) -> dict:
    """One point's overlap table, its quasi-spectrum released on return."""
    spectrum = FloquetPropagator(params, u1, build_h2_diagonal(params)).spectrum()
    table = overlaps(spectrum, z_product_state(bits, params.basis))
    return {"quasi_energy": table.quasi_energies.tolist(), "overlap": table.overlaps.tolist()}


def _evaluate_group(spec: SweepSpec, members, factory: PropagatorFactory):
    """(index, coords, value, error) for the points of one stage-1 key.

    `members` are (index, coords, params, bits) tuples.  Overlaps
    points each take their quasi-spectrum from the shared U1; for the
    others U1's blocks are assembled (and checked) once, and the points are
    evolved in padded blocks of up to _MAX_BLOCK_COLUMNS columns.
    """
    try:
        u1 = factory.stage1(members[0][2])
        if spec.observable != "overlaps":
            blocks = u1.assemble(members[0][2])
    except Exception as exc:  # a failed stage 1 fails every point of its key
        for index, coords, _, _ in members:
            yield index, coords, None, _marker(exc)
        return
    if spec.observable == "overlaps":
        for index, coords, params, bits in members:
            try:
                value, error = _overlap_record(u1, params, bits), None
            except Exception as exc:  # per-point failures stay local to the point
                value, error = None, _marker(exc)
            yield index, coords, value, error
        return
    n_cycles = getattr(spec, OBSERVABLES[spec.observable][0])
    sz = sigma_z_stack(members[0][2].basis)
    for at in range(0, len(members), _MAX_BLOCK_COLUMNS):
        chunk = members[at:at + _MAX_BLOCK_COLUMNS]
        columns = [
            (params, z_product_state(bits, params.basis).product_state_index())
            for _, _, params, bits in chunk
        ]
        values, errors = _block_series(blocks, columns, sz, n_cycles)
        for col, (index, coords, _, _) in enumerate(chunk):
            value, error = None, errors[col]
            if error is None:
                try:
                    value = _series_record(spec, values[:, col])
                except Exception as exc:
                    error = _marker(exc)
            yield index, coords, value, error


def _evaluate_grouped(spec: SweepSpec, pending, factory: PropagatorFactory):
    """(index, coords, value, error) for the pending points, key by key."""
    groups = {}
    for index, coords in pending:
        params, bits = spec.point_inputs(coords)
        try:
            check_bits(bits, params.L)  # SweepSpec checks the length only when L is not swept
        except ValueError as exc:  # reported as the point's error marker
            yield index, coords, None, _marker(exc)
            continue
        groups.setdefault(PropagatorFactory.key(params), []).append((index, coords, params, bits))
    for members in groups.values():
        yield from _evaluate_group(spec, members, factory)


class _Journal:
    """JSON-lines record of evaluated points: a header, then one line per point."""

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
            else:
                self.completed[entry["index"]] = entry
            kept.append(line)
        intact = "".join(line + "\n" for line in kept)
        if intact != text:
            # drop the torn tail before appending, via a rename so a second
            # interruption cannot lose the intact lines
            with atomic_open(self.path) as fh:
                fh.write(intact)

    def record(self, index: int, coords: dict, value, error):
        entry = {"index": index, "coords": coords}
        if error is None:
            entry["value"] = value
        else:
            entry["error"] = error
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


def run_sweep(spec: SweepSpec, journal_path=None, resume: bool = False) -> SweepResult:
    """Evaluate the observable at every grid point, on the calling thread.

    The pending points are grouped by stage-1 key and each group builds U1
    once (`PropagatorFactory`).  A group assembles U1's blocks once and
    evolves its initial states as one column block, or, for overlaps,
    computes each point's quasi-spectrum from that U1.  Per-point numeric
    failures are recorded in place as error markers; the whole sweep fails
    only on an invalid spec or journal.  With `journal_path` set every
    evaluated point is appended to a JSON-lines journal, and `resume=True`
    skips points already present in a journal for the identical spec (a
    torn last line is dropped and its point recomputed).  The sweep first
    checks that stage 1 at the grid's largest L, and for overlaps a
    quasi-spectrum, fits in memory (`floquet.check_memory`).
    """
    sizes = [int(value) for axis in spec.axes if axis.name == "L" for value in axis.values]
    check_memory(max(sizes, default=spec.base.L), quasi_spectrum=spec.observable == "overlaps")
    factory = PropagatorFactory()
    points = list(spec.grid_points())
    journal = _Journal(journal_path, spec.fingerprint(), resume) if journal_path else None

    values = [None] * len(points)
    errors = [None] * len(points)
    pending = []
    for index, coords in points:
        done = journal.completed.get(index) if journal else None
        if done is not None:
            values[index] = done.get("value")
            errors[index] = done.get("error")
        else:
            pending.append((index, coords))

    for index, coords, value, error in _evaluate_grouped(spec, pending, factory):
        values[index] = value
        errors[index] = error
        if journal:
            journal.record(index, coords, value, error)

    return SweepResult(
        spec=spec,
        coords=[coords for _, coords in points],
        values=values,
        errors=errors,
    )
