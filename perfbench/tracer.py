"""Timing spans around the program's module-level bindings, and their analysis.

`Tracer.install` replaces each binding the pipeline calls through (a module
attribute such as `starkdtc.sweep.build_h1`, or a method such as
`FloquetPropagator.apply`) with a wrapper that records a span: id, name,
start, end, parent span and thread, plus a few call attributes (bytes,
cycles, cache keys, written paths).  Spans are kept in memory and written as
JSON lines at the end.  A binding that no longer exists is listed in
`Tracer.absent`; the metrics that depend only on missing bindings are then
reported as absent instead of failing the run.

Each thread keeps its own span stack.  A span opened on a worker thread with
an empty stack takes the main thread's innermost open span as its parent, so
work done in the sweep's thread pool is attributed to `run_sweep`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager

COMPLEX_BYTES = 16

# (span name, module, attribute); an attribute "Class.method" wraps a method
TARGETS = (
    ("hamiltonian.build_h1", "starkdtc.floquet", "build_h1"),
    ("hamiltonian.build_h1", "starkdtc.sweep", "build_h1"),
    ("numpy.linalg.eigh", "numpy.linalg", "eigh"),
    ("floquet.u1_from_eigensystem", "starkdtc.floquet", "u1_from_eigensystem"),
    ("floquet.u1_from_eigensystem", "starkdtc.sweep", "u1_from_eigensystem"),
    ("floquet.unitarity_deviation", "starkdtc.floquet", "unitarity_deviation"),
    ("floquet.unitarity_deviation", "starkdtc.sweep", "unitarity_deviation"),
    ("floquet.apply", "starkdtc.floquet", "FloquetPropagator.apply"),
    ("floquet.quasi_spectrum", "starkdtc.floquet", "quasi_spectrum"),
    ("floquet.overlaps", "starkdtc.cli", "overlaps"),
    ("floquet.overlaps", "starkdtc.sweep", "overlaps"),
    ("observables.autocorrelator_series", "starkdtc.cli", "autocorrelator_series"),
    ("observables.autocorrelator_series", "starkdtc.sweep", "autocorrelator_series"),
    ("observables.autocorrelator_series", "starkdtc.observables", "autocorrelator_series"),
    ("observables.fourier_spectrum", "starkdtc.cli", "fourier_spectrum"),
    ("observables.fourier_spectrum", "starkdtc.sweep", "fourier_spectrum"),
    ("observables.reversal_analysis", "starkdtc.observables", "reversal_analysis"),
    ("sweep.PropagatorFactory.get", "starkdtc.sweep", "PropagatorFactory.get"),
    ("sweep.run_sweep", "starkdtc.cli", "run_sweep"),
    ("config.parse_config", "starkdtc.cli", "parse_config"),
    ("output.write", "starkdtc.cli", "write_csv"),
    ("output.write", "starkdtc.cli", "write_json"),
    ("output.write", "starkdtc.cli", "write_sidecar"),
    ("output.write", "starkdtc.sweep", "write_csv"),
    ("output.write", "starkdtc.sweep", "write_sidecar"),
    ("output.write", "starkdtc.output", "write_json"),
)


def _apply_attrs(args, kwargs, result):
    prop, state = args[0], args[1]
    dim = prop.u_f.shape[0]
    cols = 1 if state.ndim == 1 else state.shape[1]
    # dense U_F once, the state in and out: computed, not measured, bytes
    return {"bytes": COMPLEX_BYTES * (dim * dim + 2 * dim * cols)}


def _series_attrs(args, kwargs, result):
    return {"cycles": int(result.n_cycles)}


def _fourier_attrs(args, kwargs, result):
    n = int(args[0].n_cycles)
    # the N x N complex DFT matrix the spectrum is evaluated with
    return {"bytes": COMPLEX_BYTES * n * n}


def _get_attrs(args, kwargs, result):
    p = args[1] if len(args) > 1 else kwargs["params"]
    return {"key": [p.L, p.omega, p.epsilon, p.v, p.kernel, p.t1]}


def _write_attrs(args, kwargs, result):
    return {"path": str(result), "bytes": os.path.getsize(result)}


ATTRS = {
    "floquet.apply": _apply_attrs,
    "observables.autocorrelator_series": _series_attrs,
    "observables.fourier_spectrum": _fourier_attrs,
    "sweep.PropagatorFactory.get": _get_attrs,
    "output.write": _write_attrs,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self._ids = itertools.count(1)
        self._stacks = {}
        self._main = threading.get_ident()

    def _parent(self, stack):
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def _begin(self, name):
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        record = {"id": next(self._ids), "name": name, "parent": self._parent(stack), "thread": ident}
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        return stack, record

    def _end(self, stack, record):
        record["end"] = time.perf_counter()
        stack.pop()
        self.spans.append(record)

    @contextmanager
    def span(self, name):
        stack, record = self._begin(name)
        try:
            yield
        finally:
            self._end(stack, record)

    def _wrap(self, name, fn):
        attrs_fn = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, record = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(stack, record)
            if attrs_fn is not None:
                try:
                    record.update(attrs_fn(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    pass  # a changed signature loses the attribute, not the span
            return result

        return wrapper

    def install(self):
        for name, module_name, attribute in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attribute}")
                continue
            setattr(owner, leaf, self._wrap(name, fn))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------- analysis

# per-layer metric -> (unit, span names it needs)
LAYER_METRICS = {
    "hamiltonian.build_h1.s": ("s", ("hamiltonian.build_h1",)),
    "hamiltonian.build_h1.calls": ("count", ("hamiltonian.build_h1",)),
    "floquet.eigh.s": ("s", ("numpy.linalg.eigh",)),
    "floquet.eigh.calls": ("count", ("numpy.linalg.eigh",)),
    "floquet.u1_from_eigensystem.s": ("s", ("floquet.u1_from_eigensystem",)),
    "floquet.unitarity_deviation.s": ("s", ("floquet.unitarity_deviation",)),
    "sweep.stage1_builds": ("count", ("hamiltonian.build_h1", "sweep.PropagatorFactory.get")),
    "sweep.stage1_keys": ("count", ("sweep.PropagatorFactory.get",)),
    "sweep.stage1_useful_ratio": ("ratio", ("hamiltonian.build_h1", "sweep.PropagatorFactory.get")),
    "sweep.PropagatorFactory.get.self_s": ("s", ("sweep.PropagatorFactory.get",)),
    "sweep.run_sweep.self_s": ("s", ("sweep.run_sweep",)),
    "floquet.apply.s": ("s", ("floquet.apply",)),
    "floquet.apply.calls": ("count", ("floquet.apply",)),
    "floquet.apply.bytes_computed": ("bytes", ("floquet.apply",)),
    "floquet.apply.gbps_computed": ("GB/s", ("floquet.apply",)),
    "floquet.apply.bw_frac": ("ratio", ("floquet.apply",)),
    "observables.autocorrelator_series.self_s": ("s", ("observables.autocorrelator_series",)),
    "observables.autocorrelator_series.cycles": ("count", ("observables.autocorrelator_series",)),
    "observables.fourier_spectrum.s": ("s", ("observables.fourier_spectrum",)),
    "observables.fourier_spectrum.bytes_computed": ("bytes", ("observables.fourier_spectrum",)),
    "observables.reversal_analysis.s": ("s", ("observables.reversal_analysis",)),
    "floquet.quasi_spectrum.s": ("s", ("floquet.quasi_spectrum",)),
    "floquet.overlaps.s": ("s", ("floquet.overlaps",)),
    "config.parse_config.s": ("s", ("config.parse_config",)),
    "output.write_s": ("s", ("output.write",)),
    "output.bytes": ("bytes", ("output.write",)),
    "trace.unattributed_frac": ("ratio", ()),
}


def _union_length(intervals) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def read_spans(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children = {}
        for s in spans:
            self.children.setdefault(s["parent"], []).append(s)

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def has_ancestor(self, span, name) -> bool:
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == name:
                return True
            parent = self.by_id.get(parent["parent"])
        return False

    def outermost(self, name):
        """Spans of `name` not nested in another span of the same name."""
        return [s for s in self.named(name) if not self.has_ancestor(s, name)]

    def total_s(self, name) -> float:
        """Busy time: summed over threads, nested repeats counted once."""
        return sum(s["end"] - s["start"] for s in self.outermost(name))

    def self_s(self, name) -> float:
        """Span time minus the part its child spans cover."""
        total = 0.0
        for s in self.outermost(name):
            kids = [
                (max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in self.children.get(s["id"], [])
            ]
            total += (s["end"] - s["start"]) - _union_length(k for k in kids if k[1] > k[0])
        return total


def layer_metrics(spans, wall_s: float, absent_bindings, stream_gbps: float) -> dict:
    """Per-layer metric name -> value (None when every binding it needs is gone)."""
    idx = SpanIndex(spans)
    missing = {
        name for name, _, _ in TARGETS
        if all(f"{m}.{a}" in absent_bindings for n, m, a in TARGETS if n == name)
    }

    eighs = [s for s in idx.named("numpy.linalg.eigh") if not idx.has_ancestor(s, "floquet.quasi_spectrum")]
    builds = [s for s in idx.named("hamiltonian.build_h1") if idx.has_ancestor(s, "sweep.PropagatorFactory.get")]
    keys = {tuple(s["key"]) for s in idx.named("sweep.PropagatorFactory.get") if "key" in s}
    applies = idx.outermost("floquet.apply")
    apply_s = idx.total_s("floquet.apply")
    apply_bytes = sum(s.get("bytes", 0) for s in applies)
    apply_gbps = apply_bytes / apply_s / 1e9 if apply_s > 0 else 0.0
    writes = {s["path"]: s["bytes"] for s in idx.named("output.write") if "path" in s}
    layered = [(s["start"], s["end"]) for s in spans if s["name"] != "cli.main"]
    roots = [s for s in spans if s["name"] == "cli.main"]
    covered = _union_length(layered)
    traced = sum(s["end"] - s["start"] for s in roots) or wall_s

    values = {
        "hamiltonian.build_h1.s": idx.total_s("hamiltonian.build_h1"),
        "hamiltonian.build_h1.calls": len(idx.outermost("hamiltonian.build_h1")),
        "floquet.eigh.s": sum(s["end"] - s["start"] for s in eighs),
        "floquet.eigh.calls": len(eighs),
        "floquet.u1_from_eigensystem.s": idx.total_s("floquet.u1_from_eigensystem"),
        "floquet.unitarity_deviation.s": idx.total_s("floquet.unitarity_deviation"),
        "sweep.stage1_builds": len(builds),
        "sweep.stage1_keys": len(keys),
        # with no sweep build there is no wasted build either
        "sweep.stage1_useful_ratio": len(keys) / len(builds) if builds else 1.0,
        "sweep.PropagatorFactory.get.self_s": idx.self_s("sweep.PropagatorFactory.get"),
        "sweep.run_sweep.self_s": idx.self_s("sweep.run_sweep"),
        "floquet.apply.s": apply_s,
        "floquet.apply.calls": len(applies),
        "floquet.apply.bytes_computed": apply_bytes,
        "floquet.apply.gbps_computed": apply_gbps,
        "floquet.apply.bw_frac": apply_gbps / stream_gbps,
        "observables.autocorrelator_series.self_s": idx.self_s("observables.autocorrelator_series"),
        "observables.autocorrelator_series.cycles": sum(
            s.get("cycles", 0) for s in idx.outermost("observables.autocorrelator_series")
        ),
        "observables.fourier_spectrum.s": idx.total_s("observables.fourier_spectrum"),
        "observables.fourier_spectrum.bytes_computed": sum(
            s.get("bytes", 0) for s in idx.outermost("observables.fourier_spectrum")
        ),
        "observables.reversal_analysis.s": idx.total_s("observables.reversal_analysis"),
        "floquet.quasi_spectrum.s": idx.total_s("floquet.quasi_spectrum"),
        "floquet.overlaps.s": idx.total_s("floquet.overlaps"),
        "config.parse_config.s": idx.total_s("config.parse_config"),
        "output.write_s": idx.total_s("output.write"),
        "output.bytes": sum(writes.values()),
        "trace.unattributed_frac": max(traced - covered, 0.0) / traced,
    }
    return {
        name: (None if any(n in missing for n in needs) else values[name], unit)
        for name, (unit, needs) in LAYER_METRICS.items()
    }
