"""Run configuration: the JSON schema, mapped onto the run types.

A config is a single JSON object, mapped here onto `SimulationParams`,
`SweepAxis`, `SweepSpec` and `RunConfig`, which refuse bad values
themselves; a refusal becomes a ConfigError naming its key.  The rules
kept here are about the JSON spelling: unknown keys, a count the run does
not read, and a top-level "all_ones".  An initial state is a bit string
only, and a point command's is checked against L as the config loads.
Model parameters are the dimensionless groups figures are labeled by
(OmegaT1, epsT1, VT1, FT2), converted to rates with T1 or T2; a numeric
value may be a string like "pi/2", so OmegaT1 = pi/2 stays exact to
machine precision.

Schema (defaults in parentheses):

    command: series | spectrum | overlaps | lifetime | sweep
    params:
        L (required; 1 .. 14, also on an L axis), T1 (1), T2 (10), kernel ("NN")
        OmegaT1 ("pi/2"), epsT1 (0), VT1 (0), FT2 (0)
    initial_state: bit string of length L (all ones when left out; any
        length when L is swept)
    n_cycles (100; even for spectrum and a_pi): series, spectrum and the
        a_pi, series and spectrum sweeps only
    n_max (5000; >= 2): lifetime and lifetime sweeps only
    sweep: {axes: [{name, values}], observable, grid_cap (10000)}  (sweep only)

Figures are a CLI flag (--figure) only, and every table is a CSV.
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import dataclass, replace
from typing import Optional

from .exceptions import ConfigError
from .hamiltonian import SimulationParams
from .hilbert import check_bits
from .sweep import ALL_ONES, DEFAULT_GRID_CAP, OBSERVABLES, RATE_AXES, SweepAxis, SweepSpec, check_counts

COMMANDS = ("series", "spectrum", "overlaps", "lifetime", "sweep")

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def parse_number(value, path: str) -> float:
    """A float from a JSON number or a symbolic string like 'pi/2'."""
    if isinstance(value, bool):
        raise ConfigError(f"{path}: expected a number, got a boolean")
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            raise ConfigError(f"{path}: {value} is beyond the float range")
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a number or symbolic string, got {value!r}")
    try:
        tree = ast.parse(value, mode="eval")
    except SyntaxError:
        raise ConfigError(f"{path}: cannot parse numeric expression {value!r}")
    try:
        number = _eval_node(tree.body, value, path)
    except ArithmeticError as exc:  # division by zero, overflow
        raise ConfigError(f"{path}: cannot evaluate {value!r}: {exc}")
    if not isinstance(number, float):  # a negative base to a fractional power
        raise ConfigError(f"{path}: {value!r} is not a real number")
    return number


def _eval_node(node, source: str, path: str) -> float:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        operand = _eval_node(node.operand, source, path)
        return -operand if isinstance(node.op, ast.USub) else operand
    if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        left = _eval_node(node.left, source, path)
        right = _eval_node(node.right, source, path)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div):
            return left / right
        return left**right
    raise ConfigError(f"{path}: unsupported numeric expression {source!r}")


def _object(section, path: str, keys) -> dict:
    """`section` if it is a JSON object holding none but `keys`."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    return section


def _build(path: str, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError a ConfigError naming `path`."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


@dataclass
class RunConfig:
    """One run.  A point command's counts must pass `sweep.check_counts`
    and its initial state, unless left out (all ones), `hilbert.check_bits`
    at params.L; a sweep's counts and initial state are its SweepSpec's."""

    command: str
    params: SimulationParams
    initial_state: Optional[str] = None
    n_cycles: int = 100
    n_max: int = 5000
    sweep: Optional[SweepSpec] = None

    def __post_init__(self):
        if self.sweep is None:
            check_counts(self.command, n_cycles=self.n_cycles, n_max=self.n_max)
            if self.initial_state is not None:
                check_bits(self.initial_state, self.params.L)


_PARAM_KEYS = {"L", "T1", "T2", "kernel", "OmegaT1", "epsT1", "VT1", "FT2"}


def parse_params(section, path: str = "params") -> SimulationParams:
    _object(section, path, _PARAM_KEYS)
    if "L" not in section:
        raise ConfigError(f"{path}.L: required")
    t1 = parse_number(section.get("T1", 1.0), f"{path}.T1")
    t2 = parse_number(section.get("T2", 10.0), f"{path}.T2")
    omega_t1, eps_t1, v_t1, f_t2 = (
        parse_number(section.get(key, default), f"{path}.{key}")
        for key, default in (("OmegaT1", "pi/2"), ("epsT1", 0.0), ("VT1", 0.0), ("FT2", 0.0))
    )
    # the durations are checked before the groups are divided by them
    params = _build(path, SimulationParams, L=section["L"], t1=t1, t2=t2, kernel=section.get("kernel", "NN"))
    return _build(path, replace, params, omega=omega_t1 / t1, epsilon=eps_t1 / t1, v=v_t1 / t1, f=f_t2 / t2)


def _parse_axis(section, path: str) -> SweepAxis:
    _object(section, path, ("name", "values"))
    name, values = section.get("name"), section.get("values")
    if not isinstance(values, list):
        raise ConfigError(f"{path}.values: expected a list")
    if name in RATE_AXES:  # rates, which may be symbolic
        values = [parse_number(value, f"{path}.values") for value in values]
    return _build(path, SweepAxis, name, tuple(values))


def parse_sweep(section, base: SimulationParams, run: dict) -> SweepSpec:
    """The sweep section over `base`; `run` holds the top-level n_cycles, n_max
    and initial_state the config gives (SweepSpec's defaults stand for the rest)."""
    _object(section, "sweep", ("axes", "observable", "grid_cap"))
    axes_section = section.get("axes")
    if not isinstance(axes_section, list):
        raise ConfigError("sweep.axes: expected a list")
    axes = tuple(_parse_axis(axis, f"sweep.axes[{i}]") for i, axis in enumerate(axes_section))
    return _build("sweep", SweepSpec, axes=axes, base=base, observable=section.get("observable"),
                  grid_cap=section.get("grid_cap", DEFAULT_GRID_CAP), **run)


def parse_config(source: str) -> RunConfig:
    """Validated RunConfig from JSON text."""
    try:
        data = json.loads(source)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    _object(data, "config", ("command", "params", "initial_state", "n_cycles", "n_max", "sweep"))

    command = data.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command: expected one of {COMMANDS}, got {command!r}")
    if "sweep" in data and command != "sweep":
        raise ConfigError(f"sweep: only the 'sweep' command takes it, not {command!r}")
    if "params" not in data:
        raise ConfigError(f"params: required for command {command!r}")
    params = parse_params(data["params"])

    counts = {key: data[key] for key in ("n_cycles", "n_max") if key in data}
    initial_state = data.get("initial_state")
    if initial_state == ALL_ONES:  # the key left out is all ones
        raise ConfigError(f"initial_state: expected a bit string, got {ALL_ONES!r}")
    sweep = None
    if command == "sweep":
        if "sweep" not in data:
            raise ConfigError("sweep: required when command is 'sweep'")
        run = counts if initial_state is None else {**counts, "initial_state": initial_state}
        sweep = parse_sweep(data["sweep"], params, run)
    reader = command if sweep is None else sweep.observable
    for key in counts:
        if key != OBSERVABLES[reader][0]:
            raise ConfigError(f"{key}: {reader} does not read it")
    return _build("config", RunConfig, command, params, initial_state, sweep=sweep, **counts)
