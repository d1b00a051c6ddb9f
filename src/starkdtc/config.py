"""Run configuration: JSON schema, symbolic values and unit conversion.

A config is a single JSON object.  Model parameters are given as the
dimensionless groups figures are labeled by (OmegaT1, epsT1, VT1, FT2) and
converted to rates with T1 or T2 at load time.  Numeric values may be
strings like "pi/2" so the exact-flip baseline OmegaT1 = pi/2 stays exact
to machine precision.

Schema (defaults in parentheses):

    command: series | spectrum | overlaps | lifetime | sweep
    params:
        L (required; 1 .. 14, also on an L axis), T1 (1), T2 (10), kernel ("NN")
        OmegaT1 ("pi/2"), epsT1 (0), VT1 (0), FT2 (0)
    initial_state: bit string (all ones when left out; any length when L is
        swept); overlaps also takes [[index, re, im], ...]
    n_cycles (100; even for spectrum and a_pi): series, spectrum and the
        a_pi, series and spectrum sweeps only
    n_max (5000; >= 2): lifetime and lifetime sweeps only
    sweep: {axes: [{name, values}], observable, grid_cap (10000)}  (sweep only)

Figures (--figure) and the output format (--format) are CLI flags only.
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import dataclass
from typing import Optional, Union

from .exceptions import ConfigError
from .hamiltonian import KERNEL_VARIANTS, SimulationParams
from .sweep import ALL_ONES, AXIS_NAMES, DEFAULT_GRID_CAP, OBSERVABLES, SweepAxis, SweepSpec

COMMANDS = ("series", "spectrum", "overlaps", "lifetime", "sweep")

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def parse_number(value, path: str) -> float:
    """A float from a JSON number or a symbolic string like 'pi/2'."""
    if isinstance(value, bool):
        raise ConfigError(f"{path}: expected a number, got a boolean")
    if isinstance(value, (int, float)):
        return float(value)
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


def _positive_int(value, path: str) -> int:
    """A count from JSON: booleans and non-integral numbers are rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{path}: expected a positive integer, got {value!r}")
    return value


@dataclass
class RunConfig:
    """Validated single-invocation configuration."""

    command: str
    params: SimulationParams
    initial_state: Union[str, list, None] = None
    n_cycles: int = 100
    n_max: int = 5000
    sweep: Optional[SweepSpec] = None


_PARAM_KEYS = {"L", "T1", "T2", "kernel", "OmegaT1", "epsT1", "VT1", "FT2"}


def parse_params(section, path: str = "params") -> SimulationParams:
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = sorted(set(section) - _PARAM_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    if "L" not in section:
        raise ConfigError(f"{path}.L: required")
    L = _positive_int(section["L"], f"{path}.L")
    t1 = parse_number(section.get("T1", 1.0), f"{path}.T1")
    t2 = parse_number(section.get("T2", 10.0), f"{path}.T2")
    if t1 <= 0 or t2 <= 0:
        raise ConfigError(f"{path}: stage durations must be positive, got T1={t1}, T2={t2}")
    kernel = section.get("kernel", "NN")
    if kernel not in KERNEL_VARIANTS:
        raise ConfigError(f"{path}.kernel: expected one of {KERNEL_VARIANTS}, got {kernel!r}")
    omega = parse_number(section.get("OmegaT1", "pi/2"), f"{path}.OmegaT1") / t1
    epsilon = parse_number(section.get("epsT1", 0.0), f"{path}.epsT1") / t1
    v = parse_number(section.get("VT1", 0.0), f"{path}.VT1") / t1
    f = parse_number(section.get("FT2", 0.0), f"{path}.FT2") / t2
    try:
        return SimulationParams(L=L, omega=omega, epsilon=epsilon, v=v, f=f, t1=t1, t2=t2, kernel=kernel)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


def _parse_axis(section, path: str) -> SweepAxis:
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = sorted(set(section) - {"name", "values"})
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    name = section.get("name")
    if name not in AXIS_NAMES:
        raise ConfigError(f"{path}.name: expected one of {AXIS_NAMES}, got {name!r}")
    raw_values = section.get("values")
    if not isinstance(raw_values, list) or not raw_values:
        raise ConfigError(f"{path}.values: expected a non-empty list")
    if name == "L":
        values = tuple(_positive_int(v, f"{path}.values") for v in raw_values)
    elif name in ("kernel", "initial_state"):
        values = tuple(raw_values)  # checked by SweepAxis
    else:
        values = tuple(parse_number(v, f"{path}.values") for v in raw_values)
    try:
        return SweepAxis(name, values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


def _check_bits(bits, length: Optional[int], path: str) -> None:
    """A 0/1 string of `length` characters (any length when `length` is None)."""
    if not isinstance(bits, str) or not bits or any(ch not in "01" for ch in bits):
        raise ConfigError(f"{path}: expected a bit string, got {bits!r}")
    if length is not None and len(bits) != length:
        raise ConfigError(f"{path}: {bits!r} is not a length-{length} bit string")


def parse_sweep(section, base: SimulationParams, run: dict) -> SweepSpec:
    """The sweep section over `base`; `run` holds those of the config's
    top-level n_cycles, n_max and initial_state that it gives, and
    SweepSpec's defaults stand for the others."""
    if not isinstance(section, dict):
        raise ConfigError("sweep: expected an object")
    unknown = sorted(set(section) - {"axes", "observable", "grid_cap"})
    if unknown:
        raise ConfigError(f"sweep: unknown keys {unknown}")
    grid_cap = _positive_int(section.get("grid_cap", DEFAULT_GRID_CAP), "sweep.grid_cap")
    axes_section = section.get("axes")
    if not isinstance(axes_section, list) or not axes_section:
        raise ConfigError("sweep.axes: expected a non-empty list")
    axes = tuple(_parse_axis(axis, f"sweep.axes[{i}]") for i, axis in enumerate(axes_section))
    # checked here: a bad state would only fail each point, leaving a CSV of error markers
    length = None if any(axis.name == "L" for axis in axes) else base.L
    if "initial_state" in run:
        _check_bits(run["initial_state"], length, "initial_state")
    for i, axis in enumerate(axes):
        if axis.name == "initial_state":
            for bits in axis.values:
                if bits != ALL_ONES:  # an axis cannot leave the state out, so it names all ones
                    _check_bits(bits, length, f"sweep.axes[{i}].values")
    observable = section.get("observable")
    if observable not in OBSERVABLES:
        raise ConfigError(f"sweep.observable: expected one of {OBSERVABLES}, got {observable!r}")
    try:
        return SweepSpec(axes=axes, base=base, observable=observable, grid_cap=grid_cap, **run)
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}")


def parse_config(source: str) -> RunConfig:
    """Validated RunConfig from JSON text."""
    try:
        data = json.loads(source)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config: expected a JSON object at top level")
    unknown = sorted(set(data) - {"command", "params", "initial_state", "n_cycles", "n_max", "sweep"})
    if unknown:
        raise ConfigError(f"config: unknown keys {unknown}")

    command = data.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command: expected one of {COMMANDS}, got {command!r}")
    if "sweep" in data and command != "sweep":
        raise ConfigError(f"sweep: only the 'sweep' command takes it, not {command!r}")
    if "params" not in data:
        raise ConfigError(f"params: required for command {command!r}")
    params = parse_params(data["params"])

    counts = {key: _positive_int(data[key], key) for key in ("n_cycles", "n_max") if key in data}
    initial_state = data.get("initial_state")
    if isinstance(initial_state, list) and command != "overlaps":
        raise ConfigError(f"initial_state: {command} takes a bit string; only overlaps takes an amplitude list")
    sweep = None
    if command == "sweep":
        if "sweep" not in data:
            raise ConfigError("sweep: required when command is 'sweep'")
        run = counts if initial_state is None else {**counts, "initial_state": initial_state}
        sweep = parse_sweep(data["sweep"], params, run)
    elif isinstance(initial_state, list):
        for i, entry in enumerate(initial_state):
            if not isinstance(entry, list) or len(entry) != 3:
                raise ConfigError(f"initial_state[{i}]: expected [index, real, imag]")
    elif initial_state is not None:
        _check_bits(initial_state, params.L, "initial_state")
    reader = command if sweep is None else sweep.observable
    # the count the command or sweep observable reads; overlaps and overlap_table read none
    read = {"series": "n_cycles", "spectrum": "n_cycles", "a_pi": "n_cycles", "lifetime": "n_max"}.get(reader)
    for key in counts:
        if key != read:
            raise ConfigError(f"{key}: {reader} does not read it")
    cfg = RunConfig(command, params, initial_state, sweep=sweep, **counts)
    # checked before the run, which would compute the whole series first
    if command == "spectrum" and cfg.n_cycles % 2:
        raise ConfigError(
            f"n_cycles: the spectrum needs an even count for an exact omega=pi bin, got {cfg.n_cycles}"
        )
    if command == "lifetime" and cfg.n_max < 2:
        raise ConfigError(f"n_max: lifetime needs at least 2 cycles, got {cfg.n_max}")
    return cfg
