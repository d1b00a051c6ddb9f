"""Run configuration: JSON schema, symbolic values and unit conversion.

A config is a single JSON object.  Model parameters accept either raw rates
(Omega, epsilon, V, F) or the dimensionless groups figures are labeled by
(OmegaT1, epsT1, VT1, VT2, FT2); groups are converted to rates with T1/T2 at
load time and giving the same rate twice is rejected.  Numeric values may be
strings like "pi/2" so the exact-flip baseline OmegaT1 = pi/2 stays exact to
machine precision.

Schema (defaults in parentheses):

    command: series | spectrum | overlaps | lifetime | sweep | figure
    params:
        L (required; 1 .. 14, also on an L axis), T1 (1), T2 (10), kernel ("NN")
        Omega | OmegaT1 ("pi/2"), epsilon | epsT1 (0),
        V | VT1 | VT2 (0), F | FT2 (0)
    initial_state: bit string, or [[index, re, im], ...]  (all ones); series,
        spectrum and lifetime take a list only when it holds one basis state
    n_cycles (100; even for spectrum and a_pi), n_max (5000; >= 2 for lifetime)
    sweep: {axes: [{name, values | start/stop/step | start/stop/num}],
            observable, grid_cap (10000; also caps each range before it is
            built), initial_state (all_ones)}
    figure: fig2 | fig3a | fig3b | fig3c | fig3d | fig4a | fig4b | fig5
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

COMMANDS = ("series", "spectrum", "overlaps", "lifetime", "sweep", "figure")

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
    params: Optional[SimulationParams] = None
    initial_state: Union[str, list, None] = None
    n_cycles: int = 100
    n_max: int = 5000
    sweep: Optional[SweepSpec] = None
    figure: Optional[str] = None
    out_format: str = "csv"


def _resolve_rate(section: dict, path: str, raw_key: str, group_keys: dict, default: float) -> float:
    """One rate from exactly one of its raw/dimensionless spellings."""
    present = [key for key in (raw_key, *group_keys) if key in section]
    if len(present) > 1:
        raise ConfigError(f"{path}: conflicting keys {_join_keys(present)} set the same rate")
    if not present:
        return default
    key = present[0]
    value = parse_number(section[key], f"{path}.{key}")
    if key == raw_key:
        return value
    return value / group_keys[key]


def _join_keys(keys) -> str:
    return " and ".join(repr(k) for k in keys)


_PARAM_KEYS = {
    "L", "T1", "T2", "kernel",
    "Omega", "OmegaT1", "epsilon", "epsT1",
    "V", "VT1", "VT2", "F", "FT2",
}


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
    omega = _resolve_rate(section, path, "Omega", {"OmegaT1": t1}, default=math.pi / 2 / t1)
    epsilon = _resolve_rate(section, path, "epsilon", {"epsT1": t1}, default=0.0)
    v = _resolve_rate(section, path, "V", {"VT1": t1, "VT2": t2}, default=0.0)
    f = _resolve_rate(section, path, "F", {"FT2": t2}, default=0.0)
    try:
        return SimulationParams(L=L, omega=omega, epsilon=epsilon, v=v, f=f, t1=t1, t2=t2, kernel=kernel)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


def _parse_axis(section, path: str, grid_cap: int) -> SweepAxis:
    """One sweep axis; a range longer than `grid_cap` is refused before any
    of its values is built."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    name = section.get("name")
    if name not in AXIS_NAMES:
        raise ConfigError(f"{path}.name: expected one of {AXIS_NAMES}, got {name!r}")
    numeric_axis = name not in ("kernel", "initial_state")
    if "values" in section:
        raw_values = section["values"]
        if not isinstance(raw_values, list) or not raw_values:
            raise ConfigError(f"{path}.values: expected a non-empty list")
        if numeric_axis and name != "L":
            values = tuple(parse_number(v, f"{path}.values") for v in raw_values)
        elif name == "L":
            values = tuple(_positive_int(v, f"{path}.values") for v in raw_values)
        else:
            values = tuple(raw_values)  # checked by SweepAxis
    elif "start" in section and "stop" in section:
        if not numeric_axis:
            raise ConfigError(f"{path}: ranges are only valid for numeric axes")
        start = parse_number(section["start"], f"{path}.start")
        stop = parse_number(section["stop"], f"{path}.stop")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ConfigError(f"{path}: a range needs finite bounds, got {start!r} to {stop!r}")
        if "step" in section:
            step = parse_number(section["step"], f"{path}.step")
            if not math.isfinite(step) or step <= 0:
                raise ConfigError(f"{path}.step: must be finite and positive, got {step!r}")
            if stop < start:
                raise ConfigError(f"{path}: a step range needs stop >= start, got {start!r} to {stop!r}")
            steps = (stop - start) / step + 1e-9
            if steps >= grid_cap:  # floor(steps) + 1 values
                raise ConfigError(f"{path}: the range has more values than the grid cap of {grid_cap}")
            count = int(math.floor(steps)) + 1
            values = tuple(start + k * step for k in range(count))
        elif "num" in section:
            num = _positive_int(section["num"], f"{path}.num")
            if num > grid_cap:
                raise ConfigError(f"{path}: the range has more values than the grid cap of {grid_cap}")
            values = tuple(
                start + (stop - start) * k / (num - 1) if num > 1 else start for k in range(num)
            )
        else:
            raise ConfigError(f"{path}: range needs either 'step' or 'num'")
    else:
        raise ConfigError(f"{path}: expected 'values' or a 'start'/'stop' range")
    try:
        return SweepAxis(name, values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


def _check_sweep_bits(bits, length: Optional[int], path: str) -> None:
    """A sweep's initial state: 'all_ones', or a 0/1 string of `length`
    characters (any length when L is swept and `length` is None)."""
    if bits == ALL_ONES:
        return
    if not isinstance(bits, str) or not bits or any(ch not in "01" for ch in bits):
        raise ConfigError(f"{path}: expected a bit string or {ALL_ONES!r}, got {bits!r}")
    if length is not None and len(bits) != length:
        raise ConfigError(f"{path}: {bits!r} is not a length-{length} bit string")


def parse_sweep(section, base: SimulationParams, defaults: dict, path: str = "sweep") -> SweepSpec:
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = sorted(set(section) - {"axes", "observable", "n_cycles", "n_max", "grid_cap", "initial_state"})
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    counts = {"n_cycles": defaults.get("n_cycles", 100), "n_max": defaults.get("n_max", 5000),
              "grid_cap": DEFAULT_GRID_CAP}
    for key in counts:
        if key in section:
            counts[key] = _positive_int(section[key], f"{path}.{key}")
    axes_section = section.get("axes")
    if not isinstance(axes_section, list) or not axes_section:
        raise ConfigError(f"{path}.axes: expected a non-empty list")
    axes = tuple(
        _parse_axis(axis, f"{path}.axes[{i}]", counts["grid_cap"]) for i, axis in enumerate(axes_section)
    )
    # checked here: a bad state would only fail each point, leaving a CSV of error markers
    length = None if any(axis.name == "L" for axis in axes) else base.L
    if "initial_state" in section:
        _check_sweep_bits(section["initial_state"], length, f"{path}.initial_state")
    for i, axis in enumerate(axes):
        if axis.name == "initial_state":
            for bits in axis.values:
                _check_sweep_bits(bits, length, f"{path}.axes[{i}].values")
    observable = section.get("observable")
    if observable not in OBSERVABLES:
        raise ConfigError(f"{path}.observable: expected one of {OBSERVABLES}, got {observable!r}")
    try:
        return SweepSpec(
            axes=axes,
            base=base,
            observable=observable,
            initial_state=section.get("initial_state", defaults.get("initial_state", ALL_ONES)),
            **counts,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


def parse_config(source: str) -> RunConfig:
    """Validated RunConfig from JSON text."""
    try:
        data = json.loads(source)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config: expected a JSON object at top level")
    known = {
        "command", "params", "initial_state", "n_cycles", "n_max",
        "sweep", "figure", "output",
    }
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"config: unknown keys {unknown}")

    command = data.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command: expected one of {COMMANDS}, got {command!r}")

    figure = data.get("figure")
    if command == "figure" and not figure:
        raise ConfigError("figure: required when command is 'figure'")

    params = None
    if "params" in data:
        params = parse_params(data["params"])
    elif command != "figure":
        raise ConfigError(f"params: required for command {command!r}")

    initial_state = data.get("initial_state")
    if initial_state is not None:
        if isinstance(initial_state, str):
            if params and (len(initial_state) != params.L or any(c not in "01" for c in initial_state)):
                raise ConfigError(
                    f"initial_state: {initial_state!r} is not a length-{params.L} bit string"
                )
        elif isinstance(initial_state, list):
            for i, entry in enumerate(initial_state):
                if not isinstance(entry, list) or len(entry) != 3:
                    raise ConfigError(f"initial_state[{i}]: expected [index, real, imag]")
        else:
            raise ConfigError("initial_state: expected a bit string or amplitude triples")

    n_cycles = data.get("n_cycles", 100)
    n_max = data.get("n_max", 5000)
    for name, value in (("n_cycles", n_cycles), ("n_max", n_max)):
        _positive_int(value, name)
    # checked before the run, which would compute the whole series first
    if command == "spectrum" and n_cycles % 2:
        raise ConfigError(
            f"n_cycles: the spectrum needs an even count for an exact omega=pi bin, got {n_cycles}"
        )
    if command == "lifetime" and n_max < 2:
        raise ConfigError(f"n_max: lifetime needs at least 2 cycles, got {n_max}")

    output = data.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output: expected an object")
    out_format = output.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError(f"output.format: expected 'csv' or 'json', got {out_format!r}")

    sweep_spec = None
    if command == "sweep":
        if "sweep" not in data:
            raise ConfigError("sweep: required when command is 'sweep'")
        defaults = {"n_cycles": n_cycles, "n_max": n_max}
        if isinstance(initial_state, str):
            defaults["initial_state"] = initial_state
        sweep_spec = parse_sweep(data["sweep"], params, defaults)

    return RunConfig(
        command=command,
        params=params,
        initial_state=initial_state,
        n_cycles=n_cycles,
        n_max=n_max,
        sweep=sweep_spec,
        figure=figure,
        out_format=out_format,
    )
