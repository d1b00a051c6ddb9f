import json
import math

import pytest

from starkdtc import ConfigError, parse_config
from starkdtc.config import parse_number, parse_params


def test_parse_number_symbolic():
    assert parse_number("pi/2", "x") == math.pi / 2
    assert parse_number("pi", "x") == math.pi
    assert parse_number("2*pi/3", "x") == pytest.approx(2 * math.pi / 3)
    assert parse_number("-0.3", "x") == -0.3
    assert parse_number(0.25, "x") == 0.25
    assert parse_number(3, "x") == 3.0
    for bad in ("two", "pi;import os", "[1]", True, None):
        with pytest.raises(ConfigError):
            parse_number(bad, "x")


def test_parse_params_fig2_caption_values():
    section = {"L": 12, "OmegaT1": "pi/2", "epsT1": 0.3, "VT1": 0.1, "FT2": 0.25, "T1": 1, "T2": 10}
    params = parse_params(section)
    assert params.L == 12
    assert params.omega == math.pi / 2  # exact, not a decimal truncation
    assert params.epsilon == pytest.approx(0.3)
    assert params.v == pytest.approx(0.1)
    assert params.f == pytest.approx(0.025)
    assert params.t1 == 1.0 and params.t2 == 10.0


def test_parse_params_conflicting_units():
    with pytest.raises(ConfigError, match="conflicting"):
        parse_params({"L": 2, "OmegaT1": "pi/2", "Omega": 1.57})
    with pytest.raises(ConfigError, match="conflicting"):
        parse_params({"L": 2, "VT1": 0.1, "VT2": 1.0})
    with pytest.raises(ConfigError, match="conflicting"):
        parse_params({"L": 2, "F": 0.01, "FT2": 0.1})


def test_parse_params_defaults_and_conversions():
    params = parse_params({"L": 3})
    assert params.omega == math.pi / 2  # OmegaT1 = pi/2 is the protocol anchor
    assert params.epsilon == 0.0 and params.v == 0.0 and params.f == 0.0
    assert params.t1 == 1.0 and params.t2 == 10.0
    # VT2 converts through T2
    params = parse_params({"L": 3, "VT2": 1.0})
    assert params.v == pytest.approx(0.1)


def test_parse_params_rejections():
    with pytest.raises(ConfigError, match="params.L"):
        parse_params({"L": 0})
    with pytest.raises(ConfigError, match="params.L"):
        parse_params({})
    with pytest.raises(ConfigError, match="unknown"):
        parse_params({"L": 2, "Omga": 1.0})
    with pytest.raises(ConfigError, match="kernel"):
        parse_params({"L": 2, "kernel": "XY"})
    with pytest.raises(ConfigError):
        parse_params({"L": 2, "T1": 0})


def make_config(**overrides):
    data = {"command": "series", "params": {"L": 3}, "n_cycles": 10}
    data.update(overrides)
    return json.dumps(data)


def test_parse_config_minimal_series():
    cfg = parse_config(make_config())
    assert cfg.command == "series"
    assert cfg.params.L == 3
    assert cfg.n_cycles == 10
    assert cfg.initial_bits() == "111"
    assert cfg.out_format == "csv"
    assert not hasattr(cfg, "threads")  # --threads is a CLI flag only


def test_parse_config_initial_state_forms():
    cfg = parse_config(make_config(initial_state="101"))
    assert cfg.initial_bits() == "101"
    with pytest.raises(ConfigError):
        parse_config(make_config(initial_state="10"))
    with pytest.raises(ConfigError):
        parse_config(make_config(initial_state="10x"))
    cfg = parse_config(make_config(initial_state=[[0, 0.7071067811865476, 0.0], [7, 0.0, 0.7071067811865476]]))
    assert isinstance(cfg.initial_state, list)
    with pytest.raises(ConfigError):
        parse_config(make_config(initial_state=[[0, 0.5]]))


def test_parse_config_command_validation():
    with pytest.raises(ConfigError, match="command"):
        parse_config(json.dumps({"command": "evolve", "params": {"L": 2}}))
    with pytest.raises(ConfigError, match="params"):
        parse_config(json.dumps({"command": "series"}))
    with pytest.raises(ConfigError, match="figure"):
        parse_config(json.dumps({"command": "figure"}))
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{command:")
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(make_config(extra=1))


def test_parse_config_sweep():
    data = {
        "command": "sweep",
        "params": {"L": 3, "VT1": 0.1},
        "sweep": {
            "axes": [
                {"name": "epsilon", "start": 0.0, "stop": 0.2, "step": 0.1},
                {"name": "F_T2", "values": [0.0, "pi/10"]},
            ],
            "observable": "a_pi",
            "n_cycles": 10,
        },
    }
    cfg = parse_config(json.dumps(data))
    assert cfg.sweep is not None
    assert cfg.sweep.axes[0].values == (0.0, 0.1, 0.2)
    assert cfg.sweep.axes[1].values[1] == pytest.approx(math.pi / 10)
    assert cfg.sweep.observable == "a_pi"
    assert cfg.sweep.n_cycles == 10


def test_parse_sweep_rejects_bad_initial_state():
    # a bad state used to fail every point and still exit 0
    def sweep_cfg(axes, **fields):
        sweep = {"axes": axes, "observable": "a_pi", **fields}
        return json.dumps({"command": "sweep", "params": {"L": 3}, "sweep": sweep})

    f_axis = [{"name": "F_T2", "values": [0.0]}]
    l_axis = [{"name": "L", "values": [2, 3]}]
    with pytest.raises(ConfigError, match=r"sweep\.initial_state: expected a bit string"):
        parse_config(sweep_cfg(f_axis, initial_state="10x"))
    with pytest.raises(ConfigError, match=r"sweep\.initial_state: expected a bit string"):
        parse_config(sweep_cfg(f_axis, initial_state=[1, 0, 1]))
    with pytest.raises(ConfigError, match=r"sweep\.initial_state: '10' is not a length-3"):
        parse_config(sweep_cfg(f_axis, initial_state="10"))
    with pytest.raises(ConfigError, match=r"sweep\.initial_state: expected a bit string"):
        parse_config(sweep_cfg(l_axis, initial_state="1x"))
    with pytest.raises(ConfigError, match=r"sweep\.axes\[1\]\.values: expected a bit string"):
        parse_config(sweep_cfg(f_axis + [{"name": "initial_state", "values": ["101", "1o1"]}]))
    # the length is free when L is swept, and all_ones fits every L
    assert parse_config(sweep_cfg(l_axis, initial_state="10")).sweep.initial_state == "10"
    assert parse_config(sweep_cfg(f_axis, initial_state="all_ones")).sweep.initial_state == "all_ones"
    assert parse_config(sweep_cfg(f_axis, initial_state="101")).sweep.initial_state == "101"


def test_parse_config_sweep_axis_errors():
    base = {"command": "sweep", "params": {"L": 3}}

    def sweep_cfg(axes, observable="a_pi"):
        return json.dumps({**base, "sweep": {"axes": axes, "observable": observable}})

    with pytest.raises(ConfigError, match="axes"):
        parse_config(json.dumps({**base, "sweep": {"observable": "a_pi"}}))
    with pytest.raises(ConfigError, match="name"):
        parse_config(sweep_cfg([{"name": "bogus", "values": [1]}]))
    with pytest.raises(ConfigError, match="values"):
        parse_config(sweep_cfg([{"name": "epsilon", "values": []}]))
    with pytest.raises(ConfigError, match="step"):
        parse_config(sweep_cfg([{"name": "epsilon", "start": 0, "stop": 1, "step": -1}]))
    with pytest.raises(ConfigError, match="observable"):
        parse_config(sweep_cfg([{"name": "epsilon", "values": [0.1]}], observable="energy"))
    with pytest.raises(ConfigError, match="range"):
        parse_config(sweep_cfg([{"name": "kernel", "start": 0, "stop": 1, "step": 1}]))


def test_parse_config_num_range():
    data = {
        "command": "sweep",
        "params": {"L": 2},
        "sweep": {
            "axes": [{"name": "epsilon", "start": 0.0, "stop": 0.5, "num": 6}],
            "observable": "a_pi",
        },
    }
    cfg = parse_config(json.dumps(data))
    assert cfg.sweep.axes[0].values == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


def test_parse_config_output_and_threads():
    cfg = parse_config(make_config(output={"format": "json"}))
    assert cfg.out_format == "json"
    for key in ("seed", "threads"):  # no longer config keys
        with pytest.raises(ConfigError, match=key):
            parse_config(make_config(**{key: 4}))
    with pytest.raises(ConfigError, match="format"):
        parse_config(make_config(output={"format": "xml"}))
    with pytest.raises(ConfigError, match="threads"):
        parse_config(make_config(threads=0))
    with pytest.raises(ConfigError, match="n_cycles"):
        parse_config(make_config(n_cycles=-5))


def test_parse_config_rejects_unusable_cycle_counts():
    with pytest.raises(ConfigError, match="n_cycles.*even"):
        parse_config(json.dumps({"command": "spectrum", "params": {"L": 2}, "n_cycles": 101}))
    with pytest.raises(ConfigError, match="n_max"):
        parse_config(json.dumps({"command": "lifetime", "params": {"L": 2}, "n_max": 1}))
    sweep = {"axes": [{"name": "F_T2", "values": [0.0]}], "observable": "a_pi", "n_cycles": 101}
    with pytest.raises(ConfigError, match="even"):
        parse_config(json.dumps({"command": "sweep", "params": {"L": 2}, "sweep": sweep}))
    assert parse_config(json.dumps({"command": "series", "params": {"L": 2}, "n_cycles": 101})).n_cycles == 101


@pytest.mark.parametrize(
    "sweep_fields, path",
    [
        ({"n_cycles": 20.9}, "sweep.n_cycles"),
        ({"n_max": 7.5}, "sweep.n_max"),
        ({"grid_cap": True}, "sweep.grid_cap"),
        ({"axes": [{"name": "L", "values": [3.7, True]}]}, r"sweep.axes\[0\].values"),
        ({"axes": [{"name": "L", "values": [3, True]}]}, r"sweep.axes\[0\].values"),
    ],
)
def test_parse_sweep_rejects_non_integer_counts(sweep_fields, path):
    # each would otherwise be truncated: 20.9 -> 20, 7.5 -> 7, true -> 1
    sweep = {"axes": [{"name": "F_T2", "values": [0.0]}], "observable": "a_pi", **sweep_fields}
    with pytest.raises(ConfigError, match=f"{path}: expected a positive integer"):
        parse_config(json.dumps({"command": "sweep", "params": {"L": 2}, "sweep": sweep}))
