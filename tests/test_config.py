import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starkdtc.config as config
from starkdtc import ConfigError, SimulationParams, parse_config
from starkdtc.cli import _initial_state
from starkdtc.config import parse_number, parse_params
from starkdtc.hamiltonian import KERNEL_VARIANTS
from starkdtc.output import params_metadata
from starkdtc.sweep import SweepAxis


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
    assert cfg.initial_state is None and _initial_state(cfg).label == "111"  # all ones
    assert cfg.out_format == "csv"
    assert not hasattr(cfg, "threads")  # --threads is a CLI flag only


@settings(max_examples=100, deadline=None)
@given(
    L=st.integers(1, 14),
    kernel=st.sampled_from(KERNEL_VARIANTS),
    rates=st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
    durations=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=2),
    data=st.data(),
)
def test_config_round_trips_sidecar_params(L, kernel, rates, durations, data):
    # a sidecar's params, written back as a config in raw spellings, parse to
    # the same point bit for bit, and in the dimensionless spellings to within
    # the rounding of one division
    omega, epsilon, v, f = rates
    t1, t2 = durations
    params = SimulationParams(L=L, omega=omega, epsilon=epsilon, v=v, f=f, t1=t1, t2=t2, kernel=kernel)
    meta = json.loads(json.dumps(params_metadata(params)))
    bits = data.draw(st.text(alphabet="01", min_size=L, max_size=L))
    n_cycles = data.draw(st.integers(1, 10_000))
    raw = {"L": meta["L"], "T1": meta["t1"], "T2": meta["t2"], "kernel": meta["kernel"],
           "Omega": meta["omega"], "epsilon": meta["epsilon"], "V": meta["v"], "F": meta["f"]}
    cfg = parse_config(json.dumps({"command": "series", "params": raw, "initial_state": bits,
                                   "n_cycles": n_cycles}))
    assert cfg.params == params
    assert cfg.initial_state == bits and cfg.n_cycles == n_cycles
    groups = meta["dimensionless"]
    scaled = {"L": L, "T1": t1, "T2": t2, "kernel": kernel, "OmegaT1": groups["omega_t1"],
              "epsT1": groups["epsilon_t1"], "VT2": groups["v_t2"], "FT2": groups["f_t2"]}
    again = parse_params(scaled)
    for name in ("omega", "epsilon", "v", "f"):
        assert getattr(again, name) == pytest.approx(getattr(params, name), rel=1e-15, abs=1e-300)


def test_parse_config_initial_state_forms():
    cfg = parse_config(make_config(initial_state="101"))
    assert cfg.initial_state == "101" and _initial_state(cfg).product_state_index() == 0b101
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


def test_sweep_refuses_an_amplitude_list_initial_state():
    # a sweep used to drop the list silently and run from the all-ones state
    sweep = {"axes": [{"name": "F_T2", "values": [0.0, 0.1]}], "observable": "a_pi"}
    data = {"command": "sweep", "params": {"L": 2}, "sweep": sweep, "initial_state": [[1, 1.0, 0.0]]}
    with pytest.raises(ConfigError, match=r"initial_state: sweeps take bit strings \(sweep\.initial_state\)"):
        parse_config(json.dumps(data))
    assert parse_config(json.dumps(dict(data, initial_state="10"))).sweep.initial_state == "10"


@pytest.mark.parametrize(
    "data, message",
    [
        (make_config(output={"format": "json", "extra": 1}),
         "output: expected an object whose only key is 'format'"),
        (make_config(figure="fig2"), "figure: only the 'figure' command takes it, not 'series'"),
        (make_config(sweep={"axes": [{"name": "F_T2", "values": [0.0]}], "observable": "a_pi"}),
         "sweep: only the 'sweep' command takes it, not 'series'"),
        (json.dumps({"command": "figure", "figure": "fig2", "sweep": {}}),
         "sweep: only the 'sweep' command takes it, not 'figure'"),
    ],
    ids=["output_extra_key", "figure_on_series", "sweep_on_series", "sweep_on_figure"],
)
def test_parse_config_refuses_sections_that_would_be_ignored(data, message):
    # each used to exit 0 with the value silently ignored
    with pytest.raises(ConfigError, match=message):
        parse_config(data)


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


def test_parse_config_l_ranges_give_whole_site_counts():
    def l_axis(**axis):
        return json.dumps({"command": "sweep", "params": {"L": 3},
                           "sweep": {"axes": [{"name": "L", **axis}], "observable": "a_pi"}})

    # a fractional L used to be truncated at its point: L = 2.5 ran at L = 2
    with pytest.raises(ConfigError, match=r"sweep\.axes\[0\]: L takes whole site counts, got 2\.5"):
        parse_config(l_axis(start=2, stop=3, step=0.5))
    with pytest.raises(ConfigError, match=r"sweep\.axes\[0\]: L takes whole site counts"):
        parse_config(l_axis(start=2, stop=3, num=3))
    assert parse_config(l_axis(start=2, stop=4, step=1)).sweep.axes[0].values == (2.0, 3.0, 4.0)
    assert parse_config(l_axis(start=4, stop=2, num=3)).sweep.axes[0].values == (4.0, 3.0, 2.0)


def test_parse_config_rejects_reversed_step_range():
    # stop < start used to give the one value `start`
    data = {"command": "sweep", "params": {"L": 2},
            "sweep": {"axes": [{"name": "epsilon", "start": 0.5, "stop": 0.0, "step": 0.1}],
                      "observable": "a_pi"}}
    with pytest.raises(ConfigError, match=r"sweep\.axes\[0\]: a step range needs stop >= start"):
        parse_config(json.dumps(data))
    data["sweep"]["axes"][0].update(start=0.5, stop=0.5)
    assert parse_config(json.dumps(data)).sweep.axes[0].values == (0.5,)


def test_site_cap_is_a_config_error():
    with pytest.raises(ConfigError, match="params: L=15 exceeds the site cap of 14"):
        parse_config(make_config(params={"L": 15}))
    for axis in ({"name": "L", "values": [3, 15]}, {"name": "L", "start": 13, "stop": 15, "step": 1}):
        data = {"command": "sweep", "params": {"L": 3}, "sweep": {"axes": [axis], "observable": "a_pi"}}
        with pytest.raises(ConfigError, match=r"sweep\.axes\[0\]: L=15 exceeds the site cap of 14"):
            parse_config(json.dumps(data))
    assert parse_config(make_config(params={"L": 14}, n_cycles=2)).params.L == 14


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


@pytest.mark.parametrize(
    "over, within",
    [
        ({"num": 11}, {"num": 10}),
        ({"step": 0.1}, {"step": 1 / 9}),  # 11 values, then 10
        ({"step": 5e-324}, {"step": 1 / 9}),  # a count that overflows a float
    ],
    ids=["num", "step", "step_overflow"],
)
def test_range_over_grid_cap_is_refused_before_its_values_are_built(monkeypatch, over, within):
    # a range of 10**9 values used to be built in full before the grid was
    # compared with the cap, and to end in a MemoryError
    received = []

    def recording_axis(name, values):
        received.append(len(values))
        return SweepAxis(name, values)

    def sweep_cfg(fields):
        axis = {"name": "F_T2", "start": 0.0, "stop": 1.0, **fields}
        sweep = {"axes": [axis], "observable": "a_pi", "grid_cap": 10}
        return json.dumps({"command": "sweep", "params": {"L": 2}, "sweep": sweep})

    monkeypatch.setattr(config, "SweepAxis", recording_axis)
    with pytest.raises(ConfigError, match=r"sweep\.axes\[0\]: the range has more values than the grid cap of 10$"):
        parse_config(sweep_cfg(over))
    assert received == []
    parse_config(sweep_cfg(within))
    assert received == [10]
