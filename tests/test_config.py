import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starkdtc
import starkdtc.config as config
from starkdtc import ConfigError, SimulationParams, SweepAxis, parse_config
from starkdtc.config import _parse_axis, parse_number, parse_params
from starkdtc.hamiltonian import KERNEL_VARIANTS
from starkdtc.output import params_metadata
from starkdtc.sweep import AXIS_NAMES

ROOT = Path(__file__).resolve().parents[1]


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


def test_parse_params_defaults_and_conversions():
    params = parse_params({"L": 3})
    assert params.omega == math.pi / 2  # OmegaT1 = pi/2 is the protocol anchor
    assert params.epsilon == 0.0 and params.v == 0.0 and params.f == 0.0
    assert params.t1 == 1.0 and params.t2 == 10.0
    # OmegaT1, epsT1 and VT1 convert through T1, FT2 through T2
    params = parse_params({"L": 3, "T1": 2, "T2": 4, "OmegaT1": 1.0, "epsT1": 0.5, "VT1": 3.0, "FT2": 1.0})
    assert (params.omega, params.epsilon, params.v, params.f) == (0.5, 0.25, 1.5, 0.25)


def test_parse_params_rejections():
    with pytest.raises(ConfigError, match="params: L must be a positive integer, got 0"):
        parse_params({"L": 0})
    with pytest.raises(ConfigError, match="params.L"):
        parse_params({})
    with pytest.raises(ConfigError, match="unknown"):
        parse_params({"L": 2, "Omga": 1.0})
    with pytest.raises(ConfigError, match="kernel"):
        parse_params({"L": 2, "kernel": "XY"})
    with pytest.raises(ConfigError):
        parse_params({"L": 2, "T1": 0})


# JSON values that parse_number converts (a boolean it refuses, as the types
# do), and raw values for the keys config passes on unconverted
NUMBERS = st.one_of(
    st.sampled_from([True, False, 0, -1, 3, "1e400", "-1e400", "pi/2", "0.1", "-2*pi"]),
    st.floats(),
)
RAW = st.sampled_from([0, 1, 3, 14, 15, -2, 10**400, True, False, 2.0, 2.5, 1e400, math.nan, "3", None,
                       "NN", "ALL", "XY", "101", "10x", "", "all_ones"])
RATE_AXES = ("epsilon", "F_T2", "V")
# initial states: the raw values, and amplitude lists of any shape
STATES = st.one_of(RAW, st.lists(st.lists(st.one_of(NUMBERS, RAW), max_size=3), max_size=2))


def convert(value):
    """`value` as parse_number gives it; a boolean stays one."""
    return value if isinstance(value, bool) else parse_number(value, "value")


def refuses(build, error) -> bool:
    try:
        build()
    except error:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(section=st.fixed_dictionaries(
    {"L": RAW},
    optional={"T1": NUMBERS, "T2": NUMBERS, "kernel": RAW, "OmegaT1": NUMBERS, "epsT1": NUMBERS,
              "VT1": NUMBERS, "FT2": NUMBERS},
), command=st.sampled_from(config.COMMANDS), state=STATES)
def test_parse_params_refuses_exactly_what_simulation_params_refuses(section, command, state):
    # the rules live in SimulationParams; config only converts, so a rule
    # stated a second time in config could only break this agreement
    groups = {key: convert(value) for key, value in section.items() if key not in ("L", "kernel")}
    t1, t2 = groups.get("T1", 1.0), groups.get("T2", 10.0)

    def rate(key, default, duration):
        group = groups.get(key, default)
        # a boolean is refused as it stands, and a zero duration with any rate
        return group if isinstance(group, bool) or not duration else group / duration

    def build():
        SimulationParams(L=section["L"], t1=t1, t2=t2, kernel=section.get("kernel", "NN"),
                         omega=rate("OmegaT1", math.pi / 2, t1), epsilon=rate("epsT1", 0.0, t1),
                         v=rate("VT1", 0.0, t1), f=rate("FT2", 0.0, t2))

    assert refuses(lambda: parse_params(section), ConfigError) == refuses(build, ValueError)
    # and parse_config lets nothing but a ConfigError escape, whatever the
    # command and the initial state: any other exception fails the test
    refuses(lambda: parse_config(json.dumps({"command": command, "params": section, "initial_state": state})),
            ConfigError)


@settings(max_examples=300, deadline=None)
@given(section=st.sampled_from(AXIS_NAMES + ("bogus",)).flatmap(lambda name: st.fixed_dictionaries(
    {"name": st.just(name), "values": st.lists(NUMBERS if name in RATE_AXES else RAW, max_size=3)}
)))
def test_parse_axis_refuses_exactly_what_sweep_axis_refuses(section):
    name, values = section["name"], section["values"]
    converted = [convert(value) for value in values] if name in RATE_AXES else values
    assert (refuses(lambda: _parse_axis(section, "axis"), ConfigError)
            == refuses(lambda: SweepAxis(name, tuple(converted)), ValueError))


def make_config(**overrides):
    data = {"command": "series", "params": {"L": 3}, "n_cycles": 10}
    data.update(overrides)
    return json.dumps(data)


def test_parse_config_minimal_series():
    cfg = parse_config(make_config())
    assert cfg.command == "series"
    assert cfg.params.L == 3
    assert cfg.n_cycles == 10
    assert cfg.initial_state is None  # all ones
    for flag in ("threads", "out_format", "figure"):  # flags only, and no table format at all
        assert not hasattr(cfg, flag)


@settings(max_examples=100, deadline=None)
@given(
    L=st.integers(1, 14),
    kernel=st.sampled_from(KERNEL_VARIANTS),
    rates=st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
    durations=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=2),
    data=st.data(),
)
def test_config_round_trips_sidecar_params(L, kernel, rates, durations, data):
    # a sidecar's params, written back as a config in the dimensionless
    # spellings, parse to the same point: L, the durations and the kernel bit
    # for bit, each rate to within the rounding of one product and one division
    omega, epsilon, v, f = rates
    t1, t2 = durations
    params = SimulationParams(L=L, omega=omega, epsilon=epsilon, v=v, f=f, t1=t1, t2=t2, kernel=kernel)
    meta = json.loads(json.dumps(params_metadata(params)))
    bits = data.draw(st.text(alphabet="01", min_size=L, max_size=L))
    n_cycles = data.draw(st.integers(1, 10_000))
    groups = meta["dimensionless"]
    scaled = {"L": meta["L"], "T1": meta["t1"], "T2": meta["t2"], "kernel": meta["kernel"],
              "OmegaT1": groups["omega_t1"], "epsT1": groups["epsilon_t1"], "VT1": groups["v_t1"],
              "FT2": groups["f_t2"]}
    cfg = parse_config(json.dumps({"command": "series", "params": scaled, "initial_state": bits,
                                   "n_cycles": n_cycles}))
    assert (cfg.params.L, cfg.params.t1, cfg.params.t2, cfg.params.kernel) == (L, t1, t2, kernel)
    assert cfg.initial_state == bits and cfg.n_cycles == n_cycles
    for name in ("omega", "epsilon", "v", "f"):
        assert getattr(cfg.params, name) == pytest.approx(getattr(params, name), rel=1e-15, abs=1e-300)


def test_parse_config_initial_state_forms():
    assert parse_config(make_config(initial_state="101")).initial_state == "101"
    # a point command's state is a bit string of its L, checked as the config loads
    triples = [[0, 0.7071067811865476, 0.0], [7, 0.0, 0.7071067811865476]]
    for command in ("series", "overlaps"):
        for bits, message in (("10", "length-3 bit strings, got '10'"), ("10x", "bit strings, got '10x'"),
                              ("", "bit strings, got ''"), (101, "bit strings, got 101"),
                              (triples, re.escape(f"bit strings, got {triples}"))):
            with pytest.raises(ConfigError, match=f"^config: initial_state takes {message}$"):
                parse_config(json.dumps({"command": command, "params": {"L": 3}, "initial_state": bits}))
    with pytest.raises(ConfigError, match="initial_state: expected a bit string, got 'all_ones'"):
        parse_config(make_config(initial_state="all_ones"))  # left out for all ones


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
                {"name": "epsilon", "values": [0.0, 0.1, 0.2]},
                {"name": "F_T2", "values": [0.0, "pi/10"]},
            ],
            "observable": "a_pi",
        },
        "n_cycles": 10,
    }
    cfg = parse_config(json.dumps(data))
    assert cfg.sweep is not None
    assert cfg.sweep.axes[0].values == (0.0, 0.1, 0.2)
    assert cfg.sweep.axes[1].values[1] == pytest.approx(math.pi / 10)
    assert cfg.sweep.observable == "a_pi"
    assert (cfg.sweep.n_cycles, cfg.sweep.n_max, cfg.sweep.initial_state) == (10, 5000, "all_ones")
    data["sweep"]["grid_cap"] = 5  # the grid holds 6 points
    with pytest.raises(ConfigError, match="sweep: grid of 6 points exceeds the cap of 5"):
        parse_config(json.dumps(data))


def test_parse_sweep_rejects_bad_initial_state():
    # a bad state used to fail every point and still exit 0
    def sweep_cfg(axes, **fields):
        sweep = {"axes": axes, "observable": "a_pi"}
        return json.dumps({"command": "sweep", "params": {"L": 3}, "sweep": sweep, **fields})

    f_axis = [{"name": "F_T2", "values": [0.0]}]
    l_axis = [{"name": "L", "values": [2, 3]}]
    with pytest.raises(ConfigError, match=r"^sweep: initial_state takes bit strings, got '10x'"):
        parse_config(sweep_cfg(f_axis, initial_state="10x"))
    with pytest.raises(ConfigError, match=r"^sweep: initial_state takes bit strings, got 101"):
        parse_config(sweep_cfg(f_axis, initial_state=101))
    with pytest.raises(ConfigError, match=r"^sweep: initial_state takes length-3 bit strings, got '10'"):
        parse_config(sweep_cfg(f_axis, initial_state="10"))
    with pytest.raises(ConfigError, match=r"^sweep: initial_state takes bit strings, got '1x'"):
        parse_config(sweep_cfg(l_axis, initial_state="1x"))
    with pytest.raises(ConfigError, match=r"^sweep: initial_state takes length-3 bit strings, got '10'"):
        parse_config(sweep_cfg(f_axis + [{"name": "initial_state", "values": ["101", "10"]}]))
    with pytest.raises(ConfigError, match=r"sweep\.axes\[1\]: initial_state takes bit strings, got '1o1'"):
        parse_config(sweep_cfg(f_axis + [{"name": "initial_state", "values": ["101", "1o1"]}]))
    # all ones is the state left out; an axis names it, and it fits every L
    with pytest.raises(ConfigError, match=r"^initial_state: expected a bit string, got 'all_ones'"):
        parse_config(sweep_cfg(f_axis, initial_state="all_ones"))
    assert parse_config(sweep_cfg(f_axis)).sweep.initial_state == "all_ones"
    states = [{"name": "initial_state", "values": ["all_ones", "10"]}]
    assert parse_config(sweep_cfg(l_axis + states)).sweep.axes[1].values == ("all_ones", "10")
    # the length is free when L is swept
    assert parse_config(sweep_cfg(l_axis, initial_state="10")).sweep.initial_state == "10"
    assert parse_config(sweep_cfg(f_axis, initial_state="101")).sweep.initial_state == "101"


def test_sweep_refuses_an_amplitude_list_initial_state():
    # a sweep used to drop the list silently and run from the all-ones state
    sweep = {"axes": [{"name": "F_T2", "values": [0.0, 0.1]}], "observable": "a_pi"}
    data = {"command": "sweep", "params": {"L": 2}, "sweep": sweep, "initial_state": [[1, 1.0, 0.0]]}
    with pytest.raises(ConfigError, match=re.escape("sweep: initial_state takes bit strings, got [[1, 1.0, 0.0]]")):
        parse_config(json.dumps(data))
    assert parse_config(json.dumps(dict(data, initial_state="10"))).sweep.initial_state == "10"


@pytest.mark.parametrize(
    "data, message",
    [
        # --figure is the only spelling of a figure, and every table is a CSV
        (make_config(output={"format": "json", "extra": 1}), r"config: unknown keys \['output'\]"),
        (make_config(figure="fig2"), r"config: unknown keys \['figure'\]"),
        (make_config(sweep={"axes": [{"name": "F_T2", "values": [0.0]}], "observable": "a_pi"}),
         "sweep: only the 'sweep' command takes it, not 'series'"),
    ],
    ids=["output_extra_key", "figure_on_series", "sweep_on_series"],
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
    with pytest.raises(ConfigError, match=r"sweep\.axes\[0\]\.values: expected a list"):
        parse_config(sweep_cfg([{"name": "epsilon"}]))
    with pytest.raises(ConfigError, match="observable"):
        parse_config(sweep_cfg([{"name": "epsilon", "values": [0.1]}], observable="energy"))
    # ranges are gone: an axis lists its values
    with pytest.raises(ConfigError, match=r"sweep\.axes\[0\]: unknown keys \['start', 'step', 'stop'\]"):
        parse_config(sweep_cfg([{"name": "epsilon", "start": 0, "stop": 1, "step": 0.5}]))


def sweep_config(axis):
    return json.dumps({"command": "sweep", "params": {"L": 3},
                       "sweep": {"axes": [axis], "observable": "a_pi"}})


def test_parse_config_num_range():
    # ranges are gone: a num range names its keys, and its values are listed
    with pytest.raises(ConfigError, match=r"sweep\.axes\[0\]: unknown keys \['num', 'start', 'stop'\]"):
        parse_config(sweep_config({"name": "epsilon", "start": 0.0, "stop": 0.5, "num": 6}))
    values = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    assert parse_config(sweep_config({"name": "epsilon", "values": values})).sweep.axes[0].values == tuple(values)


def test_parse_config_l_ranges_give_whole_site_counts():
    # a fractional L used to be truncated at its point: L = 2.5 ran at L = 2;
    # an L range is now refused, and listed L values must be whole
    with pytest.raises(ConfigError, match=r"sweep\.axes\[0\]: unknown keys \['start', 'step', 'stop'\]"):
        parse_config(sweep_config({"name": "L", "start": 2, "stop": 3, "step": 0.5}))
    with pytest.raises(ConfigError, match=r"sweep\.axes\[0\]: L takes whole site counts, got 2\.5"):
        parse_config(sweep_config({"name": "L", "values": [2, 2.5]}))
    assert parse_config(sweep_config({"name": "L", "values": [4, 3, 2]})).sweep.axes[0].values == (4, 3, 2)


def test_parse_config_rejects_reversed_step_range():
    # stop < start used to give the one value `start`; every step range is
    # now refused, naming its keys
    with pytest.raises(ConfigError, match=r"sweep\.axes\[0\]: unknown keys \['start', 'step', 'stop'\]"):
        parse_config(sweep_config({"name": "epsilon", "start": 0.5, "stop": 0.0, "step": 0.1}))
    assert parse_config(sweep_config({"name": "epsilon", "values": [0.5]})).sweep.axes[0].values == (0.5,)


def test_site_cap_is_a_config_error():
    with pytest.raises(ConfigError, match="params: L=15 exceeds the site cap of 14"):
        parse_config(make_config(params={"L": 15}))
    axis = {"name": "L", "values": [3, 15]}
    data = {"command": "sweep", "params": {"L": 3}, "sweep": {"axes": [axis], "observable": "a_pi"}}
    with pytest.raises(ConfigError, match=r"sweep\.axes\[0\]: L=15 exceeds the site cap of 14"):
        parse_config(json.dumps(data))
    assert parse_config(make_config(params={"L": 14}, n_cycles=2)).params.L == 14


def test_parse_config_output_and_threads():
    for key in ("seed", "threads", "output"):  # no longer config keys
        with pytest.raises(ConfigError, match=f"unknown keys \\['{key}'\\]"):
            parse_config(make_config(**{key: 4}))
    with pytest.raises(ConfigError, match="threads"):
        parse_config(make_config(threads=0))
    with pytest.raises(ConfigError, match="n_cycles"):
        parse_config(make_config(n_cycles=-5))


def test_parse_config_rejects_unusable_cycle_counts():
    with pytest.raises(ConfigError, match="n_cycles.*even"):
        parse_config(json.dumps({"command": "spectrum", "params": {"L": 2}, "n_cycles": 101}))
    with pytest.raises(ConfigError, match="n_max"):
        parse_config(json.dumps({"command": "lifetime", "params": {"L": 2}, "n_max": 1}))
    sweep = {"axes": [{"name": "F_T2", "values": [0.0]}], "observable": "a_pi"}
    with pytest.raises(ConfigError, match="even"):
        parse_config(json.dumps({"command": "sweep", "params": {"L": 2}, "sweep": sweep, "n_cycles": 101}))
    assert parse_config(json.dumps({"command": "series", "params": {"L": 2}, "n_cycles": 101})).n_cycles == 101


@pytest.mark.parametrize(
    "sweep_fields, path",
    [
        ({"grid_cap": 2.5}, "sweep.grid_cap"),
        ({"axes": [{"name": "L", "values": [3, 0]}]}, r"sweep.axes\[0\].values"),
        ({"grid_cap": True}, "sweep.grid_cap"),
        ({"axes": [{"name": "L", "values": [3.7, True]}]}, r"sweep.axes\[0\].values"),
        ({"axes": [{"name": "L", "values": [3, True]}]}, r"sweep.axes\[0\].values"),
    ],
)
def test_parse_sweep_rejects_non_integer_counts(sweep_fields, path):
    # each would otherwise be truncated (2.5 -> 2, 3.7 -> 3, true -> 1) or,
    # as L = 0, fail at its point; the refusal names the section that holds
    # the value, `path` without its last key
    sweep = {"axes": [{"name": "F_T2", "values": [0.0]}], "observable": "a_pi", **sweep_fields}
    section = path.rsplit(".", 1)[0]
    with pytest.raises(ConfigError, match=f"^{section}: (grid_cap|L) (must be a positive integer|takes whole)"):
        parse_config(json.dumps({"command": "sweep", "params": {"L": 2}, "sweep": sweep}))


@pytest.mark.parametrize(
    "fields",
    [{"num": 11}, {"step": 0.1}, {"step": 5e-324}],  # 11 values, and a count that overflows a float
    ids=["num", "step", "step_overflow"],
)
def test_range_over_grid_cap_is_refused_before_its_values_are_built(monkeypatch, fields):
    # a range of 10**9 values used to be built in full before the grid was
    # compared with the cap, and to end in a MemoryError; a range is now
    # refused by its keys, before any axis is built
    built = []
    monkeypatch.setattr(config, "SweepAxis", lambda name, values: built.append(values))
    axis = {"name": "F_T2", "start": 0.0, "stop": 1.0, **fields}
    data = {"command": "sweep", "params": {"L": 2}, "sweep": {"axes": [axis], "observable": "a_pi", "grid_cap": 10}}
    with pytest.raises(ConfigError, match=r"sweep\.axes\[0\]: unknown keys \["):
        parse_config(json.dumps(data))
    assert built == []


def test_readme_config_examples_parse():
    # the README's configs (its heredocs, the quick-start run.json first)
    # are the documented schema; each must parse as written
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    examples = re.findall(r"<<'EOF'\n(.*?)\nEOF\n", readme, re.S)
    assert [parse_config(example).command for example in examples] == ["spectrum", "sweep"]
    # and the export sentence of "Library use" names exactly the package's __all__
    library = readme.split("## Library use", 1)[1]
    exports = re.search(r"`import starkdtc` exports the documented API only: (.*?)\.  ", library, re.S).group(1)
    assert sorted(re.findall(r"`([^`]+)`", exports)) == sorted(starkdtc.__all__)
