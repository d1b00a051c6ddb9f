import csv
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import starkdtc.figures as figures_module
import starkdtc.floquet as floquet_module
import starkdtc.hamiltonian as hamiltonian_module
import starkdtc.observables as observables_module
import starkdtc.sweep as sweep_module
from starkdtc import SimulationParams, autocorrelator_series
from starkdtc.cli import main
from starkdtc.figures import FIGURE_IDS, figure_parameters

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code, tmp_path, *args):
    """Run `code` in a fresh interpreter with the package's src on the path;
    its arguments are `tmp_path` and `args`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), *args],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return done.stdout


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def config_argv(tmp_path, data):
    """The --config flags of a config dict; a list is a run's own flags."""
    return data if isinstance(data, list) else ["--config", str(write_config(tmp_path, data))]


def exit_code(argv) -> int:
    """The exit code of `main(argv)`: its return value, or the code of the
    SystemExit that argparse raises on a command line it refuses."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


SERIES_CONFIG = {
    "command": "series",
    "params": {"L": 3, "OmegaT1": "pi/2", "epsT1": 0.1, "VT1": 0.1, "FT2": 0.2},
    "n_cycles": 12,
}


def point_config(command, **fields):
    """SERIES_CONFIG run as `command`, with only the cycle count it reads."""
    data = dict(SERIES_CONFIG, command=command, **fields)
    if command in ("overlaps", "lifetime"):
        del data["n_cycles"]
    return data


def test_series_command(tmp_path, capsys):
    cfg = write_config(tmp_path, SERIES_CONFIG)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "series.csv")
    assert rows[0] == ["n", "c"]
    assert len(rows) == 14
    assert float(rows[1][1]) == 1.0
    sidecar = json.loads((out / "series.csv.meta.json").read_text())
    assert sidecar["params"]["L"] == 3
    assert sidecar["params"]["dimensionless"]["f_t2"] == pytest.approx(0.2)
    assert str(out / "series.csv") in capsys.readouterr().out


def test_spectrum_command(tmp_path):
    data = dict(SERIES_CONFIG, command="spectrum", n_cycles=20)
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "spectrum.csv")
    assert rows[0] == ["omega", "magnitude"]
    assert len(rows) == 21
    sidecar = json.loads((out / "spectrum.csv.meta.json").read_text())
    assert 0.0 <= sidecar["a_pi"] <= 1.0 + 1e-9


def test_overlaps_command(tmp_path):
    cfg = write_config(tmp_path, point_config("overlaps"))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "overlaps.csv")
    assert rows[0] == ["quasi_energy", "overlap"]
    weights = [float(r[1]) for r in rows[1:]]
    assert sum(weights) == pytest.approx(1.0, abs=1e-8)
    energies = [float(r[0]) for r in rows[1:]]
    assert energies == sorted(energies)


@pytest.mark.parametrize("vt1", [0.0, 0.1])
@pytest.mark.parametrize("command", ["series", "spectrum", "lifetime"])
def test_superposition_exits_2_before_stage1(tmp_path, monkeypatch, capsys, command, vt1):
    # every command takes a z-product state, at every V, as its bit string
    def no_stage1(params):
        raise AssertionError("stage 1 computed before the initial state was checked")

    monkeypatch.setattr(floquet_module, "stage1_unitary", no_stage1)
    a = 1 / math.sqrt(2)
    data = point_config(command, params=dict(SERIES_CONFIG["params"], VT1=vt1),
                        initial_state=[[0, a, 0.0], [7, 0.0, a]])
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path, data)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: config: initial_state takes bit strings, got [[0, {a!r}, 0.0], [7, 0.0, {a!r}]]" in err
    assert not out.exists()


def test_lifetime_command(tmp_path):
    data = {
        "command": "lifetime",
        "params": {"L": 1, "OmegaT1": "pi/2", "epsT1": 0.05},
        "n_max": 200,
    }
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    record = json.loads((out / "lifetime.json").read_text())
    assert record["first_reversal"] == 16
    assert record["n_max"] == 200
    assert record["params"]["L"] == 1


def test_sweep_command_with_resume(tmp_path):
    data = {
        "command": "sweep",
        "params": {"L": 3, "VT1": 0.1},
        "sweep": {
            "axes": [{"name": "F_T2", "values": [0.0, 0.25]}],
            "observable": "a_pi",
        },
        "n_cycles": 10,
    }
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    first = (out / "sweep.csv").read_bytes()
    journal = (out / "sweep_journal.jsonl").read_text().splitlines()
    assert len(journal) == 3
    # a resumed run reuses every journaled point and reproduces the bytes
    assert main(["--config", str(cfg), "--out", str(out), "--resume"]) == 0
    assert (out / "sweep.csv").read_bytes() == first


def test_sweep_csv_identical_across_thread_settings(tmp_path):
    # --threads is accepted and validated, but never changes the output bytes
    data = {
        "command": "sweep",
        "params": {"L": 4, "VT1": 0.1},
        "sweep": {
            "axes": [
                {"name": "epsilon", "values": [0.1, 0.2]},
                {"name": "F_T2", "values": [0.0, 0.1, 0.2, 0.3, 0.4]},
            ],
            "observable": "a_pi",
        },
        "n_cycles": 20,
    }
    cfg = write_config(tmp_path, data)
    blobs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        assert main(["--config", str(cfg), "--out", str(out), "--threads", str(threads)]) == 0
        blobs.append((out / "sweep.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_exit_code_config_errors(tmp_path, capsys):
    assert main(["--out", str(tmp_path)]) == 2  # neither --config nor --figure
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "--out", str(tmp_path)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["--config", str(missing), "--out", str(tmp_path)]) == 2
    cfg = write_config(tmp_path, {"command": "series", "params": {"L": 0}})
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
    cfg = write_config(tmp_path, dict(SERIES_CONFIG, params={"L": 15}))
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_figure_registry_covers_all_ids():
    assert set(FIGURE_IDS) == {"fig2", "fig3a", "fig3b", "fig3c", "fig3d", "fig4a", "fig4b", "fig5"}
    for figure_id in FIGURE_IDS:
        info = figure_parameters(figure_id)
        assert "base" in info
        assert info["base"]["t1"] == 1.0
        assert info["base"]["t2"] == 10.0
    assert figure_parameters("fig2")["base"]["L"] == 12
    assert figure_parameters("fig2")["base"]["epsilon"] == pytest.approx(0.3)
    assert figure_parameters("fig3d")["kernels"] == ["NN", "NNN", "NNNN", "ALL"]
    assert figure_parameters("fig4b")["F_T2"] == [0.1, 0.2, 0.3, 0.4]
    assert figure_parameters("fig5")["initial_states"] == ["1111000000", "1111010010"]
    with pytest.raises(ValueError):
        figure_parameters("fig9")


def test_figure_command_rerun_is_byte_identical(tmp_path, monkeypatch):
    # fig4a is the cheapest figure with real dynamics content
    evolutions = []
    evolve_block = observables_module._evolve_block

    def counted(*args):
        evolutions.append(args[-1])
        return evolve_block(*args)

    monkeypatch.setattr(observables_module, "_evolve_block", counted)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["--figure", "fig4a", "--out", str(out1)]) == 0
    # the lifetime record is read off the series, not a second 5000-cycle evolution
    assert evolutions == [5000]
    assert main(["--figure", "fig4a", "--out", str(out2)]) == 0
    for name in ("fig4a_series.csv", "fig4a_lifetime.json", "fig4a_manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = json.loads((out1 / "fig4a_manifest.json").read_text())
    assert manifest["figure"] == "fig4a"
    assert manifest["parameters"]["base"]["epsilon"] == pytest.approx(0.25)
    record = json.loads((out1 / "fig4a_lifetime.json").read_text())
    assert record["n_max"] == 5000


def test_fig5_evolves_once(tmp_path, monkeypatch):
    # the spectra are read off the series just evolved: one block of four columns
    evolutions = []
    evolve_block = observables_module._evolve_block

    def counted(*args):
        evolutions.append(len(args[2]))
        return evolve_block(*args)

    for module in (observables_module, sweep_module):
        monkeypatch.setattr(module, "_evolve_block", counted)
    assert main(["--figure", "fig5", "--out", str(tmp_path)]) == 0
    assert evolutions == [4]
    series = read_csv(tmp_path / "fig5_series.csv")
    spectra = read_csv(tmp_path / "fig5_spectra.csv")
    assert series[0][:2] == spectra[0][:2] == ["initial_state", "F_T2"]
    assert len(spectra) == 1 + 4 * 100


def test_fig2_assembles_u1_once(tmp_path, monkeypatch):
    # both F*T2 series evolve from one assembly of U1's blocks, each as the
    # one-column evolution of `autocorrelator_series`, with its bits
    base = SimulationParams(L=6, omega=math.pi / 2, epsilon=0.3, v=0.1, t1=1.0, t2=10.0)
    monkeypatch.setitem(figures_module.FIGURES, "fig2", {**figures_module.FIGURES["fig2"], "base": base})
    # (U1 keeps its blocks, so the count is of the blocks assembled, one
    # even and one odd per assembly)
    assemblies = []
    assemble = floquet_module.u1_from_eigensystem

    def counted(theta, vecs):
        assemblies.append(vecs.shape[0])
        return assemble(theta, vecs)

    # and each quasi-spectrum is gone before the next one is computed
    spectra = []
    quasi_spectrum = floquet_module.quasi_spectrum

    def held_alone(prop):
        assert all(ref() is None for ref in spectra)
        spectrum = quasi_spectrum(prop)
        spectra.append(weakref.ref(spectrum))
        return spectrum

    monkeypatch.setattr(floquet_module, "u1_from_eigensystem", counted)
    monkeypatch.setattr(floquet_module, "quasi_spectrum", held_alone)
    assert main(["--figure", "fig2", "--out", str(tmp_path)]) == 0
    assert len(assemblies) == 2 and len(spectra) == 2
    for f_t2 in (0.0, 0.25):
        prop = floquet_module.floquet_operator(base.with_f_t2(f_t2))
        expected = autocorrelator_series(prop, "1" * 6, 100).values.tolist()
        rows = read_csv(tmp_path / f"fig2_series_ft2_{f_t2:g}.csv")[1:]
        assert [[float(n), float(c)] for n, c in rows] == [[float(n), c] for n, c in enumerate(expected)]


def test_no_command_builds_the_dense_h1(tmp_path, monkeypatch):
    # stage 1 scatters H1 straight into its reflection sectors; the dense
    # builder is the tests' reference only
    def no_dense_h1(params):
        raise AssertionError("the dense H1 was built")

    monkeypatch.setattr(floquet_module, "build_h1", no_dense_h1)
    monkeypatch.setattr(hamiltonian_module, "build_h1", no_dense_h1)
    params = {"L": 6, "OmegaT1": "pi/2", "epsT1": 0.1, "VT1": 0.2, "FT2": 0.2}
    sweep = {"axes": [{"name": "F_T2", "values": [0.0, 0.1]}], "observable": "a_pi"}
    for data in ({"command": "series", "params": params, "n_cycles": 20},
                 {"command": "overlaps", "params": params},
                 {"command": "sweep", "params": params, "sweep": sweep, "n_cycles": 20}):
        out = tmp_path / data["command"]
        assert main(["--config", str(write_config(tmp_path, data)), "--out", str(out)]) == 0


def test_figure_manifest_states_what_ran(tmp_path):
    # the sweep sidecars record the grids that ran; the manifest must match them
    entry_keys = {"kernel": "kernels", "initial_state": "initial_states"}
    for figure_id in ("fig3d", "fig5"):
        assert main(["--figure", figure_id, "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / f"{figure_id}_manifest.json").read_text())
        entry = figure_parameters(figure_id)
        assert manifest["parameters"] == entry
        for name in manifest["files"]:
            sidecar = json.loads((tmp_path / f"{name}.meta.json").read_text())
            assert sidecar["base_params"] == entry["base"]
            declared = [[axis, entry[entry_keys.get(axis, axis)]] for axis, _ in sidecar["axes"]]
            assert sidecar["axes"] == declared


SWEEP_CONFIG = {
    "command": "sweep",
    "params": {"L": 4, "VT1": 0.1},
    "sweep": {"axes": [{"name": "F_T2", "values": [0.0]}], "observable": "a_pi"},
}


def sweep_config(**fields):
    return {**SWEEP_CONFIG, "sweep": {**SWEEP_CONFIG["sweep"], **fields}}


@pytest.mark.parametrize(
    "flags, data",
    [
        ([], {**SWEEP_CONFIG, "n_cycles": 20.9}),
        ([], {**SWEEP_CONFIG, "n_max": 7.5}),
        ([], sweep_config(grid_cap=True)),
        ([], sweep_config(axes=[{"name": "L", "values": [3.7, True]}])),
        (["--figure", "fig3d"], SWEEP_CONFIG),
        (["--format", "json"], SWEEP_CONFIG),
        ([], {"command": "figure", "figure": "fig3d"}),
        (["--figure", "fig3d", "--format", "json"], None),
        ([], {**SWEEP_CONFIG, "initial_state": "10x"}),
        ([], {**SWEEP_CONFIG, "initial_state": "101"}),
        ([], {**SWEEP_CONFIG, "params": {"L": 2}, "initial_state": [[1, 1.0, 0.0]]}),
        ([], {**SWEEP_CONFIG, "output": {"format": "csv", "extra": 1}}),
        ([], dict(SERIES_CONFIG, output={"format": "json", "extra": 1})),
        ([], dict(SERIES_CONFIG, figure="fig2")),
        ([], dict(SERIES_CONFIG, sweep=SWEEP_CONFIG["sweep"])),
        (["--resume"], SERIES_CONFIG),
        ([], point_config("overlaps", initial_state=[[5, 1.0, 0.0]])),
        (["--format", "json"], SERIES_CONFIG),
        (["--format", "csv"], SERIES_CONFIG),
    ],
)
def test_malformed_runs_exit_2_without_writing(tmp_path, monkeypatch, capsys, flags, data):
    # non-integer counts would be truncated, a figure takes no config, a bad
    # sweep initial state would fail every point, and an amplitude list, a
    # removed section and another command's section and --resume on a run
    # that is not a sweep would be silently ignored; --format is gone (every
    # table is a CSV), and argparse refuses it as an unknown flag
    def no_stage1(params):
        raise AssertionError("stage 1 computed before the config was rejected")

    monkeypatch.setattr(floquet_module, "stage1_unitary", no_stage1)
    monkeypatch.setattr(sweep_module, "stage1_unitary", no_stage1)
    out = tmp_path / "out"
    argv = ["--out", str(out), *flags]
    if data is not None:
        argv += ["--config", str(write_config(tmp_path, data))]
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --format" in err if "--format" in flags else "config error" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "removed, message, flags, kept, data_file",
    [
        ({"command": "figure", "figure": "fig5"}, "config: unknown keys ['figure']",
         ["--figure", "fig5"], None, "fig5_series.csv"),
        (dict(SERIES_CONFIG, output={"format": "json"}), "config: unknown keys ['output']",
         [], SERIES_CONFIG, "series.csv"),
        (sweep_config(n_cycles=20), "sweep: unknown keys ['n_cycles']",
         [], {**SWEEP_CONFIG, "n_cycles": 20}, "sweep.csv"),
        (sweep_config(observable="lifetime", n_max=50), "sweep: unknown keys ['n_max']",
         [], {**sweep_config(observable="lifetime"), "n_max": 50}, "sweep.csv"),
        (sweep_config(initial_state="1010"), "sweep: unknown keys ['initial_state']",
         [], {**SWEEP_CONFIG, "initial_state": "1010"}, "sweep.csv"),
        (sweep_config(axes=[{"name": "F_T2", "start": 0.0, "stop": 0.2, "step": 0.1}]),
         "sweep.axes[0]: unknown keys ['start', 'step', 'stop']",
         [], sweep_config(axes=[{"name": "F_T2", "values": [0.0, 0.1, 0.2]}]), "sweep.csv"),
        (sweep_config(axes=[{"name": "F_T2", "start": 0.0, "stop": 0.2, "num": 3}]),
         "sweep.axes[0]: unknown keys ['num', 'start', 'stop']",
         [], sweep_config(axes=[{"name": "F_T2", "values": [0.0, 0.1, 0.2]}]), "sweep.csv"),
        # each rate only as its dimensionless group (T1 = 1, T2 = 10)
        *((point_config("series", params={"L": 3, raw: value}), f"params: unknown keys ['{raw}']",
           [], point_config("series", params={"L": 3, group: group_value}), "series.csv")
          for raw, value, group, group_value in (("Omega", 1.2, "OmegaT1", 1.2), ("epsilon", 0.1, "epsT1", 0.1),
                                                 ("V", 0.1, "VT1", 0.1), ("F", 0.025, "FT2", 0.25),
                                                 ("VT2", 1.0, "VT1", 0.1))),
        # a z-product state only as its bit string, on every command
        *((point_config(command, initial_state=[[5, 0.0, 1.0]], **counts),
           "config: initial_state takes bit strings, got [[5, 0.0, 1.0]]",
           [], point_config(command, initial_state="101", **counts), data_file)
          for command, counts, data_file in (("series", {}, "series.csv"), ("spectrum", {}, "spectrum.csv"),
                                             ("lifetime", {"n_max": 200}, "lifetime.json"),
                                             ("overlaps", {}, "overlaps.csv"))),
        # every table is a CSV: --format is an unknown flag, refused with
        # the kept config by argparse
        *((["--format", fmt], "unrecognized arguments: --format " + fmt, [], SERIES_CONFIG, "series.csv")
          for fmt in ("json", "csv")),
        # all ones as the state left out
        ({**SWEEP_CONFIG, "initial_state": "all_ones"}, "initial_state: expected a bit string, got 'all_ones'",
         [], SWEEP_CONFIG, "sweep.csv"),
        # a cycle count only where it is read
        ({"command": "lifetime", "params": {"L": 3}, "n_cycles": 10}, "n_cycles: lifetime does not read it",
         [], {"command": "lifetime", "params": {"L": 3}}, "lifetime.json"),
        ({**point_config("overlaps"), "n_cycles": 10}, "n_cycles: overlaps does not read it",
         [], point_config("overlaps"), "overlaps.csv"),
        ({**SWEEP_CONFIG, "n_max": 9}, "n_max: a_pi does not read it", [], SWEEP_CONFIG, "sweep.csv"),
        ({**sweep_config(observable="overlaps"), "n_cycles": 10}, "n_cycles: overlaps does not read it",
         [], sweep_config(observable="overlaps"), "sweep.csv"),
        # the overlaps table under the point command's name
        (sweep_config(observable="overlap_table"),
         "sweep: observable must be one of ('a_pi', 'lifetime', 'series', 'spectrum', 'overlaps'), "
         "got 'overlap_table'", [], sweep_config(observable="overlaps"), "sweep.csv"),
    ],
    ids=["figure_command", "output_format", "sweep_n_cycles", "sweep_n_max", "sweep_initial_state",
         "step_range", "num_range", "Omega", "epsilon", "V", "F", "VT2", "series_list", "spectrum_list",
         "lifetime_list", "overlaps_list", "format_json", "format_csv", "all_ones", "lifetime_n_cycles",
         "overlaps_n_cycles", "a_pi_n_max", "overlaps_sweep_n_cycles", "overlap_table"],
)
def test_removed_spellings_exit_2_naming_the_key(tmp_path, capsys, removed, message, flags, kept, data_file):
    # each setting and model input has one spelling: the removed one names
    # its key or flag and writes nothing, and the kept one (`flags` with the
    # config `kept`) runs; a removed flag (a list) is given with `kept`
    def no_stage1(params):
        raise AssertionError("stage 1 computed before the removed spelling was refused")

    out = tmp_path / "out"
    with pytest.MonkeyPatch.context() as patch:
        for module in (floquet_module, sweep_module):
            patch.setattr(module, "stage1_unitary", no_stage1)
        if isinstance(removed, list):
            argv = [*removed, "--config", str(write_config(tmp_path, kept))]
        else:
            argv, message = ["--config", str(write_config(tmp_path, removed))], f"config error: {message}"
        assert exit_code([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    argv = ["--out", str(out), *flags]
    if kept is not None:
        argv += ["--config", str(write_config(tmp_path, kept))]
    assert main(argv) == 0
    assert (out / data_file).stat().st_size > 0


@pytest.mark.parametrize(
    "data, message",
    [
        (dict(SERIES_CONFIG, params={"L": True}), "params: L must be a positive integer, got True"),
        (sweep_config(axes=[{"name": "L", "values": [True]}]), "sweep.axes[0]: L takes whole site counts, got True"),
        (sweep_config(axes=[{"name": "epsilon", "values": [True]}]),
         "sweep.axes[0].values: expected a number, got a boolean"),
        (sweep_config(axes=[{"name": "initial_state", "values": ["10x"]}]),
         "sweep.axes[0]: initial_state takes bit strings, got '10x'"),
        ({**SWEEP_CONFIG, "n_cycles": 2.5}, "sweep: n_cycles must be a positive integer, got 2.5"),
        ({**SWEEP_CONFIG, "n_cycles": True}, "sweep: n_cycles must be a positive integer, got True"),
        (sweep_config(grid_cap=2.5), "sweep: grid_cap must be a positive integer, got 2.5"),
        ({**SWEEP_CONFIG, "initial_state": "10x"}, "sweep: initial_state takes bit strings, got '10x'"),
        (dict(SERIES_CONFIG, initial_state=5), "config: initial_state takes bit strings, got 5"),
        # a state that misfits one L value used to exit 0 with a ValueError row
        ({**sweep_config(axes=[{"name": "L", "values": [3, 4]}]), "initial_state": "1111"},
         "sweep: initial_state takes length-3 bit strings, got '1111'"),
        # a long value is named by its type and length; each used to be echoed whole
        (dict(SERIES_CONFIG, params={"L": 3, "kernel": "X" * 5000}),
         "params: unknown kernel variant str of length 5000, expected one of ('NN', 'NNN', 'NNNN', 'ALL')"),
        (dict(SERIES_CONFIG, n_cycles="9" * 5000), "config: n_cycles must be a positive integer, got str of length 5000"),
        (dict(SERIES_CONFIG, params={"L": 3, "FT2": "x" * 5000}),
         "params.FT2: unsupported numeric expression str of length 5000"),
    ],
    ids=["params_bool_L", "axis_bool_L", "axis_bool_epsilon", "axis_state", "fractional_n_cycles",
         "bool_n_cycles", "fractional_grid_cap", "sweep_state", "point_state", "l_axis_state", "long_kernel",
         "long_n_cycles", "long_expression"],
)
def test_inputs_the_run_types_refuse_exit_2_naming_the_key(tmp_path, monkeypatch, capsys, data, message):
    # the config side of test_sweep.py::test_run_types_refuse_bad_inputs
    def no_stage1(params):
        raise AssertionError("stage 1 computed before the input was refused")

    monkeypatch.setattr(floquet_module, "stage1_unitary", no_stage1)
    monkeypatch.setattr(sweep_module, "stage1_unitary", no_stage1)
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path, data)), "--out", str(out)]) == 2
    assert f"config error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_output_path_that_is_a_directory_exits_2(tmp_path, capsys):
    # the final rename used to raise IsADirectoryError with a traceback (exit 1)
    out = tmp_path / "out"
    (out / "series.csv").mkdir(parents=True)
    cfg = write_config(tmp_path, {"command": "series", "params": {"L": 3}, "n_cycles": 4})
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "i/o error: " in err and "series.csv" in err
    assert [path.name for path in out.iterdir()] == ["series.csv"]  # no .tmp file left
    assert (out / "series.csv").is_dir()


def test_out_of_memory_during_a_run_exits_2(tmp_path, monkeypatch, capsys):
    # n_cycles = 10**13 at L=1 used to end in numpy's MemoryError with a
    # traceback (exit 1); raised here without allocating, since under
    # overcommit a huge np.zeros can succeed
    message = "Unable to allocate 72.8 TiB for an array with shape (10000000000001, 1) and data type complex128"

    def no_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(observables_module, "_evolve_block", no_memory)
    cfg = write_config(tmp_path, {"command": "series", "params": {"L": 1}, "n_cycles": 10**13})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert f"memory error: {message}" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_value_error_during_a_run_is_not_a_config_error(tmp_path, monkeypatch, capsys):
    # the config is checked whole before the run starts, so a ValueError
    # raised while it computes is a fault of the program: it used to be
    # reported as a config error (exit 2) and now ends in its traceback
    def broken(*args):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(observables_module, "_evolve_block", broken)
    cfg = write_config(tmp_path, SERIES_CONFIG)
    with pytest.raises(ValueError, match="^operands could not be broadcast together$"):
        main(["--config", str(cfg), "--out", str(tmp_path / "out")])
    assert "config error" not in capsys.readouterr().err


# a sweep over two stage-1 keys (the epsilon values), two points each
TWO_KEY_SWEEP = {
    "command": "sweep",
    "params": {"L": 3, "VT1": 0.1},
    "sweep": {"axes": [{"name": "epsilon", "values": [0.1, 0.2]}, {"name": "F_T2", "values": [0.0, 0.25]}],
              "observable": "a_pi"},
}


def plant(monkeypatch, name, exc, skip=0):
    """Make the call after the first `skip` calls of the sweep's `name` (a function it calls) raise `exc`."""
    call = getattr(sweep_module, name)
    calls = []

    def planted(*args):
        calls.append(args)
        if len(calls) == skip + 1:
            raise exc
        return call(*args)

    monkeypatch.setattr(sweep_module, name, planted)


@pytest.mark.parametrize(
    "planted, skip, data, tables, marked",
    [
        # stage 1 marks every point of its key: here the second key's two
        ("stage1_unitary", 1, TWO_KEY_SWEEP, ["sweep.csv"], [2]),
        # an overlap table marks its own point only: here the third
        ("overlaps", 2, {**TWO_KEY_SWEEP, "sweep": {**TWO_KEY_SWEEP["sweep"], "observable": "overlaps"}},
         ["sweep.csv"], [1]),
        # a grid figure: its one key's four points, in both tables
        ("stage1_unitary", 0, None, ["fig5_series.csv", "fig5_spectra.csv"], [4, 4]),
    ],
    ids=["stage1", "overlaps", "fig5"],
)
def test_a_numeric_marker_exits_3_with_the_table_written(tmp_path, monkeypatch, capsys, planted, skip, data,
                                                         tables, marked):
    # a sweep with failed points used to exit 0; a NumericError stays a
    # marker of its points, the tables are written, and the run exits 3
    plant(monkeypatch, planted, floquet_module.NumericError("W deviates from unitarity"), skip)
    out = tmp_path / "out"
    argv = ["--figure", "fig5"] if data is None else ["--config", str(write_config(tmp_path, data))]
    assert main([*argv, "--out", str(out)]) == 3
    marker = "NumericError: W deviates from unitarity"
    assert [sum(row[-1] == marker for row in read_csv(out / name)[1:]) for name in tables] == marked
    assert f"numeric error: {marked[0]} of 4 sweep points failed, the first: {marker}" in capsys.readouterr().err
    if data is not None:  # the header and the finished points: a marked point is retried on --resume
        assert len((out / "sweep_journal.jsonl").read_text().splitlines()) == 1 + 4 - marked[0]


def test_a_defect_in_a_sweep_is_not_a_marker(tmp_path, monkeypatch):
    # a TypeError used to become every point's marker, and the sweep exit 0
    plant(monkeypatch, "stage1_unitary", TypeError("unsupported operand type(s)"))
    with pytest.raises(TypeError, match="^unsupported operand"):
        main(["--config", str(write_config(tmp_path, TWO_KEY_SWEEP)), "--out", str(tmp_path)])


def test_out_of_memory_stops_a_sweep_and_resume_completes_it(tmp_path, monkeypatch, capsys):
    # a MemoryError used to be journaled as each point's marker, so --resume
    # never retried those points; now it stops the sweep (exit 2) naming the
    # point, and the journal keeps the first key's points
    cfg = write_config(tmp_path, TWO_KEY_SWEEP)
    clean = tmp_path / "clean"
    assert main(["--config", str(cfg), "--out", str(clean)]) == 0
    out = tmp_path / "out"
    with pytest.MonkeyPatch.context() as patch:
        plant(patch, "stage1_unitary", MemoryError("Unable to allocate 8.00 GiB"), skip=1)
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert "memory error: sweep point 2 (L=3, Omega=1.5707963267948966, epsilon=0.2," in capsys.readouterr().err
    journal = [json.loads(line) for line in (out / "sweep_journal.jsonl").read_text().splitlines()]
    assert [entry.get("index") for entry in journal] == [None, 0, 1]
    assert not (out / "sweep.csv").exists()
    assert main(["--config", str(cfg), "--out", str(out), "--resume"]) == 0
    assert (out / "sweep.csv").read_bytes() == (clean / "sweep.csv").read_bytes()


def test_resume_recomputes_a_journaled_failure_marker(tmp_path):
    # a journal written before failed points were left out of it holds their
    # markers as entries; --resume used to reuse a stale MemoryError marker
    # and exit 0 with it in the table
    cfg = write_config(tmp_path, TWO_KEY_SWEEP)
    clean = tmp_path / "clean"
    assert main(["--config", str(cfg), "--out", str(clean)]) == 0
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    journal = out / "sweep_journal.jsonl"
    lines = journal.read_text().splitlines()
    entry = json.loads(lines[3])
    del entry["value"]
    entry["error"] = "MemoryError: Unable to allocate 8.00 GiB"
    lines[3] = json.dumps(entry, sort_keys=True)
    journal.write_text("\n".join(lines) + "\n")
    (out / "sweep.csv").unlink()
    assert main(["--config", str(cfg), "--out", str(out), "--resume"]) == 0
    assert (out / "sweep.csv").read_bytes() == (clean / "sweep.csv").read_bytes()
    # and the stale marker line is gone: the header and one line per point
    assert len(journal.read_text().splitlines()) == 1 + 4


# the table layout of each observable: per-sample columns, per-point values
LAYOUTS = {
    "series": (("n", "c"), ()),
    "spectrum": (("omega", "magnitude"), ("a_pi",)),
    "lifetime": ((), ("n_c", "first_reversal", "reversal_depth", "n_max")),
    "overlaps": (("quasi_energy", "overlap"), ()),
}


def test_point_commands_figure_panels_and_sweeps_share_each_layout(tmp_path, monkeypatch):
    # one OBSERVABLES entry lays out a point command's CSV (per-sample
    # columns) and sidecar (per-point values), the figure panels of that
    # observable, and a sweep's value columns (both)
    base = SimulationParams(L=4, omega=math.pi / 2, epsilon=0.3, v=0.1, t1=1.0, t2=10.0)
    fig2, fig4a = figures_module.FIGURES["fig2"], figures_module.FIGURES["fig4a"]
    monkeypatch.setitem(figures_module.FIGURES, "fig2", {**fig2, "base": base})
    monkeypatch.setitem(figures_module.FIGURES, "fig4a", {**fig4a, "base": base, "n_max": 40})
    figures = tmp_path / "figures"
    for figure_id in ("fig2", "fig4a"):
        assert main(["--figure", figure_id, "--out", str(figures)]) == 0
    panels = {"series": ["fig2_series_ft2_0.csv", "fig4a_series.csv"], "spectrum": ["fig2_spectrum_ft2_0.25.csv"],
              "overlaps": ["fig2_overlaps_ft2_0.csv"], "lifetime": []}
    for observable, (samples, values) in LAYOUTS.items():
        count = sweep_module.OBSERVABLES[observable][0]
        assert sweep_module.OBSERVABLES[observable] == (count, samples, values)
        out = tmp_path / observable
        assert main(["--config", str(write_config(tmp_path, point_config(observable))), "--out", str(out)]) == 0
        if samples:
            assert read_csv(out / f"{observable}.csv")[0] == list(samples)
            sidecar = json.loads((out / f"{observable}.csv.meta.json").read_text())
        else:
            sidecar = json.loads((out / f"{observable}.json").read_text())
        assert set(values) <= set(sidecar) and not set(samples) & set(sidecar)
        for name in panels[observable]:
            assert read_csv(figures / name)[0] == list(samples)
            sidecar = json.loads((figures / f"{name}.meta.json").read_text())
            assert sidecar["panel"] == observable
            assert set(values) <= set(sidecar) and not set(samples) & set(sidecar)
        if observable == "lifetime":
            assert set(values) <= set(json.loads((figures / "fig4a_lifetime.json").read_text()))
        data = {**SWEEP_CONFIG, "params": SERIES_CONFIG["params"], **({count: 12} if count else {}),
                "sweep": {"axes": [{"name": "F_T2", "values": [0.2]}], "observable": observable}}
        assert main(["--config", str(write_config(tmp_path, data)), "--out", str(out)]) == 0
        assert read_csv(out / "sweep.csv")[0] == ["F_T2", *samples, *values, "error"]


@pytest.mark.parametrize("expression", ["1/0", "10**400", "(-1)**0.5", 10**400],
                         ids=["zero_division", "overflow", "complex", "integer_overflow"])
@pytest.mark.parametrize(
    "place, path",
    [("params", "params.FT2"), ("axis", "sweep.axes[0].values")],
)
def test_number_expression_errors_exit_2(tmp_path, capsys, expression, place, path):
    # each used to end in a traceback with exit 1
    if place == "params":
        data = dict(SERIES_CONFIG, params=dict(SERIES_CONFIG["params"], FT2=expression))
    else:
        data = sweep_config(axes=[{"name": "F_T2", "values": [0.0, expression]}])
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path, data)), "--out", str(out)]) == 2
    assert f"config error: {path}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "axis, message",
    [
        ({"name": "kernel", "values": ["NN", "XX"]}, "unknown kernel variant 'XX'"),
        ({"name": "kernel", "values": ["NN", "X" * 5000]},
         "unknown kernel variant str of length 5000, expected one of ('NN', 'NNN', 'NNNN', 'ALL')\n"),
        ({"name": "initial_state", "values": [1111, 1010]}, "initial_state takes bit strings, got 1111"),
        # named by its type and length, not echoed whole
        ({"name": "initial_state", "values": ["1" * 4999 + "x"]},
         "initial_state takes bit strings, got str of length 5000\n"),
        ({"name": "epsilon", "values": [0.1, math.nan]}, "epsilon takes finite numbers, got nan"),
        ({"name": "F_T2", "values": [0.1, "1e400"]}, "F_T2 takes finite numbers, got inf"),
        ({"name": "V", "values": ["-1e400"]}, "V takes finite numbers, got -inf"),
        # ranges are gone (an axis lists its values): their keys are refused
        ({"name": "epsilon", "start": 0.0, "stop": "1e400", "step": 0.1},
         "unknown keys ['start', 'step', 'stop']"),
        ({"name": "epsilon", "start": 0.0, "stop": 1.0, "num": 10**9},
         "unknown keys ['num', 'start', 'stop']"),
    ],
    ids=["kernel", "long_kernel", "initial_state", "long_state", "epsilon_nan", "F_T2_overflow", "V_minus_inf", "range_inf",
         "range_over_cap"],
)
def test_bad_axis_values_exit_2_at_parse_time(tmp_path, monkeypatch, capsys, axis, message):
    # an unknown kernel used to exit 0 with error rows, numbers to run as bit
    # strings, and a non-finite epsilon, F*T2 or V to exit 0 with error rows
    def no_stage1(params):
        raise AssertionError("stage 1 computed before the axis was checked")

    monkeypatch.setattr(sweep_module, "stage1_unitary", no_stage1)
    out = tmp_path / "out"
    other = {"name": "epsilon" if axis["name"] == "F_T2" else "F_T2", "values": [0.0]}
    data = sweep_config(axes=[axis, other])
    assert main(["--config", str(write_config(tmp_path, data)), "--out", str(out)]) == 2
    assert f"config error: sweep.axes[0]: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "initial_state, flags, message",
    [
        # an amplitude list is refused whole, whatever its entries
        ([[5000, 1.0, 0.0]], [], "config error: config: initial_state takes bit strings, got [[5000, 1.0, 0.0]]"),
        ([[0, 0.5, 0.0]], [], "config error: config: initial_state takes bit strings, got [[0, 0.5, 0.0]]"),
        # json writes and reads the NaN literal
        ([[0, math.nan, 0.0]], [], "config error: config: initial_state takes bit strings, got [[0, nan, 0.0]]"),
        ([[5.9, 1.0, 0.0]], [], "config error: config: initial_state takes bit strings, got [[5.9, 1.0, 0.0]]"),
        ([[True, 1.0, 0.0]], [], "config error: config: initial_state takes bit strings, got [[True, 1.0, 0.0]]"),
        ([[4095, 1.0, 0.0]], [], "config error: config: initial_state takes bit strings, got [[4095, 1.0, 0.0]]"),
        ("1" * 11, [], f"config error: config: initial_state takes length-12 bit strings, got '{'1' * 11}'"),
        # a list of 2^L triples used to be echoed whole, on one line of ~93 kB
        ([[b, 1 / 64, 0.0] for b in range(4096)], [],
         "config error: config: initial_state takes bit strings, got list of length 4096\n"),
        ("1" * 12, ["--format", "json"], "unrecognized arguments: --format json"),
        ("1" * 12, ["--format", "csv"], "unrecognized arguments: --format csv"),
    ],
    ids=["index_out_of_range", "off_norm", "nan_amplitude", "fractional_index", "boolean_index", "basis_state_list",
         "wrong_length", "amplitude_list", "format_json", "format_csv"],
)
def test_bad_initial_state_exits_2_before_stage1(tmp_path, monkeypatch, capsys, initial_state, flags, message):
    def no_stage1(params):
        raise AssertionError("stage 1 computed before the initial state was checked")

    monkeypatch.setattr(floquet_module, "stage1_unitary", no_stage1)
    cfg = write_config(tmp_path, point_config("overlaps", params={"L": 12}, initial_state=initial_state))
    out = tmp_path / "out"
    assert exit_code(["--config", str(cfg), "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "data",
    [
        dict(SERIES_CONFIG, params={"L": 15}),
        sweep_config(axes=[{"name": "L", "values": [3, 15]}]),
    ],
    ids=["params", "axis_values"],
)
def test_site_cap_exits_2_at_parse_time(tmp_path, monkeypatch, capsys, data):
    def no_stage1(params):
        raise AssertionError("stage 1 entered above the site cap")

    monkeypatch.setattr(floquet_module, "stage1_unitary", no_stage1)
    monkeypatch.setattr(sweep_module, "stage1_unitary", no_stage1)
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path, data)), "--out", str(out)]) == 2
    assert "L=15 exceeds the site cap of 14" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "data",
    [
        {"command": "spectrum", "n_cycles": 101},
        {"command": "lifetime", "n_max": 1},
        {"command": "sweep", "n_cycles": 101,
         "sweep": {"axes": [{"name": "F_T2", "values": [0.0, 0.1]}], "observable": "a_pi"}},
        {"command": "sweep", "n_max": 1,
         "sweep": {"axes": [{"name": "F_T2", "values": [0.0, 0.1]}], "observable": "lifetime"}},
    ],
)
def test_unusable_cycle_counts_exit_2_before_computing(tmp_path, monkeypatch, capsys, data):
    def no_stage1(params):
        raise AssertionError("stage 1 computed before the config was rejected")

    monkeypatch.setattr(floquet_module, "stage1_unitary", no_stage1)
    monkeypatch.setattr(sweep_module, "stage1_unitary", no_stage1)
    cfg = write_config(tmp_path, dict(data, params={"L": 4, "VT1": 0.1}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "data, largest_l",
    [
        (point_config("overlaps"), 3),
        ({"command": "sweep", "params": {"L": 3, "VT1": 0.1},
          "sweep": {"axes": [{"name": "L", "values": [3, 5, 4]}], "observable": "overlaps"}}, 5),
        (["--figure", "fig2"], 12),
    ],
)
def test_quasi_spectrum_commands_exit_2_when_memory_is_short(tmp_path, monkeypatch, capsys, data, largest_l):
    # the estimate is checked before stage 1: no compute, no file
    def no_stage1(params):
        raise AssertionError("stage 1 computed before the memory check")

    monkeypatch.setattr(floquet_module, "_available_memory", lambda: 1000)
    monkeypatch.setattr(floquet_module, "stage1_unitary", no_stage1)
    monkeypatch.setattr(sweep_module, "stage1_unitary", no_stage1)
    out = tmp_path / "out"
    assert main([*config_argv(tmp_path, data), "--out", str(out)]) == 2
    assert f"quasi-spectrum at L={largest_l} needs" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "data, largest_l",
    [
        (SERIES_CONFIG, 3),
        (dict(SERIES_CONFIG, command="spectrum"), 3),
        (point_config("lifetime"), 3),
        *(({"command": "sweep", "params": {"L": 3, "VT1": 0.1},
            "sweep": {"axes": [{"name": "L", "values": [3, 6, 4]}], "observable": observable}}, 6)
          for observable in ("a_pi", "lifetime", "series", "spectrum")),
        *((["--figure", figure_id], 10) for figure_id in FIGURE_IDS if figure_id != "fig2"),
    ],
)
def test_evolving_commands_exit_2_when_memory_is_short(tmp_path, monkeypatch, capsys, data, largest_l):
    # the stage-1 estimate is checked before stage 1: no compute, no file
    def no_stage1(params):
        raise AssertionError("stage 1 computed before the memory check")

    monkeypatch.setattr(floquet_module, "_available_memory", lambda: 1000)
    monkeypatch.setattr(floquet_module, "stage1_unitary", no_stage1)
    monkeypatch.setattr(sweep_module, "stage1_unitary", no_stage1)
    out = tmp_path / "out"
    assert main([*config_argv(tmp_path, data), "--out", str(out)]) == 2
    need = floquet_module.stage1_bytes(largest_l) / 2**30
    assert f"stage 1 at L={largest_l} needs about {need:.1f} GiB, but only 0.0 GiB" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_series_peak_memory_within_stage1_estimate(tmp_path):
    # a fresh L=11 `series` peaks in stage 1: 77 MiB above the post-import
    # baseline with its single work buffer, in-place Gram check and one
    # projection temporary, against 113 MiB with the complex temporaries of
    # `real - 1j * imag`, a whole conjugated block and `gram - eye`, which
    # the 88 MiB estimate refuses
    code = """
import json, sys
from pathlib import Path
from starkdtc.cli import main

def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))

tmp = Path(sys.argv[1])
cfg = tmp / "config.json"
cfg.write_text(json.dumps({"command": "series", "n_cycles": 20,
    "params": {"L": 11, "OmegaT1": "pi/2", "epsT1": 0.3, "VT1": 0.1, "FT2": 0.25}}))
base = peak()
assert main(["--config", str(cfg), "--out", str(tmp / "out")]) == 0
print(peak() - base)
"""
    peak = int(run_python(code, tmp_path).split()[-1])
    assert 0 < peak <= floquet_module.stage1_bytes(11)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_overlaps_peak_memory_within_estimate(tmp_path):
    # the peak above the post-import baseline of a fresh process; read as
    # VmHWM, which starts afresh at exec, where ru_maxrss can carry over
    # the peak of the process that started it
    code = """
import json, sys
from pathlib import Path
from starkdtc.cli import main

def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))

tmp, L = Path(sys.argv[1]), int(sys.argv[2])
cfg = tmp / "config.json"
cfg.write_text(json.dumps({"command": "overlaps",
    "params": {"L": L, "OmegaT1": "pi/2", "epsT1": 0.3, "VT1": 0.1, "FT2": 0.25}}))
base = peak()
assert main(["--config", str(cfg), "--out", str(tmp / "out")]) == 0
print(peak() - base)
"""
    # at L=10 the base of the estimate dominates, at L=11 its 4^L term
    for L in (10, 11):
        (tmp_path / f"L{L}").mkdir()
        peak = int(run_python(code, tmp_path / f"L{L}", str(L)).split()[-1])
        assert 0 < peak <= floquet_module.quasi_spectrum_bytes(L)


def test_commands_without_quasi_spectrum_do_not_import_scipy(tmp_path):
    # in a fresh process: the test oracles import scipy into this one
    code = """
import json, sys
from pathlib import Path
import starkdtc.cli
tmp = Path(sys.argv[1])
cfg = tmp / "config.json"
cfg.write_text(json.dumps({"command": "series",
    "params": {"L": 6, "OmegaT1": "pi/2", "epsT1": 0.1, "VT1": 0.1, "FT2": 0.2}, "n_cycles": 20}))
assert starkdtc.cli.main(["--config", str(cfg), "--out", str(tmp / "out")]) == 0
print("scipy" in sys.modules)
"""
    assert run_python(code, tmp_path).split()[-1] == "False"
