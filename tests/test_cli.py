import csv
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import starkdtc.figures as figures_module
import starkdtc.floquet as floquet_module
import starkdtc.hamiltonian as hamiltonian_module
import starkdtc.observables as observables_module
import starkdtc.sweep as sweep_module
from starkdtc import SimulationParams, autocorrelator_series, z_product_state
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


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


SERIES_CONFIG = {
    "command": "series",
    "params": {"L": 3, "OmegaT1": "pi/2", "epsT1": 0.1, "VT1": 0.1, "FT2": 0.2},
    "n_cycles": 12,
}


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


def test_series_json_format(tmp_path):
    cfg = write_config(tmp_path, SERIES_CONFIG)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
    payload = json.loads((out / "series.json").read_text())
    assert payload["columns"] == ["n", "c"]
    assert payload["rows"][0] == [0, 1.0]
    assert payload["metadata"]["command"] == "series"


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
    data = dict(SERIES_CONFIG, command="overlaps")
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "overlaps.csv")
    assert rows[0] == ["quasi_energy", "overlap"]
    weights = [float(r[1]) for r in rows[1:]]
    assert sum(weights) == pytest.approx(1.0, abs=1e-8)
    energies = [float(r[0]) for r in rows[1:]]
    assert energies == sorted(energies)


def test_overlaps_entangled_initial_state(tmp_path):
    a = 1 / np.sqrt(2)
    data = dict(SERIES_CONFIG, command="overlaps", initial_state=[[0, a, 0.0], [7, 0.0, a]])
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    weights = [float(r[1]) for r in read_csv(out / "overlaps.csv")[1:]]
    assert sum(weights) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("vt1", [0.0, 0.1])
@pytest.mark.parametrize("command", ["series", "spectrum", "lifetime"])
def test_superposition_exits_2_before_stage1(tmp_path, monkeypatch, capsys, command, vt1):
    # these commands evolve z-product states only, at every V
    def no_stage1(params):
        raise AssertionError("stage 1 computed before the initial state was checked")

    monkeypatch.setattr(floquet_module, "stage1_unitary", no_stage1)
    a = 1 / np.sqrt(2)
    data = dict(SERIES_CONFIG, command=command, params=dict(SERIES_CONFIG["params"], VT1=vt1),
                initial_state=[[0, a, 0.0], [7, 0.0, a]])
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path, data)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert (f"config error: initial_state: {command} evolves z-product states only, "
            "so an amplitude list must hold exactly one basis state") in err
    assert not out.exists()


def test_one_basis_state_list_runs(tmp_path):
    # an amplitude list holding one basis state is a z-product state, run at any V
    one = dict(SERIES_CONFIG, initial_state=[[5, 0.0, 1.0]])
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path, one)), "--out", str(out)]) == 0
    rows = read_csv(out / "series.csv")
    assert len(rows) == SERIES_CONFIG["n_cycles"] + 2 and float(rows[1][1]) == 1.0


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
            "n_cycles": 10,
        },
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
            "n_cycles": 20,
        },
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
    assemblies = []
    assemble = floquet_module.SectorUnitary.assemble

    def counted(self, params):
        assemblies.append(params.f_t2)
        return assemble(self, params)

    # and each quasi-spectrum is gone before the next one is computed
    spectra = []
    quasi_spectrum = floquet_module.quasi_spectrum

    def held_alone(prop):
        assert all(ref() is None for ref in spectra)
        spectrum = quasi_spectrum(prop)
        spectra.append(weakref.ref(spectrum))
        return spectrum

    monkeypatch.setattr(floquet_module.SectorUnitary, "assemble", counted)
    monkeypatch.setattr(floquet_module, "quasi_spectrum", held_alone)
    assert main(["--figure", "fig2", "--out", str(tmp_path)]) == 0
    assert len(assemblies) == 1 and len(spectra) == 2
    for f_t2 in (0.0, 0.25):
        prop = floquet_module.floquet_operator(base.with_f_t2(f_t2))
        expected = autocorrelator_series(prop, z_product_state("1" * 6, base.basis), 100).rows()
        rows = read_csv(tmp_path / f"fig2_series_ft2_{f_t2:g}.csv")[1:]
        assert [[float(n), float(c)] for n, c in rows] == [[float(n), c] for n, c in expected]


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
        ([], sweep_config(n_cycles=20.9)),
        ([], sweep_config(n_max=7.5)),
        ([], sweep_config(grid_cap=True)),
        ([], sweep_config(axes=[{"name": "L", "values": [3.7, True]}])),
        ([], {**SWEEP_CONFIG, "output": {"format": "json"}}),
        (["--format", "json"], SWEEP_CONFIG),
        ([], {"command": "figure", "figure": "fig3d", "output": {"format": "json"}}),
        (["--figure", "fig3d", "--format", "json"], None),
        ([], sweep_config(initial_state="10x")),
        ([], sweep_config(initial_state="101")),
        ([], {**SWEEP_CONFIG, "params": {"L": 2}, "initial_state": [[1, 1.0, 0.0]]}),
        ([], {**SWEEP_CONFIG, "output": {"format": "csv", "extra": 1}}),
        ([], dict(SERIES_CONFIG, output={"format": "json", "extra": 1})),
        ([], dict(SERIES_CONFIG, figure="fig2")),
        ([], dict(SERIES_CONFIG, sweep=SWEEP_CONFIG["sweep"])),
    ],
)
def test_malformed_runs_exit_2_without_writing(tmp_path, monkeypatch, capsys, flags, data):
    # non-integer counts would be truncated, sweep and figure write CSV only, a
    # bad sweep initial state would fail every point, and an amplitude list on
    # a sweep, an unknown output key and another command's section would be
    # silently ignored
    def no_stage1(params):
        raise AssertionError("stage 1 computed before the config was rejected")

    monkeypatch.setattr(floquet_module, "stage1_unitary", no_stage1)
    monkeypatch.setattr(sweep_module, "stage1_unitary", no_stage1)
    out = tmp_path / "out"
    argv = ["--out", str(out), *flags]
    if data is not None:
        argv += ["--config", str(write_config(tmp_path, data))]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("expression", ["1/0", "10**400", "(-1)**0.5"],
                         ids=["zero_division", "overflow", "complex"])
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
        ({"name": "initial_state", "values": [1111, 1010]}, "initial_state takes bit strings, got 1111"),
        ({"name": "epsilon", "values": [0.1, math.nan]}, "epsilon takes finite numbers, got nan"),
        ({"name": "F_T2", "values": [0.1, "1e400"]}, "F_T2 takes finite numbers, got inf"),
        ({"name": "V", "values": ["-1e400"]}, "V takes finite numbers, got -inf"),
        ({"name": "epsilon", "start": 0.0, "stop": "1e400", "step": 0.1},
         "a range needs finite bounds, got 0.0 to inf"),
        # refused before its values are built, which a MemoryError used to end
        ({"name": "epsilon", "start": 0.0, "stop": 1.0, "num": 10**9},
         "the range has more values than the grid cap of 10000"),
    ],
    ids=["kernel", "initial_state", "epsilon_nan", "F_T2_overflow", "V_minus_inf", "range_inf", "range_over_cap"],
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
    "initial_state, message",
    [
        ([[5000, 1.0, 0.0]], "amplitude index 5000 out of range for L=12"),
        ([[0, 0.5, 0.0]], "amplitude list norm 0.5 deviates from 1"),
        # json writes and reads the NaN literal
        ([[0, math.nan, 0.0]], "amplitude of index 0 is not finite: (nan+0j)"),
        ([[5.9, 1.0, 0.0]], "amplitude index 5.9 is not an integer"),
        ([[True, 1.0, 0.0]], "amplitude index True is not an integer"),
    ],
    ids=["index_out_of_range", "off_norm", "nan_amplitude", "fractional_index", "boolean_index"],
)
def test_bad_initial_state_exits_2_before_stage1(tmp_path, monkeypatch, capsys, initial_state, message):
    def no_stage1(params):
        raise AssertionError("stage 1 computed before the initial state was checked")

    monkeypatch.setattr(floquet_module, "stage1_unitary", no_stage1)
    cfg = write_config(tmp_path, dict(SERIES_CONFIG, params={"L": 12}, initial_state=initial_state))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "data",
    [
        dict(SERIES_CONFIG, params={"L": 15}),
        sweep_config(axes=[{"name": "L", "values": [3, 15]}]),
        sweep_config(axes=[{"name": "L", "start": 13, "stop": 15, "step": 1}]),
    ],
    ids=["params", "axis_values", "axis_range"],
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
        {"command": "sweep", "sweep": {"axes": [{"name": "F_T2", "values": [0.0, 0.1]}],
                                       "observable": "a_pi", "n_cycles": 101}},
        {"command": "sweep", "sweep": {"axes": [{"name": "F_T2", "values": [0.0, 0.1]}],
                                       "observable": "lifetime", "n_max": 1}},
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
        (dict(SERIES_CONFIG, command="overlaps"), 3),
        ({"command": "sweep", "params": {"L": 3, "VT1": 0.1},
          "sweep": {"axes": [{"name": "L", "values": [3, 5, 4]}], "observable": "overlap_table"}}, 5),
        ({"command": "figure", "figure": "fig2"}, 12),
    ],
)
def test_quasi_spectrum_commands_exit_2_when_memory_is_short(tmp_path, monkeypatch, capsys, data, largest_l):
    # the estimate is checked before stage 1: no compute, no file
    def no_stage1(params):
        raise AssertionError("stage 1 computed before the memory check")

    monkeypatch.setattr(floquet_module, "_available_memory", lambda: 1000)
    monkeypatch.setattr(floquet_module, "stage1_unitary", no_stage1)
    monkeypatch.setattr(sweep_module, "stage1_unitary", no_stage1)
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert f"quasi-spectrum at L={largest_l} needs" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "data, largest_l",
    [
        (SERIES_CONFIG, 3),
        (dict(SERIES_CONFIG, command="spectrum"), 3),
        (dict(SERIES_CONFIG, command="lifetime"), 3),
        *(({"command": "sweep", "params": {"L": 3, "VT1": 0.1},
            "sweep": {"axes": [{"name": "L", "values": [3, 6, 4]}], "observable": observable}}, 6)
          for observable in ("a_pi", "lifetime", "series", "spectrum")),
        *(({"command": "figure", "figure": figure_id}, 10) for figure_id in FIGURE_IDS if figure_id != "fig2"),
    ],
)
def test_evolving_commands_exit_2_when_memory_is_short(tmp_path, monkeypatch, capsys, data, largest_l):
    # the stage-1 estimate is checked before stage 1: no compute, no file
    def no_stage1(params):
        raise AssertionError("stage 1 computed before the memory check")

    monkeypatch.setattr(floquet_module, "_available_memory", lambda: 1000)
    monkeypatch.setattr(floquet_module, "stage1_unitary", no_stage1)
    monkeypatch.setattr(sweep_module, "stage1_unitary", no_stage1)
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
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
