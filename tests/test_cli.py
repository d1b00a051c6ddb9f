import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import starkdtc.floquet as floquet_module
import starkdtc.observables as observables_module
import starkdtc.sweep as sweep_module
from starkdtc.cli import main
from starkdtc.figures import FIGURE_IDS, figure_parameters

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code, tmp_path):
    """Run `code` in a fresh interpreter with the package's src on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
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
    ],
)
def test_malformed_runs_exit_2_without_writing(tmp_path, monkeypatch, capsys, flags, data):
    # non-integer counts would be truncated, sweep and figure write CSV only, and a
    # bad sweep initial state would fail every point
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

tmp = Path(sys.argv[1])
cfg = tmp / "config.json"
cfg.write_text(json.dumps({"command": "overlaps",
    "params": {"L": 10, "OmegaT1": "pi/2", "epsT1": 0.3, "VT1": 0.1, "FT2": 0.25}}))
base = peak()
assert main(["--config", str(cfg), "--out", str(tmp / "out")]) == 0
print(peak() - base)
"""
    peak = int(run_python(code, tmp_path).split()[-1])
    assert 0 < peak <= floquet_module.quasi_spectrum_bytes(10)


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
