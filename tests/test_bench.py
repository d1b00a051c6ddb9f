"""The committed benchmark record: the highest-numbered BENCH_<pr>.json at
the root of the checkout, written by bench/bench.py."""

import json
import re
from pathlib import Path

from starkdtc.figures import FIGURE_IDS

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = {"api_map", "long_series", "overlaps_l12"}
END_TO_END = {"setup_s", "wall_s", "points_per_s", "peak_rss_mb", "ok_frac"}


def latest_bench() -> Path:
    numbered = [(int(m.group(1)), path) for path in ROOT.glob("BENCH_*.json")
                if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))]
    assert numbered, "no BENCH_<pr>.json at the root of the checkout"
    return max(numbered)[1]


def reject(constant):
    raise ValueError(f"{constant} is not strict JSON")


def test_latest_bench_file_is_strict_and_complete():
    path = latest_bench()
    data = json.loads(path.read_text(), parse_constant=reject)
    assert data["pr"] == int(re.search(r"\d+", path.name).group())
    assert set(data["workloads"]) == WORKLOADS
    assert set(data["figures_wall_s"]) == set(FIGURE_IDS)
    assert all(wall > 0 for wall in data["figures_wall_s"].values())
    machine = data["machine"]
    for key in ("nproc", "cpu_model", "blas", "numpy", "scipy", "git_commit", "src_sha256"):
        assert key in machine, key
    assert data["src_lines"] == machine["src_lines"] > 0
    assert type(data["exported_names"]) is int and data["exported_names"] > 0
    assert data["known_defects"]
    for name, view in data["workloads"].items():
        assert set(view["end_to_end"]) == END_TO_END, name
        for metric in view["end_to_end"].values():
            assert metric["n"] >= 5 and metric["iqr"] == metric["q3"] - metric["q1"], name
        assert view["per_layer"], name
        traces = [run["trace"] for run in view["runs"]]
        assert traces.count(0) >= 5 and traces.count(1) == 1, name
        for run in view["runs"]:
            # the record and result lines are kept verbatim
            assert json.loads(run["record_line"])["record"]["src_sha256"] == machine["src_sha256"]
            assert "metrics" in json.loads(run["result_line"])
