"""The per-file rules of bench/figcheck.py, on small fixtures."""

import importlib.util
import math
from pathlib import Path

import pytest

FIGCHECK = Path(__file__).resolve().parents[1] / "bench" / "figcheck.py"
_spec = importlib.util.spec_from_file_location("figcheck", FIGCHECK)
figcheck = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(figcheck)

# a pair split by 1e-7 rad between two isolated rows, and a pair across +-pi
ENERGIES = [-math.pi + 2e-6, -1.0, -0.5, -0.5 + 1e-7, 0.3, math.pi - 3e-6]
OVERLAPS = [0.05, 0.1, 0.2, 0.3, 0.3, 0.05]


def overlap_csv(overlaps, energies=ENERGIES):
    rows = [f"{e!r},{w!r}" for e, w in zip(energies, overlaps)]
    return "\n".join(["quasi_energy,overlap", *rows]) + "\n"


def misses(tmp_path, name, old, new):
    """`figcheck.compare` on one file written at REV (`old`) and here (`new`)."""
    for side, text in (("old", old), ("new", new)):
        (tmp_path / side).mkdir(parents=True)
        (tmp_path / side / name).write_text(text, encoding="utf-8")
    return figcheck.compare("fig", tmp_path / "old", tmp_path / "new")


@pytest.mark.parametrize(
    "new, expected",
    [
        ([0.05, 0.1, 0.25, 0.25, 0.3, 0.05], 0),  # weight rotated inside the pair
        ([0.02, 0.1, 0.2, 0.3, 0.3, 0.08], 0),  # and inside the pair across +-pi
        ([0.05, 0.1, 0.2, 0.25, 0.35, 0.05], 1),  # weight moved across a gap
        ([0.05, 0.15, 0.15, 0.3, 0.3, 0.05], 1),  # and into the pair from outside
    ],
    ids=["rotation_in_pair", "rotation_across_pi", "moved_across_gap", "moved_into_pair"],
)
def test_overlap_tables_compare_by_pair_sums(tmp_path, capsys, new, expected):
    name = "fig2_overlaps_ft2_0.csv"
    assert misses(tmp_path, name, overlap_csv(OVERLAPS), overlap_csv(new)) == expected
    assert f"fig/{name}: largest |deviation| quasi-energy 0.000e+00" in capsys.readouterr().out


def test_overlap_tables_compare_quasi_energies(tmp_path):
    shifted = [e + 2e-12 for e in ENERGIES]
    assert misses(tmp_path, "fig2_overlaps_ft2_0.csv", overlap_csv(OVERLAPS),
                  overlap_csv(OVERLAPS, shifted)) == 1


def test_lifetimes_must_be_identical_and_long_files_keep_1e_11(tmp_path):
    header = "epsilon,F_T2,n_c,first_reversal,reversal_depth,n_max,error\n"
    old = header + "0.2,0.1,3878,356,0.5640452223663612,5000,\n"
    # a depth 6.4e-12 off
    deeper = old.replace("0.5640452223663612", "0.56404522236")
    assert misses(tmp_path / "fig4b", "fig4b_lifetime_grid.csv", old, deeper) == 0
    assert misses(tmp_path / "n_c", "fig4b_lifetime_grid.csv", old, old.replace("3878", "3879")) == 1
    # the default rule is 1e-12
    assert misses(tmp_path / "fig3b", "fig3b_api_vs_epsilon.csv", old, deeper) == 1
