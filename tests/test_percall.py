"""Smoke test of tools/percall.py: two trees, alternating processes, one table."""

import importlib
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OPERATIONS = ["make_flat", "distance", "equal_flats", "distance (kind as a string)",
              "affine_principal_angles (2-flat, 1-flat)", "infinite_metric (2-flat, 1-flat)",
              "sample_uniform", "geodesic", "evaluate_geodesic", "MH step", "normalizer per sample",
              "svm_hyperplane per point"]


def _percall(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("percall")


def test_table_gives_the_best_and_the_range_per_tree(monkeypatch):
    percall = _percall(monkeypatch)
    runs = {"change": [{"make_flat": 3.0}, {"make_flat": 2.5}],
            "parent": [{"make_flat": 6.0}, {"make_flat": 7.25}]}
    assert percall.table(runs).splitlines()[-1] == "| make_flat | 2.5 | 2.5–3.0 | 6.0 | 6.0–7.2 |"


def test_a_tiny_run_times_every_operation_in_both_trees(monkeypatch, capsys):
    percall = _percall(monkeypatch)
    copies = []

    def copy_source(dest: Path) -> None:  # the trees need only src/, and no git
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
        copies.append(dest.name)

    monkeypatch.setattr(percall, "_git", lambda *args: b"abc1234\n")
    monkeypatch.setattr(percall, "copy_parent", lambda rev, dest: copy_source(dest))
    monkeypatch.setattr(percall, "copy_working_tree", copy_source)
    assert percall.main(["--rounds", "2", "--repeat", "1", "--number", "1"]) == 0
    assert copies == ["parent", "change"]
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.startswith("parent abc1234, change the working tree; 2 processes each")
    assert [line.split(" | ")[0].lstrip("| ") for line in lines[2:]] == OPERATIONS
    for line in lines[2:]:
        cells = line.strip("| ").split(" | ")[1:]
        assert all(float(cell.split("–")[0]) > 0.0 for cell in cells)
