"""The pair summary of tools/bench_pairs.py."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_pairs_won_follow_the_metric_direction():
    parent, change = [10.0, 12.0, 11.0, 13.0], [20.0, 12.0, 9.0, 30.0]
    higher = bench_pairs.summarize(parent, change, "1/s", "higher")
    lower = bench_pairs.summarize(parent, change, "ms", "lower")
    assert higher["pairs_change_better"] == "2/4"  # the tie counts for neither
    assert lower["pairs_change_better"] == "1/4"
    assert (higher["parent_median"], higher["change_median"]) == (11.5, 16.0)
    assert higher["change_vs_parent_pct"] == pytest.approx(39.1)
    assert higher["parent_quartiles"] == [10.75, 12.25]
    assert higher["change_values"] == change


def test_a_single_pair_has_degenerate_quartiles():
    summary = bench_pairs.summarize([2.0], [1.0], "s", "lower")
    assert summary["parent_quartiles"] == [2.0, 2.0]
    assert summary["pairs_change_better"] == "1/1"


def test_source_lines_count_newlines_of_the_package_modules(tmp_path):
    package = tmp_path / "src" / "graff"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # no final newline, as wc -l counts
    (package / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "src" / "other.py").write_text("outside\n")
    assert bench_pairs.source_lines(tmp_path) == 2
