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


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


def test_verdict_gain_needs_nine_of_ten_pairs_and_a_gap_beyond_the_spread():
    change = [v + 5.0 for v in PARENT]
    assert bench_pairs.verdict(PARENT, change, "higher", 0.2) == "gain"
    assert bench_pairs.verdict(PARENT, [v - 5.0 for v in PARENT], "lower", 0.2) == "gain"
    # Eight wins of ten are not enough, however large the median gap.
    assert bench_pairs.verdict(PARENT, change[:8] + PARENT[8:], "higher", 0.2) == "within bound"
    # Ten wins by less than the parent's interquartile range (0.4) are not a gain.
    assert bench_pairs.verdict(PARENT, [v + 0.1 for v in PARENT], "higher", 0.2) == "within bound"


def test_verdict_worse_beyond_the_bound():
    assert bench_pairs.verdict(PARENT, [v * 0.7 for v in PARENT], "higher", 0.2) == "worse"
    assert bench_pairs.verdict(PARENT, [v * 1.3 for v in PARENT], "lower", 0.2) == "worse"
    assert bench_pairs.verdict(PARENT, [v * 0.9 for v in PARENT], "higher", 0.2) == "within bound"


def test_verdict_unresolved_when_the_parent_spreads_beyond_the_bound():
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 100.0, 55.0, 145.0, 100.0, 100.0]
    shuffled = noisy[5:] + noisy[:5]
    assert bench_pairs.verdict(noisy, shuffled, "higher", 0.2) == "unresolved"
    # Every change run better than every parent run resolves it, gap or not.
    assert bench_pairs.verdict(noisy, [151.0] * 10, "higher", 0.2) == "within bound"
    assert bench_pairs.verdict(noisy, [49.0] * 10, "lower", 0.2) == "within bound"
    assert bench_pairs.verdict(noisy, [v + 200.0 for v in noisy], "higher", 0.2) == "gain"


def test_each_workload_metric_carries_its_verdict(monkeypatch):
    def fake_run(tree, workload, seed, seconds):
        rate = 100.0 + seed if tree == "parent" else 200.0 + seed
        return {"correct": True, "failed": 0, "env": {},
                "metrics": {"light_per_s": {"value": rate}, "setup_s": {"value": 1.0}}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    declared = [{"name": "light_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    result = bench_pairs.bench_workload({"parent": "parent", "change": "change"}, "w",
                                        list(range(1, 11)), 1.0, declared)
    assert result["metrics"]["light_per_s"]["verdict"] == "gain"
    assert result["metrics"]["light_per_s"]["pairs_change_better"] == "10/10"
    assert result["metrics"]["setup_s"]["verdict"] == "within bound"
