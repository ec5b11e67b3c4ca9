"""The benchmark's own tests.

    python3 -m pytest perfbench -q

A tiny-size smoke run of every workload, untraced and traced, checks that
the output carries every metric BENCHMARK.json declares with its unit, and
every named report line; the span tests check self time.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Span, Tracer, self_times, union_length  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORTED = {
    "metric_sweep": [("metric_calls_per_s", "calls/s"), ("metric_calls_per_s_wide", "calls/s")],
    "sampling": [("uniform_draws_per_s", "draws/s"), ("mh_steps_per_s", "steps/s"),
                 ("normalizer_samples_per_s", "samples/s")],
    "cli_batch": [("cli_start_p50_s", "s"), ("cli_start_tail_s", "s"), ("cli_script_s", "s")],
}
COMMON = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("failed_ratio", "ratio"),
          ("known_defect_ratio", "ratio")]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(REPORTED))
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    env = json.loads(next(line for line in lines if line.startswith("# env "))[6:])
    for key in ("git_commit", "python", "numpy", "scipy", "blas", "blas_threads", "nproc", "seed"):
        assert key in env
    if not trace:
        for name, unit in REPORTED[workload] + COMMON:
            assert re.search(rf"^{re.escape(name)} = \S+ {re.escape(unit)} \(n=", done.stdout, re.M), name
    assert result["failed"] == 0, "known defects are counted apart from failed"
    if workload == "sampling":
        assert re.search(r"^# known defect x\d+: langevin_normalizer overflows", done.stdout, re.M), \
            "the concentrated-S normalizer overflow is counted as a known defect"


def test_without_the_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run("metric_sweep", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_declared_metrics_match_the_code():
    from layers import PER_LAYER
    from run import END_TO_END

    assert [(m["name"], m["unit"]) for m in DECLARED["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]] == PER_LAYER


def _span(name, start, end, parent=-1):
    return Span(name, start, end, parent, "workload")


def test_self_time_is_duration_minus_union_of_children():
    spans = [
        _span("cli.process", 0.0, 10.0),
        _span("io.a", 1.0, 3.0, 0),
        _span("io.b", 2.0, 5.0, 0),   # overlaps its sibling
        _span("coords.c", 1.5, 2.0, 1),  # grandchild: covered by io.a already
        _span("metric.d", 7.0, 8.0, 0),
        _span("metric.e", 9.0, 12.0, 0),  # runs past its parent: clipped
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 1.0 + 1.0))
    assert selfs[1] == pytest.approx(2.0 - 0.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(0.5)
    assert union_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.6)]) == pytest.approx(3.0)


def test_self_times_of_recorded_spans_add_up_to_the_root():
    tracer = Tracer()

    def inner():
        return sum(range(20_000))

    def outer():
        return tracer.call("io.inner", inner) + tracer.call("io.inner", inner)

    tracer.call("cli.outer", outer)
    root, first, second = tracer.spans
    assert first.parent == second.parent == 0
    selfs = self_times(tracer.spans)
    assert sum(selfs) == pytest.approx(root.duration, rel=1e-9)
    assert selfs[0] == pytest.approx(root.duration - first.duration - second.duration)


def test_reference_angles_and_distances():
    import numpy as np

    import reference
    from graff import AffineFlat

    axis = AffineFlat(np.array([[1.0], [0.0]]), np.zeros(2))
    line = AffineFlat(np.array([[1.0], [0.0]]), np.array([0.0, 1.0]))
    thetas = reference.angles(axis, line)
    assert thetas == pytest.approx([0.0, math.pi / 4], abs=1e-15)
    assert reference.distance(thetas, "grassmann") == pytest.approx(math.pi / 4)
    point = AffineFlat(np.zeros((2, 0)), np.array([0.0, 1.0]))
    assert reference.angles(point, axis) == pytest.approx([math.pi / 4])
    assert reference.infinite_metric(np.array([0.0]), 1, "chordal") == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    assert 600 < reference.ess(rng.standard_normal(1000)) < 1500
