"""Benchmark a change against its parent commit in alternating pairs.

    python3 tools/bench_pairs.py --out BENCH_5.json

Run it from the repository root.  Both sides run ``perfbench/run.py``
untraced from fresh copies in a temporary directory: the parent commit
(``--parent``, default ``HEAD``) from ``git archive``, the change from the
working tree's tracked and untracked, not ignored, files.  For each workload
and seed the two sides form a pair; odd seeds run the parent first, even
seeds the change.  Every run lasts ``run_seconds`` from ``BENCHMARK.json``;
the default seeds 1-10 give the ten pairs a claimed gain needs.

The output follows ``BENCH_4.json``: per workload the seeds, whether every
run was correct, the most failures in one run, each run's ``# env`` record,
and for every end-to-end metric declared in ``BENCHMARK.json`` both sides'
median, quartiles and per-seed values, the change's relative difference,
the pairs the change won (ties count for neither) and a ``verdict`` against
the metric's ``bound`` (see :func:`verdict`).  It also records each
tree's ``src/graff/*.py`` line count (newlines, as ``wc -l`` counts them).
The output file is written afresh from this one run.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def copy_parent(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev))) as archive:
        archive.extractall(dest, filter="data")


def copy_working_tree(dest: Path) -> None:
    for name in _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        source = ROOT / name.decode()
        if name and source.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name.decode()).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name.decode())


def source_lines(tree: Path) -> int:
    """Lines of ``src/graff/*.py`` in a tree, counted as ``wc -l`` does."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "graff").glob("*.py"))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run; its result object plus its ``# env`` record."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{tree.name} {workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = next(json.loads(line[6:]) for line in lines if line.startswith("# env "))
    return result


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """How the change compares with the parent on one metric, given its relative ``bound``.

    In order of precedence: ``gain`` when the change wins at least 90 % of the
    pairs (rounded up) and its median is better than the parent's by more than
    the parent's interquartile range; ``worse`` when its median is worse by
    more than ``bound`` times the parent's median; ``unresolved`` when the
    parent's interquartile range exceeds ``bound`` times its median and not
    every change run beats every parent run; otherwise ``within bound``.
    """
    sign = 1.0 if better == "higher" else -1.0
    parent_median = statistics.median(parent)
    gap = sign * (statistics.median(change) - parent_median)
    q1, q3 = _quartiles(parent)
    won = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    if won >= math.ceil(0.9 * len(parent)) and gap > q3 - q1:
        return "gain"
    if gap < -bound * abs(parent_median):
        return "worse"
    separated = min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    if q3 - q1 > bound * abs(parent_median) and not separated:
        return "unresolved"
    return "within bound"


def summarize(parent: list[float], change: list[float], unit: str, better: str) -> dict:
    """Medians, quartiles and pairs won for one metric; pairs share an index."""
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    return {
        "unit": unit,
        "parent_median": round(parent_median, 4),
        "change_median": round(change_median, 4),
        "change_vs_parent_pct": round(100.0 * (change_median - parent_median) / parent_median, 1)
        if parent_median else None,
        "parent_quartiles": [round(q, 4) for q in _quartiles(parent)],
        "change_quartiles": [round(q, 4) for q in _quartiles(change)],
        "parent_values": [round(v, 4) for v in parent],
        "change_values": [round(v, 4) for v in change],
        "pairs_change_better": f"{won}/{len(parent)}",
    }


def bench_workload(trees: dict, workload: str, seeds: list[int], seconds: float,
                   declared: list[dict]) -> dict:
    runs = {"parent": [], "change": []}
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            print(f"{workload} seed {seed}: {side}", file=sys.stderr, flush=True)
            runs[side].append(run_once(trees[side], workload, seed, seconds))
    every = runs["parent"] + runs["change"]
    metrics = {}
    for metric in declared:
        parent, change = ([run["metrics"][metric["name"]]["value"] for run in runs[side]]
                          for side in ("parent", "change"))
        metrics[metric["name"]] = {
            **summarize(parent, change, metric["unit"], metric["better"]),
            "verdict": verdict(parent, change, metric["better"], metric["bound"]),
        }
    return {
        "seeds": seeds,
        "correct": all(run["correct"] for run in every),
        "failed": max(run["failed"] for run in every),
        "env": {side: [run["env"] for run in side_runs] for side, side_runs in runs.items()},
        "metrics": metrics,
    }


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write")
    parser.add_argument("--parent", default="HEAD", help="commit to compare against")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args(argv)

    seconds = declared["run_seconds"]
    parent = _git("rev-parse", "--short", args.parent).decode().strip()
    doc = {
        "command": COMMAND.format(seconds=seconds),
        "method": (f"parent ({parent}) and change (working tree) run alternately from "
                   "fresh copies of each tree (odd seeds parent first, even seeds change "
                   f"first), untraced, {seconds:g} s per run; written by tools/bench_pairs.py"),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as scratch:
        trees = {"parent": Path(scratch) / "parent", "change": Path(scratch) / "change"}
        copy_parent(args.parent, trees["parent"])
        copy_working_tree(trees["change"])
        doc["source_lines"] = {side: source_lines(tree) for side, tree in trees.items()}
        for workload in args.workloads:
            doc["workloads"][workload] = bench_workload(
                trees, workload, args.seeds, seconds, declared["end_to_end"])
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
