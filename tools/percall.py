"""Per-call times of graff's hot operations, for the working tree and its parent.

    python3 tools/percall.py [--parent HEAD] [--rounds 3] [--repeat 7] [--number 400]

Run it from the repository root.  Both trees are fresh copies in a temporary
directory, made by ``tools/bench_pairs.py``'s helpers: the parent commit from
``git archive``, the change from the working tree.  Each round runs one
process per tree, alternating which goes first; a process imports graff from
its tree and times every operation at k = 2, n = 5 with ``timeit``, keeping
the best of ``--repeat`` repeats of ``--number`` calls.  The chain and the
normalizer report per step and per sample, the SVM per point of one 1000 x 5
planted-margin cloud, and a repeat runs ``--number`` steps, samples or points
(at least one call).

The table gives, per operation and tree, the best time over all rounds and
the range of the per-process bests, in microseconds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path

import numpy
from bench_pairs import _git, copy_parent, copy_working_tree

MH_STEPS, NORMALIZER_SAMPLES, SVM_POINTS = 100, 2000, 1000


def svm_cloud(graff):
    """perfbench cli_batch's SVM cloud, unrotated: x ~ N(0, 4 I) kept when |x.w - 0.3| >= 0.5."""
    rng = numpy.random.default_rng(2019)
    w = rng.standard_normal(5)
    X = 2.0 * rng.standard_normal((10 * SVM_POINTS, 5))
    margin = X @ w - 0.3
    keep = numpy.flatnonzero(numpy.abs(margin) >= 0.5)[:SVM_POINTS]
    return graff.LabeledCloud(X[keep], numpy.sign(margin[keep]))


def operations(graff):
    """(name, callable, units of work per call): flats, steps or samples."""
    rng = graff.random_stream(20260811)
    k, n = 2, 5
    A_raw, b_raw = rng.standard_normal((n, k)), rng.standard_normal(n)
    flat, other = graff.sample_uniform(k, n, rng), graff.sample_uniform(k, n, rng)
    graff.distance(flat, other)  # caches both flats' Stiefel coordinates
    curve = graff.geodesic(flat, other)
    S = rng.standard_normal((n + 1, n + 1))
    params = graff.LangevinParams(S + S.T, k, n)
    line = graff.sample_uniform(1, n, rng)
    graff.delta_distance(flat, line)  # caches the line's Stiefel coordinates
    cloud = svm_cloud(graff)
    return [
        ("make_flat", lambda: graff.make_flat(A_raw, b_raw), 1),
        ("distance", lambda: graff.distance(flat, other), 1),
        ("equal_flats", lambda: graff.equal_flats(flat, other), 1),
        ("distance (kind as a string)", lambda: graff.distance(flat, other, "grassmann"), 1),
        ("affine_principal_angles (2-flat, 1-flat)",
         lambda: graff.affine_principal_angles(flat, line), 1),
        ("infinite_metric (2-flat, 1-flat)", lambda: graff.infinite_metric(flat, line), 1),
        ("sample_uniform", lambda: graff.sample_uniform(k, n, rng), 1),
        ("geodesic", lambda: graff.geodesic(flat, other), 1),
        ("evaluate_geodesic", lambda: graff.evaluate_geodesic(curve, 0.3), 1),
        ("MH step", lambda: graff.langevin_mh_run(params, MH_STEPS, 0.1, rng, burn_in=MH_STEPS - 1,
                                                  init=flat), MH_STEPS),
        ("normalizer per sample", lambda: graff.langevin_normalizer(params, NORMALIZER_SAMPLES, rng),
         NORMALIZER_SAMPLES),
        ("svm_hyperplane per point", lambda: graff.svm_hyperplane(cloud), SVM_POINTS),
    ]


def child(number: int, repeat: int) -> dict:
    """Best time per unit, in microseconds, of each operation in this process;
    a repeat does about ``number`` units of work, and at least one call."""
    import graff

    best = {}
    for name, call, units in operations(graff):
        calls = max(1, number // units)
        seconds = min(timeit.repeat(call, number=calls, repeat=repeat))
        best[name] = 1e6 * seconds / (calls * units)
    return best


def run_child(tree: Path, number: int, repeat: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", "--number", str(number),
         "--repeat", str(repeat)], cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{tree.name} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout)


def table(runs: dict) -> str:
    """A markdown table: per operation and tree, the best time and the range."""
    def cell(values):
        return f"{min(values):.1f} | {min(values):.1f}–{max(values):.1f}"

    lines = ["| Operation (µs) | change best | change range | parent best | parent range |",
             "| --- | --- | --- | --- | --- |"]
    for name in runs["change"][0]:
        change, parent = ([run[name] for run in runs[side]] for side in ("change", "parent"))
        lines.append(f"| {name} | {cell(change)} | {cell(parent)} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="commit to compare against")
    parser.add_argument("--rounds", type=int, default=3, help="processes per tree")
    parser.add_argument("--repeat", type=int, default=7, help="timeit repeats per process")
    parser.add_argument("--number", type=int, default=400, help="calls per repeat")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.number, args.repeat)))
        return 0

    parent = _git("rev-parse", "--short", args.parent).decode().strip()
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="percall-") as scratch:
        trees = {"parent": Path(scratch) / "parent", "change": Path(scratch) / "change"}
        copy_parent(args.parent, trees["parent"])
        copy_working_tree(trees["change"])
        for round_ in range(args.rounds):
            for side in ("parent", "change") if round_ % 2 == 0 else ("change", "parent"):
                runs[side].append(run_child(trees[side], args.number, args.repeat))
    print(f"parent {parent}, change the working tree; {args.rounds} processes each, best of "
          f"{args.repeat} x {args.number} calls; Python {sys.version.split()[0]}, "
          f"numpy {numpy.__version__}, {os.cpu_count()} CPUs")
    print(table(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
