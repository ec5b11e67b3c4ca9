"""Per-call times of graff's hot operations, for the working tree and its parent.

    python3 tools/percall.py [--parent HEAD] [--rounds 3] [--repeat 7] [--number 400]

Run it from the repository root.  Both trees are fresh copies in a temporary
directory, made by ``tools/bench_pairs.py``'s helpers: the parent commit from
``git archive``, the change from the working tree.  Each round runs one
process per tree, alternating which goes first; a process imports graff from
its tree and times every operation at k = 2, n = 5 with ``timeit``, keeping
the best of ``--repeat`` repeats of ``--number`` calls.  ``unembed`` of one
fixed 6 x 3 matrix times the QR and the frame step; ``AffineFlat`` validates
that flat's orthonormal A and b0.  Both come from their own seeded generator,
so every other row keeps its inputs.  Both flats of a pair keep
its record, the overlap and principal angles, and a call reads the record its
first flat keeps, else its second's, so each metric row that times the kernel
goes around its own ring of fresh flats, the pairs (a, b), (b, c), (c, a) of 2-flats
(or a, l, b, m of 2-flats and lines, the 2-flat first): a flat holds the pair it
last met, never the next one, and every call computes its angles.
``distance (same pair again)`` repeats one pair and
times the stored angles, and ``distance (swapped pair)`` times both orders of
one pair, distance(a, b) and then distance(b, a), per pair, around a
ring, in which each first call meets a pair anew: where the record is kept
per unordered pair the second call reads it, where per ordered pair it computes
its own angles.  ``equal_flats``
repeats one pair and reads the stored overlap, which ``equal_flats (next partner)``
forms anew on every call.  Five rows run at
(k, n) = (32, 128), perfbench metric_sweep's widest class: ``distance``
around a ring of three (every call computes the principal-angle
kernel), then ``principal_decomposition`` and ``geodesic`` of one pair, which
read the pair's stored overlap as metric_sweep's calls do, in the order given
and, in the ``swapped`` rows, in the other: one of the two is the order the
pair's record is stored in.  The chain and the
normalizer report per step and per sample, the SVM per point of one 1000 x 5
planted-margin cloud, ``load_cloud_csv`` per row of a 10^4 x 16 CSV with a
header, and ``cli.main`` of ``sample --dist uniform --count 2000`` per flat,
stdout captured in memory; a repeat runs ``--number`` steps, samples, points,
rows or flats (at least one call).  ``MH step`` keeps one state of its chain;
``MH step (burn-in 100, thin 5)`` and ``Langevin-Gaussian step (2, 5)`` run
at perfbench sampling's schedule (600 steps, and 40 kept flats, at step size
0.35) on their own stream, so they also time each kept state's flat and
displacement.  Three fixed cold-start rows time whole
child processes of the tree, the best of ``--repeat`` runs each: ``python -m graff
convert --to stiefel`` of a line in R^2, ``python -m graff invariant --what dim 2 5``
and ``python -m graff distance`` on two lines in R^2; they include the
interpreter's own start.  (``import graff`` alone loads none of graff's modules.)

The table gives, per operation and tree, the best time over all rounds and
the range of the per-process bests, in microseconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
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
CHAIN_STEPS, BURN_IN, THIN, STEP_SIZE, GAUSSIAN_COUNT = 600, 100, 5, 0.35, 40  # perfbench sampling
CSV_ROWS, CSV_COLS, SAMPLE_COUNT = 10_000, 16, 2000


def svm_cloud(graff):
    """perfbench cli_batch's SVM cloud, unrotated: x ~ N(0, 4 I) kept when |x.w - 0.3| >= 0.5."""
    rng = numpy.random.default_rng(2019)
    w = rng.standard_normal(5)
    X = 2.0 * rng.standard_normal((10 * SVM_POINTS, 5))
    margin = X @ w - 0.3
    keep = numpy.flatnonzero(numpy.abs(margin) >= 0.5)[:SVM_POINTS]
    return graff.LabeledCloud(X[keep], numpy.sign(margin[keep]))


def write_cloud(path: Path) -> None:
    """A cloud shaped like perfbench cli_batch's fit cloud: a header, then rank 3 plus noise."""
    rng = numpy.random.default_rng(2025)
    data = rng.standard_normal((CSV_ROWS, 3)) @ rng.standard_normal((3, CSV_COLS))
    data += 0.1 * rng.standard_normal((CSV_ROWS, CSV_COLS))
    lines = [",".join(f"x{i}" for i in range(CSV_COLS))]
    lines += [",".join(format(x, ".17g") for x in row) for row in data.tolist()]
    path.write_text("\n".join(lines) + "\n")


def quiet_main(cli, argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise SystemExit(f"graff {' '.join(argv)} failed")


def operations(graff, workdir: Path):
    """(name, callable, units of work per call): flats, steps, samples or rows."""
    from graff import cli
    from graff.io import load_cloud_csv

    Y_raw = numpy.random.default_rng(2026).standard_normal((6, 3))
    fixed = graff.unembed(Y_raw)
    A_fixed, b0_fixed = numpy.array(fixed.A), numpy.array(fixed.b0)
    rng = graff.random_stream(20260811)
    k, n = 2, 5
    A_raw, b_raw = rng.standard_normal((n, k)), rng.standard_normal(n)
    flat, other = graff.sample_uniform(k, n, rng), graff.sample_uniform(k, n, rng)
    curve = graff.geodesic(flat, other)
    S = rng.standard_normal((n + 1, n + 1))
    params = graff.LangevinParams(S + S.T, k, n)
    for j in (1, k, 1):  # once the partners of the miss rows; the later rows keep their inputs
        graff.sample_uniform(j, n, rng)
    graff.distance(flat, other)  # caches both flats' Stiefel coordinates
    ring_rng = graff.random_stream(20260814)  # leaves the other rows' draws as they were

    def ring(dims, n=n, stream=ring_rng):
        """Pairs around a ring of fresh flats of dimensions ``dims``, larger k first: each flat
        holds the pair it last met, never the next one, so every call computes its record."""
        flats = [graff.sample_uniform(j, n, stream) for j in dims]
        for f in flats:
            graff.stiefel_coords(f)
        return itertools.cycle([sorted(pair, key=lambda f: -f.k)
                                for pair in zip(flats, flats[1:] + flats[:1])])

    swaps = ring((k, k, k))

    def both_orders():
        a, b = next(swaps)
        graff.distance(a, b)
        return graff.distance(b, a)

    triangles = [ring((k, k, k)) for _ in range(3)]
    squares = [ring((k, 1, k, 1)) for _ in range(2)]
    wide_rng = graff.random_stream(20260812)  # leaves the other rows' draws as they were
    wide, *wide_others = (graff.sample_uniform(32, 128, wide_rng) for _ in range(3))
    for partner in wide_others:
        graff.distance(wide, partner)
    wide_triangle = ring((32, 32, 32), 128, wide_rng)
    chain_rng = graff.random_stream(20260813)
    S = chain_rng.standard_normal((n, n))
    gaussian = graff.LangevinGaussianParams(S + S.T, 0.5, k, n)
    config = graff.MHConfig(STEP_SIZE, BURN_IN, THIN)
    cloud = svm_cloud(graff)
    write_cloud(workdir / "cloud.csv")
    sample = ["sample", "--dist", "uniform", "--k", str(k), "--n", str(n), "--seed", "1",
              "--count", str(SAMPLE_COUNT)]
    return [
        ("make_flat", lambda: graff.make_flat(A_raw, b_raw), 1),
        ("unembed", lambda: graff.unembed(Y_raw), 1),
        ("AffineFlat", lambda: graff.AffineFlat(A_fixed, b0_fixed), 1),
        ("distance", lambda: graff.distance(*next(triangles[0])), 1),
        ("distance (same pair again)", lambda: graff.distance(flat, other), 1),
        ("distance (swapped pair)", both_orders, 1),
        ("equal_flats", lambda: graff.equal_flats(flat, other), 1),
        ("equal_flats (next partner)", lambda: graff.equal_flats(*next(triangles[1])), 1),
        ("distance (kind as a string)", lambda: graff.distance(*next(triangles[2]), "grassmann"),
         1),
        ("affine_principal_angles (2-flat, 1-flat)",
         lambda: graff.affine_principal_angles(*next(squares[0])), 1),
        ("infinite_metric (2-flat, 1-flat)", lambda: graff.infinite_metric(*next(squares[1])), 1),
        ("sample_uniform", lambda: graff.sample_uniform(k, n, rng), 1),
        ("geodesic", lambda: graff.geodesic(flat, other), 1),
        ("evaluate_geodesic", lambda: graff.evaluate_geodesic(curve, 0.3), 1),
        ("distance (32, 128)", lambda: graff.distance(*next(wide_triangle)), 1),
        ("principal_decomposition (32, 128)",
         lambda: graff.principal_decomposition(wide, wide_others[0]), 1),
        ("geodesic (32, 128)", lambda: graff.geodesic(wide, wide_others[0]), 1),
        ("principal_decomposition (32, 128, swapped)",
         lambda: graff.principal_decomposition(wide_others[0], wide), 1),
        ("geodesic (32, 128, swapped)", lambda: graff.geodesic(wide_others[0], wide), 1),
        ("MH step", lambda: graff.langevin_mh_run(params, MH_STEPS, 0.1, rng, burn_in=MH_STEPS - 1,
                                                  init=flat), MH_STEPS),
        ("MH step (burn-in 100, thin 5)",
         lambda: graff.langevin_mh_run(params, CHAIN_STEPS, STEP_SIZE, chain_rng, burn_in=BURN_IN,
                                       thin=THIN, init=flat), CHAIN_STEPS),
        ("Langevin-Gaussian step (2, 5)",
         lambda: graff.langevin_gaussian_run(gaussian, GAUSSIAN_COUNT, config, chain_rng),
         BURN_IN + 1 + (GAUSSIAN_COUNT - 1) * THIN),
        ("normalizer per sample", lambda: graff.langevin_normalizer(params, NORMALIZER_SAMPLES, rng),
         NORMALIZER_SAMPLES),
        ("svm_hyperplane per point", lambda: graff.svm_hyperplane(cloud), SVM_POINTS),
        ("load_cloud_csv per row", lambda: load_cloud_csv(workdir / "cloud.csv"), CSV_ROWS),
        ("cli sample --count 2000 per flat", lambda: quiet_main(cli, sample), SAMPLE_COUNT),
    ]


COLD_STARTS = [
    ("cold: python -m graff convert", ["-m", "graff", "convert", "x.json", "--to", "stiefel"]),
    ("cold: python -m graff invariant --what dim 2 5",
     ["-m", "graff", "invariant", "--what", "dim", "2", "5"]),
    ("cold: python -m graff distance", ["-m", "graff", "distance", "x.json", "y1.json"]),
]
LINES = {"x.json": '{"n": 2, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 0.0]}',
         "y1.json": '{"n": 2, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 1.0]}'}


def cold_start(args: list, workdir: str) -> float:
    """Wall time, in seconds, of one fresh interpreter running ``args``."""
    start = timeit.default_timer()
    subprocess.run([sys.executable, *args], cwd=workdir, check=True, capture_output=True)
    return timeit.default_timer() - start


def child(number: int, repeat: int) -> dict:
    """Best time per unit, in microseconds, of each operation in this process;
    a repeat does about ``number`` units of work, and at least one call.  Each
    cold-start row is the best of ``repeat`` child processes."""
    import graff

    best = {}
    with tempfile.TemporaryDirectory(prefix="percall-child-") as workdir:
        for name, call, units in operations(graff, Path(workdir)):
            calls = max(1, number // units)
            seconds = min(timeit.repeat(call, number=calls, repeat=repeat))
            best[name] = 1e6 * seconds / (calls * units)
        for file, text in LINES.items():
            Path(workdir, file).write_text(text)
        for name, args in COLD_STARTS:
            best[name] = 1e6 * min(cold_start(args, workdir) for _ in range(repeat))
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
