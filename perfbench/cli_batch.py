"""cli_batch: a fixed script of cold ``python -m graff`` invocations.

The process path: interpreter start and ``import graff`` dominate the light
invocations, so the cli and io layers and the import graph are what this
workload measures; the in-process layers matter only in ``fit`` (CSV parsing
and SMO) and ``sample``.  Invocations run one at a time, each waiting for
the previous one to exit, and every exit code and every byte of stdout is
checked against the same public calls made in-process.

The script covers every subcommand: ``convert`` to all three targets,
``distance`` with several kinds plus ``--infinite`` and ``--verbose``,
``geodesic --t``, ``invariant``, ``sample`` (uniform with a large count, and
Langevin), ``fit`` (flat on a 10^4 x 16 CSV, regression, and SVM on a
separable 10^3 x 6 cloud), and one malformed document that must exit 2.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LIGHT, HEAVY, LATENCY = ("light",), ("heavy",), "light"

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
FIT_ROWS, FIT_COLS = 10_000, 16
REGRESSION_ROWS, SVM_ROWS, FEATURES = 2_000, 1_000, 5
UNIFORM_COUNT, LANGEVIN_COUNT, BURN_IN, THIN = 2_000, 50, 200, 5
TIMEOUT_S = 120
INTERPRETER_REF_S = 0.06


def child_env() -> dict:
    """This process's environment (one BLAS thread) with this tree's source on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Command:
    argv: list
    cls: str
    code: int
    stdout: str

    @property
    def sub(self) -> str:
        return self.argv[0]


class Workload:
    rss = "children"

    def __init__(self, graff, seed: int, workdir: Path, scale: float = 1.0):
        self.graff = graff
        self.seed = seed
        self.dir = Path(workdir)
        self.scale = scale
        self.env = child_env()
        # Child processes are calibrated by the interpreter's own start.
        self.calibration = (self._interpreter_start, INTERPRETER_REF_S, 3)

    def setup(self) -> None:
        """Documents and CSVs from the seed, expected outputs, one warm-up invocation."""
        self.script = _build_script(self.graff, self.seed, self.dir, self.scale)
        self._invoke([sys.executable, "-m", "graff", "invariant", "--what", "dim", "2", "5"])

    def run(self, seconds: float, clock, tracer=None) -> dict:
        scripts = []
        deadline = time.perf_counter() + seconds
        elapsed = 0.0
        index = 0
        # Whole scripts only, so every run times the same mix of commands.
        while index == 0 or index % len(self.script) or time.perf_counter() < deadline:
            command = self.script[index % len(self.script)]
            with clock.round(command.cls, index % len(self.script)):
                wall = self._timed(command, clock, tracer)
            elapsed += wall
            index += 1
            if index % len(self.script) == 0:
                scripts.append(elapsed)
                elapsed = 0.0
        if tracer is not None:
            for _ in range(3):
                tracer.call("cli.interpreter", self._invoke, [sys.executable, "-c", "pass"])
            self.warm_pass(tracer, clock)
        return {"cli_script_s": scripts}

    @staticmethod
    def report(clock, props) -> list[tuple]:
        from harness import median, tail

        light = clock.latencies("light")
        value, pct = tail(light) if light else (0.0, 0.0)
        scripts = props["cli_script_s"]
        return [
            ("cli_start_p50_s", median(light), "s", len(light)),
            ("cli_start_tail_s", value, "s", f"{len(light)}, p{pct:.1f}"),
            ("cli_script_s", median(scripts) / clock.speed(), "s", len(scripts)),
        ]

    def warm_pass(self, tracer, clock) -> None:
        """Each command once through ``graff.cli.main`` in this process."""
        import graff.cli

        for command in self.script:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
                code = tracer.call(f"cli.main.{command.sub}", graff.cli.main, command.argv)
            clock.attempted += 1
            clock.check(code == command.code and buffer.getvalue() == command.stdout,
                        f"in-process {' '.join(command.argv[:3])} differs from the reference")

    def _interpreter_start(self) -> float:
        start = time.perf_counter()
        self._invoke([sys.executable, "-c", "pass"])
        return time.perf_counter() - start

    def _invoke(self, argv):
        return subprocess.run(argv, cwd=self.dir, env=self.env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)

    def _timed(self, command, clock, tracer) -> float:
        clock.attempted += 1
        if tracer is None:
            argv = [sys.executable, "-m", "graff", *command.argv]
        else:
            spans_path = self.dir / "child-spans.json"
            argv = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans_path), *command.argv]
        start = time.perf_counter()
        try:
            if tracer is None:
                done = self._invoke(argv)
            else:
                parent = len(tracer.spans)
                done = tracer.call("cli.process", self._invoke, argv)
        except subprocess.TimeoutExpired:
            clock.fail(f"graff {command.sub} timed out after {TIMEOUT_S} s")
            return time.perf_counter() - start
        wall = time.perf_counter() - start
        if tracer is not None and spans_path.is_file():
            tracer.adopt(parent, json.loads(spans_path.read_text()))
            spans_path.unlink()
        ok = clock.check(done.returncode == command.code,
                         f"graff {' '.join(command.argv[:3])} exited {done.returncode}, "
                         f"expected {command.code}: {done.stderr.strip()[-200:]}")
        if ok:
            clock.check(done.stdout == command.stdout,
                        f"graff {' '.join(command.argv[:3])} stdout differs from the reference")
        clock.seconds[command.cls] += wall
        clock.units[command.cls] += 1
        return wall


def _write_csv(path: Path, data: np.ndarray, header: list) -> None:
    lines = [",".join(header)]
    lines += [",".join(format(float(x), ".17g") for x in row) for row in data]
    path.write_text("\n".join(lines) + "\n")


def _svm_cloud(rows: int):
    """A fixed separable cloud: every point at least 0.5 / |w| from the hyperplane.

    SMO's path length depends on the data only through its Gram matrix, and
    varies tenfold between clouds drawn like this one, so each seed gets this
    same cloud rotated (same Gram matrix, same work) rather than a new draw.
    """
    rng = np.random.default_rng(2019)
    w = rng.standard_normal(FEATURES)
    points, labels = [], []
    while len(points) < rows:
        x = 2.0 * rng.standard_normal(FEATURES)
        margin = float(x @ w) - 0.3
        if abs(margin) >= 0.5:
            points.append(x)
            labels.append(1.0 if margin > 0 else -1.0)
    return np.array(points), np.array(labels)


def _build_script(graff, seed: int, workdir: Path, scale: float) -> list:
    """Write the inputs of every command and compute its expected stdout in-process."""
    from graff.io import (dumps_document, flat_from_document, flat_to_document, fmt_float,
                          load_cloud_csv, matrix_document)

    rng = np.random.default_rng([seed, 4])

    def flat_doc(name, n, k, orthogonal):
        A, b = rng.standard_normal((n, k)), rng.standard_normal(n)
        if orthogonal:
            doc = flat_to_document(graff.make_flat(A, b))
        else:
            doc = {"n": n, "k": k, "A": A.T.tolist(), "b": b.tolist()}
        (workdir / name).write_text(dumps_document(doc) + "\n")
        return flat_from_document(json.loads((workdir / name).read_text()))

    a = flat_doc("a.json", 5, 2, True)
    b = flat_doc("b.json", 5, 2, True)
    c = flat_doc("c.json", 5, 1, False)
    raw = flat_doc("raw.json", 5, 2, False)
    (workdir / "malformed.json").write_text('{"n": 3, "k": 1, "A": [[1.0, 2.0]], "b": [0.0, 1.0, 2.0]}\n')

    S = rng.standard_normal((4, 4))
    params_doc = {"k": 1, "n": 3, "S": ((S + S.T) / 2.0).tolist()}
    (workdir / "langevin.json").write_text(json.dumps(params_doc) + "\n")

    fit_rows = max(50, round(FIT_ROWS * scale))
    latent = rng.standard_normal((fit_rows, 3)) @ rng.standard_normal((3, FIT_COLS))
    _write_csv(workdir / "cloud.csv", latent + 0.1 * rng.standard_normal((fit_rows, FIT_COLS)),
               [f"x{i}" for i in range(FIT_COLS)])
    reg_rows = max(30, round(REGRESSION_ROWS * scale))
    X = rng.standard_normal((reg_rows, FEATURES))
    y = X @ rng.standard_normal(FEATURES) + 0.5 + 0.1 * rng.standard_normal(reg_rows)
    _write_csv(workdir / "regression.csv", np.column_stack([X, y]), [f"x{i}" for i in range(FEATURES)] + ["y"])
    cloud, labels = _svm_cloud(max(20, round(SVM_ROWS * scale)))
    rotation = np.linalg.qr(rng.standard_normal((FEATURES, FEATURES)))[0]
    points = np.column_stack([cloud @ rotation, labels])
    _write_csv(workdir / "svm.csv", points, [f"x{i}" for i in range(FEATURES)] + ["label"])

    def path(name):
        return str(workdir / name)

    def lines(*values):
        return "".join(f"{v}\n" for v in values)

    def flats(items):
        return lines(*(dumps_document(flat_to_document(f)) for f in items))

    g = graff
    curve = g.geodesic(a, b)
    ts = ["0", "0.25", "0.5", "0.75", "1"]
    light = [
        (["convert", path("a.json"), "--to", "stiefel"],
         lines(dumps_document(matrix_document(g.stiefel_coords(a).Y)))),
        (["convert", path("a.json"), "--to", "projection"],
         lines(dumps_document(matrix_document(g.projection_coords(a).P)))),
        (["convert", path("raw.json"), "--to", "projection-affine"],
         lines(dumps_document(matrix_document(np.column_stack(
             [g.projection_affine_coords(raw).P, g.projection_affine_coords(raw).b]))))),
        (["distance", path("a.json"), path("b.json")], lines(fmt_float(g.distance(a, b)))),
        (["distance", path("a.json"), path("b.json"), "--kind", "chordal", "--verbose"],
         lines(dumps_document({"angles": [float(t) for t in g.affine_principal_angles(a, b)]}),
               fmt_float(g.distance(a, b, "chordal")))),
        (["distance", path("a.json"), path("b.json"), "--kind", "martin"], lines(fmt_float(g.distance(a, b, "martin")))),
        (["distance", path("a.json"), path("c.json"), "--infinite"], lines(fmt_float(g.infinite_metric(a, c)))),
        (["distance", path("a.json"), path("c.json"), "--kind", "procrustes"],
         lines(fmt_float(g.delta_distance(a, c, "procrustes")))),
        (["geodesic", path("a.json"), path("b.json"), "--t", *ts],
         flats(g.evaluate_geodesic(curve, float(t)) for t in ts)),
        (["geodesic", path("b.json"), path("a.json"), "--t", "0.5"],
         flats([g.evaluate_geodesic(g.geodesic(b, a), 0.5)])),
        (["invariant", "--what", "dim", "2", "5"], lines(g.dim_graff(2, 5))),
        (["invariant", "--what", "volume", "gr", "2", "5"], lines(fmt_float(g.volume_gr(2, 5)))),
        (["invariant", "--what", "betti", "3", "4"], lines(g.betti(3, 4))),
        (["invariant", "--what", "homotopy", "1", "2", "1"], lines(g.homotopy_group(1, 2, 1).value)),
    ]
    script = [Command(argv, "light", 0, out) for argv, out in light]
    script.append(Command(["convert", path("malformed.json"), "--to", "stiefel"], "light", 2, ""))

    uniform_count = max(10, round(UNIFORM_COUNT * scale))
    rng_cli = g.random_stream(seed)
    uniform = [g.sample_uniform(2, 5, rng_cli) for _ in range(uniform_count)]
    params = g.LangevinParams(S=np.asarray(params_doc["S"]), k=1, n=3)
    steps = BURN_IN + 1 + (LANGEVIN_COUNT - 1) * THIN
    chain, _ = g.langevin_mh_run(params, steps, 0.1, g.random_stream(seed), burn_in=BURN_IN, thin=THIN)
    cloud = load_cloud_csv(workdir / "cloud.csv")
    regression = load_cloud_csv(workdir / "regression.csv")
    flat, beta = g.linear_regression(regression[:, :-1], regression[:, -1])
    svm_data = load_cloud_csv(workdir / "svm.csv")
    hyperplane, w_svm, beta_svm = g.svm_hyperplane(g.LabeledCloud(svm_data[:, :-1], svm_data[:, -1]))
    heavy = [
        (["sample", "--dist", "uniform", "--k", "2", "--n", "5", "--seed", str(seed),
          "--count", str(uniform_count)], flats(uniform)),
        (["sample", "--dist", "langevin", "--params", path("langevin.json"), "--seed", str(seed),
          "--count", str(LANGEVIN_COUNT), "--burn-in", str(BURN_IN), "--thin", str(THIN)],
         flats(chain[:LANGEVIN_COUNT])),
        (["fit", "--method", "flat", "--k", "3", path("cloud.csv")],
         flats([g.fit_flat(g.PointCloud(cloud), 3)])),
        (["fit", "--method", "regression", path("regression.csv")],
         flats([flat]) + lines(dumps_document({"beta": [float(v) for v in beta]}))),
        (["fit", "--method", "svm", path("svm.csv")],
         flats([hyperplane]) + lines(dumps_document({"w": [float(v) for v in w_svm],
                                                     "beta": float(beta_svm)}))),
    ]
    script += [Command(argv, "heavy", 0, out) for argv, out in heavy]
    return script
