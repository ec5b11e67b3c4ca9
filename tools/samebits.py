"""Check that a change keeps every output of its parent commit, bit for bit.

    python3 tools/samebits.py [--parent REV] [--expect FILE]

Run it from the repository root.  As ``tools/bench_pairs.py`` does, it copies
the parent commit (``--parent``, default ``HEAD``) with ``git archive`` and the
working tree's tracked and untracked, not ignored, files into a temporary
directory.  It then runs this file's fixed corpus once in each copy, one
process per copy, with that copy's ``src`` first on ``sys.path``:

- ``graff.cli.main`` for every subcommand, ``convert`` target, ``distance``
  kind (also with ``--verbose`` and ``--infinite``), ``fit`` method and
  ``sample`` law (each chain law also at 5000 flats, past the first
  4096-flat write, and the Langevin-Gaussian law at k = 0), over a few
  seeds, and over the edge documents (points, hyperplanes, |b| up to 1e300,
  1e300-scale clouds, malformed input, JSON ``true`` and ``false`` as
  dimensions) and the CSV edge files (byte-order mark, CRLF, blank, ``#``
  and quoted rows, ``1_0``, nan, inf, ragged rows, one column, no data
  rows, fields past the ``csv`` module's limit).  The exit code, stdout and
  stderr of each call are three outputs.  A warning the call leaks lands in
  its stderr as ``Category: message``, without the code location that any
  edit of the calling module moves.
- seeded library calls: chains (also one from a far initial flat, which raises
  ``NotAFlat``, and one of 4100 kept states), normalizers, the builders, the metric (also
  on pairs at (16, 64) and (32, 128), whose products take other BLAS paths)
  and the estimators.  Each result, or the exception raised, is one output.

The inputs are written with numpy and ``json`` only, so both copies read the
same bytes.  Each output is hashed with sha256.  The tool prints every output
whose hash differs, with the first differing bytes of each side, and exits 1
unless each of them is named in the ``--expect`` file: one output name per
line, as printed, with blank lines and ``#`` comments skipped.  An expected
output that came out identical is reported but does not fail the run.

A change that moves outputs on purpose commits ``tools/samebits.expect``, naming
them and saying why; CI's same-bits step passes it as ``--expect`` against the
change's base commit.  Each change replaces that file with its own list, or
deletes it when it moves no output, since the outputs an earlier change moved
are the next one's base.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

from bench_pairs import copy_parent, copy_working_tree

TOOLS = Path(__file__).resolve().parent

# ---------------------------------------------------------------- the corpus


def _encode(value) -> bytes:
    """Exact bytes of a result: floats by their hex, arrays by dtype, shape and buffer."""
    import numpy as np

    if isinstance(value, np.ndarray):
        head = f"ndarray {value.dtype.str} {value.shape} ".encode()
        return head + np.ascontiguousarray(value).tobytes()
    if isinstance(value, (float, np.floating)):
        return f"float {float(value).hex()}".encode()
    if isinstance(value, (bool, int, str, enum.Enum, type(None), np.integer, np.bool_)):
        return f"{type(value).__name__} {value!r}".encode()
    if isinstance(value, (list, tuple)):
        return b"[" + b", ".join(_encode(item) for item in value) + b"]"
    if dataclasses.is_dataclass(value):
        fields = (f for f in dataclasses.fields(value) if f.init)
        return (type(value).__name__.encode() + b"("
                + b", ".join(f.name.encode() + b"=" + _encode(getattr(value, f.name))
                             for f in fields) + b")")
    raise TypeError(f"no encoding for {type(value).__name__}")


def _flat_doc(rng, k: int, n: int, scale: float = 1.0, orthogonal: bool = False) -> dict:
    """A flat document with json's round-tripping floats; orthogonal ones come from a QR."""
    import numpy as np

    A = rng.standard_normal((n, k))
    b = scale * rng.standard_normal(n)
    if orthogonal:
        A = np.linalg.qr(A)[0] if k else A
        b = b - A @ (A.T @ b)
    doc = {"n": n, "k": k, "A": A.T.tolist(), "b": b.tolist()}
    if orthogonal:
        doc["orthogonal"] = True
    return doc


def _documents(rng) -> dict:
    docs = {
        "x": {"n": 2, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 0.0]},
        "y1": {"n": 2, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 1.0]},
        "y-axis": {"n": 2, "k": 1, "A": [[0.0, 1.0]], "b": [0.0, 0.0]},
        "origin": {"n": 2, "k": 0, "A": [], "b": [0.0, 0.0]},
        "dot": {"n": 2, "k": 0, "A": [], "b": [0.0, 1.0]},
        "far150": {"n": 2, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 1e150]},
        "far200": {"n": 2, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 1e200], "orthogonal": True},
        "far300": {"n": 3, "k": 1, "A": [[1.0, 1.0, 0.0]], "b": [3e300, -1e300, 1e300]},
        "rank1": {"n": 3, "k": 2, "A": [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], "b": [0.0, 0.0, 0.0]},
        "short-b": {"n": 2, "k": 1, "A": [[1.0, 0.0]], "b": [0.0]},
        "not-object": [1, 2],
        "bool-dims": {"n": True, "k": False, "A": [], "b": [0.0]},
    }
    for seed in (1, 2, 3):
        docs[f"a{seed}"] = _flat_doc(rng, 2, 5)
        docs[f"o{seed}"] = _flat_doc(rng, 2, 5, orthogonal=True)
        docs[f"c{seed}"] = _flat_doc(rng, 1, 5, scale=10.0)
        docs[f"h{seed}"] = _flat_doc(rng, 4, 5)
        docs[f"p{seed}"] = _flat_doc(rng, 0, 5)
    return docs


def _clouds(rng) -> dict:
    import numpy as np

    line = np.outer(rng.standard_normal(30), [1.0, 2.0, -1.0]) + [0.5, 0.0, 3.0]
    blob = rng.standard_normal((40, 4)) @ np.diag([3.0, 2.0, 0.1, 0.01])
    X = rng.standard_normal((30, 2))
    labels = np.where(X[:, 0] + 0.5 * X[:, 1] > 0.2, 1.0, -1.0)
    X = X + 0.5 * labels[:, None]  # a margin
    mixed = rng.standard_normal((20, 2))
    clouds = {
        "line": line,
        "blob": blob,
        "regress": np.column_stack([X, X @ [2.0, -1.0] + 0.3 + 0.01 * rng.standard_normal(30)]),
        "separable": np.column_stack([X, labels]),
        "inseparable": np.column_stack([mixed, np.where(np.arange(20) % 2, 1.0, -1.0)]),
        "huge": 1e300 * blob,
        "huge-separable": np.column_stack([1e300 * X, labels]),
    }
    return {name: "\n".join(",".join(repr(float(x)) for x in row) for row in data) + "\n"
            for name, data in clouds.items()}


# CSV files on which a bulk reader and a row-by-row one could part.
CSV_EDGES = {
    "edge-header": b"x,y,z\n1,2,3\n4,5,6.5\n2,0,1\n",
    "edge-bom": b"\xef\xbb\xbf1,2\n3,4\n5,7\n",
    "edge-bom-header": b"\xef\xbb\xbfx,y\n1,2\n3,4\n5,7\n",
    "edge-crlf": b"x,y\r\n1,2\r\n3,4\r\n5,7\r\n",
    "edge-cr": b"1,2\r3,4\r5,7\r",
    "edge-blank-rows": b"\n1,2\n\n3,4\n5,7\n\n",
    "edge-whitespace-rows": b"1,2\n   \n3,4\n , \n5,7\n\t\n",
    "edge-hash-row": b"1,2\n#3,4\n5,7\n",
    "edge-hash-header": b"#x,y\n1,2\n3,4\n5,7\n",
    "edge-quoted": b'"1","2"\n3,"4"\n5,7\n',
    "edge-underscore": b"1_0,2\n3,4\n5,7\n",
    "edge-nan": b"nan,1\n2,3\n4,5\n",
    "edge-infinity": b"1,-Infinity\n2,3\n4,5\n",
    "edge-1e500": b"1,2\n1e500,3\n4,5\n",
    "edge-one-column": b"x\n1\n2\n4\n",
    "edge-header-only": b"x,y\n",
    "edge-no-data": b"x,y\n\n  \n , \n",
    "edge-empty": b"",
    "edge-ragged": b"x,y\n1,2\n\n3,4,5\n",
    "edge-trailing-comma": b"1,2,\n3,4,\n5,7,\n",
    "edge-word": b"x,y\n1,2\n3,abc\n",
    "edge-not-utf-8": b"1,2\n\xff,3\n",
    "edge-long-first-field": b"0" * 140_000 + b",1\n3,4\n5,7\n",
    "edge-long-quoted-field": b'x,y\n1,2\n"' + b"0" * 140_000 + b'1",3\n5,7\n',
}


def _cli_calls(work: Path, docs: dict) -> list[list[str]]:
    def path(name: str) -> str:
        return str(work / f"{name}.json")

    kinds = ["grassmann", "asimov", "binet_cauchy", "chordal", "fubini_study", "martin",
             "procrustes", "projection", "spectral"]
    calls: list[list[str]] = [[], ["--help"], ["distance"], ["convert", path("x")]]
    for name in docs:
        for target in ("stiefel", "projection", "projection-affine"):
            calls.append(["convert", path(name), "--to", target])
    pairs = [("a1", "a2"), ("o1", "o2"), ("a1", "o3"), ("h1", "h2"), ("p1", "p2"), ("x", "y1"),
             ("x", "y-axis"), ("far150", "x"), ("far200", "y1"), ("dot", "origin")]
    for first, second in pairs:
        for kind in kinds:
            calls.append(["distance", path(first), path(second), "--kind", kind])
        calls.append(["distance", path(first), path(second), "--verbose"])
    for first, second in [("a1", "c1"), ("c2", "h1"), ("p1", "a3"), ("x", "dot"), ("y1", "origin")]:
        for kind in kinds:
            calls.append(["distance", path(first), path(second), "--kind", kind])
        for kind in ("grassmann", "chordal", "procrustes", "martin"):
            calls.append(["distance", path(first), path(second), "--kind", kind, "--infinite"])
        calls.append(["distance", path(first), path(second), "--verbose", "--infinite"])
    calls.append(["distance", path("a1"), path("x")])
    ts = ["0", "0.25", "0.5", "1", "2", "-3", "1e6"]
    for first, second in [("a1", "a2"), ("o1", "o2"), ("x", "y1"), ("x", "y-axis"), ("h1", "h2"),
                          ("p1", "p2"), ("far150", "x"), ("a1", "c1")]:
        calls.append(["geodesic", path(first), path(second), "--t", *ts])
    calls.append(["geodesic", path("x"), path("y1"), "--t", "inf"])
    calls += [["invariant", "--what", *args] for args in [
        ["dim", "2", "5"], ["schubert-dim", "1", "3", "4"], ["volume", "gr", "2", "5"],
        ["volume", "graff", "2", "5"], ["volume", "gr", "40", "90"], ["volume", "ball", "1", "2"],
        ["relative-volume", "2", "3", "5"], ["relative-volume", "1", "2", "5"],
        ["betti", "2", "4"], ["betti", "3", "7"], ["homotopy", "1", "3", "1"],
        ["homotopy", "2", "inf", "3"], ["homotopy", "0", "4", "2"], ["dim", "x", "2"],
    ]]
    for k, n in [(0, 3), (1, 2), (2, 5), (4, 5)]:
        for seed in ("1", "2", "3"):
            calls.append(["sample", "--dist", "uniform", "--k", str(k), "--n", str(n),
                          "--count", "5", "--seed", seed])
    calls.append(["sample", "--dist", "uniform", "--k", "2", "--n", "5", "--count", "2000",
                  "--seed", "1"])
    for k, n in [(0, 3), (4, 12), (8, 32)]:
        calls.append(["sample", "--dist", "uniform", "--k", str(k), "--n", str(n),
                      "--count", "500", "--seed", "4"])
    calls.append(["sample", "--dist", "uniform", "--k", "2", "--n", "5", "--count", "0",
                  "--seed", "1"])
    for params in ("langevin", "concentrated", "overflowing"):
        for seed in ("1", "2"):
            calls.append(["sample", "--dist", "langevin", "--params", path(params), "--seed", seed,
                          "--count", "5", "--burn-in", "20", "--thin", "3"])
    for params in ("gaussian", "gaussian-small", "gaussian-point"):
        for seed in ("1", "2"):
            calls.append(["sample", "--dist", "langevin-gaussian", "--params", path(params),
                          "--seed", seed, "--count", "4", "--burn-in", "10", "--thin", "2",
                          "--step-size", "0.3"])
    # Chains of 5000 kept flats: past the writer's first 4096-flat write.
    for dist, params in [("langevin", "langevin"), ("langevin-gaussian", "gaussian"),
                         ("langevin-gaussian", "gaussian-point")]:
        calls.append(["sample", "--dist", dist, "--params", path(params), "--seed", "3",
                      "--count", "5000", "--burn-in", "0", "--thin", "1"])
    calls.append(["sample", "--dist", "langevin", "--seed", "1"])
    calls.append(["sample", "--dist", "langevin", "--params", path("bool-k"), "--seed", "1"])

    def cloud(name: str) -> str:
        return str(work / f"{name}.csv")

    for name in ("line", "blob", "huge"):
        for k in ("0", "1", "2"):
            calls.append(["fit", "--method", "flat", "--k", k, cloud(name)])
    for name in ("regress", "line", "huge", "separable"):
        calls.append(["fit", "--method", "regression", cloud(name)])
    for name in ("separable", "inseparable", "huge-separable", "regress"):
        calls.append(["fit", "--method", "svm", cloud(name)])
    calls += [["fit", "--method", "flat", cloud("line")],
              ["fit", "--method", "flat", "--k", "1", cloud("header")],
              ["fit", "--method", "regression", cloud("ragged")],
              ["fit", "--method", "svm", cloud("missing")]]
    for name in CSV_EDGES:
        calls.append(["fit", "--method", "flat", "--k", "0", cloud(name)])
        calls.append(["fit", "--method", "regression", cloud(name)])
    return calls


def _write_inputs(work: Path, rng) -> dict:
    docs = _documents(rng)
    for name, doc in docs.items():
        (work / f"{name}.json").write_text(json.dumps(doc))
    params = {
        "langevin": {"k": 1, "n": 2, "S": [[1.0, 0.2, 0.0], [0.2, -0.5, 0.1], [0.0, 0.1, 2.0]]},
        "concentrated": {"k": 1, "n": 2, "S": [[40.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                                               [0.0, 0.0, 0.0]]},
        "overflowing": {"k": 1, "n": 2, "S": [[1e308, 0.0, 0.0], [0.0, 1e308, 0.0],
                                              [0.0, 0.0, 1e308]]},
        "bool-k": {"k": True, "n": 2, "S": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
        "gaussian": {"k": 1, "n": 2, "sigma2": 2.0, "S": [[1.0, 0.0], [0.0, 3.0]]},
        "gaussian-small": {"k": 0, "n": 3, "sigma2": 1e-3,
                           "S": [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]]},
        "gaussian-point": {"k": 0, "n": 2, "sigma2": 2.0, "S": [[1.0, 0.0], [0.0, 3.0]]},
    }
    for name, doc in params.items():
        (work / f"{name}.json").write_text(json.dumps(doc))
    for name, text in _clouds(rng).items():
        (work / f"{name}.csv").write_text(text)
    (work / "header.csv").write_text("x,y,z\n" + (work / "line.csv").read_text())
    (work / "ragged.csv").write_text("1,2,3\n4,5\n")
    (work / "missing.csv").write_text("")
    for name, data in CSV_EDGES.items():
        (work / f"{name}.csv").write_bytes(data)
    return docs


def _library_calls(graff, np):
    """(name, thunk) pairs over seeded library calls."""
    from graff import probability as prob

    def flats(k, n, seed, count=5):
        rng = prob.random_stream(seed)
        return [prob.sample_uniform(k, n, rng) for _ in range(count)]

    S3 = np.array([[1.0, 0.2, 0.0], [0.2, -0.5, 0.1], [0.0, 0.1, 2.0]])
    defect = np.zeros((4, 4))  # the known-defect law at Graff(1, 3), that is Gr(2, 4)
    defect[0, 0] = 800.0
    calls = []
    for k, n in [(0, 3), (1, 2), (2, 5), (3, 4), (8, 20)]:
        for seed in (1, 2):
            calls.append((f"sample_uniform k={k} n={n} seed={seed}",
                          lambda k=k, n=n, seed=seed: flats(k, n, seed)))
    for seed in (1, 2):
        calls += [
            (f"langevin_mh_run seed={seed}", lambda seed=seed: prob.langevin_mh_run(
                prob.LangevinParams(S=S3, k=1, n=2), 60, 0.3, prob.random_stream(seed),
                burn_in=10, thin=2)),
            (f"langevin_gaussian_run seed={seed}", lambda seed=seed: prob.langevin_gaussian_run(
                prob.LangevinGaussianParams(S=np.diag([1.0, 3.0]), sigma2=2.0, k=1, n=2), 6,
                prob.MHConfig(step_size=0.3, burn_in=10, thin=2), prob.random_stream(seed))),
            (f"langevin_gaussian_run k=0 seed={seed}",
             lambda seed=seed: prob.langevin_gaussian_run(
                 prob.LangevinGaussianParams(S=np.diag([1.0, 3.0]), sigma2=2.0, k=0, n=2), 6,
                 prob.MHConfig(step_size=0.3, burn_in=10, thin=2), prob.random_stream(seed))),
            (f"langevin_normalizer seed={seed}", lambda seed=seed: prob.langevin_normalizer(
                prob.LangevinParams(S=S3, k=1, n=2), 300, prob.random_stream(seed))),
            (f"grassmann_normalizer seed={seed}", lambda seed=seed: prob.grassmann_normalizer(
                np.diag([2.0, 1.0, -1.0, 0.5]), 2, 4, 300, prob.random_stream(seed))),
            (f"grassmann_normalizer known defect seed={seed}",
             lambda seed=seed: prob.grassmann_normalizer(defect, 2, 4, 100,
                                                         prob.random_stream(seed))),
        ]
    # A far initial flat, which the chain keeps and refuses at its first step, and a chain
    # that reflects its kept states in more than one 4096-frame block.
    far_init = graff.make_flat([[1.0], [0.0], [0.0]], [0.0, 1e11, 0.0])
    calls += [
        ("langevin_mh_run far init", lambda: prob.langevin_mh_run(
            prob.LangevinParams(S=np.zeros((4, 4)), k=1, n=3), 50, 1e-12, prob.random_stream(1),
            init=far_init)),
        ("langevin_mh_run 4100 kept", lambda: prob.langevin_mh_run(
            prob.LangevinParams(S=S3, k=1, n=2), 4100, 0.3, prob.random_stream(1))),
    ]
    # Wide pairs, whose products take other BLAS paths than the small ones below.
    for k, n in [(16, 64), (32, 128)]:
        first, second = flats(k, n, n, 2)
        calls += [
            (f"principal_decomposition k={k} n={n}",
             lambda first=first, second=second: graff.principal_decomposition(first, second)),
            (f"geodesic k={k} n={n}", lambda first=first, second=second: [
                graff.evaluate_geodesic(graff.geodesic(first, second), t)
                for t in (0.0, 0.3, 0.5, 1.0)]),
        ]
    a, b = flats(2, 5, 7, 2)
    c, h = flats(1, 5, 8, 1)[0], flats(4, 5, 9, 1)[0]
    point = flats(0, 5, 10, 1)[0]
    far = graff.make_flat([[1.0], [0.0]], [0.0, 1e200])
    rng = np.random.default_rng(11)
    raw_A, raw_b = rng.standard_normal((6, 3)), 1e3 * rng.standard_normal(6)
    calls += [
        ("make_flat", lambda: graff.make_flat(raw_A, raw_b)),
        ("make_flat rank deficient", lambda: graff.make_flat(np.ones((3, 2)), np.zeros(3))),
        ("make_flat far", lambda: graff.make_flat(raw_A, 1e300 * raw_b / 1e3)),
        ("AffineFlat not orthogonal", lambda: graff.AffineFlat(raw_A, raw_b)),
        ("unembed", lambda: graff.unembed(rng.standard_normal((6, 3)))),
        ("unembed point at infinity", lambda: graff.unembed(np.eye(3)[:, :2])),
        ("stiefel_coords", lambda: [graff.stiefel_coords(f).Y for f in (a, c, h, point, far)]),
        ("projection_coords", lambda: [graff.projection_coords(f).P for f in (a, c, h, point)]),
        ("projection_coords far", lambda: graff.projection_coords(far)),
        ("projection_affine_coords", lambda: graff.projection_affine_coords(a)),
        ("flat_from_projection", lambda: graff.flat_from_projection(graff.projection_coords(a).P)),
        ("pad_ambient", lambda: graff.pad_ambient(c, 7)),
        ("deaffine", lambda: graff.deaffine(a)),
        ("distance", lambda: [graff.distance(a, b, kind) for kind in graff.DistanceKind]),
        ("delta_distance", lambda: [graff.delta_distance(a, c, kind)
                                    for kind in graff.DistanceKind]),
        ("infinite_metric", lambda: [graff.infinite_metric(h, c, kind)
                                     for kind in ("grassmann", "chordal", "procrustes")]),
        ("affine_principal_angles", lambda: graff.affine_principal_angles(a, h)),
        ("principal_decomposition", lambda: graff.principal_decomposition(a, b)),
        ("equal_flats", lambda: [graff.equal_flats(a, b), graff.equal_flats(a, a),
                                 graff.equal_flats(far, far)]),
        ("geodesic", lambda: [graff.evaluate_geodesic(graff.geodesic(a, b), t)
                              for t in (0.0, 0.3, 1.0, 5.0)]),
        ("fit_flat", lambda: graff.fit_flat(graff.PointCloud(rng.standard_normal((25, 4))), 2)),
        ("linear_regression", lambda: graff.linear_regression(rng.standard_normal((20, 3)),
                                                              rng.standard_normal(20))),
        ("svm_hyperplane", lambda: graff.svm_hyperplane(graff.LabeledCloud(
            [[0.0, 0.0], [1.0, 0.2], [3.0, 3.0], [4.0, 2.5]], [-1.0, -1.0, 1.0, 1.0]))),
        ("point_to_flat_distance", lambda: graff.point_to_flat_distance(
            rng.standard_normal(5), a)),
        ("invariants", lambda: [graff.volume_gr(2, 5), graff.volume_graff(3, 7),
                                graff.relative_volume(2, 4, 6), graff.betti(2, 5),
                                graff.unit_ball_volume(7), graff.homotopy_group(1, 4, 2)]),
    ]
    return calls


def run_corpus(tree: Path, out: Path) -> None:
    """Run the corpus against ``tree/src`` and write ``{name: [sha256, latin-1 text]}``."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy as np

    import graff
    from graff import cli

    if src not in Path(graff.__file__).resolve().parents:
        raise SystemExit(f"imported graff from {graff.__file__}, not from {src}")
    # Every leaked warning reaches the captured stderr, without the code location that
    # any edit of the calling module moves.
    warnings.simplefilter("always")
    warnings.showwarning = lambda message, category, *_: print(
        f"{category.__name__}: {message}", file=sys.stderr)
    outputs: dict[str, bytes] = {}
    with tempfile.TemporaryDirectory(prefix="samebits-") as scratch:
        work = Path(scratch)
        docs = _write_inputs(work, np.random.default_rng(20260))
        for argv in _cli_calls(work, docs):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = str(cli.main(argv))
                except Exception as exc:  # what the console script would print with exit 1
                    code = f"1 (uncaught {type(exc).__name__}: {exc})"
            name = "cli " + " ".join(Path(arg).name if arg.startswith(scratch) else arg
                                     for arg in argv)
            for part, text in (("exit", code), ("stdout", stdout.getvalue()),
                               ("stderr", stderr.getvalue())):
                text = text.replace(scratch, "<dir>").replace(str(src), "<src>")
                outputs[f"{name} | {part}"] = text.encode()
        for label, thunk in _library_calls(graff, np):
            try:
                with warnings.catch_warnings(record=True) as caught:
                    value = _encode(thunk())
                value += b"".join(f" warned {w.category.__name__}: {w.message}".encode()
                                  for w in caught)
            except Exception as exc:
                value = f"raised {type(exc).__name__}: {exc}".encode()
            outputs[f"lib {label}"] = value
    out.write_text(json.dumps({name: [hashlib.sha256(data).hexdigest(), data.decode("latin-1")]
                               for name, data in outputs.items()}))


# ---------------------------------------------------------------- the comparison


def _first_difference(a: bytes, b: bytes) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def run_corpora(tree_a: Path, tree_b: Path) -> list[dict]:
    """Run the corpus in both trees at once; each side's ``{name: [sha256, text]}``."""
    with tempfile.TemporaryDirectory(prefix="samebits-out-") as scratch:
        outs = [Path(scratch) / "a.json", Path(scratch) / "b.json"]
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import samebits; "
                "samebits.run_corpus(samebits.Path(sys.argv[2]), samebits.Path(sys.argv[3]))")
        children = [subprocess.Popen([sys.executable, "-c", code, str(TOOLS), str(tree), str(out)],
                                     cwd=tree, stderr=subprocess.PIPE, text=True)
                    for tree, out in zip((tree_a, tree_b), outs)]
        for child, tree in zip(children, (tree_a, tree_b)):
            _, err = child.communicate()
            if child.returncode != 0:
                raise SystemExit(f"corpus in {tree} exited {child.returncode}:\n{err}")
        return [json.loads(out.read_text()) for out in outs]


def differences(a: dict, b: dict, expect: set[str]) -> tuple[list[str], list[str]]:
    """Report lines for the parent's outputs ``a`` against the change's ``b``, and the
    names that differ without being expected to."""
    report, unexpected = [], []
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            report.append(f"{name}: only in {'the parent' if name in a else 'the change'}")
        elif a[name][0] != b[name][0]:
            left, right = (side[name][1].encode("latin-1") for side in (a, b))
            at = _first_difference(left, right)
            report.append(f"{name}: differs from byte {at}\n"
                          f"  parent: {left[max(0, at - 30):at + 50]!r}\n"
                          f"  change: {right[max(0, at - 30):at + 50]!r}")
        else:
            if name in expect:
                report.append(f"{name}: expected to differ, but identical")
            continue
        if name not in expect:
            unexpected.append(name)
    report.append(f"{len(a)} parent outputs, {len(b)} change outputs, "
                  f"{len(unexpected)} unexpected differences")
    return report, unexpected


def read_expect(path: Path | None) -> set[str]:
    if path is None:
        return set()
    lines = (line.strip() for line in path.read_text().splitlines())
    return {line for line in lines if line and not line.startswith("#")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="commit to compare against")
    parser.add_argument("--expect", type=Path, help="file naming the outputs expected to differ")
    args = parser.parse_args(argv)
    expect = read_expect(args.expect)
    with tempfile.TemporaryDirectory(prefix="samebits-") as scratch:
        parent, change = Path(scratch) / "parent", Path(scratch) / "change"
        copy_parent(args.parent, parent)
        copy_working_tree(change)
        report, unexpected = differences(*run_corpora(parent, change), expect)
    print("\n".join(report))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
