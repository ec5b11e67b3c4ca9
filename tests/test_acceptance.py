"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are fixed here and match the package's documented
guarantees.
"""

import json
import math
import time

import numpy as np
import pytest

from graff import (
    AffineFlat,
    DistanceKind,
    LabeledCloud,
    LangevinGaussianParams,
    LangevinParams,
    PointCloud,
    betti,
    delta_distance,
    dim_graff,
    dim_psi_minus,
    dim_psi_plus,
    dim_schubert_affine,
    distance,
    equal_flats,
    evaluate_geodesic,
    fit_flat,
    geodesic,
    infinite_metric,
    langevin_gaussian_run,
    langevin_mh_run,
    langevin_normalizer,
    linear_regression,
    make_flat,
    MHConfig,
    projection_coords,
    random_stream,
    relative_volume,
    sample_uniform,
    stiefel_coords,
    svm_hyperplane,
    unembed,
    volume_gr,
    volume_graff,
)
from graff.cli import main

from conftest import horizontal_line, point_flat, random_flat, x_axis

METRIC_KINDS = [DistanceKind.GRASSMANN, DistanceKind.CHORDAL, DistanceKind.PROCRUSTES]


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_golden_distances():
    cases = [
        (lambda: distance(x_axis(), horizontal_line(1.0)), math.pi / 4),
        (lambda: distance(x_axis(), horizontal_line(2.0)), math.acos(1 / math.sqrt(5))),
        (lambda: delta_distance(point_flat([0.0, 1.0]), x_axis()), math.pi / 4),
    ]
    for compute, expected in cases:
        assert abs(compute() - expected) < 1e-12
    for compute, _ in cases:
        compute()  # warm up
        start = time.perf_counter()
        for _ in range(200):
            compute()
        per_call = (time.perf_counter() - start) / 200
        assert per_call < 1e-3
    _report(1, "three golden distances exact to 1e-12, each under 1 ms")


def test_criterion_2_coordinate_round_trip():
    rng = random_stream(2026)
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, n))
        flat = random_flat(rng, n, k)
        assert equal_flats(unembed(stiefel_coords(flat).Y), flat, 1e-9)
        Y = stiefel_coords(flat).Y
        assert np.abs(projection_coords(flat).P - Y @ Y.T).max() < 1e-12
    _report(2, "unembed(embed(F)) = F on 1000 random flats; P = Y Y^T to 1e-12")


def test_criterion_3_metric_axioms():
    rng = random_stream(3033)
    start = time.perf_counter()
    # Equidimensional triples: symmetry, triangle inequality.
    for _ in range(10_000):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(0, n))
        a, b, c = (random_flat(rng, n, k) for _ in range(3))
        for kind in METRIC_KINDS:
            dab, dbc, dac = distance(a, b, kind), distance(b, c, kind), distance(a, c, kind)
            assert dac <= dab + dbc + 1e-10
            assert abs(dab - distance(b, a, kind)) < 1e-12
    # Mixed-dimension triples through the cross-dimension metrics.
    for _ in range(10_000):
        n = int(rng.integers(2, 6))
        a, b, c = (random_flat(rng, n, int(rng.integers(0, n))) for _ in range(3))
        for kind in METRIC_KINDS:
            dab = infinite_metric(a, b, kind)
            dbc = infinite_metric(b, c, kind)
            dac = infinite_metric(a, c, kind)
            assert dac <= dab + dbc + 1e-10
            assert abs(dab - infinite_metric(b, a, kind)) < 1e-12
    # Identity of indiscernibles at the 1e-9 threshold.
    for _ in range(300):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        flat = random_flat(rng, n, k)
        Q = np.linalg.qr(rng.standard_normal((k, k)))[0]
        same = make_flat(flat.A @ Q, flat.b0 + flat.A @ rng.standard_normal(k))
        assert distance(flat, same) <= 1e-9 and equal_flats(flat, same, 1e-8)
        assert infinite_metric(flat, same) <= 1e-9
        other = make_flat(
            flat.A + 1e-6 * rng.standard_normal(flat.A.shape),
            flat.b0 + 1e-6 * rng.standard_normal(n),
        )
        assert distance(flat, other) > 1e-9 and not equal_flats(flat, other, 1e-8)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, f"metric axioms on 2 x 10^4 triples x 3 kinds in {elapsed:.1f}s")


def test_criterion_4_geodesic():
    curve = geodesic(x_axis(), horizontal_line(1.0))
    mid = evaluate_geodesic(curve, 0.5)
    assert abs(mid.b0[1] - math.tan(math.pi / 8)) < 1e-10
    assert equal_flats(mid, horizontal_line(math.tan(math.pi / 8)), 1e-10)
    rng = random_stream(4044)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(0, n))
        flat1, flat2 = random_flat(rng, n, k), random_flat(rng, n, k)
        curve = geodesic(flat1, flat2)
        assert equal_flats(evaluate_geodesic(curve, 0.0), flat1, 1e-8)
        assert equal_flats(evaluate_geodesic(curve, 1.0), flat2, 1e-8)
        total = distance(flat1, flat2)
        for t in (0.25, 0.5, 0.75):
            assert abs(distance(flat1, evaluate_geodesic(curve, t)) - t * total) < 1e-8
    _report(4, "geodesic endpoints, constant speed, and midpoint height verified")


def test_criterion_5_distance_to_set_oracles():
    start = time.perf_counter()
    # (k, l, n) = (0, 1, 2): grid minimization over the points of a line.
    target = np.array([2.0, 3.0])
    flat_point = point_flat(target)
    line = horizontal_line(1.0)
    delta = delta_distance(flat_point, line)
    s = np.arange(-10.0, 10.0, 1e-3)
    points = np.stack([s, np.ones_like(s)], axis=1)
    inner = 1.0 + points @ target
    norms = 1.0 + np.sum(points**2, axis=1)
    cosines = np.abs(inner) / np.sqrt((1.0 + target @ target) * norms)
    grid_min = float(np.arccos(np.clip(cosines, 0.0, 1.0)).min())
    grid_gap = abs(grid_min - delta)
    assert grid_gap <= 1e-3

    # (k, l, n) = (1, 2, 3): sampled minimization over the lines of a plane.
    B = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    c0 = np.array([0.0, 0.0, 0.5])
    plane = AffineFlat(B, c0)
    flat_line = make_flat(np.array([1.0, 0.2, 0.1]), np.array([0.05, -0.1, 0.45]))
    delta = delta_distance(flat_line, plane)
    rng = random_stream(5055)
    best = math.inf
    for _ in range(100_000):
        inner_flat = sample_uniform(1, 2, rng)
        candidate = AffineFlat(B @ inner_flat.A, B @ inner_flat.b0 + c0)
        value = distance(flat_line, candidate)
        if value < best:
            best = value
        assert value >= delta - 1e-9
    assert best - delta <= 5e-2
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(5, f"distance-to-set oracles: grid gap {grid_gap:.1e},"
               f" sampled gap {best - delta:.1e}, {elapsed:.0f}s")


def test_criterion_6_invariants():
    for n in range(1, 11):
        for l in range(n + 1):
            for k in range(l + 1):
                assert dim_psi_plus(k, l, n) == (n - l) * (l - k)
                assert dim_psi_minus(k, l, n) == (k + 1) * (l - k)
                if l < n:
                    assert dim_graff(l, n) == (n - l) * (l + 1)
                if k >= 1:
                    flag = [l - k + j for j in range(1, k + 1)]
                    assert dim_schubert_affine(flag) == dim_psi_minus(k, l, n)
                if k + l >= n:
                    closed = relative_volume(k, l, n)
                    assert closed == pytest.approx(
                        volume_gr(n - l, n - k) / volume_gr(l + 1, n + 1), rel=1e-12
                    )
                    assert closed == pytest.approx(
                        volume_gr(k + 1, l + 1) / volume_gr(k + 1, n + 1), rel=1e-12
                    )
    assert abs(volume_gr(1, 2) - math.pi) < 1e-12
    for n in range(1, 11):
        for k in range(n):
            assert volume_graff(k, n) == volume_gr(k + 1, n + 1)

    def partitions_at_most(total, parts):
        if total == 0:
            return 1
        if parts == 0:
            return 0
        if total < 0:
            return 0
        return partitions_at_most(total - parts, parts) + partitions_at_most(total, parts - 1)

    for k in range(1, 7):
        for i in range(21):
            assert betti(k, i) == partitions_at_most(i, k)
    _report(6, "dimensions, Schubert flags, volumes, and Betti numbers all exact")


def test_criterion_7_probability():
    start = time.perf_counter()
    # Uniform mean projection: E[P] = ((k+1)/(n+1)) I within 3 standard errors.
    for k, n, seed in [(1, 3, 7011), (2, 5, 7022)]:
        rng = random_stream(seed)
        draws = 100_000
        acc = np.zeros((n + 1, n + 1))
        acc2 = np.zeros((n + 1, n + 1))
        for _ in range(draws):
            P = projection_coords(sample_uniform(k, n, rng)).P
            acc += P
            acc2 += P**2
        mean = acc / draws
        se = np.sqrt(np.maximum(acc2 / draws - mean**2, 0.0) / draws)
        target = (k + 1) / (n + 1) * np.eye(n + 1)
        assert np.all(np.abs(mean - target) <= 3.0 * se)

    # Normalizer at S = c I is exact with zero variance.
    params = LangevinParams(S=0.8 * np.eye(4), k=1, n=3)
    estimate, se = langevin_normalizer(params, 500, random_stream(7033))
    assert estimate == pytest.approx(math.exp(0.8 * 2), rel=1e-12)
    assert se <= 1e-12 * estimate

    # Metropolis-Hastings agrees with importance reweighting.
    S = np.diag([1.5, -0.5, 0.25, 0.0])
    params = LangevinParams(S=S, k=1, n=3)
    rng = random_stream(7044)
    weights = np.empty(4000)
    values = np.empty(4000)
    for i in range(4000):
        P = projection_coords(sample_uniform(1, 3, rng)).P
        weights[i] = math.exp(float(np.sum(S * P)))
        values[i] = P[0, 0]
    is_mean = float((weights * values).sum() / weights.sum())
    is_se = math.sqrt(float((weights**2 * (values - is_mean) ** 2).sum()) / weights.sum() ** 2)
    samples, _ = langevin_mh_run(params, 21_000, 0.4, random_stream(7055), burn_in=1000, thin=10)
    mh_values = np.array([projection_coords(f).P[0, 0] for f in samples])
    batches = np.array_split(mh_values, 20)
    batch_means = np.array([b.mean() for b in batches])
    mh_mean = float(batch_means.mean())
    mh_se = float(batch_means.std(ddof=1) / math.sqrt(len(batches)))
    assert abs(is_mean - mh_mean) <= 3.0 * math.hypot(is_se, mh_se)

    # Langevin-Gaussian moments and exact displacement orthogonality.
    n, k, sigma2 = 5, 2, 0.8
    lg = LangevinGaussianParams(S=np.diag([1.0, 0.5, 0.0, 0.0, -0.5]), sigma2=sigma2, k=k, n=n)
    flats = langevin_gaussian_run(
        lg, 10_000, MHConfig(step_size=0.5, burn_in=200, thin=1), random_stream(7066)
    )
    norms2 = np.array([float(f.b0 @ f.b0) for f in flats])
    for flat in flats:
        assert np.abs(flat.A.T @ flat.b0).max() < 1e-12
    assert abs(norms2.mean() - sigma2 * (n - k)) <= 0.05 * sigma2 * (n - k)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(7, f"uniform mean, exact normalizer, MH vs importance, LG moments in {elapsed:.0f}s")


def test_criterion_8_fitting():
    # Exact-fit clouds are recovered exactly.
    exact = fit_flat(PointCloud(np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])), 1)
    assert equal_flats(exact, horizontal_line(1.0), 1e-10)
    diag = fit_flat(PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]])), 1)
    assert equal_flats(diag, make_flat(np.array([1.0, 1.0]), np.zeros(2)), 1e-10)

    # Hand regression example.
    _, beta = linear_regression(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0]))
    assert np.abs(beta - np.array([0.5, 1.0 / 6.0])).max() < 1e-12

    # Planted-flat recovery at noise 1e-3.
    rng = random_stream(8088)
    truth = random_flat(rng, 5, 2)
    X = truth.b0 + rng.standard_normal((200, 2)) @ truth.A.T + 1e-3 * rng.standard_normal((200, 5))
    assert delta_distance(fit_flat(PointCloud(X), 2), truth) <= 1e-2

    # SVM two-point optima and the random-feasible-competitor check.
    flat1, w1, b1 = svm_hyperplane(LabeledCloud(np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0])))
    assert abs(w1[0] - 1.0) < 1e-8 and abs(b1) < 1e-8 and flat1.k == 0
    X2 = np.array([[0.0, 0.0], [2.0, 0.0]])
    y2 = np.array([-1.0, 1.0])
    flat2, w2, b2 = svm_hyperplane(LabeledCloud(X2, y2))
    assert np.abs(w2 - np.array([1.0, 0.0])).max() < 1e-8 and abs(b2 - 1.0) < 1e-8
    assert equal_flats(flat2, AffineFlat(np.array([[0.0], [1.0]]), np.array([1.0, 0.0])), 1e-8)
    found = 0
    while found < 10_000:
        W = rng.standard_normal((40_000, 2))
        B = rng.standard_normal(40_000)
        margins = y2[None, :] * (W @ X2.T - B[:, None])
        worst = margins.min(axis=1)
        keep = worst > 1e-9
        scaled_norms = np.linalg.norm(W[keep], axis=1) / worst[keep]
        assert np.all(scaled_norms >= np.linalg.norm(w2) - 1e-6)
        found += int(keep.sum())
    _report(8, "exact fits, hand regression, planted recovery, and SVM optima verified")


def test_criterion_9_cli_reproducibility(capsys, tmp_path):
    docs = {
        "xaxis": {"n": 2, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 0.0]},
        "line1": {"n": 2, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 1.0]},
        "line2": {"n": 2, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 2.0]},
        "point": {"n": 2, "k": 0, "A": [], "b": [0.0, 1.0]},
    }
    paths = {}
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    params = tmp_path / "langevin.json"
    params.write_text(json.dumps({"k": 1, "n": 3, "S": np.diag([1.0, 0, 0, 0]).tolist()}))

    commands = [
        (["distance", paths["xaxis"], paths["line1"]], math.pi / 4),
        (["distance", paths["xaxis"], paths["line2"]], math.acos(1 / math.sqrt(5))),
        (["distance", paths["point"], paths["xaxis"]], math.pi / 4),
        (["geodesic", paths["xaxis"], paths["line1"], "--t", "0.5"], None),
        (["convert", paths["xaxis"], "--to", "stiefel"], None),
        (["invariant", "--what", "dim", "1", "3"], 4.0),
        (["invariant", "--what", "betti", "2", "4"], 3.0),
        (["invariant", "--what", "volume", "gr", "1", "2"], math.pi),
        (["invariant", "--what", "homotopy", "1", "2", "1"], None),
        (["sample", "--dist", "uniform", "--k", "1", "--n", "3", "--seed", "12", "--count", "3"],
         None),
        (["sample", "--dist", "langevin", "--params", str(params), "--seed", "12",
          "--count", "2", "--burn-in", "40", "--thin", "2"], None),
    ]
    for argv, expected in commands:
        assert main(list(argv)) == 0
        first = capsys.readouterr().out
        assert main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second and first.strip()
        if expected is not None:
            assert float(first.splitlines()[0]) == pytest.approx(expected, abs=1e-12)
    assert main(["invariant", "--what", "homotopy", "1", "2", "1"]) == 0
    assert capsys.readouterr().out.strip() == "Z"
    assert main(["geodesic", paths["xaxis"], paths["line1"], "--t", "0.5"]) == 0
    midline = json.loads(capsys.readouterr().out)
    assert midline["b"][1] == pytest.approx(math.tan(math.pi / 8), abs=1e-10)
    _report(9, "all CLI golden outputs bit-identical across repeated runs")
