import json
import math
import warnings

import numpy as np
import pytest

from graff import (
    AffineFlat,
    DegenerateSpectrum,
    DimensionError,
    LabeledCloud,
    NotSeparable,
    PointCloud,
    RankDeficient,
    delta_distance,
    equal_flats,
    fit_flat,
    linear_regression,
    make_flat,
    point_to_flat_distance,
    svm_hyperplane,
)

from graff.io import dumps_document, flat_from_document, flat_to_document

from conftest import horizontal_line, random_flat


def _cloud_loss(cloud: PointCloud, flat: AffineFlat) -> float:
    return sum(point_to_flat_distance(x, flat) ** 2 for x in cloud.X)


def _batched_losses(X: np.ndarray, bases: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum of squared residuals of points X against a batch of flats."""
    centered = X[None, :, :] - offsets[:, None, :]
    coeffs = np.einsum("bmd,bdk->bmk", centered, bases)
    residual = centered - np.einsum("bmk,bdk->bmd", coeffs, bases)
    return np.sum(residual**2, axis=(1, 2))


class TestPointToFlatDistance:
    def test_point_on_flat(self, rng):
        flat = random_flat(rng, 4, 2)
        x = flat.b0 + flat.A @ rng.standard_normal(2)
        assert point_to_flat_distance(x, flat) < 1e-12

    def test_vertical_residual(self):
        assert point_to_flat_distance([0.0, 2.0], horizontal_line(1.0)) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            point_to_flat_distance([1.0, 2.0, 3.0], horizontal_line(1.0))

    def test_extreme_points(self):
        diagonal = make_flat([[1.0], [1.0]], [0.0, 0.0])
        far_below = AffineFlat([[1.0], [0.0]], [0.0, -1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                point_to_flat_distance([np.nan, 0.0], diagonal)
            assert point_to_flat_distance([1e300, -1e300], diagonal) == pytest.approx(
                math.sqrt(2.0) * 1e300, rel=1e-15)
            with pytest.raises(ValueError, match="too large to represent"):
                point_to_flat_distance([1e308, 1e308], far_below)

    def test_overflowing_projection_with_a_representable_distance(self):
        # (I - a a^T) x has an entry near 2.3e308, past the floats; the distance is near 6e307.
        a = np.array([1.0, 1.0, -1.0]) / math.sqrt(3.0)
        x = np.full(3, 1.7e308)
        quarter = x / 4.0 - a * (a @ (x / 4.0))
        flat = AffineFlat(a[:, None], 4.0 * (0.785 * quarter))
        expected = 4.0 * math.hypot(*(quarter - flat.b0 / 4.0).tolist())
        assert point_to_flat_distance(x, flat) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(5.9686e307, rel=1e-4)


@pytest.mark.parametrize("X", [np.ones(3), np.zeros((0, 2)), np.zeros((2, 0))])
def test_point_cloud_refuses_a_vector_or_an_empty_matrix(X):
    with pytest.raises(DimensionError, match="X must be a nonempty n_points x d matrix"):
        PointCloud(X)


class TestFitFlat:
    def test_exact_horizontal_line(self):
        cloud = PointCloud(np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]]))
        fitted = fit_flat(cloud, 1)
        assert equal_flats(fitted, horizontal_line(1.0), 1e-10)
        np.testing.assert_allclose(np.abs(fitted.A[:, 0]), [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(fitted.b0, [0.0, 1.0], atol=1e-12)

    def test_two_point_diagonal(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]))
        fitted = fit_flat(cloud, 1)
        expected = make_flat(np.array([1.0, 1.0]), np.zeros(2))
        assert equal_flats(fitted, expected, 1e-12)
        assert np.linalg.norm(fitted.b0) < 1e-12

    @pytest.mark.parametrize("offset", [1e10, 1e12])
    def test_cloud_on_a_far_line_passes_the_public_check(self, offset):
        # mean - A A^T mean cancels down to an eps |mean| residue along A;
        # projected once more, the flat passes AffineFlat and reads back.
        t = offset + 1e3 * np.arange(8.0)
        fitted = fit_flat(PointCloud(np.column_stack([t, t])), 1)
        AffineFlat(fitted.A, fitted.b0)
        np.testing.assert_allclose(fitted.A[:, 0], [2.0**-0.5, 2.0**-0.5], rtol=0.0, atol=1e-15)
        assert np.linalg.norm(fitted.b0) <= 1e-15 * offset
        back = flat_from_document(json.loads(dumps_document(flat_to_document(fitted))))
        assert equal_flats(back, fitted, 1e-12)

    def test_k_zero_returns_mean_point(self, rng):
        X = rng.standard_normal((20, 3))
        fitted = fit_flat(PointCloud(X), 0)
        np.testing.assert_allclose(fitted.b0, X.mean(axis=0), atol=1e-14)

    def test_planted_flat_recovery(self, rng):
        truth = random_flat(rng, 5, 2)
        coeffs = rng.standard_normal((200, 2))
        noise = 1e-3 * rng.standard_normal((200, 5))
        X = truth.b0[None, :] + coeffs @ truth.A.T + noise
        fitted = fit_flat(PointCloud(X), 2)
        assert delta_distance(fitted, truth) <= 1e-2
        # No sampled competitor does better on the training loss.
        fitted_loss = _cloud_loss(PointCloud(X), fitted)
        bases = np.linalg.qr(rng.standard_normal((2000, 5, 2)))[0]
        offsets = X.mean(axis=0) + 0.1 * rng.standard_normal((2000, 5))
        assert np.all(_batched_losses(X, bases, offsets) >= fitted_loss - 1e-9)

    def test_random_search_never_beats_fit(self, rng):
        for n_points, d, k in [(6, 2, 1), (8, 3, 1), (8, 3, 2)]:
            X = rng.standard_normal((n_points, d))
            fitted = fit_flat(PointCloud(X), k)
            fitted_loss = _cloud_loss(PointCloud(X), fitted)
            bases = np.linalg.qr(rng.standard_normal((100_000, d, k)))[0]
            offsets = X.mean(axis=0) + rng.standard_normal((100_000, d))
            assert np.all(_batched_losses(X, bases, offsets) >= fitted_loss - 1e-9)

    def test_rigid_motion_equivariance(self, rng):
        for _ in range(10):
            X = rng.standard_normal((30, 4))
            R = np.linalg.qr(rng.standard_normal((4, 4)))[0]
            v = rng.standard_normal(4)
            fitted = fit_flat(PointCloud(X), 2)
            moved = fit_flat(PointCloud(X @ R.T + v), 2)
            expected = make_flat(R @ fitted.A, R @ fitted.b0 + v)
            assert equal_flats(moved, expected, 1e-8)

    def test_translation_leaves_residuals_unchanged(self, rng):
        X = rng.standard_normal((12, 3))
        v = rng.standard_normal(3)
        flat = fit_flat(PointCloud(X), 1)
        shifted = fit_flat(PointCloud(X + v), 1)
        for x in X:
            assert point_to_flat_distance(x, flat) == pytest.approx(
                point_to_flat_distance(x + v, shifted), abs=1e-10
            )

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_huge_cloud_is_the_scaled_ordinary_fit(self, rng, k):
        # Entries up to 1.79e308: the mean and the centring are taken after a
        # power-of-two scaling, so they neither overflow nor lose a bit.
        X = rng.uniform(-1.0, 1.0, (50, 3))
        huge, ordinary = fit_flat(PointCloud(np.ldexp(X, 1024)), k), fit_flat(PointCloud(X), k)
        np.testing.assert_array_equal(huge.A, ordinary.A)
        np.testing.assert_array_equal(huge.b0, np.ldexp(ordinary.b0, 1024))

    def test_spectral_tie_warns(self):
        square = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        with pytest.warns(DegenerateSpectrum):
            fit_flat(PointCloud(square), 1)

    def test_raw_array_is_read_as_a_point_cloud(self, rng):
        X = rng.standard_normal((6, 3))
        raw, cloud = fit_flat(X, 1), fit_flat(PointCloud(X), 1)
        np.testing.assert_array_equal(raw.A, cloud.A)
        np.testing.assert_array_equal(raw.b0, cloud.b0)

    def test_preconditions(self, rng):
        X = rng.standard_normal((5, 3))
        with pytest.raises(DimensionError):
            fit_flat(PointCloud(X), 3)
        with pytest.raises(DimensionError):
            fit_flat(PointCloud(X[:2]), 2)
        with pytest.raises(DimensionError, match="integer"):
            fit_flat(PointCloud(X), 1.5)


class TestLinearRegression:
    def test_exact_proportionality(self):
        flat, beta = linear_regression(np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 6.0]))
        np.testing.assert_allclose(beta, [2.0, 0.0], atol=1e-12)
        expected = make_flat(np.array([1.0, 2.0]), np.zeros(2))
        assert equal_flats(flat, expected, 1e-10)

    def test_hand_computed_coefficients(self):
        flat, beta = linear_regression(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0]))
        np.testing.assert_allclose(beta, [0.5, 1.0 / 6.0], atol=1e-12)
        assert flat.n == 2 and flat.k == 1

    def test_residual_orthogonality(self, rng):
        X = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        _, beta = linear_regression(X, y)
        design = np.column_stack([X, np.ones(40)])
        residual = design @ beta - y
        assert np.abs(design.T @ residual).max() < 1e-10

    def test_flat_contains_exact_fits(self, rng):
        X = rng.standard_normal((25, 2))
        beta_true = np.array([1.5, -2.0])
        y = X @ beta_true + 0.25
        flat, beta = linear_regression(X, y)
        np.testing.assert_allclose(beta, [1.5, -2.0, 0.25], atol=1e-10)
        for row, response in zip(X, y):
            assert point_to_flat_distance(np.append(row, response), flat) < 1e-10

    def test_graph_prediction(self, rng):
        X = rng.standard_normal((30, 2))
        y = rng.standard_normal(30)
        flat, beta = linear_regression(X, y)
        z = rng.standard_normal(2)
        prediction = float(z @ beta[:2] + beta[2])
        assert point_to_flat_distance(np.append(z, prediction), flat) < 1e-10

    @pytest.mark.parametrize("scale", [2.0**-600, 1e-20, 1e300])
    def test_scaled_cloud_keeps_beta_and_scales_the_intercept(self, rng, scale):
        X = rng.standard_normal((20, 3))
        y = X @ [1.0, 2.0, 3.0] + 0.5 + 0.01 * rng.standard_normal(20)
        _, coeffs = linear_regression(X, y)
        _, scaled = linear_regression(X * scale, y * scale)
        np.testing.assert_allclose(scaled[:3], coeffs[:3], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(scaled[3] / scale, coeffs[3], rtol=1e-12, atol=0.0)

    def test_coefficients_past_the_floats_are_a_value_error(self):
        with pytest.raises(ValueError, match="too large to represent"):
            linear_regression(np.array([0.0, 1e-300, 2e-300]), np.array([0.0, 1e300, 2e300]))

    def test_rank_deficient_design(self):
        X = np.ones((4, 1))  # collinear with the intercept column
        with pytest.raises(RankDeficient):
            linear_regression(X, np.arange(4.0))


def test_eiv_line_is_fit_flat_k1():
    cloud = PointCloud(np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]]))
    assert equal_flats(fit_flat(cloud, 1), horizontal_line(1.0), 1e-10)
    diagonal = PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert equal_flats(fit_flat(diagonal, 1), make_flat([[1.0], [1.0]], [0.0, 0.0]), 1e-14)


def _feasible_competitors(X, y, w_opt, rng, count=10_000):
    """Random (w, beta) rescaled onto the margin boundary; yields |w| values."""
    norms = []
    while len(norms) < count:
        W = rng.standard_normal((4 * count, X.shape[1]))
        B = rng.standard_normal(4 * count)
        margins = y[None, :] * (W @ X.T - B[:, None])
        worst = margins.min(axis=1)
        good = worst > 1e-9
        scaled = np.linalg.norm(W[good], axis=1) / worst[good]
        norms.extend(scaled.tolist())
    return np.asarray(norms[:count])


def _planted_margin_cloud(seed, rows=1000, features=5):
    """perfbench's cli_batch SVM recipe: rows x ~ N(0, 4 I) with |x.w - 0.3| >= 0.5.

    One (10 rows, features) draw gives the same stream as one draw per row.
    """
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(features)
    X = 2.0 * rng.standard_normal((10 * rows, features))
    margin = X @ w - 0.3
    keep = np.flatnonzero(np.abs(margin) >= 0.5)[:rows]
    assert keep.size == rows
    return X[keep], np.sign(margin[keep])


class TestSvmHyperplane:
    def test_one_dimensional_pair(self):
        data = LabeledCloud(np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]))
        flat, w, beta = svm_hyperplane(data)
        assert w == pytest.approx(np.array([1.0]), abs=1e-8)
        assert beta == pytest.approx(0.0, abs=1e-8)
        assert flat.k == 0 and flat.n == 1
        np.testing.assert_allclose(flat.b0, [0.0], atol=1e-8)

    def test_two_dimensional_pair(self):
        data = LabeledCloud(np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([-1.0, 1.0]))
        flat, w, beta = svm_hyperplane(data)
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-8)
        assert beta == pytest.approx(1.0, abs=1e-8)
        expected = AffineFlat(np.array([[0.0], [1.0]]), np.array([1.0, 0.0]))
        assert equal_flats(flat, expected, 1e-8)

    def test_interior_points_do_not_move_optimum(self):
        base = LabeledCloud(np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([-1.0, 1.0]))
        _, w0, b0 = svm_hyperplane(base)
        augmented = LabeledCloud(
            np.array([[0.0, 0.0], [2.0, 0.0], [9.0, 3.0], [-7.0, -2.0]]),
            np.array([-1.0, 1.0, 1.0, -1.0]),
        )
        _, w1, b1 = svm_hyperplane(augmented)
        np.testing.assert_allclose(w0, w1, atol=1e-7)
        assert b0 == pytest.approx(b1, abs=1e-7)

    def test_margins_and_hyperplane_geometry(self, rng):
        centers = np.array([3.0, -1.0, 2.0])
        X = np.vstack(
            [
                centers + rng.standard_normal((20, 3)) + np.array([4.0, 0.0, 0.0]),
                centers + rng.standard_normal((20, 3)) - np.array([4.0, 0.0, 0.0]),
            ]
        )
        y = np.concatenate([np.ones(20), -np.ones(20)])
        flat, w, beta = svm_hyperplane(LabeledCloud(X, y))
        assert np.all(y * (X @ w - beta) >= 1.0 - 1e-6)
        assert flat.k == 2
        # Every point of the flat satisfies w.x = beta.
        for _ in range(10):
            point = flat.b0 + flat.A @ rng.standard_normal(2)
            assert float(w @ point) == pytest.approx(beta, abs=1e-8)

    def test_no_random_feasible_competitor_is_shorter(self, rng):
        X = np.array([[0.0, 0.0], [2.0, 0.0], [2.5, 1.5], [-0.5, -1.0]])
        y = np.array([-1.0, 1.0, 1.0, -1.0])
        _, w, _ = svm_hyperplane(LabeledCloud(X, y))
        competitor_norms = _feasible_competitors(X, y, w, rng)
        assert np.all(competitor_norms >= np.linalg.norm(w) - 1e-6)

    @pytest.mark.parametrize("seed", range(40))
    def test_planted_margin_clouds_touch_both_margins(self, seed):
        X, y = _planted_margin_cloud(seed)
        _, w, beta = svm_hyperplane(LabeledCloud(X, y))
        margins = y * (X @ w - beta)
        for label in (1.0, -1.0):
            assert margins[y == label].min() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("scale, offset", [
        pytest.param(2.0**-500, 0.0, id="2**-500-0.0"), (1e-160, 0.0), (1.0, 0.0), (1e150, 0.0),
        (1e300, 0.0), (1.0, 1e8), pytest.param(2.0**-40, 8.0, id="2**-40-8.0"),
    ])
    def test_answer_follows_the_scale_and_offset_of_the_cloud(self, scale, offset):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 0.0], [3.0, 1.0]]) * scale + offset
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flat, w, beta = svm_hyperplane(LabeledCloud(X, y))
        assert np.linalg.norm(w * scale - [2.0 / 3.0, 0.0]) <= 1e-12 * (2.0 / 3.0)
        assert beta == pytest.approx(1.0 + 2.0 * offset / (3.0 * scale), rel=1e-12)
        assert np.linalg.norm(flat.b0 - [1.5 * scale + offset, 0.0]) <= 1e-12 * flat.b0[0]
        np.testing.assert_array_equal(flat.A, [[0.0], [1.0]])

    def test_w_past_the_floats_is_a_value_error(self):
        # Two subnormal points 5e-324 apart need |w| near 4e323.
        data = LabeledCloud(np.array([[5e-324], [1e-323]]), np.array([-1.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too large to represent"):
                svm_hyperplane(data)

    def test_refusals_match_linear_programming_and_w_matches_slsqp(self, rng):
        optimize = pytest.importorskip("scipy.optimize")
        for _ in range(120):
            d, m = int(rng.integers(1, 4)), int(rng.integers(3, 10))
            X, y = rng.standard_normal((m, d)), rng.choice([-1.0, 1.0], m)
            y[:2] = 1.0, -1.0
            rows = y[:, None] * np.column_stack([X, -np.ones(m)])  # y (w.x - beta) >= 1
            lp = optimize.linprog(np.zeros(d + 1), A_ub=-rows, b_ub=-np.ones(m),
                                  bounds=(None, None))
            try:
                _, w, _ = svm_hyperplane(LabeledCloud(X, y))
            except NotSeparable:
                assert lp.status == 2
                continue
            assert lp.status == 0
            margin = {"type": "ineq", "fun": lambda v: rows @ v - 1.0, "jac": lambda v: rows}
            qp = optimize.minimize(
                lambda v: v[:d] @ v[:d], lp.x, jac=lambda v: np.append(2.0 * v[:d], 0.0),
                constraints=margin, method="SLSQP", options={"ftol": 1e-15, "maxiter": 1000})
            assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(qp.x[:d]), rel=1e-9)

    def test_not_separable(self):
        data = LabeledCloud(
            np.array([[0.0], [1.0], [2.0]]), np.array([1.0, -1.0, 1.0])
        )
        with pytest.raises(NotSeparable):
            svm_hyperplane(data)

    def test_duplicate_point_conflicting_labels(self):
        data = LabeledCloud(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, -1.0]))
        with pytest.raises(NotSeparable):
            svm_hyperplane(data)

    def test_refuses_an_unlabeled_cloud(self):
        with pytest.raises(TypeError, match="svm_hyperplane expects a LabeledCloud"):
            svm_hyperplane(PointCloud(np.array([[0.0], [1.0]])))

    def test_label_validation(self):
        with pytest.raises(ValueError):
            LabeledCloud(np.array([[0.0], [1.0]]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            LabeledCloud(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
        with pytest.raises(DimensionError):
            LabeledCloud(np.array([[0.0], [1.0]]), np.array([1.0, -1.0, 1.0]))
        assert isinstance(LabeledCloud(np.array([[0.0], [1.0]]), np.array([1.0, -1.0])), PointCloud)
