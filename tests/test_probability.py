import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from graff import (
    DimensionError,
    GraffError,
    LangevinGaussianParams,
    LangevinParams,
    MHConfig,
    NotAFlat,
    affine_principal_angles,
    equal_flats,
    grassmann_normalizer,
    langevin_gaussian_log_density_unnormalized,
    langevin_gaussian_run,
    langevin_log_density_unnormalized,
    langevin_mh_run,
    langevin_normalizer,
    make_flat,
    pad_ambient,
    projection_coords,
    random_stream,
    sample_uniform,
    stiefel_coords,
    unembed,
)

from graff import _lapack, probability
from graff.probability import _chain_length

from conftest import random_flat, x_axis


def _weighted_mean_and_se(values, weights):
    total = weights.sum()
    mean = float((weights * values).sum() / total)
    se = math.sqrt(float((weights**2 * (values - mean) ** 2).sum()) / total**2)
    return mean, se


def _batch_mean_and_se(values, n_batches=20):
    batches = np.array_split(np.asarray(values), n_batches)
    means = np.array([batch.mean() for batch in batches])
    return float(means.mean()), float(means.std(ddof=1) / math.sqrt(n_batches))


class TestSampleUniform:
    def test_non_integer_dimensions_are_refused(self):
        with pytest.raises(DimensionError, match="integer"):
            sample_uniform(1.5, 3, random_stream(0))
        with pytest.raises(DimensionError, match="integer"):
            LangevinParams(S=np.eye(4), k=1.5, n=3)
        with pytest.raises(DimensionError, match="integer"):
            grassmann_normalizer(np.eye(3), 1, 3.5, 100, random_stream(0))

    @pytest.mark.parametrize("k", [math.inf, math.nan])
    def test_non_finite_dimensions_are_refused(self, k):
        with pytest.raises(DimensionError, match="integer"):
            sample_uniform(k, 3, random_stream(0))

    def test_seed_determinism(self):
        first = sample_uniform(2, 5, random_stream(7))
        second = sample_uniform(2, 5, random_stream(7))
        np.testing.assert_array_equal(first.A, second.A)
        np.testing.assert_array_equal(first.b0, second.b0)
        third = sample_uniform(2, 5, random_stream(8))
        assert not equal_flats(first, third, 1e-6)

    def test_outputs_are_valid_flats(self, rng):
        for _ in range(200):
            flat = sample_uniform(1, 3, rng)
            assert flat.k == 1 and flat.n == 3
            assert np.abs(flat.A.T @ flat.A - np.eye(1)).max() < 1e-12
            assert np.abs(flat.A.T @ flat.b0).max() < 1e-10 * max(1.0, np.linalg.norm(flat.b0))

    def test_mean_projection_is_isotropic(self, rng):
        k, n, draws = 1, 3, 20_000
        acc = np.zeros((n + 1, n + 1))
        acc2 = np.zeros((n + 1, n + 1))
        for _ in range(draws):
            P = projection_coords(sample_uniform(k, n, rng)).P
            acc += P
            acc2 += P**2
        mean = acc / draws
        se = np.sqrt(np.maximum(acc2 / draws - mean**2, 0.0) / draws)
        target = (k + 1) / (n + 1) * np.eye(n + 1)
        assert np.abs(mean - target).max() < 0.02
        assert np.all(np.abs(mean - target) <= 4.0 * se + 1e-12)

    def test_first_angle_is_exchangeable(self):
        draws = 10_000
        rng1, rng2 = random_stream(11), random_stream(12)
        sample_fg = np.empty(draws)
        sample_gf = np.empty(draws)
        for i in range(draws):
            f1, g1 = sample_uniform(1, 3, rng1), sample_uniform(1, 3, rng1)
            f2, g2 = sample_uniform(1, 3, rng2), sample_uniform(1, 3, rng2)
            sample_fg[i] = affine_principal_angles(f1, g1)[0]
            sample_gf[i] = affine_principal_angles(g2, f2)[0]
        assert stats.ks_2samp(sample_fg, sample_gf).pvalue > 0.01

    @pytest.mark.parametrize("k, n", [(0, 1), (0, 5), (1, 2), (4, 5), (2, 5), (8, 64)])
    def test_matches_unembedding_a_gaussian_draw(self, k, n):
        # sample_uniform skips unembed's input checks on its own draw; flats
        # and the generator state must be those of unembed on the same draws.
        def by_unembed(rng):
            for _ in range(100):
                try:
                    return unembed(rng.standard_normal((n + 1, k + 1)))
                except NotAFlat:
                    continue

        rng, reference = random_stream(k + 100 * n), random_stream(k + 100 * n)
        for _ in range(50):
            flat, expected = sample_uniform(k, n, rng), by_unembed(reference)
            assert flat.A.tobytes() == expected.A.tobytes()
            assert flat.b0.tobytes() == expected.b0.tobytes()
        assert rng.standard_normal() == reference.standard_normal()

    def test_point_draws(self, rng):
        flat = sample_uniform(0, 2, rng)
        assert flat.k == 0 and flat.n == 2

    def test_rejects_bad_dimensions(self, rng):
        with pytest.raises(DimensionError):
            sample_uniform(3, 3, rng)


class TestLangevinDensity:
    def test_zero_parameter_is_uniform(self, rng):
        params = LangevinParams(S=np.zeros((4, 4)), k=1, n=3)
        for _ in range(5):
            assert langevin_log_density_unnormalized(sample_uniform(1, 3, rng), params) == 0.0

    def test_identity_parameter_gives_trace(self, rng):
        params = LangevinParams(S=np.eye(4), k=1, n=3)
        for _ in range(5):
            value = langevin_log_density_unnormalized(sample_uniform(1, 3, rng), params)
            assert value == pytest.approx(2.0, abs=1e-12)

    def test_bingham_identity(self, rng):
        # tr(P S P) = tr(S P) for projections: the second-order density is
        # the same distribution.
        for _ in range(100):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(0, n))
            flat = random_flat(rng, n, k)
            S = rng.standard_normal((n + 1, n + 1))
            S = 0.5 * (S + S.T)
            P = projection_coords(flat).P
            assert abs(np.trace(P @ S @ P) - np.trace(S @ P)) < 1e-10

    def test_dimension_mismatch(self, rng):
        params = LangevinParams(S=np.zeros((4, 4)), k=1, n=3)
        with pytest.raises(DimensionError):
            langevin_log_density_unnormalized(random_flat(rng, 4, 1), params)
        with pytest.raises(DimensionError, match="S must be 4 x 4"):
            LangevinParams(S=np.zeros((3, 3)), k=1, n=3)

    def test_params_symmetrized(self):
        S = np.array([[0.0, 1.0], [0.0, 0.0]])
        params = LangevinParams(S=S, k=0, n=1)
        np.testing.assert_allclose(params.S, [[0.0, 0.5], [0.5, 0.0]])

    def test_entries_past_1e300_are_refused(self, rng):
        """S + S^T would overflow near 1.8e308; the bound is sigma2's and step_size's."""
        assert LangevinParams(S=-1e300 * np.eye(3), k=1, n=2).S[0, 0] == -1e300
        for S in (1.7e308 * np.eye(3), np.diag([0.0, 0.0, -1e301])):
            with pytest.raises(DimensionError, match=r"S entries must be at most 1e\+300"):
                LangevinParams(S=S, k=1, n=2)
            with pytest.raises(DimensionError, match=r"S entries must be at most 1e\+300"):
                LangevinGaussianParams(S=S, sigma2=1.0, k=1, n=3)
            with pytest.raises(DimensionError, match=r"S entries must be at most 1e\+300"):
                grassmann_normalizer(S, 1, 3, 100, rng)


class TestLangevinNormalizer:
    def test_zero_parameter(self, rng):
        params = LangevinParams(S=np.zeros((4, 4)), k=1, n=3)
        estimate, se = langevin_normalizer(params, 200, rng)
        assert estimate == 1.0
        assert se == 0.0

    def test_scaled_identity_has_zero_variance(self, rng):
        c = 0.7
        params = LangevinParams(S=c * np.eye(4), k=1, n=3)
        estimate, se = langevin_normalizer(params, 500, rng)
        assert estimate == pytest.approx(math.exp(c * 2.0), rel=1e-12)
        assert se <= 1e-12 * estimate

    def test_stable_across_seeds(self):
        S = np.diag([1.0, 0.5, -0.3, 0.0])
        params = LangevinParams(S=S, k=1, n=3)
        est1, se1 = langevin_normalizer(params, 4000, random_stream(1))
        est2, se2 = langevin_normalizer(params, 4000, random_stream(2))
        assert abs(est1 - est2) <= 3.0 * math.hypot(se1, se2)

    def test_minimum_sample_size(self, rng):
        params = LangevinParams(S=np.zeros((3, 3)), k=0, n=2)
        with pytest.raises(ValueError):
            langevin_normalizer(params, 50, rng)

    @pytest.mark.parametrize("k, n", [(0, 2), (1, 3), (2, 5), (3, 4)])
    def test_matches_flat_by_flat_estimator(self, k, n):
        # The estimator on Gr(k+1, n+1) frames against the mean of exp(tr(S P))
        # over uniformly drawn flats: same draws, same numbers up to rounding.
        G = random_stream(k + 10 * n).standard_normal((n + 1, n + 1))
        for S in ((G + G.T) / 2.0, 0.7 * np.eye(n + 1)):
            params = LangevinParams(S=S, k=k, n=n)
            estimate, se = langevin_normalizer(params, 300, random_stream(11))
            rng = random_stream(11)
            values = np.array([
                math.exp(float(np.sum(params.S * projection_coords(sample_uniform(k, n, rng)).P)))
                for _ in range(300)
            ])
            assert estimate == pytest.approx(values.mean(), rel=1e-12, abs=0.0)
            assert abs(se - values.std(ddof=1) / math.sqrt(300)) <= 1e-12 * estimate


def _normalizer_one_by_one(S, k, n, n_samples, rng):
    """The normalizer with one draw and one QR per sample, in stream order."""
    S = 0.5 * (np.asarray(S, dtype=float) + np.asarray(S, dtype=float).T)
    values = []
    for _ in range(n_samples):
        A = np.linalg.qr(rng.standard_normal((n, k)))[0] if k else np.zeros((n, 0))
        values.append(math.exp(float(np.sum(S * (A @ A.T)))))
    values = np.array(values)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n_samples))


class TestStackedNormalizer:
    @pytest.mark.parametrize("k, n, n_samples", [(2, 5, 300), (4, 4, 200), (2, 6, 11_000)])
    def test_matches_one_draw_at_a_time(self, k, n, n_samples):
        # (2, 6, 11_000) spans two blocks of 2**17 Gaussian entries.
        G = random_stream(k + 10 * n).standard_normal((n, n))
        for S in ((G + G.T) / 2.0, 0.3 * G):
            rng, reference = random_stream(5), random_stream(5)
            estimate, se = grassmann_normalizer(S, k, n, n_samples, rng)
            expected, expected_se = _normalizer_one_by_one(S, k, n, n_samples, reference)
            assert estimate == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert se == pytest.approx(expected_se, rel=1e-9, abs=1e-14 * expected)
            assert rng.standard_normal() == reference.standard_normal()

    def test_one_draw_and_one_qr_per_block(self, monkeypatch):
        shapes, qr = [], _lapack.qr
        monkeypatch.setattr(_lapack, "qr", lambda M: shapes.append(M.shape) or qr(M))
        grassmann_normalizer(np.eye(6), 2, 6, 11_000, random_stream(5))
        assert shapes == [(10_922, 6, 2), (78, 6, 2)]

    def test_points_draw_nothing(self):
        rng = random_stream(5)
        assert grassmann_normalizer(np.eye(3), 0, 3, 200, rng) == (1.0, 0.0)
        assert rng.standard_normal() == random_stream(5).standard_normal()

    @pytest.mark.parametrize("k, n", [(1, 3), (3, 3), (2, 6)])
    def test_scaled_identity_is_exact(self, k, n):
        rng = random_stream(5)
        estimate, se = grassmann_normalizer(0.7 * np.eye(n), k, n, 11_000, rng)
        assert estimate == pytest.approx(math.exp(0.7 * k), rel=1e-12, abs=0.0)
        assert se <= 1e-12 * estimate


def _chain_one_by_one(params, n_steps, step_size, rng, burn_in, thin):
    """The Metropolis-Hastings chain with np.linalg.qr proposals and kept
    states rebuilt by unembed, in the library's stream order."""
    Y = np.array(stiefel_coords(sample_uniform(params.k, params.n, rng)).Y)
    current = float(np.sum(params.S * (Y @ Y.T)))
    kept, accepted = [], 0
    for step in range(n_steps):
        proposal = np.linalg.qr(Y + step_size * rng.standard_normal(Y.shape))[0]
        if np.linalg.norm(proposal[-1]) >= 1e-10:
            new = float(np.sum(params.S * (proposal @ proposal.T)))
            if math.log(max(rng.uniform(), 1e-300)) <= new - current:
                Y, current = proposal, new
                accepted += 1
        if step >= burn_in and (step - burn_in) % thin == 0:
            kept.append(unembed(Y))
    return kept, accepted / n_steps


class TestLangevinSampler:
    @pytest.mark.parametrize("k, n", [(0, 3), (1, 3), (2, 5)])
    def test_matches_the_unembedding_chain(self, k, n):
        G = random_stream(k + 10 * n).standard_normal((n + 1, n + 1))
        params = LangevinParams(S=(G + G.T) / 2.0, k=k, n=n)
        rng, reference = random_stream(13), random_stream(13)
        samples, rate = langevin_mh_run(params, 1500, 0.35, rng, burn_in=100, thin=5)
        expected, expected_rate = _chain_one_by_one(params, 1500, 0.35, reference, 100, 5)
        assert rate == expected_rate
        assert len(samples) == len(expected)
        for flat, other in zip(samples, expected):
            np.testing.assert_allclose(projection_coords(flat).P, projection_coords(other).P,
                                       rtol=0.0, atol=1e-14)
        assert rng.standard_normal() == reference.standard_normal()

    def test_flat_target_accepts_everything(self):
        params = LangevinParams(S=np.zeros((4, 4)), k=1, n=3)
        _, rate = langevin_mh_run(params, 500, 0.1, random_stream(3))
        assert rate == 1.0

    def test_returns_valid_flat(self, rng):
        params = LangevinParams(S=np.diag([2.0, 0.0, 0.0, 0.0]), k=1, n=3)
        [flat], _ = langevin_mh_run(params, 200, 0.1, rng, burn_in=199)
        assert flat.k == 1 and flat.n == 3

    def test_concentration_raises_leading_entry(self):
        c = 8.0
        params = LangevinParams(S=np.diag([c, 0.0, 0.0, 0.0]), k=1, n=3)
        samples, _ = langevin_mh_run(
            params, 20_000, 0.35, random_stream(17), burn_in=2000, thin=9
        )
        mean_p11 = np.mean([projection_coords(f).P[0, 0] for f in samples])
        assert mean_p11 > (1 + 1) / (3 + 1) + 0.1

    def test_matches_importance_reweighting(self):
        k, n = 1, 3
        S = np.diag([1.5, -0.5, 0.25, 0.0])
        params = LangevinParams(S=S, k=k, n=n)
        rng = random_stream(23)
        draws = 4000
        weights = np.empty(draws)
        p11 = np.empty(draws)
        for i in range(draws):
            P = projection_coords(sample_uniform(k, n, rng)).P
            weights[i] = math.exp(float(np.sum(S * P)))
            p11[i] = P[0, 0]
        is_mean, is_se = _weighted_mean_and_se(p11, weights)
        samples, _ = langevin_mh_run(
            params, 21_000, 0.4, random_stream(29), burn_in=1000, thin=10
        )
        mh_values = [projection_coords(f).P[0, 0] for f in samples]
        mh_mean, mh_se = _batch_mean_and_se(mh_values)
        assert abs(is_mean - mh_mean) <= 3.0 * math.hypot(is_se, mh_se)

    def test_flat_target_reproduces_uniform_statistics(self):
        probe = np.diag([1.0, -1.0, 0.5, 0.25])
        params = LangevinParams(S=np.zeros((4, 4)), k=1, n=3)
        samples, _ = langevin_mh_run(
            params, 10_000, 0.8, random_stream(31), burn_in=500, thin=2
        )
        mh_stats = [float(np.sum(probe * projection_coords(f).P)) for f in samples]
        rng = random_stream(37)
        uni_stats = [
            float(np.sum(probe * projection_coords(sample_uniform(1, 3, rng)).P))
            for _ in range(4000)
        ]
        assert stats.ks_2samp(mh_stats, uni_stats).pvalue > 0.01


class TestMHLaw:
    """The chain's mean P against the exact moments of the matrix Langevin law.

    Under exp(c P_11) on Gr(p, N), P_11 is a Beta(a, b - a) variable tilted by
    exp(c x), with a = p/2 and b = N/2, so E[P_11] is the Kummer ratio
    (a/b) 1F1(a+1; b+1; c) / 1F1(a; b; c) (Chikuse 2003, Muirhead 1982).
    """

    @staticmethod
    def _chain_p(params):
        samples, _ = langevin_mh_run(params, 20_000, 0.5, random_stream(1101), burn_in=1000,
                                     thin=5)
        return np.array([projection_coords(flat).P for flat in samples])

    @pytest.mark.parametrize("k, n, c", [(0, 2, 3.0), (1, 3, 2.0), (2, 5, -2.0)])
    def test_rank_one_mean_is_the_kummer_ratio(self, k, n, c):
        S = np.zeros((n + 1, n + 1))
        S[0, 0] = c
        a, b = (k + 1) / 2, (n + 1) / 2
        exact = a / b * special.hyp1f1(a + 1, b + 1, c) / special.hyp1f1(a, b, c)
        mean, se = _batch_mean_and_se(self._chain_p(LangevinParams(S=S, k=k, n=n))[:, 0, 0])
        assert abs(mean - exact) <= 4.0 * se

    def test_flat_target_mean_is_isotropic(self):
        k, n = 1, 3
        P = self._chain_p(LangevinParams(S=np.zeros((n + 1, n + 1)), k=k, n=n))
        expected = (k + 1) / (n + 1) * np.eye(n + 1)
        for i, j in zip(*np.triu_indices(n + 1)):
            mean, se = _batch_mean_and_se(P[:, i, j])
            assert abs(mean - expected[i, j]) <= 4.0 * se, (i, j)


class TestLangevinGaussian:
    def test_gaussian_mode_value(self, rng):
        n, k, sigma2 = 4, 1, 0.5
        params = LangevinGaussianParams(S=np.zeros((n, n)), sigma2=sigma2, k=k, n=n)
        A = np.zeros((n, k))
        A[0, 0] = 1.0
        from graff import AffineFlat

        flat = AffineFlat(A, np.zeros(n))
        expected = -0.5 * (n - k) * math.log(2.0 * math.pi * sigma2)
        normalizer, _ = grassmann_normalizer(params.S, params.k, params.n, 2000, rng)
        value = langevin_gaussian_log_density_unnormalized(flat, params) - math.log(normalizer)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_density_ratio_in_displacement(self, rng):
        n, k = 5, 2
        params = LangevinGaussianParams(
            S=np.diag([1.0, -1.0, 0.5, 0.0, 0.0]), sigma2=0.7, k=k, n=n
        )
        flat = random_flat(rng, n, k)
        from graff import AffineFlat

        doubled = AffineFlat(flat.A, 2.0 * flat.b0)
        ratio = (langevin_gaussian_log_density_unnormalized(flat, params)
                 - langevin_gaussian_log_density_unnormalized(doubled, params))
        b2 = float(flat.b0 @ flat.b0)
        assert ratio == pytest.approx(3.0 * b2 / (2.0 * params.sigma2), abs=1e-10)

    def test_basis_rotation_invariance(self, rng):
        n, k = 5, 2
        params = LangevinGaussianParams(S=rng.standard_normal((n, n)), sigma2=1.0, k=k, n=n)
        flat = random_flat(rng, n, k)
        Q = np.linalg.qr(rng.standard_normal((k, k)))[0]
        from graff import AffineFlat

        rotated = AffineFlat(flat.A @ Q, flat.b0)
        a = langevin_gaussian_log_density_unnormalized(flat, params)
        b = langevin_gaussian_log_density_unnormalized(rotated, params)
        assert a == pytest.approx(b, abs=1e-10)

    def test_trace_term_follows_s(self):
        params = LangevinGaussianParams(S=np.diag([2.0, -1.0, 0.5]), sigma2=0.7, k=1, n=3)
        from graff import AffineFlat

        b0 = np.array([0.0, 0.0, 1.5])
        on_x = AffineFlat([[1.0], [0.0], [0.0]], b0)
        on_y = AffineFlat([[0.0], [1.0], [0.0]], b0)
        difference = (langevin_gaussian_log_density_unnormalized(on_x, params)
                      - langevin_gaussian_log_density_unnormalized(on_y, params))
        assert difference == pytest.approx(3.0, abs=1e-12)

    def test_sigma2_must_be_positive(self):
        with pytest.raises(ValueError):
            LangevinGaussianParams(S=np.zeros((3, 3)), sigma2=0.0, k=1, n=3)

    def test_largest_sigma2_keeps_the_density_finite(self):
        # 2 pi sigma2 overflows past about 2.9e307; the bound 1e300 refuses 1e301.
        params = LangevinGaussianParams(S=np.zeros((3, 3)), sigma2=1e300, k=1, n=3)
        value = langevin_gaussian_log_density_unnormalized(x_axis(3), params)
        assert value == -math.log(2.0 * math.pi * 1e300)
        with pytest.raises(DimensionError, match=r"sigma2 must be a number in \(0, 1e\+300\]"):
            LangevinGaussianParams(S=np.zeros((3, 3)), sigma2=1e301, k=1, n=3)

    def test_displacement_past_the_floats_gives_minus_infinity(self):
        """|b0|^2 overflows from |b0| of about 1.3e154; the value is then -inf, quietly."""
        params = LangevinGaussianParams(S=np.eye(2), sigma2=1.0, k=1, n=2)
        assert langevin_gaussian_log_density_unnormalized(
            make_flat([1.0, 0.0], [0.0, 1e200]), params) == -math.inf
        near = make_flat([1.0, 0.0], [0.0, 1e154])
        value = langevin_gaussian_log_density_unnormalized(near, params)
        assert math.isfinite(value)
        assert value == 1.0 - 1e154 * 1e154 / 2.0 - 0.5 * math.log(2.0 * math.pi)

    def test_draws_satisfy_orthogonality(self):
        params = LangevinGaussianParams(
            S=np.diag([2.0, 1.0, 0.0, 0.0]), sigma2=0.3, k=2, n=4
        )
        flats = langevin_gaussian_run(
            params, 200, MHConfig(step_size=0.3, burn_in=200, thin=3), random_stream(41)
        )
        for flat in flats:
            assert np.abs(flat.A.T @ flat.b0).max() < 1e-12

    def test_displacement_second_moment(self):
        n, k, sigma2 = 5, 2, 0.8
        params = LangevinGaussianParams(S=np.zeros((n, n)), sigma2=sigma2, k=k, n=n)
        flats = langevin_gaussian_run(
            params, 4000, MHConfig(step_size=0.5, burn_in=100, thin=1), random_stream(43)
        )
        norms2 = [float(f.b0 @ f.b0) for f in flats]
        assert np.mean(norms2) == pytest.approx(sigma2 * (n - k), rel=0.05)

    def test_small_sigma_tail(self):
        n, k = 4, 1
        sigma2 = 1e-6
        params = LangevinGaussianParams(S=np.zeros((n, n)), sigma2=sigma2, k=k, n=n)
        flats = langevin_gaussian_run(
            params, 1000, MHConfig(step_size=0.5, burn_in=50, thin=1), random_stream(47)
        )
        bound = 3.0 * math.sqrt(sigma2) * math.sqrt(n - k)
        inside = sum(float(np.linalg.norm(f.b0)) <= bound for f in flats)
        assert inside >= 990

    def test_single_draw_api(self):
        params = LangevinGaussianParams(S=np.zeros((3, 3)), sigma2=1.0, k=1, n=3)
        [flat] = langevin_gaussian_run(
            params, 1, MHConfig(step_size=0.3, burn_in=50, thin=1), random_stream(53)
        )
        assert flat.k == 1 and flat.n == 3

    def test_point_case(self):
        params = LangevinGaussianParams(S=np.zeros((3, 3)), sigma2=2.0, k=0, n=3)
        flats = langevin_gaussian_run(params, 50, MHConfig(), random_stream(59))
        assert all(f.k == 0 for f in flats)

    def test_grassmann_normalizer_constant_cases(self, rng):
        estimate, se = grassmann_normalizer(np.zeros((4, 4)), 2, 4, 200, rng)
        assert estimate == 1.0 and se == 0.0
        estimate, se = grassmann_normalizer(0.5 * np.eye(4), 2, 4, 200, rng)
        assert estimate == pytest.approx(math.exp(1.0), rel=1e-12)
        assert se <= 1e-12 * estimate


def _gaussian_chain_one_by_one(params, count, config, rng):
    """langevin_gaussian_run as one loop, each displacement drawn inside it."""
    n, k = params.n, params.k

    def displaced(A):
        z = math.sqrt(params.sigma2) * rng.standard_normal(n)
        return A, (z - A @ (A.T @ z) if k else z)

    if k == 0:
        return [displaced(np.zeros((n, 0))) for _ in range(count)]
    Y = np.linalg.qr(rng.standard_normal((n, k)))[0]
    current = float(np.sum(params.S * (Y @ Y.T)))
    kept = []
    for step in range(config.burn_in + 1 + (count - 1) * config.thin):
        proposal = np.linalg.qr(Y + config.step_size * rng.standard_normal(Y.shape))[0]
        new = float(np.sum(params.S * (proposal @ proposal.T)))
        if math.log(max(rng.uniform(), 1e-300)) <= new - current:
            Y, current = proposal, new
        if step >= config.burn_in and (step - config.burn_in) % config.thin == 0:
            kept.append(displaced(Y))
    return kept


CHAIN_PROPERTY = settings(deadline=None, derandomize=True, max_examples=30)


class TestSharedChain:
    @pytest.mark.parametrize("k, S, sigma2, config, count, seed", [
        *[(k, random_stream(7 + k).standard_normal((4, 4)), 0.6, MHConfig(0.4, 30, 3), 25, 61)
          for k in (0, 1, 2)],
        *[(k, np.diag([2.0, 1.0, 0.5, 0.0, -1.0]), 3.0, MHConfig(0.3, 20, 2), 200, 17)
          for k in (0, 1, 2, 3)],
    ], ids=[f"n4-k{k}" for k in (0, 1, 2)] + [f"n5-k{k}" for k in (0, 1, 2, 3)])
    def test_gaussian_run_matches_the_interleaved_loop(self, k, S, sigma2, config, count, seed):
        params = LangevinGaussianParams(S=(S + S.T) / 2.0, sigma2=sigma2, k=k, n=S.shape[0])
        rng, reference = random_stream(seed), random_stream(seed)
        flats = langevin_gaussian_run(params, count, config, rng)
        expected = _gaussian_chain_one_by_one(params, count, config, reference)
        assert len(flats) == len(expected) == count
        for flat, (A, b0) in zip(flats, expected):
            assert np.array_equal(flat.A, A) and np.array_equal(flat.b0, b0)
        assert rng.bit_generator.state == reference.bit_generator.state

    @CHAIN_PROPERTY
    @given(n_steps=st.integers(1, 40), burn_in=st.integers(0, 45), thin=st.integers(1, 12),
           k=st.integers(0, 2))
    def test_both_runners_keep_the_scheduled_states(self, n_steps, burn_in, thin, k):
        mh = LangevinParams(S=np.diag([1.0, 0.5, 0.0, 0.0]), k=k, n=3)
        samples, _ = langevin_mh_run(mh, n_steps, 0.3, random_stream(5), burn_in=burn_in,
                                     thin=thin)
        assert len(samples) == len(range(burn_in, n_steps, thin))
        gaussian = LangevinGaussianParams(S=np.diag([1.0, 0.5, 0.0]), sigma2=1.0, k=k, n=3)
        config = MHConfig(step_size=0.3, burn_in=burn_in, thin=thin)
        count = max(1, n_steps // thin)
        flats = langevin_gaussian_run(gaussian, count, config, random_stream(5))
        assert len(flats) == count == len(range(burn_in, _chain_length(config, count), thin))

    @pytest.mark.parametrize("settings_", [{"thin": 0}, {"thin": -2}, {"burn_in": -5},
                                           {"burn_in": 1.5}, {"thin": 2.5}, {"thin": math.inf},
                                           {"step_size": 0.0}, {"step_size": math.inf},
                                           {"step_size": math.nan}, {"step_size": 2e300},
                                           {"burn_in": "5"}, {"step_size": "0.1"},
                                           {"step_size": 10**400}])
    def test_invalid_chain_settings_raise(self, settings_):
        with pytest.raises(ValueError):
            MHConfig(**settings_)
        params = LangevinParams(S=np.zeros((4, 4)), k=1, n=3)
        with pytest.raises(ValueError):
            langevin_mh_run(params, 20, rng=random_stream(1), **{"step_size": 0.1, **settings_})

    def test_one_qr_and_no_svd_per_step(self, monkeypatch):
        calls, qr, svd = [], _lapack.qr, _lapack.svd
        monkeypatch.setattr(_lapack, "qr", lambda M: calls.append("qr") or qr(M))
        monkeypatch.setattr(_lapack, "svd", lambda M: calls.append("svd") or svd(M))
        Y0 = np.linalg.qr(random_stream(3).standard_normal((5, 2)))[0]
        probability._mh_chain(np.diag([1.0, 0.5, 0.0, 0.0, -1.0]), Y0, 40, MHConfig(0.3, 0, 1),
                              random_stream(5), lambda Y: None, require_flat=True)
        assert calls == ["qr"] * 40

    def test_largest_step_size_runs_without_warnings(self):
        params = LangevinParams(S=np.diag([1.0, 0.5, 0.0, 0.0]), k=1, n=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            samples, _ = langevin_mh_run(params, 200, 1e300, random_stream(5))
        assert len(samples) == 200

    def test_integral_float_settings_are_stored_as_int(self):
        config = MHConfig(burn_in=4.0, thin=2.0)
        assert (config.burn_in, config.thin) == (4, 2)
        assert type(config.burn_in) is int and type(config.thin) is int


_PARAMS = LangevinParams(S=np.diag([1.0, 0.5, 0.0, 0.0]), k=1, n=3)
_GAUSSIAN = LangevinGaussianParams(S=np.diag([1.0, 0.5, 0.0]), sigma2=1.0, k=1, n=3)

# Every public integer argument that is not a dimension, as a call on one value.
_INTEGER_ARGUMENTS = {
    "langevin_mh_run n_steps": lambda v: langevin_mh_run(_PARAMS, v, 0.3, random_stream(1)),
    "langevin_gaussian_run count": lambda v: langevin_gaussian_run(_GAUSSIAN, v, MHConfig(0.3, 2, 1),
                                                                    random_stream(1)),
    "grassmann_normalizer n_samples": lambda v: grassmann_normalizer(_GAUSSIAN.S, 1, 3, v,
                                                                      random_stream(1)),
    "langevin_normalizer n_samples": lambda v: langevin_normalizer(_PARAMS, v, random_stream(1)),
    "pad_ambient m": lambda v: pad_ambient(x_axis(3), v),
    "MHConfig thin": lambda v: MHConfig(thin=v),
}

# Every public positive-real argument, as a setter of one value.
_POSITIVE_ARGUMENTS = {
    "sigma2": lambda v: LangevinGaussianParams(S=np.zeros((3, 3)), sigma2=v, k=1, n=3),
    "step_size": lambda v: MHConfig(step_size=v),
}


class TestScalarArguments:
    """Outside numbers come in one way: an integer check and a positive-real check,
    each raising an error that is both a GraffError and a ValueError."""

    @pytest.mark.parametrize("value", [2.9, 2.5, 150.7, 4.7, "5", math.inf, math.nan, 0, -3])
    @pytest.mark.parametrize("call", _INTEGER_ARGUMENTS.values(), ids=_INTEGER_ARGUMENTS)
    def test_non_integers_and_small_counts_are_refused(self, call, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionError, match="must be an integer >= ") as info:
                call(value)
        assert isinstance(info.value, GraffError) and isinstance(info.value, ValueError)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, -math.inf, math.nan, "0.5", 1e301,
                                       pytest.param(10**400, id="10**400")])
    @pytest.mark.parametrize("setter", _POSITIVE_ARGUMENTS.values(), ids=_POSITIVE_ARGUMENTS)
    def test_non_positive_and_non_finite_reals_are_refused(self, setter, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionError, match="must be a number in") as info:
                setter(value)
        assert isinstance(info.value, GraffError) and isinstance(info.value, ValueError)

    def test_integral_values_of_any_numeric_type_are_read_as_int(self):
        flats, _ = langevin_mh_run(_PARAMS, np.int64(3), 0.3, random_stream(1))
        assert len(flats) == 3
        assert pad_ambient(x_axis(3), 5.0).n == 5
        assert MHConfig(step_size=1).step_size == 1.0
