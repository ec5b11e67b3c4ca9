import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import graff
from graff import (
    AffineFlat,
    DimensionError,
    NotAFlat,
    RankDeficient,
    deaffine,
    equal_flats,
    flat_from_projection,
    make_flat,
    pad_ambient,
    projection_affine_coords,
    projection_coords,
    stiefel_coords,
    unembed,
)
from graff.coords import _unit_scale
from graff.io import dumps_document, flat_from_document, flat_to_document
from graff.metric import distance

from conftest import horizontal_line, point_flat, random_flat, x_axis

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestMakeFlat:
    def test_removes_in_span_displacement(self):
        flat = make_flat(np.array([[1.0], [0.0]]), np.array([3.0, 1.0]))
        np.testing.assert_allclose(flat.A, [[1.0], [0.0]], atol=1e-15)
        np.testing.assert_allclose(flat.b0, [0.0, 1.0], atol=1e-15)

    def test_normalizes_basis(self):
        flat = make_flat(np.array([1.0, 1.0, 0.0]), np.zeros(3))
        np.testing.assert_allclose(flat.A[:, 0], [INV_SQRT2, INV_SQRT2, 0.0], atol=1e-15)
        np.testing.assert_allclose(flat.b0, np.zeros(3), atol=1e-15)

    def test_repeated_column_is_rank_deficient(self):
        A = np.zeros((3, 2))
        A[0, 0] = A[0, 1] = 1.0
        with pytest.raises(RankDeficient):
            make_flat(A, np.zeros(3))

    def test_subnormal_column_beside_a_zero_pivot_is_rank_deficient(self):
        # After scaling, the largest R diagonal entry is subnormal; a tolerance
        # multiplied into it would underflow to 0 and let the zero pivot pass.
        with pytest.raises(RankDeficient):
            make_flat([[1e-320, 0.5], [0, 0], [0, 0]], [0, 1, 0])

    def test_k_equal_n_rejected(self):
        with pytest.raises(DimensionError):
            make_flat(np.eye(2), np.zeros(2))

    def test_point_flat(self):
        flat = make_flat(np.zeros((3, 0)), np.array([1.0, 2.0, 3.0]))
        assert flat.k == 0
        np.testing.assert_allclose(flat.b0, [1.0, 2.0, 3.0])

    def test_direct_constructor_rejects_skew_basis(self):
        with pytest.raises(ValueError):
            AffineFlat(np.array([[1.0], [1.0]]), np.zeros(2))

    def test_arrays_are_immutable(self):
        flat = x_axis()
        with pytest.raises(ValueError):
            flat.A[0, 0] = 2.0

    @pytest.mark.parametrize("build", [lambda A: make_flat(A, np.zeros(4)), unembed])
    def test_near_dependent_pair_rejected_in_either_order(self, build):
        # QR without pivoting: the verdict must not depend on column order.
        a = np.array([1.0, -2.0, 0.5, 3.0])
        e = np.array([0.0, 1.0, 0.0, 0.0])
        for A in (np.column_stack([a, a + 1e-12 * e]), np.column_stack([a + 1e-12 * e, a])):
            with pytest.raises(RankDeficient):
                build(A)

    def test_pair_one_pivot_ratio_above_the_rank_tolerance_is_kept(self):
        # The rank tolerance is a fixed 1e-10, relative to the largest pivot.
        assert make_flat([[1.0, 1.0], [0.0, 1e-9], [0.0, 0.0]], np.zeros(3)).k == 2

    def test_orthonormal_basis_is_kept(self, rng):
        for k in (1, 2, 4):
            A_raw = np.linalg.qr(rng.standard_normal((6, k)))[0]
            flat = make_flat(A_raw, rng.standard_normal(6))
            np.testing.assert_allclose(flat.A, A_raw, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("exponent", [-1000, -500, 500, 1000])
    def test_power_of_two_scaling_is_exact(self, rng, exponent):
        A_raw, b_raw = rng.standard_normal((6, 3)), rng.standard_normal(6)
        flat = make_flat(np.ldexp(A_raw, exponent), b_raw)
        np.testing.assert_array_equal(flat.A, make_flat(A_raw, b_raw).A)

    def test_huge_basis_neither_warns_nor_blames_b0(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flat = make_flat([[1e308], [1e308]], [0.0, 0.0])
        np.testing.assert_allclose(flat.A, [[INV_SQRT2], [INV_SQRT2]], rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(flat.b0, [0.0, 0.0])

    def test_huge_displacement_inside_the_span_is_removed(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flat = make_flat([[1.0], [1.0]], [1.7e308, 1.7e308])
        np.testing.assert_allclose(flat.A, [[INV_SQRT2], [INV_SQRT2]], rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(flat.b0, [0.0, 0.0], rtol=0.0, atol=1e-15 * 1.7e308)

    def test_large_displacement_inside_the_span_reads_back(self):
        # The cancellation leaves a residue of order eps |b_raw|; projected
        # out once more, the flat's own document passes the public check.
        flat = make_flat([[1.0], [1.0]], [1.7e10, 1.7e10])
        assert abs(float(flat.A[:, 0] @ flat.b0)) <= 1e-12 * np.linalg.norm(flat.b0)
        back = flat_from_document(json.loads(dumps_document(flat_to_document(flat))))
        assert equal_flats(back, flat, 1e-12)

    def test_ordinary_displacements_keep_one_projection(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n))
            A_raw, b_raw = rng.standard_normal((n, k)), rng.standard_normal(n)
            flat = make_flat(A_raw, b_raw)
            np.testing.assert_array_equal(flat.b0, b_raw - flat.A @ (flat.A.T @ b_raw))

    @pytest.mark.parametrize("exponent", [-500, 600, 1000])
    def test_displacement_scaling_is_exact(self, rng, exponent):
        A_raw, b_raw = rng.standard_normal((6, 3)), rng.standard_normal(6)
        flat = make_flat(A_raw, np.ldexp(b_raw, exponent))
        np.testing.assert_array_equal(flat.b0, np.ldexp(make_flat(A_raw, b_raw).b0, exponent))

    def test_unrepresentable_displacement_is_refused_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too large to represent"):
                make_flat([[1.0], [1.0], [1.0]], [1.7e308, -1.7e308, -1.7e308])

    @pytest.mark.parametrize("k", [0, 2])
    def test_caller_arrays_stay_writable(self, k):
        A_raw, b_raw = np.eye(4)[:, :k].copy(), np.arange(4.0)
        make_flat(A_raw, b_raw)
        assert A_raw.flags.writeable and b_raw.flags.writeable

    def test_first_column_keeps_its_direction(self, rng):
        for _ in range(10):
            A_raw = rng.standard_normal((5, 3))
            A = make_flat(A_raw, np.zeros(5)).A
            direction = A_raw[:, 0] / np.linalg.norm(A_raw[:, 0])
            np.testing.assert_allclose(A[:, 0], direction, rtol=0.0, atol=1e-15)


class TestHugeDisplacement:
    """|b0| beyond 1.3e154, where |b0|^2 overflows but the coordinates do not."""

    def test_constructor_accepts_and_still_checks(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            AffineFlat([[1.0], [0.0]], [0.0, 1e200])
            with pytest.raises(ValueError, match="not orthogonal"):
                AffineFlat([[1.0], [0.0]], [1e200, 1e200])

    def test_stiefel_coords(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Y = stiefel_coords(AffineFlat([[1.0], [0.0]], [0.0, 1e200])).Y
        np.testing.assert_allclose(Y, [[1.0, 0.0], [0.0, 1.0], [0.0, 1e-200]], rtol=1e-15)
        graff.StiefelMatrix(Y)

    def test_projection_coords(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P = projection_coords(AffineFlat([[1.0], [0.0]], [0.0, 1e155])).P
            with pytest.raises(ValueError, match="corner"):
                projection_coords(AffineFlat([[1.0], [0.0]], [0.0, 1e200]))
        expected = [[1.0, 0.0, 0.0], [0.0, 1.0, 1e-155], [0.0, 1e-155, 1e-310]]
        np.testing.assert_allclose(P, expected, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n", [2, 50])
    def test_largest_displacement_keeps_a_positive_corner(self, n):
        # u = b0 2^-e has entries below 1, so the corner is at least 2^-1024 / sqrt(n).
        b0 = np.full(n, 1.7976931348623157e308)
        b0[0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Y = stiefel_coords(AffineFlat(np.eye(n)[:, :1], b0)).Y
        assert Y[n, 1] >= 2.0**-1024 / math.sqrt(n)
        graff.StiefelMatrix(Y)

    @pytest.mark.parametrize("b0", [[0.0, 3.0, 4.0], [0.0, 3e-200, 4e-200], [0.0, 3e100, 4e100]])
    def test_ordinary_displacements_keep_the_plain_formula(self, b0):
        flat = AffineFlat([[1.0], [0.0], [0.0]], b0)
        scale = 1.0 / math.sqrt(1.0 + float(flat.b0 @ flat.b0))
        np.testing.assert_array_equal(stiefel_coords(flat).Y[:3, 1], flat.b0 * scale)
        assert projection_coords(flat).P[3, 3] == 1.0 / (1.0 + float(flat.b0 @ flat.b0))


@pytest.mark.parametrize("scale", [5e-324, 1e-300, 0.75, 1.0, 3.0, 1e300, 1.7976931348623157e308])
def test_unit_scale_is_an_exact_power_of_two(rng, scale):
    M = scale * rng.uniform(-1.0, 1.0, (3, 2))
    scaled, exponent = _unit_scale(M)
    assert 0.5 <= np.abs(scaled).max() < 1.0
    np.testing.assert_array_equal(np.ldexp(scaled, exponent), M)


@pytest.mark.parametrize("cls, args, error, message", [
    (graff.StiefelMatrix, ([[1.0, 0.0], [0.0, 1.0]],), DimensionError, "Stiefel coordinates must be"),
    (graff.StiefelMatrix, (np.eye(3)[:, [2, 0]],), ValueError, "last row must vanish"),
    (graff.StiefelMatrix, ([[1.0, 0.0], [0.0, 0.0], [0.0, -1.0]],), ValueError, "must be strictly"),
    (graff.ProjectionMatrix, ([[1.0, 0.0]],), DimensionError, "P must be square of size >= 2"),
    (graff.ProjectionMatrix, ([[1.0, 1.0], [0.0, 0.0]],), ValueError, "P is not symmetric"),
    (graff.ProjectionMatrix, ([[2.0, 0.0], [0.0, 0.0]],), ValueError, "P is not idempotent"),
    (graff.ProjectionMatrix, (np.eye(2),), ValueError, "is not an integer in"),
    (graff.ProjectionMatrix, (np.diag([1.0, 0.0]),), ValueError, "corner entry must be"),
    (graff.ProjectionAffinePair, ([[1.0, 0.0]], [0.0]), DimensionError, "P must be square"),
    (graff.ProjectionAffinePair, (np.diag([1.0, 0.0]), [1.0, 0.0]), ValueError, "not lie in ker"),
    # |b| overflows a plain norm; b is scaled before the comparison.
    (graff.ProjectionAffinePair, (np.diag([1.0, 0.0, 0.0]), [1.7e308] * 3), ValueError,
     "not lie in ker"),
])
def test_public_coordinate_constructors_refuse_invalid_matrices(cls, args, error, message):
    with pytest.raises(error, match=message):
        cls(*args)


@pytest.mark.parametrize("cls, args, message", [
    (graff.AffineFlat, (np.eye(3)[:, :2] * [1e200, 1.0], np.zeros(3)), "A is not orthonormal"),
    (graff.StiefelMatrix, (np.eye(3)[:, :2] * [1e200, 1.0],), "columns are not orthonormal"),
    (graff.ProjectionMatrix, (np.diag([1e200, 1.0, 1.0]),), "P is not idempotent"),
    (graff.ProjectionMatrix, ([[1.0, 1.7e308], [-1.7e308, 1.0]],), "P is not symmetric"),
    (graff.ProjectionAffinePair, (np.diag([1e200, 1.0, 0.0]), np.zeros(3)), "P is not idempotent"),
])
def test_public_coordinate_constructors_refuse_huge_entries_without_warning(cls, args, message):
    # M^T M, P @ P and P - P^T overflow to inf or nan here; both are refused, unwarned.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            cls(*args)


class TestStiefelCoords:
    def test_zero_displacement(self):
        Y = stiefel_coords(x_axis()).Y
        np.testing.assert_allclose(Y, [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], atol=1e-15)

    def test_unit_displacement(self):
        Y = stiefel_coords(horizontal_line(1.0)).Y
        np.testing.assert_allclose(
            Y, [[1.0, 0.0], [0.0, INV_SQRT2], [0.0, INV_SQRT2]], atol=1e-15
        )

    def test_point(self):
        Y = stiefel_coords(point_flat([0.0, 1.0])).Y
        np.testing.assert_allclose(Y, [[0.0], [INV_SQRT2], [INV_SQRT2]], atol=1e-15)

    def test_invariants_on_random_flats(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(0, n))
            Y = stiefel_coords(random_flat(rng, n, k)).Y
            assert np.abs(Y.T @ Y - np.eye(k + 1)).max() < 1e-12
            assert np.all(Y[-1, :-1] == 0.0)
            assert Y[-1, -1] > 0.0


class TestProjectionCoords:
    def test_x_axis(self):
        P = projection_coords(x_axis()).P
        np.testing.assert_allclose(P, np.diag([1.0, 0.0, 1.0]), atol=1e-15)

    def test_horizontal_line(self):
        P = projection_coords(horizontal_line(1.0)).P
        np.testing.assert_allclose(
            P, [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]], atol=1e-15
        )

    def test_equals_y_yt_and_idempotent(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(0, n))
            flat = random_flat(rng, n, k)
            P = projection_coords(flat).P
            Y = stiefel_coords(flat).Y
            assert np.abs(P - Y @ Y.T).max() < 1e-12
            assert np.abs(P @ P - P).max() < 1e-12
            assert abs(np.trace(P) - (k + 1)) < 1e-12

    def test_basis_rotation_invariance(self, rng):
        for _ in range(20):
            n, k = 6, 3
            flat = random_flat(rng, n, k)
            Q = np.linalg.qr(rng.standard_normal((k, k)))[0]
            rotated = AffineFlat(flat.A @ Q, flat.b0)
            diff = projection_coords(flat).P - projection_coords(rotated).P
            assert np.abs(diff).max() < 1e-12


def _closed_form_projection(flat):
    """The [A, b0] formula of projection_coords, for |b0|^2 that fits in a float."""
    n = flat.n
    denom = 1.0 + float(flat.b0 @ flat.b0)
    P = np.zeros((n + 1, n + 1))
    P[:n, :n] = flat.A @ flat.A.T + np.outer(flat.b0, flat.b0) / denom
    P[:n, n] = P[n, :n] = flat.b0 / denom
    P[n, n] = 1.0 / denom
    return P


class TestProjectionFromStiefel:
    @pytest.mark.parametrize("k, n", [(0, 1), (0, 4), (3, 4), (2, 5), (1, 9), (32, 128)])
    @pytest.mark.parametrize("size", [1.0, 1e-3, 1e8, 1e100, 1e150])
    def test_matches_the_closed_form_and_is_symmetric(self, rng, k, n, size):
        for _ in range(3):
            b = rng.standard_normal(n)
            flat = make_flat(rng.standard_normal((n, k)), size * b / np.linalg.norm(b))
            P = projection_coords(flat).P
            np.testing.assert_allclose(P, _closed_form_projection(flat), rtol=0.0, atol=1e-15)
            assert np.array_equal(P, P.T)

    def test_is_recomputed_while_stiefel_is_cached(self, rng):
        flat = random_flat(rng, 5, 2)
        assert stiefel_coords(flat) is stiefel_coords(flat)
        first, second = projection_coords(flat), projection_coords(flat)
        assert first is not second and np.array_equal(first.P, second.P)


class TestProjectionAffineCoords:
    def test_x_axis(self):
        pair = projection_affine_coords(x_axis())
        np.testing.assert_allclose(pair.P, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(pair.b, [0.0, 0.0], atol=1e-15)

    def test_horizontal_line(self):
        pair = projection_affine_coords(horizontal_line(1.0))
        np.testing.assert_allclose(pair.P, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(pair.b, [0.0, 1.0], atol=1e-15)

    def test_point(self):
        pair = projection_affine_coords(point_flat([2.0, -1.0, 0.5]))
        np.testing.assert_allclose(pair.P, np.zeros((3, 3)), atol=1e-15)
        np.testing.assert_allclose(pair.b, [2.0, -1.0, 0.5], atol=1e-15)

    @pytest.mark.parametrize("flat", [AffineFlat([[1.0], [0.0]], [0.0, 1e200]),
                                      point_flat([1e200, -1e200])])
    def test_huge_displacement_is_not_rechecked(self, flat):
        # graff built [A A^T, b0] itself; re-checking b in ker(P) took |b|^2.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = projection_affine_coords(flat)
        np.testing.assert_array_equal(pair.P, flat.A @ flat.A.T)
        np.testing.assert_array_equal(pair.b, flat.b0)


class TestEmbedUnembed:
    def test_unembed_known_line(self):
        flat = unembed(np.array([[1.0, 0.0], [0.0, INV_SQRT2], [0.0, INV_SQRT2]]))
        assert equal_flats(flat, horizontal_line(1.0), 1e-12)

    def test_last_row_zero_is_not_a_flat(self):
        with pytest.raises(NotAFlat):
            unembed(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))

    def test_huge_spanning_matrix_gives_finite_flat(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flat = unembed([[1e308, 0.0], [0.0, 1e308], [0.0, 1e308]])
        assert equal_flats(flat, horizontal_line(1.0), 1e-12)

    def test_rank_deficient_rejected(self):
        Y = np.ones((4, 2))
        with pytest.raises(RankDeficient):
            unembed(Y)

    def test_unembed_accepts_any_spanning_basis(self, rng):
        flat = random_flat(rng, 5, 2)
        Y = stiefel_coords(flat).Y
        X = Y @ rng.standard_normal((3, 3))  # same span, messy basis
        assert equal_flats(unembed(X), flat, 1e-9)

    def test_round_trip_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 13))
            k = int(rng.integers(1, n))
            flat = random_flat(rng, n, k)
            assert equal_flats(unembed(stiefel_coords(flat).Y), flat, 1e-9)


class TestEqualFlats:
    def test_rotated_basis_is_same_flat(self, rng):
        flat = random_flat(rng, 5, 3)
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        assert equal_flats(flat, AffineFlat(flat.A @ Q, flat.b0), 1e-10)

    def test_distinct_flats_differ(self):
        assert not equal_flats(x_axis(), horizontal_line(1.0), 1e-6)

    def test_coset_representative_freedom(self, rng):
        flat = random_flat(rng, 6, 2)
        shift = flat.A @ rng.standard_normal(2)
        rebuilt = make_flat(flat.A, flat.b0 + shift)
        assert equal_flats(flat, rebuilt, 1e-10)

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionError):
            equal_flats(x_axis(2), x_axis(3), 1e-8)

    def test_flats_far_from_the_origin_compare(self):
        """Their projection corner 1/(1 + |b0|^2) underflows; the Stiefel overlap does not."""
        far = make_flat([1.0, 0.0], [0.0, 1e200])
        assert equal_flats(far, make_flat([-2.0, 0.0], [5.0, 1e200]), 1e-12)
        assert not equal_flats(far, x_axis(), 1e-8)
        assert not equal_flats(x_axis(), far, 1e-8)


class TestPadAmbient:
    def test_pad_x_axis(self):
        padded = pad_ambient(x_axis(), 3)
        assert padded.n == 3 and padded.k == 1
        np.testing.assert_allclose(padded.A[:, 0], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(padded.b0, np.zeros(3))

    def test_distance_preserved(self):
        d_before = distance(x_axis(), horizontal_line(1.0))
        d_after = distance(pad_ambient(x_axis(), 4), pad_ambient(horizontal_line(1.0), 4))
        assert abs(d_after - math.pi / 4) < 1e-12
        assert d_after == pytest.approx(d_before, abs=1e-15)

    def test_identity_when_m_equals_n(self):
        flat = x_axis()
        assert pad_ambient(flat, 2) is flat

    def test_shrinking_rejected(self):
        with pytest.raises(DimensionError):
            pad_ambient(x_axis(3), 2)


def test_deaffine_drops_displacement():
    linear = deaffine(horizontal_line(1.0))
    assert equal_flats(linear, x_axis(), 1e-12)


def test_flat_from_projection_round_trip(rng):
    for _ in range(25):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(0, n))
        flat = random_flat(rng, n, k)
        assert equal_flats(flat_from_projection(projection_coords(flat)), flat, 1e-9)


def test_import_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(graff.__file__)))
    code = "import sys, graff; assert 'scipy' not in sys.modules, 'scipy was imported'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_graff_reexports_each_modules_public_names_and_nothing_else():
    from graff import coords, errors, fitting, invariants, metric, probability
    exported = {name: getattr(module, name)
                for module in (coords, fitting, invariants, metric, probability)
                for name in module.__all__}
    exported.update((name, value) for name, value in vars(errors).items()
                    if isinstance(value, type) and value.__module__ == errors.__name__)
    for name, value in exported.items():
        assert getattr(graff, name) is value, name
    submodules = {name for name, value in vars(graff).items()
                  if getattr(value, "__name__", None) == f"graff.{name}"}
    public = {name for name in dir(graff) if not name.startswith("_")}
    assert public == exported.keys() | (submodules & public)
    assert isinstance(graff.__version__, str)
