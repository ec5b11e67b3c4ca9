import copy
import gc
import math
import pickle
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graff import (
    AffineFlat,
    DimensionError,
    DistanceKind,
    GeodesicCurve,
    NotAFlat,
    SingularPair,
    UnsupportedKind,
    affine_principal_angles,
    delta_distance,
    distance,
    equal_flats,
    evaluate_geodesic,
    geodesic,
    infinite_metric,
    make_flat,
    pad_ambient,
    principal_decomposition,
    projection_coords,
    random_stream,
    sample_uniform,
    stiefel_coords,
    unembed,
)
from graff import _lapack, metric

from conftest import horizontal_line, orthonormal_drift, point_flat, random_flat, x_axis

ALL_KINDS = list(DistanceKind)
METRIC_KINDS = [DistanceKind.GRASSMANN, DistanceKind.CHORDAL, DistanceKind.PROCRUSTES]


def y_axis() -> AffineFlat:
    return AffineFlat(np.array([[0.0], [1.0]]), np.zeros(2))


class TestPrincipalDecomposition:
    def test_self_comparison_has_zero_angles(self, rng):
        flat = random_flat(rng, 6, 2)
        decomp = principal_decomposition(flat, flat)
        np.testing.assert_allclose(decomp.thetas, np.zeros(3), atol=1e-7)

    def test_x_axis_vs_horizontal_line(self):
        decomp = principal_decomposition(x_axis(), horizontal_line(1.0))
        np.testing.assert_allclose(decomp.thetas, [0.0, math.pi / 4], atol=1e-12)
        np.testing.assert_allclose(decomp.sigmas, [1.0, 1.0 / math.sqrt(2)], atol=1e-12)

    def test_point_vs_line_is_rectangular(self):
        decomp = principal_decomposition(point_flat([0.0, 1.0]), x_axis())
        np.testing.assert_allclose(decomp.thetas, [math.pi / 4], atol=1e-12)
        assert decomp.U.shape == (1, 1) and decomp.V.shape == (2, 2)

    def test_svd_reconstruction_and_vectors(self, rng):
        flat1 = random_flat(rng, 7, 3)
        flat2 = random_flat(rng, 7, 1)
        decomp = principal_decomposition(flat1, flat2)
        Y1 = stiefel_coords(flat1).Y
        Y2 = stiefel_coords(flat2).Y
        Sigma = np.zeros((4, 2))
        Sigma[: decomp.sigmas.size, : decomp.sigmas.size] = np.diag(decomp.sigmas)
        assert np.abs(Y1.T @ Y2 - decomp.U @ Sigma @ decomp.V.T).max() < 1e-10
        np.testing.assert_allclose(decomp.P_vecs, Y1 @ decomp.U, atol=1e-13)
        np.testing.assert_allclose(decomp.Q_vecs, Y2 @ decomp.V, atol=1e-13)

    def test_thetas_are_arccosines_of_sigmas(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            decomp = principal_decomposition(
                random_flat(rng, n, int(rng.integers(0, n))),
                random_flat(rng, n, int(rng.integers(0, n))),
            )
            np.testing.assert_allclose(decomp.thetas, np.arccos(decomp.sigmas), atol=1e-7)

    def test_monotone_ordering(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(0, n))
            l = int(rng.integers(0, n))
            decomp = principal_decomposition(random_flat(rng, n, k), random_flat(rng, n, l))
            assert decomp.thetas.size == min(k, l) + 1
            assert np.all(np.diff(decomp.thetas) >= 0)
            assert np.all(np.diff(decomp.sigmas) <= 0)
            assert np.all((decomp.sigmas >= 0) & (decomp.sigmas <= 1))

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionError):
            principal_decomposition(x_axis(2), x_axis(3))


class TestDistance:
    def test_golden_grassmann_values(self):
        assert distance(x_axis(), horizontal_line(1.0)) == pytest.approx(
            math.pi / 4, abs=1e-12
        )
        assert distance(x_axis(), horizontal_line(2.0)) == pytest.approx(
            math.acos(1.0 / math.sqrt(5.0)), abs=1e-12
        )

    def test_golden_chordal(self):
        value = distance(x_axis(), horizontal_line(1.0), DistanceKind.CHORDAL)
        assert value == pytest.approx(math.sin(math.pi / 4), abs=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_self_distance_is_zero(self, kind, rng):
        flat = random_flat(rng, 5, 2)
        assert distance(flat, flat, kind) < 1e-7

    def test_string_kinds_accepted(self):
        assert distance(x_axis(), horizontal_line(1.0), "grassmann") == distance(
            x_axis(), horizontal_line(1.0), DistanceKind.GRASSMANN
        )
        with pytest.raises(UnsupportedKind):
            distance(x_axis(), horizontal_line(1.0), "euclidean")

    def test_kind_lookup_accepts_str_subclasses_and_keeps_its_refusals(self):
        pair = (x_axis(), horizontal_line(1.0))
        assert distance(*pair, np.str_("chordal")) == distance(*pair, DistanceKind.CHORDAL)
        for kind, shown in [("euclidean", "'euclidean'"), (None, "None"),
                            (["grassmann"], "['grassmann']")]:
            with pytest.raises(UnsupportedKind) as refused:
                distance(*pair, kind)
            assert str(refused.value) == f"unknown distance kind {shown}"

    def test_martin_diverges_on_orthogonal_flats(self):
        assert distance(x_axis(), y_axis(), DistanceKind.MARTIN) == math.inf

    def test_table_formulas_against_angles(self, rng):
        flat1, flat2 = random_flat(rng, 6, 2), random_flat(rng, 6, 2)
        thetas = affine_principal_angles(flat1, flat2)
        expected = {
            DistanceKind.GRASSMANN: math.sqrt(np.sum(thetas**2)),
            DistanceKind.ASIMOV: thetas[-1],
            DistanceKind.BINET_CAUCHY: math.sqrt(1 - np.prod(np.cos(thetas) ** 2)),
            DistanceKind.CHORDAL: math.sqrt(np.sum(np.sin(thetas) ** 2)),
            DistanceKind.FUBINI_STUDY: math.acos(np.prod(np.cos(thetas))),
            DistanceKind.MARTIN: math.sqrt(np.sum(np.log(1 / np.cos(thetas) ** 2))),
            DistanceKind.PROCRUSTES: 2 * math.sqrt(np.sum(np.sin(thetas / 2) ** 2)),
            DistanceKind.PROJECTION: math.sin(thetas[-1]),
            DistanceKind.SPECTRAL: 2 * math.sin(thetas[-1] / 2),
        }
        for kind, value in expected.items():
            assert distance(flat1, flat2, kind) == pytest.approx(value, abs=1e-12)

    def test_mismatched_flat_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            distance(point_flat([0.0, 1.0]), x_axis())

    def test_symmetry(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(0, n))
            flat1, flat2 = random_flat(rng, n, k), random_flat(rng, n, k)
            for kind in ALL_KINDS:
                assert abs(distance(flat1, flat2, kind) - distance(flat2, flat1, kind)) < 1e-12

    def test_orthogonal_invariance(self, rng):
        for _ in range(10):
            n, k = 6, 2
            flat1, flat2 = random_flat(rng, n, k), random_flat(rng, n, k)
            R = np.linalg.qr(rng.standard_normal((n, n)))[0]
            rot1 = AffineFlat(R @ flat1.A, R @ flat1.b0)
            rot2 = AffineFlat(R @ flat2.A, R @ flat2.b0)
            for kind in METRIC_KINDS:
                assert abs(distance(rot1, rot2, kind) - distance(flat1, flat2, kind)) < 1e-10

    def test_ambient_independence(self, rng):
        flat1, flat2 = random_flat(rng, 4, 2), random_flat(rng, 4, 2)
        base = distance(flat1, flat2)
        padded = distance(pad_ambient(flat1, 9), pad_ambient(flat2, 9))
        assert abs(base - padded) < 1e-13

    def test_identity_of_indiscernibles(self, rng):
        for _ in range(20):
            flat = random_flat(rng, 5, 2)
            Q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
            same = make_flat(flat.A @ Q, flat.b0 + flat.A @ rng.standard_normal(2))
            assert distance(flat, same) <= 1e-9
            assert equal_flats(flat, same, 1e-8)
            perturbed = make_flat(
                flat.A + 1e-6 * rng.standard_normal(flat.A.shape),
                flat.b0 + 1e-6 * rng.standard_normal(5),
            )
            assert distance(flat, perturbed) > 1e-9
            assert not equal_flats(flat, perturbed, 1e-8)

    def test_triangle_inequality_sample(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(0, n))
            a, b, c = (random_flat(rng, n, k) for _ in range(3))
            for kind in METRIC_KINDS:
                assert distance(a, c, kind) <= distance(a, b, kind) + distance(b, c, kind) + 1e-10


COSINE_PRODUCT_KINDS = [DistanceKind.BINET_CAUCHY, DistanceKind.FUBINI_STUDY, DistanceKind.MARTIN]


def _product_formula(kind, sigmas):
    """binet_cauchy, fubini_study and martin as products of the cosines."""
    if kind is DistanceKind.BINET_CAUCHY:
        return math.sqrt(max(0.0, 1.0 - float(np.prod(sigmas**2))))
    if kind is DistanceKind.FUBINI_STUDY:
        return math.acos(min(1.0, float(np.prod(sigmas))))
    return math.sqrt(-2.0 * float(np.sum(np.log(sigmas))))


class TestCosineProductKinds:
    @pytest.mark.parametrize("k, n", [(0, 1), (0, 4), (1, 2), (2, 5), (4, 5), (6, 12), (8, 64)])
    def test_near_equal_twins_read_the_angles(self, rng, k, n):
        # For small angles all three kinds equal sqrt(sum theta_i^2) to
        # second order; a product of cosines reads only rounding there.
        for _ in range(20):
            flat1 = random_flat(rng, n, k)
            rotation = np.linalg.qr(rng.standard_normal((k, k)))[0]
            A = flat1.A @ rotation + 1e-8 * rng.standard_normal((n, k))
            b = flat1.b0 + flat1.A @ rng.standard_normal(k) + 1e-8 * rng.standard_normal(n)
            flat2 = make_flat(A, b)
            grassmann = distance(flat1, flat2)
            for kind in COSINE_PRODUCT_KINDS:
                value = distance(flat1, flat2, kind)
                assert value == pytest.approx(grassmann, rel=1e-6, abs=0.0)
                assert abs(value - distance(flat2, flat1, kind)) <= 1e-15

    def test_ordinary_pairs_match_the_product_formula(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 10))
            k = int(rng.integers(0, n))
            flat1, flat2 = random_flat(rng, n, k), random_flat(rng, n, k)
            sigmas = principal_decomposition(flat1, flat2).sigmas
            for kind in COSINE_PRODUCT_KINDS:
                expected = _product_formula(kind, sigmas)
                assert distance(flat1, flat2, kind) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_a_right_angle_gives_the_limits_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert distance(x_axis(), y_axis(), DistanceKind.BINET_CAUCHY) == 1.0
            assert distance(x_axis(), y_axis(), DistanceKind.FUBINI_STUDY) == math.pi / 2
            assert distance(x_axis(), y_axis(), DistanceKind.MARTIN) == math.inf

    @pytest.mark.parametrize("kind", COSINE_PRODUCT_KINDS)
    def test_identical_flats_are_at_zero(self, rng, kind):
        flat = random_flat(rng, 5, 2)
        assert distance(flat, flat, kind) <= 1e-15


class TestDeltaDistance:
    def test_containment_gives_zero(self):
        assert delta_distance(point_flat([0.0, 0.0]), x_axis()) < 1e-12

    def test_point_above_line(self):
        assert delta_distance(point_flat([0.0, 1.0]), x_axis()) == pytest.approx(
            math.pi / 4, abs=1e-12
        )

    def test_symmetric_in_arguments(self, rng):
        flat1, flat2 = random_flat(rng, 6, 1), random_flat(rng, 6, 3)
        for kind in ALL_KINDS:
            assert abs(
                delta_distance(flat1, flat2, kind) - delta_distance(flat2, flat1, kind)
            ) < 1e-12

    def test_equidimensional_matches_distance_bitwise(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(0, n))
            flat1, flat2 = random_flat(rng, n, k), random_flat(rng, n, k)
            for kind in ALL_KINDS:
                assert delta_distance(flat1, flat2, kind) == distance(flat1, flat2, kind)

    def test_grid_oracle_point_to_line(self):
        # Independent oracle: delta of a point to a line equals the minimum
        # over points on the line of the two-point distance, which has the
        # closed form arccos((1 + <x, c>) / sqrt((1+|x|^2)(1+|c|^2))).
        target = point_flat([2.0, 3.0])
        line = horizontal_line(1.0)
        s = np.arange(-8.0, 8.0, 1e-3)
        cx, cy = s, np.ones_like(s)
        inner = 1.0 + 2.0 * cx + 3.0 * cy
        cosines = inner / np.sqrt((1.0 + 13.0) * (1.0 + cx**2 + cy**2))
        grid_min = float(np.arccos(np.clip(np.abs(cosines), 0.0, 1.0)).min())
        assert abs(grid_min - delta_distance(target, line)) < 1e-3


class TestInfiniteMetric:
    def test_reduces_to_distance_when_equidimensional(self, rng):
        flat1, flat2 = random_flat(rng, 5, 2), random_flat(rng, 5, 2)
        for kind in METRIC_KINDS:
            assert infinite_metric(flat1, flat2, kind) == pytest.approx(
                distance(flat1, flat2, kind), abs=1e-12
            )

    def test_point_vs_line_grassmann(self):
        value = infinite_metric(point_flat([0.0, 1.0]), x_axis())
        assert value == pytest.approx(math.sqrt(math.pi**2 / 4 + math.pi**2 / 16), abs=1e-12)
        assert value == pytest.approx(math.pi / 4 * math.sqrt(5), abs=1e-12)

    def test_unsupported_kind(self):
        with pytest.raises(UnsupportedKind):
            infinite_metric(x_axis(), horizontal_line(1.0), DistanceKind.MARTIN)

    def test_triangle_inequality_mixed_dimensions(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 7))
            flats = [random_flat(rng, n, int(rng.integers(0, n))) for _ in range(3)]
            for kind in METRIC_KINDS:
                d02 = infinite_metric(flats[0], flats[2], kind)
                d01 = infinite_metric(flats[0], flats[1], kind)
                d12 = infinite_metric(flats[1], flats[2], kind)
                assert d02 <= d01 + d12 + 1e-10


    def test_bit_equal_to_its_own_three_formulas(self, rng):
        formulas = {  # over thetas.tolist(), in the library's fsum-of-math.sin arithmetic
            DistanceKind.GRASSMANN: lambda gap, t: math.sqrt(gap * math.pi**2 / 4.0
                                                             + math.fsum(x * x for x in t)),
            DistanceKind.CHORDAL: lambda gap, t: math.sqrt(gap + math.fsum(math.sin(x) ** 2
                                                                           for x in t)),
            DistanceKind.PROCRUSTES: lambda gap, t: 2.0 * math.sqrt(
                gap / 2.0 + math.fsum(math.sin(x / 2.0) ** 2 for x in t)),
        }
        for _ in range(200):
            n = int(rng.integers(1, 9))
            flat1, flat2 = (random_flat(rng, n, int(rng.integers(0, n))) for _ in range(2))
            thetas = affine_principal_angles(flat1, flat2).tolist()
            gap = abs(flat1.k - flat2.k)
            for kind, formula in formulas.items():
                assert infinite_metric(flat1, flat2, kind) == formula(gap, thetas)


def _fresh(flat: AffineFlat) -> AffineFlat:
    return AffineFlat(flat.A, flat.b0)


def _bits(value) -> bytes:
    """Exact bytes of a float, an array, a principal decomposition or a geodesic curve."""
    if isinstance(value, float):
        return value.hex().encode()
    if isinstance(value, np.ndarray):
        return value.tobytes()
    names = (("U", "Theta", "Q") if isinstance(value, GeodesicCurve)
             else ("thetas", "sigmas", "U", "V", "P_vecs", "Q_vecs"))
    return b"|".join(_bits(getattr(value, name)) for name in names)


def _symmetric_bits(f: AffineFlat, g: AffineFlat) -> list[bytes]:
    """Every angle-derived value of the pair (f, g): the angles, the decomposition's thetas and
    sigmas, each kind of delta_distance, infinite_metric and (k = l) distance, equal_flats."""
    decomposition = principal_decomposition(f, g)
    values = [affine_principal_angles(f, g), decomposition.thetas, decomposition.sigmas,
              *(delta_distance(f, g, kind) for kind in ALL_KINDS),
              *(infinite_metric(f, g, kind) for kind in METRIC_KINDS),
              *(distance(f, g, kind) for kind in ALL_KINDS if f.k == g.k),
              float(equal_flats(f, g))]
    return [_bits(value) for value in values]


# Every call that reads the record of a pair, as (name, call, accepts (flat1, flat2)).
PAIR_CALLS = [
    ("affine_principal_angles", affine_principal_angles, lambda f, g: True),
    ("principal_decomposition", principal_decomposition, lambda f, g: True),
    ("geodesic", geodesic, lambda f, g: f.k == g.k),
    ("equal_flats", lambda f, g: float(equal_flats(f, g)), lambda f, g: True),
    *((f"distance {kind.value}", lambda f, g, kind=kind: distance(f, g, kind),
       lambda f, g: f.k == g.k) for kind in ALL_KINDS),
    *((f"delta_distance {kind.value}", lambda f, g, kind=kind: delta_distance(f, g, kind),
       lambda f, g: True) for kind in ALL_KINDS),
    *((f"infinite_metric {kind.value}", lambda f, g, kind=kind: infinite_metric(f, g, kind),
       lambda f, g: True) for kind in METRIC_KINDS),
]


class TestPairCache:
    """Each flat keeps the angles to its last partner; every answer stays bit for bit
    the answer on fresh copies of the two flats."""

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
           calls=st.lists(st.tuples(st.integers(0, len(PAIR_CALLS) - 1), st.integers(0, 3),
                                    st.integers(0, 3)), min_size=1, max_size=30))
    def test_interleaved_calls_match_fresh_copies(self, seed, n, calls):
        rng = np.random.default_rng(seed)
        flats = [random_flat(rng, n, int(rng.integers(0, n))) for _ in range(3)]
        flats.append(make_flat(flats[0].A + 1e-8 * rng.standard_normal(flats[0].A.shape),
                               flats[0].b0))  # a near-equal twin of the first
        for index, i, j in calls:
            name, call, accepts = PAIR_CALLS[index]
            f, g = flats[i], flats[j]
            if accepts(f, g):
                assert _bits(call(f, g)) == _bits(call(_fresh(f), _fresh(g))), name

    @pytest.mark.parametrize("shape", ["k = l", "k != l", "1e-8 twins"])
    def test_both_orders_are_bit_equal(self, rng, shape):
        # One record per unordered pair: fresh flats in either order, and measured flats
        # whose last partners differ, in either position, give the same bits.
        for _ in range(30):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(0, n))
            a = random_flat(rng, n, k)
            if shape == "k = l":
                b = random_flat(rng, n, k)
            elif shape == "k != l":
                b = random_flat(rng, n, (k + int(rng.integers(1, n))) % n)
            else:
                b = make_flat(a.A + 1e-8 * rng.standard_normal(a.A.shape), a.b0)
            c = random_flat(rng, n, int(rng.integers(0, n)))
            expected = _symmetric_bits(_fresh(a), _fresh(b))
            assert _symmetric_bits(_fresh(b), _fresh(a)) == expected
            delta_distance(a, c)
            delta_distance(c, b)
            assert _symmetric_bits(a, b) == expected
            delta_distance(b, c)
            delta_distance(c, a)
            assert _symmetric_bits(b, a) == expected
            assert _symmetric_bits(a, b) == expected

    def test_a_measured_flat_pickles_and_copies(self, rng):
        a, b = random_flat(rng, 5, 2), random_flat(rng, 5, 2)
        expected = _bits(distance(a, b, "chordal"))
        for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a)):
            assert _bits(distance(twin, b, "chordal")) == expected
            assert _bits(distance(twin, _fresh(b), "chordal")) == expected

    def test_restored_flats_hold_read_only_arrays(self, rng):
        a, b = random_flat(rng, 5, 2), random_flat(rng, 5, 2)
        expected = _bits(distance(a, b))
        for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            for array in (twin.A, twin.b0):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 5.0
            assert _bits(distance(twin, b)) == expected

    def test_measured_flats_and_curves_pickle_as_fresh_ones(self, rng):
        a, b = random_flat(rng, 5, 2), random_flat(rng, 5, 2)
        fresh = (_fresh(a), _fresh(b), geodesic(_fresh(a), _fresh(b)))
        distance(a, b)
        curve = geodesic(a, b)
        point = evaluate_geodesic(curve, 0.5)
        measured = (a, b, curve)
        assert [len(pickle.dumps(x)) for x in measured] == [len(pickle.dumps(x)) for x in fresh]
        assert set(vars(copy.copy(a))) == {"A", "b0"}
        assert set(vars(copy.copy(curve))) == {"Y_start", "U", "Theta", "Q"}
        for twin in (pickle.loads(pickle.dumps(curve)), copy.copy(curve)):
            assert _bits(evaluate_geodesic(twin, 0.5).A) == _bits(point.A)

    @pytest.mark.parametrize("calls", [
        (affine_principal_angles, principal_decomposition, geodesic, equal_flats),
        (equal_flats, geodesic, distance, principal_decomposition),
    ], ids=["angles first", "equal_flats first"])
    def test_one_overlap_per_ordered_pair(self, rng, calls):
        # Both flats hold the one record of five slots; its M and W stay the objects first
        # made, whichever order each call takes, and the other order stores nothing.
        a, b = random_flat(rng, 6, 2), random_flat(rng, 6, 2)
        calls[0](a, b)
        pair, M, W = a._pair, a._pair[2], a._pair[3]
        for index, call in enumerate(calls[1:] * 2):
            call(*((a, b) if index % 2 else (b, a)))
            assert a._pair is pair is b._pair and pair[2] is M and pair[3] is W, call.__name__
            assert len(pair) == 5, call.__name__

    def test_a_miss_on_the_first_flat_reads_the_second(self, rng):
        # After distance(a, b) and distance(a, c), a holds {a, c} and b still holds {a, b}:
        # distance(a, b) and principal_decomposition(a, b) read b's record and store nothing.
        a, b, c = (random_flat(rng, 5, 2) for _ in range(3))
        expected = _bits(distance(a, b))
        pair = b._pair
        distance(a, c)
        other = a._pair
        assert other is not pair and c._pair is other
        assert _bits(distance(a, b)) == expected
        principal_decomposition(a, b)
        assert a._pair is other and b._pair is pair and c._pair is other

    def test_a_partner_can_be_collected(self, rng):
        a, b = random_flat(rng, 5, 2), random_flat(rng, 5, 1)
        delta_distance(a, b)
        partner = weakref.ref(b)
        del b
        gc.collect()
        assert partner() is None

    @pytest.mark.parametrize("call", [
        lambda a, rng: distance(a, random_flat(rng, 5, 1)),
        lambda a, rng: distance(a, random_flat(rng, 5, 2), "nope"),
        lambda a, rng: infinite_metric(a, random_flat(rng, 5, 1), "asimov"),
        lambda a, rng: delta_distance(a, random_flat(rng, 4, 2)),
        lambda a, rng: affine_principal_angles(a, random_flat(rng, 6, 2)),
        lambda a, rng: geodesic(a, random_flat(rng, 5, 1)),
        lambda a, rng: geodesic(a, random_flat(rng, 6, 2)),
        lambda a, rng: equal_flats(a, random_flat(rng, 4, 2)),
    ], ids=["k mismatch", "unknown kind", "no cross-dimension metric", "n mismatch",
            "n mismatch for the angles", "k mismatch for a geodesic", "n mismatch for a geodesic",
            "n mismatch for equal_flats"])
    def test_a_call_that_raises_stores_nothing(self, rng, call):
        a = random_flat(rng, 5, 2)
        with pytest.raises((DimensionError, UnsupportedKind)):
            call(a, rng)
        assert not hasattr(a, "_pair")


class TestGeodesic:
    def test_endpoints(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(0, n))
            flat1, flat2 = random_flat(rng, n, k), random_flat(rng, n, k)
            curve = geodesic(flat1, flat2)
            assert equal_flats(evaluate_geodesic(curve, 0.0), flat1, 1e-8)
            assert equal_flats(evaluate_geodesic(curve, 1.0), flat2, 1e-8)

    def test_parallel_lines_midpoint(self):
        curve = geodesic(x_axis(), horizontal_line(1.0))
        mid = evaluate_geodesic(curve, 0.5)
        assert equal_flats(mid, horizontal_line(math.tan(math.pi / 8)), 1e-10)
        np.testing.assert_allclose(mid.b0, [0.0, math.tan(math.pi / 8)], atol=1e-10)

    def test_constant_speed(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(0, n))
            flat1, flat2 = random_flat(rng, n, k), random_flat(rng, n, k)
            curve = geodesic(flat1, flat2)
            total = distance(flat1, flat2)
            for t in (0.25, 0.5, 0.75):
                partial = distance(flat1, evaluate_geodesic(curve, t))
                assert abs(partial - t * total) < 1e-8

    def test_velocity_norm_is_grassmann_distance(self, rng):
        flat1, flat2 = random_flat(rng, 6, 2), random_flat(rng, 6, 2)
        curve = geodesic(flat1, flat2)
        assert np.linalg.norm(curve.Theta) == pytest.approx(
            distance(flat1, flat2), abs=1e-12
        )

    def test_svd_invariant_and_q_orthogonality(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(0, n))
            flat1, flat2 = random_flat(rng, n, k), random_flat(rng, n, k)
            curve = geodesic(flat1, flat2)
            Y1 = stiefel_coords(flat1).Y
            Y2 = stiefel_coords(flat2).Y
            M = Y1.T @ Y2
            H = (Y2 - Y1 @ M) @ np.linalg.inv(M)
            lhs = curve.Q @ np.tan(curve.Theta) @ curve.U.T
            assert np.abs(H - lhs).max() < 1e-8
            assert np.abs(Y1.T @ curve.Q).max() < 1e-10

    @pytest.mark.parametrize("k, n", [(1, 2), (2, 5), (6, 12), (8, 64)])
    def test_near_equal_twins_end_at_flat2(self, rng, k, n):
        # A rotated basis, a displacement shifted along A and a 1e-8
        # perturbation: every cosine of Y1^T Y2 rounds to 1.
        for _ in range(5):
            flat1 = random_flat(rng, n, k)
            rotation = np.linalg.qr(rng.standard_normal((k, k)))[0]
            A = flat1.A @ rotation + 1e-8 * rng.standard_normal((n, k))
            b = flat1.b0 + flat1.A @ rng.standard_normal(k) + 1e-8 * rng.standard_normal(n)
            flat2 = make_flat(A, b)
            assert equal_flats(evaluate_geodesic(geodesic(flat1, flat2), 1.0), flat2, 1e-8)

    @pytest.mark.parametrize("k, n", [(8, 64), (32, 128), (2, 4), (4, 6), (31, 32)])
    def test_wide_and_roomless_sizes(self, rng, k, n):
        # (2, 4), (4, 6) and (31, 32) have n - k < k + 1: 2k + 1 - n directions have no room.
        flat1, flat2 = random_flat(rng, n, k), random_flat(rng, n, k)
        curve = geodesic(flat1, flat2)
        assert np.abs(stiefel_coords(flat1).Y.T @ curve.Q).max() <= 1e-14
        pad = max(0, 2 * k + 1 - n)
        assert not curve.Q[:, :pad].any() and not curve.Theta.diagonal()[:pad].any()
        assert np.all(np.linalg.norm(curve.Q[:, pad:], axis=0) > 0.5)
        for t in (0.3, 1.0, 2.5):
            angles = t * curve.Theta.diagonal()
            frame = (curve.Y_start.Y @ curve.U) * np.cos(angles) + curve.Q * np.sin(angles)
            assert np.abs(frame.T @ frame - np.eye(k + 1)).max() <= 1e-13
            assert orthonormal_drift(evaluate_geodesic(curve, t)) <= 1e-13
        assert equal_flats(evaluate_geodesic(curve, 1.0), flat2, 1e-10)

    @pytest.mark.parametrize("k, n", [(8, 64), (32, 128), (2, 4), (4, 6), (31, 32)])
    @pytest.mark.parametrize("c, singular", [(1e-11, True), (1e-3, False)])
    def test_singular_pair_rejected_at_every_size(self, rng, k, n, c, singular):
        # Flats through the origin; flat2 turns one direction of flat1 to within c of a
        # right angle, into the complement of span(A1): sigma_min(Y1^T Y2) is c.
        A1 = np.linalg.qr(rng.standard_normal((n, k)))[0]
        u = rng.standard_normal(n)
        u -= A1 @ (A1.T @ u)
        A2 = A1.copy()
        A2[:, 0] = c * A1[:, 0] + math.sqrt(1.0 - c * c) * u / np.linalg.norm(u)
        rotation = np.linalg.qr(rng.standard_normal((k, k)))[0]
        flat1, flat2 = make_flat(A1, np.zeros(n)), make_flat(A2 @ rotation, np.zeros(n))
        if singular:
            with pytest.raises(SingularPair):
                geodesic(flat1, flat2)
        else:
            assert equal_flats(evaluate_geodesic(geodesic(flat1, flat2), 1.0), flat2, 1e-10)

    def test_singular_pair_rejected(self):
        # Vertical line: its direction is orthogonal to the x-axis and the
        # overlap matrix is singular.
        vertical = AffineFlat(np.array([[0.0], [1.0]]), np.array([5.0, 0.0]))
        with pytest.raises(SingularPair):
            geodesic(x_axis(), vertical)

    def test_exit_point_raises_not_a_flat(self):
        # Two far-apart points on the real line: the short way between their
        # embedded spans passes through the vertical span, which is not a
        # flat; by symmetry the crossing happens exactly at t = 1/2.
        left = point_flat([-10.0])
        right = point_flat([10.0])
        curve = geodesic(right, left)
        with pytest.raises(NotAFlat):
            evaluate_geodesic(curve, 0.5)
        assert evaluate_geodesic(curve, 0.25).n == 1
        assert equal_flats(evaluate_geodesic(curve, 1.0), left, 1e-8)

    def test_extrapolation_beyond_unit_interval(self):
        curve = geodesic(x_axis(), horizontal_line(1.0))
        extrapolated = evaluate_geodesic(curve, 1.5)
        assert equal_flats(extrapolated, horizontal_line(math.tan(1.5 * math.pi / 4)), 1e-9)
        # t = 2 turns the moving direction vertical: the curve leaves the
        # space of flats exactly there.
        with pytest.raises(NotAFlat):
            evaluate_geodesic(curve, 2.0)

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            geodesic(point_flat([0.0, 1.0]), x_axis())

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 1.5e308])
    def test_non_finite_angles_raise_without_warnings(self, t):
        # The angle between the x-axis and y = 100 is atan(100) > 1.2.
        curve = geodesic(x_axis(), horizontal_line(100.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite angle"):
                evaluate_geodesic(curve, t)
        equal = geodesic(x_axis(), x_axis())
        with pytest.raises(ValueError, match="non-finite angle"):
            evaluate_geodesic(equal, math.inf)

    def test_points_match_unembed_of_the_frame(self, rng):
        # The frame skips unembed's QR, so the flats agree to rounding, not bit for bit.
        for _ in range(20):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(0, n))
            curve = geodesic(random_flat(rng, n, k), random_flat(rng, n, k))
            for t in (0.0, 0.3, 1.0, -2.5, 1e6):
                angles = t * curve.Theta.diagonal()
                frame = (curve.Y_start.Y @ curve.U) * np.cos(angles) + curve.Q * np.sin(angles)
                point = evaluate_geodesic(curve, t)
                assert equal_flats(point, unembed(frame), 1e-13)
                assert orthonormal_drift(point) <= 1e-14

    @pytest.mark.parametrize("c", [1e-300, 5e-324])
    def test_overflowing_solve_refused_without_warnings(self, c):
        # Lines through the origin: the smallest singular value of Y1^T Y2 is c,
        # so the tangent sqrt(1 - c^2) / c is 1e300 or overflows the solve.
        tilted = AffineFlat(np.array([[c], [math.sqrt(1.0 - c * c)]]), np.zeros(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularPair, match="numerically singular"):
                geodesic(x_axis(), tilted)


def _turned(n: int, k: int, angle: float, b0_axis: int, b0_length: float) -> AffineFlat:
    """The first k axes of R^n, the last turned by ``angle`` toward axis k, displaced along
    another axis: exact zeros everywhere else."""
    A = np.eye(n)[:, :k]
    if k:
        A[k - 1, k - 1], A[k, k - 1] = math.cos(angle), math.sin(angle)
    return AffineFlat(A, b0_length * np.eye(n)[b0_axis])


def _dot_site_pairs() -> dict:
    """Pairs of fresh flats with exact zeros in their Stiefel coordinates, and sampled ones."""
    rng = random_stream(20261020)
    return {
        "axis-aligned": (_turned(5, 2, 0.0, 3, 3.0), _turned(5, 2, 0.3, 4, -2.0)),
        "same axes, shifted": (_turned(4, 2, 0.0, 2, 0.0), _turned(4, 2, 0.0, 2, 2.0)),
        "identical": (_turned(4, 2, 0.0, 3, 1.5), _turned(4, 2, 0.0, 3, 1.5)),
        "points (k = 0)": (_turned(3, 0, 0.0, 0, 1.0), _turned(3, 0, 0.0, 1, 2.0)),
        "planes (k = n - 1)": (_turned(3, 2, 0.0, 2, 1.0), _turned(3, 2, 0.4, 0, 0.0)),
        "sampled k = 0": tuple(sample_uniform(0, 4, rng) for _ in range(2)),
        "sampled k = n - 1": tuple(sample_uniform(3, 4, rng) for _ in range(2)),
        "sampled (32, 128)": tuple(sample_uniform(32, 128, rng) for _ in range(2)),
    }


def _reflected(frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, b0) of coords._flat_from_frame, written with @ and one expression."""
    n, k = frame.shape[0] - 1, frame.shape[1] - 1
    u = frame[-1].copy()
    r = math.sqrt(float(u @ u))
    u[-1] += r if u[-1] >= 0.0 else -r
    Y = frame - (frame @ u)[:, None] * u * (2.0 / float(u @ u))
    return Y[:n, :k], Y[:n, k] / Y[n, k]


class TestDotSites:
    """The products graff forms with ndarray.dot keep the bits of the same products with @."""

    @pytest.mark.parametrize("name", list(_dot_site_pairs()))
    def test_the_pair_record_and_the_principal_vectors(self, name):
        flat1, flat2 = _dot_site_pairs()[name]
        Y1, Y2 = stiefel_coords(flat1).Y, stiefel_coords(flat2).Y
        # The other order's M is a contiguous copy of the record's M^T and its W is None;
        # geodesic forms that W from the copy, with the bits of Y2 - Y1 (Y1^T Y2).
        Sa, Sb, M, W = metric._pair(flat1, flat2, angles=False)[:4]
        assert _bits(M) == _bits(Sa.Y.T @ Sb.Y) and _bits(W) == _bits(Sb.Y - Sa.Y @ M)
        orders = [((Y1, Y2), metric._ordered(flat1, flat2)),
                  ((Y2, Y1), metric._ordered(flat2, flat1))]
        assert [W is None for _, (_, W, _) in orders] == [Sa.Y is Y2, Sa.Y is Y1]
        for (Ya, Yb), (M, W, _) in orders:
            assert _bits(M) == _bits(Ya.T @ Yb) and M.flags.c_contiguous
            assert _bits(Yb - Ya.dot(M) if W is None else W) == _bits(Yb - Ya @ (Ya.T @ Yb))
        decomposition = principal_decomposition(flat1, flat2)
        assert _bits(decomposition.P_vecs) == _bits(Y1 @ decomposition.U)
        assert _bits(decomposition.Q_vecs) == _bits(Y2 @ decomposition.V)

    @pytest.mark.parametrize("name", list(_dot_site_pairs()))
    def test_the_geodesic_and_its_points(self, name):
        # Q's basis beyond span(Y) is the QR of W' = W - Y (Y^T W) on the pairs with room for
        # k + 1 directions there, and the QR of [Y, W] on the others: no room, or a W' column
        # nearly dependent on the others (axis-aligned flats share a direction).
        flat1, flat2 = _dot_site_pairs()[name]
        Y, k = stiefel_coords(flat1).Y, flat1.k
        M = Y.T @ stiefel_coords(flat2).Y
        W = stiefel_coords(flat2).Y - Y @ M
        beyond, diag = _lapack.qr(W - Y @ (Y.T @ W))
        room = flat1.n - k > k
        fallback = room and any(np.abs(diag) <= metric._ROOM_TOL * np.linalg.norm(W, axis=0))
        assert room == (name in ("axis-aligned", "points (k = 0)", "sampled k = 0",
                                 "sampled (32, 128)"))
        assert fallback == (name == "axis-aligned")
        if not room or fallback:
            beyond = _lapack.qr(np.concatenate((Y, W), axis=1))[0][:, k + 1:]
        Q_beyond, tangents, _ = _lapack.svd(_lapack.solve(M.T, W.T @ beyond).T)
        Q = np.zeros((flat1.n + 1, k + 1))
        Q[:, k + 1 - len(tangents):] = beyond @ Q_beyond[:, : len(tangents)][:, ::-1]
        curve = geodesic(flat1, flat2)
        assert _bits(curve.Q) == _bits(Q)
        for t in (0.0, 0.5, 1.0):
            angles = t * curve.Theta.diagonal()
            A, b0 = _reflected((Y @ curve.U) * np.cos(angles) + Q * np.sin(angles))
            point = evaluate_geodesic(curve, t)
            assert _bits(point.A) == _bits(A) and _bits(point.b0) == _bits(b0), t


def _nearest_flat(symmetric: np.ndarray, k: int) -> AffineFlat:
    """Retract a symmetric matrix to the closest rank-(k+1) projection's flat."""
    _, vecs = np.linalg.eigh(symmetric)
    return unembed(vecs[:, -(k + 1):])


def test_geodesic_is_length_minimizing(rng):
    # Piecewise-linear interpolating curves in projection coordinates,
    # retracted back to flats, are never shorter than the geodesic.
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 6))
        k = int(rng.integers(0, n))
        flat1, flat2 = random_flat(rng, n, k), random_flat(rng, n, k)
        sigma_min = np.linalg.svd(
            stiefel_coords(flat1).Y.T @ stiefel_coords(flat2).Y, compute_uv=False
        )[-1]
        if sigma_min < 1e-6:
            continue
        waypoints = [projection_coords(flat1).P]
        for _ in range(int(rng.integers(1, 4))):
            waypoints.append(projection_coords(random_flat(rng, n, k)).P)
        waypoints.append(projection_coords(flat2).P)
        samples = []
        try:
            for start, stop in zip(waypoints[:-1], waypoints[1:]):
                for t in np.linspace(0.0, 1.0, 9)[:-1]:
                    samples.append(_nearest_flat((1 - t) * start + t * stop, k))
            samples.append(flat2)
        except NotAFlat:
            continue
        length = sum(
            distance(a, b) for a, b in zip(samples[:-1], samples[1:])
        )
        assert length >= distance(flat1, flat2) - 1e-6
        checked += 1
