import math
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from graff import (
    DimensionError,
    GroupDescriptor,
    InvalidFlag,
    betti,
    dim_graff,
    dim_psi_minus,
    dim_psi_plus,
    dim_schubert_affine,
    dim_stiefel_affine,
    homotopy_group,
    relative_volume,
    unit_ball_volume,
    volume_gr,
    volume_graff,
)


@pytest.mark.parametrize("function, args, message", [
    (dim_graff, (3, 3), "n must be an integer >= 4, got 3"),
    (dim_stiefel_affine, (0, 3), "k must be an integer >= 1, got 0"),
    (dim_stiefel_affine, (3, 2), "n must be an integer >= 3, got 2"),
    (dim_psi_plus, (2, 1, 3), "l must be an integer >= 2, got 1"),
    (dim_psi_minus, (1, 2, 1), "n must be an integer >= 2, got 1"),
    (unit_ball_volume, (-1,), "m must be an integer >= 0, got -1"),
    (volume_gr, (-1, 2), "k must be an integer >= 0, got -1"),
    (volume_graff, (2, 2.5), "n must be an integer >= 3, got 2.5"),
    (relative_volume, (1, 2, 1), "n must be an integer >= 2, got 1"),
    (betti, (2, -1), "i must be an integer >= 0, got -1"),
    (homotopy_group, (1, 0, 2), "n must be an integer >= 1, got 0"),
    (homotopy_group, (1, 3, 0), "r must be an integer >= 1, got 0"),
    (dim_graff, (True, 3), "k must be an integer >= 0, got True"),  # a bool is no count
    (betti, (1, False), "i must be an integer >= 0, got False"),
])
def test_ranges_are_chained_lower_bounds(function, args, message):
    with pytest.raises(DimensionError) as info:
        function(*args)
    assert str(info.value) == message and isinstance(info.value, ValueError)


class TestDimensions:
    def test_points_have_dimension_n(self):
        for n in range(1, 8):
            assert dim_graff(0, n) == n

    def test_known_values(self):
        assert dim_graff(1, 3) == 4
        assert dim_graff(2, 5) == 9

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            dim_graff(3, 3)
        with pytest.raises(DimensionError):
            dim_graff(-1, 3)

    def test_stiefel_affine(self):
        assert dim_stiefel_affine(1, 3) == (3, 6)
        assert dim_stiefel_affine(1, 1) == (1, 2)
        for n in range(1, 9):
            assert dim_stiefel_affine(n, n) == (n * (n + 1) // 2, n * (n + 1))

    def test_psi_dimensions(self):
        assert dim_psi_plus(1, 2, 3) == 1
        assert dim_psi_minus(1, 2, 3) == 2
        for n in range(1, 9):
            for l in range(n + 1):
                for k in range(l + 1):
                    assert dim_psi_plus(k, k, n) == 0
                    assert dim_psi_minus(k, k, n) == 0
                    assert dim_psi_plus(k, l, n) == (n - l) * (l - k)
                    if l > k:
                        assert dim_psi_minus(k, l, n) == dim_graff(k, l)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "3", None, [1, 2]])
    def test_non_numbers_and_non_finite_sizes_are_refused(self, value):
        with pytest.raises(DimensionError, match="integer"):
            dim_graff(value, 3)
        with pytest.raises(DimensionError, match="integer"):
            dim_graff(1, value)

    def test_psi_ordering_enforced(self):
        with pytest.raises(DimensionError):
            dim_psi_plus(2, 1, 3)


class TestSchubertDimension:
    def test_single_term(self):
        assert dim_schubert_affine([1]) == 0

    def test_length_one_flag_of_dimension_two(self):
        assert dim_schubert_affine([2]) == 2
        assert dim_schubert_affine([2]) == dim_psi_minus(1, 2, 5)

    def test_minimal_flag_is_zero_dimensional(self):
        for k in range(1, 8):
            assert dim_schubert_affine(range(1, k + 1)) == 0

    def test_reproduces_contained_flats_dimension(self):
        # Flag dimensions l-k+j, j = 1..k describe the k-flats inside an l-flat.
        for l in range(1, 9):
            for k in range(1, l + 1):
                flag = [l - k + j for j in range(1, k + 1)]
                assert dim_schubert_affine(flag) == dim_psi_minus(k, l, 9)

    def test_reproduces_containing_flats_dimension(self):
        # Flag dimensions (1..k, n-l+k+1..n) describe the l-flats containing
        # a k-flat; the ambient Grassmannian there is Graff(l, n).
        for n in range(2, 9):
            for l in range(1, n):
                for k in range(1, l + 1):
                    flag = list(range(1, k + 1)) + [n - l + k + i for i in range(1, l - k + 1)]
                    assert dim_schubert_affine(flag) == dim_psi_plus(k, l, n)

    def test_invalid_flags(self):
        with pytest.raises(InvalidFlag):
            dim_schubert_affine([2, 2])
        with pytest.raises(InvalidFlag):
            dim_schubert_affine([1, 1])
        with pytest.raises(InvalidFlag):
            dim_schubert_affine([0, 1])
        with pytest.raises(InvalidFlag):
            dim_schubert_affine([1, 2, 2])
        with pytest.raises(InvalidFlag):
            dim_schubert_affine([])


class TestVolumes:
    def test_unit_ball_values(self):
        assert unit_ball_volume(0) == pytest.approx(1.0, abs=1e-15)
        assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-14)
        assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-14)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-14)

    def test_circle_of_lines(self):
        assert volume_gr(1, 2) == pytest.approx(math.pi, abs=1e-12)

    def test_trivial_grassmannians(self):
        for n in range(8):
            assert volume_gr(0, n) == pytest.approx(1.0, rel=1e-13)
            assert volume_gr(n, n) == pytest.approx(1.0, rel=1e-13)

    def test_graff_equals_shifted_gr(self):
        assert volume_graff(0, 1) == pytest.approx(math.pi, abs=1e-12)
        for n in range(1, 9):
            for k in range(n):
                assert volume_graff(k, n) == volume_gr(k + 1, n + 1)

    def test_log_scale_agrees(self):
        for n in range(1, 9):
            for k in range(n + 1):
                assert math.exp(volume_gr(k, n, log=True)) == pytest.approx(
                    volume_gr(k, n), rel=1e-12
                )

    def test_log_scale_survives_huge_dimensions(self):
        value = volume_gr(100, 400, log=True)
        assert math.isfinite(value)

    def test_log_volume_matches_the_full_sums(self):
        # The three products of unit-ball volumes, summed exactly, against the
        # k-term form the library evaluates.
        logs = [0.5 * j * math.log(math.pi) - math.lgamma(1 + 0.5 * j) for j in range(301)]
        for n in [*range(1, 41), 64, 151, 299, 300]:
            for k in range(n + 1):
                terms = [math.lgamma(n + 1), -math.lgamma(k + 1), -math.lgamma(n - k + 1)]
                terms += logs[1:n + 1] + [-x for x in logs[1:k + 1] + logs[1:n - k + 1]]
                assert volume_gr(k, n, log=True) == pytest.approx(
                    math.fsum(terms), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("function, args, message", [
        (relative_volume, (31, 31, 62), "relative_volume(31, 31, 62) is past the floats; "
                                        "log=True gives its log, 732.6483811275582"),
        (volume_gr, (1, 10**306), f"volume_gr(1, {10**306}) is past the floats, and so is its log"),
        (volume_graff, (0, 10**306),
         f"volume_graff(0, {10**306}) is past the floats, and so is its log"),
        (unit_ball_volume, (10**306,),
         f"unit_ball_volume({10**306}) is past the floats, and so is its log"),
        (volume_gr, (1, 10**400), f"volume_gr(1, {10**400}) is past the floats, and so is its log"),
        (volume_graff, (0, 10**400),
         f"volume_graff(0, {10**400}) is past the floats, and so is its log"),
        (unit_ball_volume, (10**400,),
         f"unit_ball_volume({10**400}) is past the floats, and so is its log"),
        (relative_volume, (1000, 10**304 - 1000, 10**304),  # its log is inf - inf
         f"relative_volume(1000, {10**304 - 1000}, {10**304}) is past the floats, "
         "and so is its log"),
    ], ids=["relative-log-fits", "gr-1e306", "graff-1e306", "ball-1e306", "gr-1e400",
            "graff-1e400", "ball-1e400", "relative-nan-log"])
    def test_values_past_the_floats_are_refused(self, function, args, message):
        with pytest.raises(DimensionError) as info:
            function(*args)
        assert str(info.value) == message

    def test_a_volume_whose_log_fits_still_underflows_to_zero(self):
        assert volume_gr(1, 10**305) == 0.0
        assert volume_gr(1, 10**305, log=True) == pytest.approx(-3.497e307, rel=1e-3)
        assert relative_volume(31, 31, 62, log=True) == pytest.approx(732.648381127558, rel=1e-12)

    def test_a_log_past_the_floats_is_refused(self):
        # The unit-ball terms of the log sum past -1.8e308; the volume itself is 0.0.
        assert volume_gr(10, 10**305) == 0.0
        with pytest.raises(DimensionError) as info:
            volume_gr(10, 10**305, log=True)
        assert str(info.value) == f"volume_gr(10, {10**305}) is past the floats, and so is its log"

    def test_complement_symmetry(self):
        for n in range(1, 9):
            for k in range(n + 1):
                assert volume_gr(k, n) == pytest.approx(volume_gr(n - k, n), rel=1e-12)


class TestRelativeVolume:
    def test_three_way_consistency(self):
        for n in range(1, 11):
            for l in range(n + 1):
                for k in range(l + 1):
                    if k + l < n:
                        continue
                    closed = relative_volume(k, l, n)
                    ratio_plus = volume_gr(n - l, n - k) / volume_gr(l + 1, n + 1)
                    ratio_minus = volume_gr(k + 1, l + 1) / volume_gr(k + 1, n + 1)
                    assert closed == pytest.approx(ratio_plus, rel=1e-12)
                    assert closed == pytest.approx(ratio_minus, rel=1e-12)

    def test_specific_value(self):
        # At (1, 2, 3) all three expressions give 1/pi.
        assert relative_volume(1, 2, 3) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_precondition_enforced(self):
        with pytest.raises(DimensionError):
            relative_volume(0, 2, 3)  # k + l < n
        with pytest.raises(DimensionError):
            relative_volume(2, 1, 3)  # k > l
        relative_volume(1, 2, 3)  # 1 + 2 >= 3 is allowed


def _log_relative_volume_by_terms(k, l, n):
    """The product formula of the relative_volume docstring, one term per unit ball."""
    def log_w(m):
        return 0.5 * m * math.log(math.pi) - math.lgamma(1.0 + 0.5 * m)

    total = math.lgamma(l + 2) + math.lgamma(n - k + 1)
    total -= math.lgamma(n + 2) + math.lgamma(l - k + 1)
    total += sum(log_w(j) for j in range(l - k + 1, l + 2))
    total -= sum(log_w(j) for j in range(n - k + 1, n + 2))
    return total


def test_relative_volume_matches_the_product_formula():
    for n in range(1, 61):
        for l in range(n + 1):
            for k in range(max(0, n - l), l + 1):
                expected = _log_relative_volume_by_terms(k, l, n)
                value = relative_volume(k, l, n, log=True)
                assert math.expm1(value - expected) == pytest.approx(0.0, abs=1e-12), (k, l, n)


def _brute_force_partitions(total: int, max_parts: int) -> int:
    if total == 0:
        return 1
    count = 0
    for size in range(1, max_parts + 1):
        for combo in combinations_with_replacement(range(1, total + 1), size):
            if sum(combo) == total:
                count += 1
    return count


class TestBetti:
    def test_zeroth_is_one(self):
        for k in range(1, 7):
            assert betti(k, 0) == 1

    def test_known_value(self):
        assert betti(2, 4) == 3  # 4, 3+1, 2+2

    def test_single_part(self):
        for i in range(0, 30):
            assert betti(1, i) == 1

    def test_matches_enumeration(self):
        for k in range(1, 7):
            for i in range(0, 21):
                assert betti(k, i) == _brute_force_partitions(i, k)

    def test_preconditions(self):
        with pytest.raises(DimensionError):
            betti(0, 3)
        with pytest.raises(DimensionError):
            betti(2, -1)

    def test_parts_past_i_add_nothing_so_a_huge_k_returns_at_once(self):
        assert betti(10**21, 4) == betti(4, 4) == 5
        assert betti(10**21, 0) == 1

    def test_more_than_ten_million_steps_are_refused(self):
        for k, i in ((2, 5 * 10**6 + 1), (10**21, 3163), (1, 10**21)):
            with pytest.raises(DimensionError, match=r"over 10\*\*7"):
                betti(k, i)


class TestHomotopyGroups:
    def test_fundamental_group(self):
        assert homotopy_group(1, 2, 1) is GroupDescriptor.Z
        assert homotopy_group(1, 4, 1) is GroupDescriptor.Z2
        assert homotopy_group(1, 3, 1) is GroupDescriptor.Z2
        assert homotopy_group(2, 4, 1) is GroupDescriptor.UNKNOWN
        assert homotopy_group(3, 100, 1) is GroupDescriptor.Z2

    def test_infinite_ambient(self):
        assert homotopy_group(2, math.inf, 1) is GroupDescriptor.Z2
        assert homotopy_group(5, math.inf, 4) is GroupDescriptor.Z
        assert homotopy_group(5, math.inf, 8) is GroupDescriptor.Z
        assert homotopy_group(5, math.inf, 9) is GroupDescriptor.Z2
        assert homotopy_group(5, math.inf, 10) is GroupDescriptor.Z2
        for r in (3, 5, 6, 7, 11):
            assert homotopy_group(5, math.inf, r) is GroupDescriptor.TRIVIAL

    def test_finite_range_boundary(self):
        assert homotopy_group(2, 5, 4) is GroupDescriptor.UNKNOWN  # r >= n - 2k
        assert homotopy_group(1, 10, 4) is GroupDescriptor.Z
        assert homotopy_group(1, 10, 7) is GroupDescriptor.TRIVIAL  # r = 7 < n - 2k = 8
        assert homotopy_group(1, 10, 8) is GroupDescriptor.UNKNOWN
        assert homotopy_group(1, 10, 6) is GroupDescriptor.TRIVIAL

    def test_ranges_are_decided_on_exact_integers(self):
        # Past 2**53, n / 2 rounds: the float test put 2**59 < (2**60 + 1) / 2 out of range.
        assert homotopy_group(2**59, 2**60 + 1, 1) is GroupDescriptor.Z2
        assert homotopy_group(2**59, 2**60 + 3, 2) is GroupDescriptor.Z2
        assert homotopy_group(2**59, 2**60, 1) is GroupDescriptor.UNKNOWN
        assert homotopy_group(2**59, 2**60 + 2, 2) is GroupDescriptor.UNKNOWN
        assert homotopy_group(1, 10**400, 3) is GroupDescriptor.TRIVIAL  # n / 2 overflows

    def test_matches_the_stated_ranges(self):
        # The ranges as first stated, with n/2 exact: r = 1 gives Z2 for n >= k + 2 and
        # 0 < k < n/2; r >= 2 gives the Bott value for 0 <= k < n/2 and 2 <= r < n - 2k.
        bott = {0: "Z", 1: "Z2", 2: "Z2", 4: "Z"}
        for n in [*range(1, 130), math.inf]:
            half = math.inf if n == math.inf else Fraction(n, 2)
            for k in range(60):
                for r in range(1, 40):
                    if r == 1 and (k, n) == (1, 2):
                        expected = "Z"
                    elif r == 1:
                        stated = n == math.inf or n >= k + 2 and 0 < k < half
                        expected = "Z2" if stated else "unknown"
                    elif k < half and r < n - 2 * k:
                        expected = bott.get(r % 8, "trivial")
                    else:
                        expected = "unknown"
                    assert homotopy_group(k, n, r).value == expected, (k, n, r)

    def test_preconditions(self):
        with pytest.raises(DimensionError):
            homotopy_group(1, 3, 0)
        with pytest.raises(DimensionError):
            homotopy_group(-1, 3, 1)
