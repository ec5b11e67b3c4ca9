"""Ulp bounds of the metric layer against a 40-digit mpmath oracle.

The oracle takes graff's float Stiefel coordinates Y1, Y2 as exact input.  At 40
digits it forms M = Y1^T Y2 and W = Y2 - Y1 M, takes the cosines from
``mp.svd_r(M)`` and the sines from the smallest singular values of W, and picks
each angle as graff does: the arcsine of the sine when cos^2 >= 1/2, the
arccosine of the cosine otherwise.  The distance formulas are then evaluated on
those angles at 40 digits.

An ulp is eps = 2**-52, the spacing of the floats in [1, 2).
* An angle's error is counted against max(theta, 1).  Forming M and W in floats
  leaves an absolute floor of about eps under every angle, so relative error is
  the wrong yardstick for tiny ones: twins 1e-8 apart would read millions of
  ulps relative.
* A distance's error is counted against max(d, 1) + sum_i |dd/dtheta_i|
  max(theta_i, 1): the rounding of d itself plus what angles one ulp off would
  carry into it.  For eight kinds |dd/dtheta_i| <= 1; martin's tan(theta_i) / d
  grows without bound near a right angle, where its cosines lose their digits.

Each bound is the worst error seen over 3,000 pairs per class at n = 5 (three
seeds of 1,000), rounded up; the numpy angle tail that the float-list tail
replaced (np.arcsin/np.arccos and array sums) showed the same worst cases.
Angles: 3.6 ulps for random 2-flats, 4.03 far from the origin, 0.7 for twins,
1.5 for points, 9.2 for mixed dimensions and 14.4 for hyperplanes, whose
5-column W carries more rounding from forming it in floats.  Distances: 3.9
for martin, at most 2.6 for the rest.  ``equal_flats`` is checked on the same
pairs against the 40-digit |P1 - P2|_F, P = Y Y^T, through its decisions at
tolerances just above and just below that value.

The geodesic oracle runs the equidimensional classes, 2-flat pairs whose
smallest cosine sigma_min is 2e-10 or 1e-9, next to geodesic's refusal at about
1e-10, and 2-flat pairs holding one angle of rounding size, 1e-14, 3e-13 or 8e-13.  It checks the point at t = 1 by its Grassmann distance from flat2, the
points at t = 1/4, 1/2, 3/4 by their distance from flat1 against t d, and the
midpoint's angles to flat1 against theta_i / 2.  Solving H = W M^-1 carries
eps / sigma_min of rounding, so there an ulp is eps / sigma_min: the errors
count against max(d, 1) eps / sigma_min, the midpoint's against max(theta_i, 1)
eps / sigma_min.  Over 3,000 pairs per class the earlier construction (Q from
the SVD of H itself, a QR of every frame) read at worst 12.7 ulps for the end
point, 3.3 for the distances and 4.0 for the midpoint; this one (Q in a basis
beyond span(Y), no QR per frame) 16.0, 2.3 and 4.8.  Both then dropped
angles with tangent below 1e-12, so a pair holding one missed flat2 by that
angle, 3,694 ulps at worst (an angle of 8.2e-13); every angle is now kept, and
3,000 other twin pairs (seeds [0..2, 1]) read at worst 11.4 ulps for the end
point, where the cut-off read 3,694 with 3 pairs over 20.  |A^T A - I| and
|A^T b0| / max(1, |b0|) stayed below 1.4e-15 with the QR per frame and 7.0e-15
without, at t up to 1e6.  Against the same flat in another basis every tangent
is rounding and is kept, so extrapolated points drift about |t| eps: at worst
9.4 eps max(|t|, 1) over 120 such pairs; the cut-off kept 20 of them within
7.4 eps at every t.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from mpmath import mp

from graff import (DistanceKind, affine_principal_angles, delta_distance, distance,
                   equal_flats, evaluate_geodesic, geodesic, infinite_metric, make_flat,
                   principal_decomposition, stiefel_coords, unembed)

from conftest import orthonormal_drift

EPS = 2.0**-52
N = 5
PAIRS = 30
INFINITE_KINDS = (DistanceKind.GRASSMANN, DistanceKind.CHORDAL, DistanceKind.PROCRUSTES)
# equal_flats' error against the oracle |P1 - P2|_F, in units of eps (n + 1).
EQUAL_FLATS_ULPS = 8

# Worst angle error, in ulps of max(theta, 1), per class.
ANGLE_ULPS = {"random": 5, "twins": 5, "far": 5, "points": 5, "hyperplanes": 16, "mixed": 16}
# Worst distance error, in ulps of the yardstick above, per kind; the cross-dimension
# metrics are keyed "infinite_<kind>".
DISTANCE_ULPS = {
    "grassmann": 4, "asimov": 4, "binet_cauchy": 4, "chordal": 4, "fubini_study": 4,
    "martin": 6, "procrustes": 4, "projection": 4, "spectral": 4,
    "infinite_grassmann": 4, "infinite_chordal": 4, "infinite_procrustes": 4,
}


def _flat(rng, k, far=False):
    b = rng.standard_normal(N)
    return make_flat(rng.standard_normal((N, k)), 1e6 * b / np.linalg.norm(b) if far else b)


@lru_cache(maxsize=None)
def _pairs(name):
    """The class's flat pairs: 2-flats (random, twins 1e-8 apart, |b0| about 1e6),
    points, hyperplanes, and flats of two different dimensions."""
    rng = np.random.default_rng(["random", "twins", "far", "points", "hyperplanes",
                                 "mixed"].index(name))
    pairs = []
    for _ in range(PAIRS):
        if name == "twins":
            flat = _flat(rng, 2)
            twin = make_flat(flat.A + 1e-8 * rng.standard_normal(flat.A.shape),
                             flat.b0 + 1e-8 * rng.standard_normal(N))
            pairs.append((flat, twin))
        elif name == "mixed":
            k, l = rng.choice(N, size=2, replace=False)
            pairs.append((_flat(rng, int(k)), _flat(rng, int(l))))
        else:
            k = {"points": 0, "hyperplanes": N - 1}.get(name, 2)
            pairs.append((_flat(rng, k, name == "far"), _flat(rng, k, name == "far")))
    return pairs


def _oracle_angles(flat1, flat2):
    Y1, Y2 = (mp.matrix(stiefel_coords(flat).Y.tolist()) for flat in (flat1, flat2))
    M = Y1.T * Y2
    W = Y2 - Y1 * M
    count = min(M.rows, M.cols)
    cosines = sorted(mp.svd_r(M, compute_uv=False), reverse=True)[:count]
    sines = sorted(mp.svd_r(W, compute_uv=False))[:count]
    return [mp.asin(min(s, 1)) if c * c >= 0.5 else mp.acos(min(c, 1))
            for c, s in zip(cosines, sines)]


def _oracle_distance(thetas, kind, gap=0):
    if kind is DistanceKind.GRASSMANN:
        return mp.sqrt(gap * mp.pi**2 / 4 + mp.fsum(t**2 for t in thetas))
    if kind is DistanceKind.ASIMOV:
        return thetas[-1]
    if kind is DistanceKind.BINET_CAUCHY:
        return mp.sqrt(1 - mp.fprod(mp.cos(t) ** 2 for t in thetas))
    if kind is DistanceKind.CHORDAL:
        return mp.sqrt(gap + mp.fsum(mp.sin(t) ** 2 for t in thetas))
    if kind is DistanceKind.FUBINI_STUDY:
        return mp.acos(mp.fprod(mp.cos(t) for t in thetas))
    if kind is DistanceKind.MARTIN:
        return mp.sqrt(-mp.fsum(2 * mp.log(mp.cos(t)) for t in thetas))
    if kind is DistanceKind.PROCRUSTES:
        return 2 * mp.sqrt(mp.mpf(gap) / 2 + mp.fsum(mp.sin(t / 2) ** 2 for t in thetas))
    if kind is DistanceKind.PROJECTION:
        return mp.sin(thetas[-1])
    return 2 * mp.sin(thetas[-1] / 2)


def _yardstick(thetas, kind, gap=0):
    """max(d, 1) + sum_i |dd/dtheta_i| max(theta_i, 1), the derivatives by central
    differences at 40 digits."""
    h = mp.mpf("1e-12")
    total = max(_oracle_distance(thetas, kind, gap), 1)
    for i, theta in enumerate(thetas):
        up, down = list(thetas), list(thetas)
        up[i], down[i] = theta + h, theta - h
        slope = (_oracle_distance(up, kind, gap) - _oracle_distance(down, kind, gap)) / (2 * h)
        total += abs(slope) * max(theta, 1)
    return total


@lru_cache(maxsize=None)
def _worst(name):
    """Worst angle error and worst error per distance kind over the class, in ulps."""
    angle, kinds = 0.0, dict.fromkeys(DISTANCE_ULPS, 0.0)
    with mp.workdps(40):
        for flat1, flat2 in _pairs(name):
            thetas = _oracle_angles(flat1, flat2)
            for got in (affine_principal_angles(flat1, flat2),
                        affine_principal_angles(flat2, flat1),
                        principal_decomposition(flat1, flat2).thetas):
                assert got.shape == (len(thetas),)
                for g, t in zip(got.tolist(), thetas):
                    angle = max(angle, float(abs(g - t) / max(t, 1)) / EPS)
            measured = [(kind.value, delta_distance(flat1, flat2, kind), 0, kind)
                        for kind in DistanceKind]
            if flat1.k == flat2.k:
                measured += [(kind.value, distance(flat1, flat2, kind), 0, kind)
                             for kind in DistanceKind]
            gap = abs(flat1.k - flat2.k)
            measured += [("infinite_" + kind.value, infinite_metric(flat1, flat2, kind), gap, kind)
                         for kind in INFINITE_KINDS]
            for key, got, gap, kind in measured:
                assert isinstance(got, float) and math.isfinite(got)
                error = abs(got - _oracle_distance(thetas, kind, gap))
                kinds[key] = max(kinds[key], float(error / _yardstick(thetas, kind, gap)) / EPS)
    return angle, kinds


CLASSES = list(ANGLE_ULPS)


@pytest.mark.parametrize("name", CLASSES)
def test_angles_within_their_ulp_bound(name):
    angle, _ = _worst(name)
    assert angle <= ANGLE_ULPS[name], f"{name}: worst angle error {angle:.2f} ulps"


@pytest.mark.parametrize("name", CLASSES)
def test_every_distance_kind_within_its_ulp_bound(name):
    _, kinds = _worst(name)
    over = {key: round(ulps, 2) for key, ulps in kinds.items() if ulps > DISTANCE_ULPS[key]}
    assert not over, f"{name}: {over}"


@pytest.mark.parametrize("name", CLASSES)
def test_equal_flats_decides_at_the_oracle_projection_distance(name):
    """equal_flats accepts at tol = d + margin and refuses at d - margin, d the 40-digit
    |P1 - P2|_F of the same float Stiefel coordinates, so the value it compares with tol
    is d to within the margin, 8 eps (n + 1) (0.39 eps (n + 1) at worst on these pairs)."""
    margin = EQUAL_FLATS_ULPS * EPS * (N + 1)
    with mp.workdps(40):
        for flat1, flat2 in _pairs(name):
            Y1, Y2 = (mp.matrix(stiefel_coords(flat).Y.tolist()) for flat in (flat1, flat2))
            d = float(mp.mnorm(Y1 * Y1.T - Y2 * Y2.T, "f"))
            for pair in ((flat1, flat2), (flat2, flat1)):
                assert equal_flats(*pair, d + margin)
                assert not equal_flats(*pair, d - margin)


def test_twins_read_angles_near_1e8_not_zero():
    """The twins class is near-equal but not equal: its angles sit near 1e-8, so a
    kernel that lost them to the sqrt(eps) floor of arccos would fail the bound."""
    for flat1, flat2 in _pairs("twins"):
        largest = affine_principal_angles(flat1, flat2)[-1]
        assert 1e-10 < largest < 1e-6


# The geodesic oracle's classes (see the module docstring).
GEODESIC_CLASSES = ["random", "twins", "far", "points", "hyperplanes", "cosine 2e-10",
                    "cosine 1e-9", "angle 1e-14", "angle 3e-13", "angle 8e-13"]
GEODESIC_PAIRS = 20
# Worst error per check, in ulps of the yardstick in the module docstring.
GEODESIC_ULPS = {"end": 20, "distance": 4, "midpoint": 8}
TS = (0.0, 0.5, 1.0, -2.5, 1e3, 1e6)


def _flat_at_angles(rng, flat, thetas):
    """A flat whose nonzero principal angles with ``flat`` are ``thetas`` (at most n - k
    of them): a random rotation of its Stiefel basis, turned into a random orthonormal
    complement."""
    Y = stiefel_coords(flat).Y
    G = rng.standard_normal((Y.shape[0], len(thetas)))
    complement = np.linalg.qr(G - Y @ (Y.T @ G))[0]
    frame = Y @ np.linalg.qr(rng.standard_normal((Y.shape[1],) * 2))[0]
    frame[:, : len(thetas)] = frame[:, : len(thetas)] * np.cos(thetas) + complement * np.sin(thetas)
    return unembed(frame)


@lru_cache(maxsize=None)
def _geodesic_pairs(name):
    if not name.startswith(("cosine", "angle")):
        return _pairs(name)[:GEODESIC_PAIRS]
    value = float(name.split()[1])
    rng = np.random.default_rng(GEODESIC_CLASSES.index(name))
    pairs = []
    for _ in range(GEODESIC_PAIRS):
        flat = _flat(rng, 2)
        if name.startswith("cosine"):
            thetas = [*rng.uniform(0.0, 1.2, 2), math.acos(value)]
        else:
            thetas = [value, *rng.uniform(0.1, 1.2, 2)]
        pairs.append((flat, _flat_at_angles(rng, flat, thetas)))
    return pairs


def _oracle_grassmann(flat1, flat2):
    return mp.sqrt(mp.fsum(t**2 for t in _oracle_angles(flat1, flat2)))


@lru_cache(maxsize=None)
def _geodesic_worst(name):
    """Worst error of the end point, the distances t d and the midpoint's angles, in ulps."""
    worst = dict.fromkeys(GEODESIC_ULPS, 0.0)
    with mp.workdps(40):
        for flat1, flat2 in _geodesic_pairs(name):
            thetas = _oracle_angles(flat1, flat2)
            d = mp.sqrt(mp.fsum(t**2 for t in thetas))
            ulp = EPS / mp.cos(thetas[-1])  # eps / sigma_min
            scale = max(d, 1) * ulp
            curve = geodesic(flat1, flat2)
            errors = {"end": _oracle_grassmann(evaluate_geodesic(curve, 1.0), flat2) / scale,
                      "distance": 0, "midpoint": 0}
            for t in (0.25, 0.5, 0.75):
                angles = _oracle_angles(evaluate_geodesic(curve, t), flat1)
                moved = mp.sqrt(mp.fsum(a**2 for a in angles))
                errors["distance"] = max(errors["distance"], abs(moved - t * d) / scale)
                if t == 0.5:
                    errors["midpoint"] = max(abs(a - theta / 2) / (max(theta, 1) * ulp)
                                             for a, theta in zip(angles, thetas))
            for key, error in errors.items():
                worst[key] = max(worst[key], float(error))
    return worst


@pytest.mark.parametrize("name", GEODESIC_CLASSES)
def test_geodesic_points_within_their_ulp_bound(name):
    worst = _geodesic_worst(name)
    over = {key: round(ulps, 2) for key, ulps in worst.items() if ulps > GEODESIC_ULPS[key]}
    assert not over, f"{name}: {over}"


@pytest.mark.parametrize("name", GEODESIC_CLASSES)
def test_geodesic_points_stay_orthonormal(name):
    """Without a QR, evaluate_geodesic stores the frame's A and b0 as they come;
    they stay orthonormal and orthogonal to 1e-14 far along the curve."""
    for flat1, flat2 in _geodesic_pairs(name):
        curve = geodesic(flat1, flat2)
        for t in TS:
            assert orthonormal_drift(evaluate_geodesic(curve, t)) <= 1e-14, (name, t)


# Worst distance from flat1 of a geodesic between identical flats, in ulps of max(|t|, 1).
IDENTICAL_ULPS = 16


def test_a_rounding_level_angle_is_kept():
    """A principal angle of 3e-13 keeps its value and its column of Q, and at
    t = 3e12, where it has turned about 0.9 rad, the frame stays orthonormal."""
    for flat1, flat2 in _geodesic_pairs("angle 3e-13"):
        curve = geodesic(flat1, flat2)
        assert abs(curve.Theta[0, 0] - 3e-13) <= 1e-15
        assert abs(np.linalg.norm(curve.Q[:, 0]) - 1) <= 1e-14
        assert orthonormal_drift(evaluate_geodesic(curve, 3e12)) <= 1e-14


def test_a_geodesic_between_identical_flats_stays_near_flat1():
    """Against the same flat in a rotated basis every tangent is rounding, about eps;
    each is kept, so extrapolated points move off flat1 by about |t| eps."""
    rng = np.random.default_rng(11)
    with mp.workdps(40):
        for _ in range(GEODESIC_PAIRS):
            flat = _flat(rng, 2)
            curve = geodesic(flat, _flat_at_angles(rng, flat, []))
            for t in TS:
                moved = _oracle_grassmann(evaluate_geodesic(curve, t), flat)
                assert moved <= IDENTICAL_ULPS * max(abs(t), 1) * EPS, (t, float(moved))


@pytest.mark.parametrize("n, k", [(5, 3), (5, 4), (8, 6)])
@pytest.mark.parametrize("cosine", [2e-10, 1e-9])
def test_near_singular_pairs_with_few_directions_beyond_stay_orthonormal(n, k, cosine):
    """With n - k < k + 1 the tangents beyond the first n - k are rounding, about
    eps |H|, which reaches 1e-6 here; a Q taken from H's own SVD then has columns
    mostly inside span(Y_start), and frames without a QR drifted to 0.8."""
    rng = np.random.default_rng([n, k])
    for _ in range(GEODESIC_PAIRS):
        flat = make_flat(rng.standard_normal((n, k)), rng.standard_normal(n))
        thetas = [math.acos(cosine), *rng.uniform(0.0, 1.2, n - k - 1)]
        curve = geodesic(flat, _flat_at_angles(rng, flat, thetas))
        assert np.count_nonzero(curve.Theta) <= n - k
        for t in TS:
            assert orthonormal_drift(evaluate_geodesic(curve, t)) <= 1e-14, t


@pytest.mark.parametrize("name", ["cosine 2e-10", "cosine 1e-9"])
def test_cosine_classes_sit_at_their_cosine(name):
    cosine = float(name.split()[1])
    for flat1, flat2 in _geodesic_pairs(name):
        smallest = np.linalg.svd(stiefel_coords(flat1).Y.T @ stiefel_coords(flat2).Y,
                                 compute_uv=False)[-1]
        assert abs(smallest - cosine) <= 1e-3 * cosine
