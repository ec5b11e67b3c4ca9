"""Property tests for the principal-angle kernel that every distance shares.

Angles are checked against a reference written here: cosines from the SVD of
Y1^T Y2, sines from the SVD of an orthonormal complement of Y1 against Y2,
paired and combined with atan2.  The pairs cover k != l, k = 0, k = n - 1,
n up to 64 and near-equal twins (rotated basis, shifted displacement, 1e-8
perturbation); on the same pairs, ``equal_flats`` decides alike in either order.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graff import (
    AffineFlat,
    SingularPair,
    affine_principal_angles,
    delta_distance,
    distance,
    equal_flats,
    geodesic,
    make_flat,
    random_stream,
)

PROPERTY = settings(deadline=None, derandomize=True, max_examples=60)
ANGLE_KINDS = ("grassmann", "asimov", "binet_cauchy", "chordal", "fubini_study", "martin",
               "procrustes", "projection", "spectral")


def stiefel(flat):
    """Stiefel coordinates from [A, b0], built here independently of graff."""
    n, k = flat.A.shape
    root = math.sqrt(1.0 + float(flat.b0 @ flat.b0))
    Y = np.zeros((n + 1, k + 1))
    Y[:n, :k] = flat.A
    Y[:n, k] = flat.b0 / root
    Y[n, k] = 1.0 / root
    return Y


def reference_angles(flat1, flat2):
    Y1, Y2 = stiefel(flat1), stiefel(flat2)
    count = min(flat1.k, flat2.k) + 1
    cosines = np.linalg.svd(Y1.T @ Y2, compute_uv=False)[:count]
    complement = np.linalg.qr(Y1, mode="complete")[0][:, Y1.shape[1]:]
    sines = np.linalg.svd(complement.T @ Y2, compute_uv=False)
    # Directions of span(Y2) that the complement cannot see lie in span(Y1).
    sines = np.sort(np.concatenate([sines, np.zeros(Y2.shape[1] - sines.size)]))[:count]
    return np.arctan2(sines, cosines)


@st.composite
def pairs(draw):
    """Two flats of R^n, either independent or near-equal twins."""
    n = draw(st.sampled_from([1, 2, 3, 5, 8, 13, 64]))
    k = draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1))
    rng = random_stream(draw(st.integers(0, 2**32 - 1)))
    flat1 = make_flat(rng.standard_normal((n, k)), rng.standard_normal(n))
    if draw(st.booleans()):
        Q = np.linalg.qr(rng.standard_normal((k, k)))[0]
        flat2 = make_flat(flat1.A @ Q + 1e-8 * rng.standard_normal((n, k)),
                          flat1.b0 + flat1.A @ rng.standard_normal(k)
                          + 1e-8 * rng.standard_normal(n))
    else:
        l = draw(st.sampled_from([0, n - 1, k]) | st.integers(0, n - 1))
        flat2 = make_flat(rng.standard_normal((n, l)), rng.standard_normal(n))
    return flat1, flat2


@PROPERTY
@given(pairs())
def test_angles_match_the_reference(pair):
    flat1, flat2 = pair
    angles = affine_principal_angles(flat1, flat2)
    np.testing.assert_allclose(angles, reference_angles(flat1, flat2), rtol=0.0, atol=1e-13)
    assert np.all(np.diff(angles) >= 0.0)
    np.testing.assert_allclose(affine_principal_angles(flat2, flat1), angles, rtol=0.0, atol=1e-13)


@PROPERTY
@given(pairs())
def test_distances_are_symmetric(pair):
    flat1, flat2 = pair
    if flat1.k == flat2.k:
        assert abs(distance(flat1, flat2) - distance(flat2, flat1)) <= 1e-12
    for kind in ANGLE_KINDS:
        value, swapped = delta_distance(flat1, flat2, kind), delta_distance(flat2, flat1, kind)
        assert value == swapped or abs(value - swapped) <= 1e-12


@PROPERTY
@given(pairs(), st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12]))
def test_equal_flats_is_symmetric(pair, tol):
    flat1, flat2 = pair
    assert equal_flats(flat1, flat2, tol) == equal_flats(flat2, flat1, tol)


@st.composite
def orthogonal_pairs(draw):
    """Two k-flats along coordinate axes; flat2 has a direction orthogonal to flat1."""
    n = draw(st.sampled_from([2, 3, 5, 8, 13, 64]))
    k = draw(st.integers(1, n - 1))
    rng = random_stream(draw(st.integers(0, 2**32 - 1)))
    axes = np.eye(n)[:, rng.permutation(n)] * rng.choice([-1.0, 1.0], n)
    b0 = axes[:, k + 1:] @ rng.standard_normal(n - k - 1)
    flat1 = AffineFlat(axes[:, :k], b0)
    flat2 = AffineFlat(np.column_stack([axes[:, k], axes[:, 1:k]]), -b0)
    return flat1, flat2


@PROPERTY
@given(orthogonal_pairs())
def test_martin_is_infinite_for_orthogonal_directions(pair):
    flat1, flat2 = pair
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert distance(flat1, flat2, "martin") == math.inf
        assert distance(flat2, flat1, "martin") == math.inf
        for kind in ANGLE_KINDS:
            assert kind == "martin" or math.isfinite(distance(flat1, flat2, kind))


@PROPERTY
@given(st.sampled_from([2, 3, 8, 64]), st.floats(1e-14, 1e-11), st.floats(1e-9, 1e-2))
def test_geodesic_refuses_a_singular_overlap(n, tiny, small):
    # Lines through the origin at angle arccos(c) from the first axis: the
    # smallest singular value of Y1^T Y2 is c.
    def tilted(c):
        A = np.zeros((n, 1))
        A[0, 0], A[1, 0] = c, math.sqrt(1.0 - c * c)
        return AffineFlat(A, np.zeros(n))

    axis = tilted(1.0)
    with pytest.raises(SingularPair):
        geodesic(axis, tilted(tiny))
    geodesic(axis, tilted(small))
