"""The frame step keeps the bits of the longer path it replaced.

``sample_uniform`` used to scale its Gaussian draw by a power of two, check
the rank with numpy reductions, sign the columns into a new array and, after
the reflection in ``_flat_from_frame``, negate the last column when its last
entry was negative.  Today it takes the QR of the draw as it is, with no rank
test, signs the columns in place and has no last-column flip.  The reference
below is the old path, written out with public numpy.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graff import make_flat, random_stream, sample_uniform, stiefel_coords
from graff.coords import _flat_from_frame

PROPERTY = settings(deadline=None, derandomize=True, max_examples=60)


def _old_flat_from_frame(Q):
    n, k = Q.shape[0] - 1, Q.shape[1] - 1
    u = Q[-1].copy()
    r = math.sqrt(float(u @ u))
    if r < 1e-10:
        return None
    u[-1] += r if u[-1] >= 0.0 else -r
    Q = Q - (Q @ u)[:, None] * u * (2.0 / float(u @ u))
    if Q[-1, -1] < 0.0:
        Q[:, -1] = -Q[:, -1]
    return Q[:n, :k], Q[:n, k] / Q[n, k]


def _old_draw(k, n, rng):
    """(A, b0) of one uniform draw as the scaled-QR path made it."""
    for _ in range(100):
        M = rng.standard_normal((n + 1, k + 1))
        _, exponent = math.frexp(float(np.abs(M).max()))
        Q, R = np.linalg.qr(np.ldexp(M, -exponent))
        diag = R.diagonal()
        size = np.abs(diag)
        largest = size.max()
        assert largest > 0.0 and size.min() >= 1e-10 * largest
        flat = _old_flat_from_frame(Q * np.sign(diag))
        if flat is not None:
            return flat
    raise AssertionError("100 draws outside the flat locus")


@pytest.mark.parametrize("k, n", [(0, 1), (1, 3), (2, 5), (4, 12), (5, 6), (8, 64)])
def test_sample_uniform_matches_the_scaled_qr_path(k, n):
    rng, reference = random_stream(10 * k + n), random_stream(10 * k + n)
    for _ in range(2000):
        flat = sample_uniform(k, n, rng)
        A, b0 = _old_draw(k, n, reference)
        assert flat.A.tobytes() == A.tobytes()
        assert flat.b0.tobytes() == b0.tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state


@st.composite
def frames(draw):
    """An orthonormal (n+1) x (k+1) frame: a Gaussian QR or the Stiefel
    coordinates of a flat whose displacement has exact zeros."""
    n = draw(st.sampled_from([1, 2, 3, 5, 8, 13]))
    k = draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        Q, _ = np.linalg.qr(rng.standard_normal((n + 1, k + 1)))
    else:
        b = rng.standard_normal(n) * (rng.random(n) < 0.5)
        Q = np.array(stiefel_coords(make_flat(np.eye(n)[:, :k], b)).Y)
    return Q


@PROPERTY
@given(frames())
def test_the_last_column_flip_was_dead(Q):
    flat = _flat_from_frame(Q)
    A, b0 = _old_flat_from_frame(Q)
    assert flat.A.tobytes() == A.tobytes()
    assert flat.b0.tobytes() == b0.tobytes()


@PROPERTY
@given(frames())
def test_the_last_column_sign_does_not_reach_the_flat(Q):
    flipped = Q.copy()  # one of the two frames has Q[-1, -1] < 0
    flipped[:, -1] = -flipped[:, -1]
    flat, twin = _flat_from_frame(Q), _flat_from_frame(flipped)
    assert flat.A.tobytes() == twin.A.tobytes()
    # The reflection rounds both frames alike; only a zero entry of b0 (the
    # frame's last column had exact zeros) may come out with the other sign.
    np.testing.assert_array_equal(flat.b0, twin.b0)
    nonzero = flat.b0 != 0.0
    assert flat.b0[nonzero].tobytes() == twin.b0[nonzero].tobytes()
