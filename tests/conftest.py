import numpy as np
import pytest

from graff import AffineFlat, make_flat


def random_flat(rng: np.random.Generator, n: int, k: int) -> AffineFlat:
    """A generic k-flat in R^n with Gaussian basis and displacement."""
    return make_flat(rng.standard_normal((n, k)), rng.standard_normal(n))


def x_axis(n: int = 2) -> AffineFlat:
    A = np.zeros((n, 1))
    A[0, 0] = 1.0
    return AffineFlat(A, np.zeros(n))


def horizontal_line(height: float) -> AffineFlat:
    """The line y = height in R^2."""
    return AffineFlat(np.array([[1.0], [0.0]]), np.array([0.0, height]))


def point_flat(coords) -> AffineFlat:
    coords = np.asarray(coords, dtype=float)
    return AffineFlat(np.zeros((coords.size, 0)), coords)


def orthonormal_drift(flat: AffineFlat) -> float:
    """max(|A^T A - I|, |A^T b0| / max(1, |b0|)): how far a flat's stored A and b0
    are from orthonormal and orthogonal."""
    A, b0 = flat.A, flat.b0
    gram = np.abs(A.T @ A - np.eye(flat.k)).max(initial=0.0)
    return max(gram, np.abs(A.T @ b0).max(initial=0.0) / max(1.0, float(np.linalg.norm(b0))))


class CountingStream:
    """A seeded stream that counts its ``standard_normal`` calls; the first ``planted`` of
    them get a zero last row, so that a scalar draw's frame lies in the hyperplane."""

    def __init__(self, seed: int, planted: float = 0):
        self.rng, self.planted, self.calls = np.random.default_rng(seed), planted, 0

    def standard_normal(self, shape):
        G = self.rng.standard_normal(shape)
        self.calls += 1
        if self.calls <= self.planted:
            G[-1] = 0.0
        return G


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260811)
