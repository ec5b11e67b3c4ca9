"""Statistical estimators that return affine flats.

Linear regression, errors-in-variables regression (``fit_flat(cloud, 1)``),
principal component analysis (``fit_flat``), and the hard-margin support
vector machine all search for an affine subspace that best represents or
best separates data; each estimator here solves its classical problem and
returns the answer as an :class:`~graff.coords.AffineFlat` (plus the
familiar coefficients where they exist).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .coords import (AffineFlat, _as_matrix, _as_vector, _freeze, _orthogonal_part,
                     _split_scale, _trusted, _unit_scale, make_flat)
from .errors import DegenerateSpectrum, DimensionError, NotSeparable, RankDeficient
from .invariants import _check_int

__all__ = [
    "PointCloud",
    "LabeledCloud",
    "point_to_flat_distance",
    "fit_flat",
    "linear_regression",
    "svm_hyperplane",
]


@dataclass(frozen=True, eq=False)
class PointCloud:
    """A finite set of points in R^d, one per row of X."""

    X: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise DimensionError(f"X must be a nonempty n_points x d matrix, got shape {np.shape(self.X)}")
        if not np.all(np.isfinite(X)):
            raise ValueError("X contains non-finite entries")
        object.__setattr__(self, "X", _freeze(X))

    @property
    def n_points(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class LabeledCloud(PointCloud):
    """Binary-labeled points: labels are -1 or +1 and both classes occur."""

    y: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        y = _as_vector(self.y, self.n_points, "y")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if not (np.any(y > 0) and np.any(y < 0)):
            raise ValueError("both classes must be present")
        object.__setattr__(self, "y", _freeze(y))


def point_to_flat_distance(x, flat: AffineFlat) -> float:
    """Euclidean distance from a point to a flat: |(I - A A^T)(x - b0)|.

    Raises ``ValueError`` if the distance does not fit in a float.
    """
    x = _as_vector(x, flat.n, "x")
    u, e = _split_scale(x)
    part = _orthogonal_part(flat.A, u)  # 2^-e (I - A A^T) x
    s = max(0, e + math.frexp(float(np.abs(part).max()))[1] - 1024)  # 0 unless 2^e part overflows
    with np.errstate(over="ignore"):  # an infinite distance is refused below
        residual = np.ldexp(part, e - s) - np.ldexp(flat.b0, -s)
        distance = float(np.ldexp(math.hypot(*residual.tolist()), s))
    if distance == math.inf:
        raise ValueError("the distance from x to the flat is too large to represent")
    return distance


def _positive_leading_signs(A: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's first nonzero entry is positive."""
    A = A.copy()
    for j in range(A.shape[1]):
        col = A[:, j]
        nonzero = np.nonzero(np.abs(col) > 1e-12 * max(1.0, float(np.abs(col).max())))[0]
        if nonzero.size and col[nonzero[0]] < 0:
            A[:, j] = -col
    return A


def _scale_and_centre(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(C, mean, e): 2^-e brings X's largest entry into [1/2, 1), mean is the mean
    of 2^-e X and C = 2^-e X - mean, in one new array.  Scaling before centring
    keeps the mean and C finite near 1.8e308 and, being exact, keeps their bits.
    """
    C, e = _unit_scale(X)
    mean = C.mean(axis=0)
    C -= mean
    return C, mean, e


def fit_flat(cloud: PointCloud, k: int) -> AffineFlat:
    """Best-fitting k-flat of a point cloud, in total least squares.

    Minimizes the sum of squared point-to-flat distances over all k-flats.
    The optimum passes through the sample mean with direction spanned by the
    top-k right singular vectors of the centered data matrix; for the
    squared loss this two-step construction is the exact minimizer, not a
    heuristic.

    A tie between the k-th and (k+1)-th singular values leaves the optimal
    subspace non-unique; a ``DegenerateSpectrum`` warning is issued and the
    tie is broken deterministically by index order.
    """
    if not isinstance(cloud, PointCloud):
        cloud = PointCloud(cloud)
    k = _check_int(k, "k")
    if not 0 <= k < cloud.d:
        raise DimensionError(f"need 0 <= k < d, got k={k}, d={cloud.d}")
    if cloud.n_points < k + 1:
        raise DimensionError(f"need at least k+1={k + 1} points, got {cloud.n_points}")
    centered, mean, e = _scale_and_centre(cloud.X)
    mean = np.ldexp(mean, e)
    if k == 0:
        return _trusted(AffineFlat, A=np.zeros((cloud.d, 0)), b0=mean)
    _, svals, Vt = np.linalg.svd(centered, full_matrices=False)
    if k < svals.shape[0] and svals[0] > 0 and svals[k - 1] - svals[k] < 1e-10 * svals[0]:
        warnings.warn(
            f"singular values {k} and {k + 1} are tied; fitted flat is not unique",
            DegenerateSpectrum,
            stacklevel=2,
        )
    A = _positive_leading_signs(Vt[:k].T)
    return _trusted(AffineFlat, A=A, b0=_orthogonal_part(A, mean))


def linear_regression(X, y) -> tuple[AffineFlat, np.ndarray]:
    """Ordinary least squares, returned as a flat in the graph space R^(p+1).

    Fits coefficients (beta, intercept) minimizing |X beta + intercept - y|^2
    and returns the graph of the fitted affine map,

        span([I_p; beta^T]) + intercept * e_{p+1},

    together with the (p+1)-vector of raw coefficients (beta..., intercept).
    X and y are each scaled by a power of two whose largest entry lands in
    [1/2, 1), so the rank of [X, 1] does not depend on the scale of X.  Raises
    ``ValueError`` when a coefficient does not fit in a float.
    """
    X = _as_matrix(X, "X")
    n_obs, p = X.shape
    y = _as_vector(y, n_obs, "y")
    (X, ex), (y, ey) = _unit_scale(X), _unit_scale(y)
    coeffs, _, rank, _ = np.linalg.lstsq(np.column_stack([X, np.ones(n_obs)]), y, rcond=None)
    if rank < p + 1:
        raise RankDeficient(f"design matrix [X, 1] has rank {rank} < {p + 1}")
    with np.errstate(over="ignore"):  # refused below if past the floats
        coeffs = np.ldexp(coeffs, [ey - ex] * p + [ey])
    if not np.isfinite(coeffs).all():
        raise ValueError("beta or the intercept is too large to represent")
    beta, intercept = coeffs[:p], coeffs[p]
    graph_basis = np.vstack([np.eye(p), beta[None, :]])
    displacement = np.zeros(p + 1)
    displacement[p] = intercept
    return make_flat(graph_basis, displacement), coeffs


def _nearest_points(P: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nearest points of the convex hulls of the rows of P and of Q, by
    Wolfe's minimum-norm-point method (*Math. Programming* 1976) on the hull of
    the differences P[i] - Q[j], with corners (i, j) in the corral.  It stops
    when the new corner is already in the corral, when Wolfe's gap x.x - x.v is
    at most 1e-15 v.v, or when rounding keeps |x| from decreasing.
    """
    corners, weights, x = [(0, 0)], np.ones(1), P[0] - Q[0]
    while True:
        i, j = int(np.argmin(P @ x)), int(np.argmax(Q @ x))
        v = P[i] - Q[j]
        if (i, j) in corners or x @ x - x @ v <= 1e-15 * (v @ v):
            break
        corral, lam = corners + [(i, j)], np.append(weights, 0.0)
        while True:
            V = P[[c[0] for c in corral]] - Q[[c[1] for c in corral]]
            # [[V V^T, 1], [1^T, 0]] [mu; nu] = [0; 1], singular for d + 2 corners.
            bordered = np.pad(V @ V.T, ((0, 1), (0, 1)), constant_values=1.0)
            bordered[-1, -1] = 0.0
            mu = np.linalg.lstsq(bordered, np.eye(len(V) + 1)[-1], rcond=None)[0][:-1]
            if mu.min() > 0.0:
                break
            theta, drop = min((l / (l - u) if l > u else 0.0, k)
                              for k, (l, u) in enumerate(zip(lam, mu)) if u <= 0.0)
            lam = lam + theta * (mu - lam)
            lam[drop] = 0.0
            corral = [c for c, weight in zip(corral, lam) if weight > 0.0]
            lam = lam[lam > 0.0]
        new_x = mu @ V
        if new_x @ new_x >= x @ x:
            break
        corners, weights, x = corral, mu, new_x
    return tuple(weights @ M[list(rows)] for M, rows in zip((P, Q), zip(*corners)))


def svm_hyperplane(data: LabeledCloud) -> tuple[AffineFlat, np.ndarray, float]:
    """Hard-margin support vector machine: the minimum-norm (w, beta) with
    y_i (w^T x_i - beta) >= 1 for all points, with the hyperplane
    ker(w^T) + beta w / |w|^2 as a (d-1)-flat.

    With c+ and c- the nearest points of the class hulls (Bennett &
    Bredensteiner, *ICML* 2000), w = 2 (c+ - c-) / |c+ - c-|^2.  The pair is
    exact, found in finitely many steps on the cloud scaled by powers of two
    and centred, so neither scale nor offset changes the answer.  Raises
    ``NotSeparable`` when the hulls meet (c+ and c- at most 1e-12 apart once
    the centred cloud's largest entry is in [1/2, 1)), and ``ValueError`` when
    w, beta or b0 does not fit in a float.
    """
    if not isinstance(data, LabeledCloud):
        raise TypeError("svm_hyperplane expects a LabeledCloud")
    # The solve sees 2^-e2 (2^-e1 X - mean), its largest entry in [1/2, 1).
    X, mean, e1 = _scale_and_centre(data.X)
    X, e2 = _unit_scale(X)
    plus, minus = _nearest_points(X[data.y > 0], X[data.y < 0])
    x = plus - minus
    if math.sqrt(x @ x) <= 1e-12:
        raise NotSeparable("the class hulls meet; no hyperplane separates the classes strictly")
    w = (2.0 / (x @ x)) * x
    # Orthonormal basis of ker(w^T): all left singular vectors after w itself.
    basis = _positive_leading_signs(_lapack.svd(w[:, None])[0][:, 1:])
    with np.errstate(over="ignore", invalid="ignore"):  # refused below if past the floats
        beta = float(w @ (plus + minus) / 2.0 + np.ldexp(w @ mean, -e2))
        b0, w = np.ldexp((beta / (w @ w)) * w, e1 + e2), np.ldexp(w, -e1 - e2)  # b0 along w
    if not (math.isfinite(beta) and np.all(np.isfinite(w)) and np.all(np.isfinite(b0))):
        raise ValueError("w, beta or b0 is too large to represent")
    return _trusted(AffineFlat, A=basis, b0=b0), w, beta
