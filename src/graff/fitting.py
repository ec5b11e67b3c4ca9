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

from .coords import (AffineFlat, _as_matrix, _as_vector, _freeze, _orthogonal_part, _trusted,
                     make_flat)
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
    with np.errstate(over="ignore"):  # an infinite difference is refused below
        distance = math.hypot(*(_orthogonal_part(flat.A, x) - flat.b0).tolist())
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
    mean = cloud.X.mean(axis=0)
    if k == 0:
        return AffineFlat(np.zeros((cloud.d, 0)), mean)
    centered = cloud.X - mean
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
    """
    X = _as_matrix(X, "X")
    n_obs, p = X.shape
    y = _as_vector(y, n_obs, "y")
    design = np.column_stack([X, np.ones(n_obs)])
    coeffs, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < p + 1:
        raise RankDeficient(f"design matrix [X, 1] has rank {rank} < {p + 1}")
    beta, intercept = coeffs[:p], coeffs[p]
    graph_basis = np.vstack([np.eye(p), beta[None, :]])
    displacement = np.zeros(p + 1)
    displacement[p] = intercept
    return make_flat(graph_basis, displacement), coeffs


def _smo_hard_margin(K: np.ndarray, y: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Dual coordinate ascent for the hard-margin SVM.

    Maximizes sum(alpha) - (1/2) alpha^T Q alpha with Q = yy^T * K subject to
    alpha >= 0 and y^T alpha = 0, by pairwise updates on the most violating
    pair (the usual working-set selection with the box bound sent to
    infinity).  Raises ``NotSeparable`` on divergence or iteration
    exhaustion.
    """
    m = y.shape[0]
    alpha = np.zeros(m)
    grad = -np.ones(m)  # gradient of (1/2) a^T Q a - sum(a)
    for _ in range(max_iter):
        scores = -y * grad
        # alpha_t may always grow along +y_t when y_t = +1, and may grow
        # along -y_t only while alpha_t > 0; symmetrically for shrinking.
        up = (y > 0) | (alpha > 0)
        low = (y < 0) | (alpha > 0)
        i = int(np.argmax(np.where(up, scores, -np.inf)))
        j = int(np.argmin(np.where(low, scores, np.inf)))
        gap = scores[i] - scores[j]
        if gap <= tol:
            return alpha
        # Move alpha_i by y_i*t and alpha_j by -y_j*t: keeps y^T alpha = 0,
        # with curvature |x_i - x_j|^2 along the direction.
        curvature = K[i, i] + K[j, j] - 2.0 * K[i, j]
        step = gap / max(curvature, 1e-12)
        t_max = np.inf
        if y[i] < 0:
            t_max = min(t_max, alpha[i])
        if y[j] > 0:
            t_max = min(t_max, alpha[j])
        step = float(min(step, t_max))
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        grad += step * y * (K[:, i] - K[:, j])
        if alpha.max() > 1e10:
            raise NotSeparable("dual variables diverged; classes are not strictly separable")
    raise NotSeparable("no KKT point within the iteration cap; classes may not be separable")


def svm_hyperplane(data: LabeledCloud) -> tuple[AffineFlat, np.ndarray, float]:
    """Hard-margin support vector machine.

    Finds the minimum-norm (w, beta) with y_i (w^T x_i - beta) >= 1 for all
    training points, via SMO-style pairwise ascent on the dual to KKT
    tolerance 1e-8.  Returns the separating hyperplane as the (d-1)-flat
    ker(w^T) + beta w / |w|^2, together with w and beta.

    Raises ``NotSeparable`` when the classes admit no strict separation.
    """
    if not isinstance(data, LabeledCloud):
        raise TypeError("svm_hyperplane expects a LabeledCloud")
    X, y = data.X, data.y
    K = X @ X.T
    alpha = _smo_hard_margin(K, y, tol=1e-8, max_iter=100_000)
    w = X.T @ (alpha * y)
    wnorm2 = float(w @ w)
    if wnorm2 <= 0.0:
        raise NotSeparable("optimal margin direction vanished")
    support = alpha > 1e-8 * max(1.0, float(alpha.max()))
    margins = X[support] @ w
    beta = float(np.mean(margins - y[support]))
    # Orthonormal basis of ker(w^T): all left singular vectors after w itself.
    basis = np.linalg.svd(w[:, None], full_matrices=True)[0][:, 1:]
    basis = _positive_leading_signs(basis)
    b0 = (beta / wnorm2) * w  # parallel to w, so orthogonal to the basis
    if not np.all(np.isfinite(b0)):  # beta is nan when no alpha passes the support cut
        raise ValueError("b0 contains non-finite entries")
    return _trusted(AffineFlat, A=basis, b0=b0), w, beta
