"""Independent numpy references for the values graff computes.

These re-derive the quantities from the stored orthogonal affine coordinates
[A, b0] with formulas written here, not with graff's own kernels: angles come
from ``atan2`` of the sines and cosines of the principal angles, which is
accurate at every angle, where graff switches between arcsin and arccos.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "stiefel",
    "projection",
    "angles",
    "distance",
    "infinite_metric",
    "SIGMA_KINDS",
    "ess",
]

# Distances defined on the cosines themselves.  For nearly equal flats their
# value depends on 1 - cos(theta), which a cosine carries only to about 1e-16
# absolute, so they agree with the reference to about 1e-8, not 1e-9.
SIGMA_KINDS = frozenset({"binet_cauchy", "fubini_study", "martin"})


def stiefel(flat) -> np.ndarray:
    """Orthonormal (n+1) x (k+1) basis of the embedded plane of a flat."""
    A, b0 = np.asarray(flat.A), np.asarray(flat.b0)
    n, k = A.shape
    r = 1.0 / math.sqrt(1.0 + float(b0 @ b0))
    Y = np.zeros((n + 1, k + 1))
    Y[:n, :k] = A
    Y[:n, k] = r * b0
    Y[n, k] = r
    return Y


def projection(flat) -> np.ndarray:
    Y = stiefel(flat)
    return Y @ Y.T


def angles(flat1, flat2) -> np.ndarray:
    """The min(k, l) + 1 affine principal angles, nondecreasing."""
    Ya, Yb = stiefel(flat1), stiefel(flat2)
    if Ya.shape[1] > Yb.shape[1]:
        Ya, Yb = Yb, Ya
    M = Yb.T @ Ya
    cosines = np.linalg.svd(M, compute_uv=False)
    sines = np.linalg.svd(Ya - Yb @ M, compute_uv=False)[::-1]
    return np.arctan2(sines, cosines)


def distance(thetas: np.ndarray, kind: str) -> float:
    """The nine equidimensional distances as functions of the angles."""
    s, c = np.sin(thetas), np.cos(thetas)
    if kind == "grassmann":
        return math.sqrt(float(thetas @ thetas))
    if kind == "asimov":
        return float(thetas.max())
    if kind == "binet_cauchy":
        return math.sqrt(max(0.0, 1.0 - float(np.prod(c)) ** 2))
    if kind == "chordal":
        return math.sqrt(float(s @ s))
    if kind == "fubini_study":
        return math.acos(min(1.0, float(np.prod(c))))
    if kind == "martin":
        return math.sqrt(-2.0 * float(np.sum(np.log(c))))
    if kind == "procrustes":
        h = np.sin(thetas / 2.0)
        return 2.0 * math.sqrt(float(h @ h))
    if kind == "projection":
        return math.sin(float(thetas.max()))
    if kind == "spectral":
        return 2.0 * math.sin(float(thetas.max()) / 2.0)
    raise ValueError(kind)


def infinite_metric(thetas: np.ndarray, gap: int, kind: str) -> float:
    """Cross-dimension metrics: each of the ``gap`` missing angles is pi/2."""
    full = np.concatenate([thetas, np.full(gap, math.pi / 2.0)])
    return distance(full, kind)


def ess(x) -> float:
    """Effective sample size of a scalar chain (Geyer's initial positive sequence)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    x = x - x.mean()
    var = float(x @ x) / n
    if n < 4 or var == 0.0:
        return float(n)
    rho = np.array([float(x[: n - lag] @ x[lag:]) / (n * var) for lag in range(n)])
    tau = -1.0
    for m in range(0, n - 1, 2):
        pair = rho[m] + rho[m + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    return n / max(tau, 1.0 / n)
