"""Distances, principal angles, and geodesics between affine flats.

Every distance here is a function of the affine principal angles
theta_1 <= ... <= theta_{min(k,l)+1}: the arccosines of the singular values
of Y_F^T Y_G, where Y_F and Y_G are the matrices of Stiefel coordinates.
Equidimensional flats get the full family of classical subspace distances;
flats of different dimensions get the same formulas on the min(k,l)+1
angles (the distance from one flat to the nearest flat of the other's
dimension containing/contained in it), and three of the distances extend to
genuine metrics across dimensions with an extra |k - l| penalty term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _lapack
from .coords import (AffineFlat, StiefelMatrix, _flat_from_frame, stiefel_coords,
                     unembed)  # noqa: F401 (unembed: a crossing perfbench traces)
from .errors import DimensionError, InternalError, SingularPair, UnsupportedKind

__all__ = [
    "DistanceKind",
    "PrincipalDecomposition",
    "GeodesicCurve",
    "principal_decomposition",
    "affine_principal_angles",
    "distance",
    "delta_distance",
    "infinite_metric",
    "equal_flats",
    "geodesic",
    "evaluate_geodesic",
]


class DistanceKind(str, Enum):
    """The nine distances expressible in affine principal angles."""

    GRASSMANN = "grassmann"
    ASIMOV = "asimov"
    BINET_CAUCHY = "binet_cauchy"
    CHORDAL = "chordal"
    FUBINI_STUDY = "fubini_study"
    MARTIN = "martin"
    PROCRUSTES = "procrustes"
    PROJECTION = "projection"
    SPECTRAL = "spectral"


_KINDS = {kind.value: kind for kind in DistanceKind}  # a member hashes as its value


def _as_kind(kind) -> DistanceKind:
    try:
        return _KINDS[kind]
    except (KeyError, TypeError):
        raise UnsupportedKind(f"unknown distance kind {kind!r}") from None


@dataclass(frozen=True, eq=False)
class PrincipalDecomposition:
    """Affine principal angles and vectors of a pair of flats.

    Attributes
    ----------
    thetas : (m,) ndarray
        Affine principal angles in [0, pi/2], nondecreasing, m = min(k,l)+1.
    sigmas : (m,) ndarray
        Their cosines (the singular values of Y_F^T Y_G), nonincreasing.
    U : (k+1, k+1) ndarray
    V : (l+1, l+1) ndarray
        Orthogonal factors of the full SVD Y_F^T Y_G = U Sigma V^T.
    P_vecs : (n+1, k+1) ndarray
    Q_vecs : (n+1, l+1) ndarray
        Affine principal vectors, the columns of Y_F U and Y_G V.
    """

    thetas: np.ndarray
    sigmas: np.ndarray
    U: np.ndarray
    V: np.ndarray
    P_vecs: np.ndarray
    Q_vecs: np.ndarray


def _overlap(flat1: AffineFlat, flat2: AffineFlat) -> tuple[np.ndarray, np.ndarray]:
    """M = Y1^T Y2 and W = Y2 - Y1 M for the Stiefel coordinates of two flats."""
    if flat1.n != flat2.n:
        raise DimensionError(
            f"ambient dimensions differ ({flat1.n} vs {flat2.n}); pad_ambient first"
        )
    Y1 = stiefel_coords(flat1).Y
    Y2 = stiefel_coords(flat2).Y
    M = Y1.T @ Y2
    return M, Y2 - Y1 @ M


def _angles(M: np.ndarray, W: np.ndarray) -> tuple[list[float], list[float]]:
    """Angles (nondecreasing) and cosines, as float lists, from M = Y1^T Y2, W = Y2 - Y1 M.

    The cosines are the singular values of M, the sines the smallest of W: one
    batched SVD of M padded with zero rows (same singular values) and W, read
    once with ``tolist``.  Angles below pi/4 come from ``math.asin`` of the sines,
    as arccos near 1 loses half the digits; ``min(x, 1.0)`` keeps a nan a nan.
    """
    stack = np.zeros((2,) + W.shape)
    stack[0, : M.shape[0]], stack[1] = M, W
    cosines, sines = _lapack.svdvals(stack).tolist()
    if cosines[0] > 1.0 + 1e-8:
        raise InternalError(f"singular value {cosines[0]} exceeds 1 beyond rounding")
    sigmas = [min(s, 1.0) for s in cosines[: min(M.shape)]]
    thetas = [math.asin(min(t, 1.0)) if s * s >= 0.5 else math.acos(s)
              for s, t in zip(sigmas, sines[::-1])]
    return thetas, sigmas


def affine_principal_angles(flat1: AffineFlat, flat2: AffineFlat) -> np.ndarray:
    """Affine principal angles between two flats of any dimensions.

    The arccosines of the min(k,l)+1 singular values of the product of
    Stiefel coordinate matrices, in nondecreasing order.  Angles below pi/4
    are computed through their sines so that nearly identical flats yield
    angles at rounding level rather than at sqrt(rounding) level.
    """
    return np.array(_angles(*_overlap(flat1, flat2))[0])


def principal_decomposition(flat1: AffineFlat, flat2: AffineFlat) -> PrincipalDecomposition:
    """Full SVD of Y_F^T Y_G with angles, rotations, and principal vectors."""
    M, W = _overlap(flat1, flat2)
    thetas, sigmas = _angles(M, W)
    U, _, Vt = _lapack.svd(M)
    return PrincipalDecomposition(
        thetas=np.array(thetas),
        sigmas=np.array(sigmas),
        U=U,
        V=Vt.T,
        P_vecs=stiefel_coords(flat1).Y @ U,
        Q_vecs=stiefel_coords(flat2).Y @ Vt.T,
    )


def _formula(thetas: list[float], sigmas: list[float], kind: DistanceKind, gap: int = 0) -> float:
    """One row of the distance table on the float lists of :func:`_angles`, sums by ``math.fsum``;
    ``gap`` right angles more for :func:`infinite_metric`."""
    largest = thetas[-1]
    if kind is DistanceKind.GRASSMANN:
        return math.sqrt(gap * math.pi**2 / 4.0 + math.fsum(t * t for t in thetas))
    if kind is DistanceKind.ASIMOV:
        return largest
    if kind in (DistanceKind.BINET_CAUCHY, DistanceKind.FUBINI_STUDY, DistanceKind.MARTIN):
        # L = sum log cos^2 theta_i, from the sines where sigma^2 >= 1/2 as in the kernel.
        L = -math.inf if sigmas[-1] == 0.0 else sum(
            math.log1p(-math.sin(t) ** 2) if s * s >= 0.5 else 2.0 * math.log(s)
            for t, s in zip(thetas, sigmas))
        if kind is DistanceKind.MARTIN:
            return math.sqrt(0.0 - L)
        sine, cosine = math.sqrt(0.0 - math.expm1(L)), math.exp(L / 2.0)
        return sine if kind is DistanceKind.BINET_CAUCHY else math.atan2(sine, cosine)
    if kind is DistanceKind.CHORDAL:
        return math.sqrt(gap + math.fsum(math.sin(t) ** 2 for t in thetas))
    if kind is DistanceKind.PROCRUSTES:
        return 2.0 * math.sqrt(gap / 2.0 + math.fsum(math.sin(t / 2.0) ** 2 for t in thetas))
    if kind is DistanceKind.PROJECTION:
        return math.sin(largest)
    return 2.0 * math.sin(largest / 2.0)  # DistanceKind.SPECTRAL, the last kind


def delta_distance(flat1: AffineFlat, flat2: AffineFlat, kind=DistanceKind.GRASSMANN) -> float:
    """Distance between flats of possibly different dimensions.

    Equals the distance from the lower-dimensional flat to the set of flats
    of its dimension contained in the other, which coincides with the
    distance from the higher-dimensional flat to the set of flats of its
    dimension containing the first.  Computed as the equidimensional formula
    applied to the min(k,l)+1 affine principal angles; symmetric in its
    arguments, and identical to :func:`distance` when k = l.
    """
    kind = _as_kind(kind)
    thetas, sigmas = _angles(*_overlap(flat1, flat2))
    return _formula(thetas, sigmas, kind)


def distance(flat1: AffineFlat, flat2: AffineFlat, kind=DistanceKind.GRASSMANN) -> float:
    """Distance between two flats of the same dimension.

    The Grassmann kind is the geodesic distance sqrt(sum theta_i^2); the
    other kinds are the classical subspace distances evaluated on the k+1
    affine principal angles.  The Martin distance is +inf when the flats
    have orthogonal directions (some sigma_i = 0).
    """
    if flat1.k != flat2.k:
        raise DimensionError(
            f"flat dimensions differ ({flat1.k} vs {flat2.k}); use delta_distance"
        )
    return delta_distance(flat1, flat2, kind)


_INFINITE_KINDS = (DistanceKind.GRASSMANN, DistanceKind.CHORDAL, DistanceKind.PROCRUSTES)


def infinite_metric(flat1: AffineFlat, flat2: AffineFlat, kind=DistanceKind.GRASSMANN) -> float:
    """Metric between flats of arbitrary dimensions in a common ambient space.

    Treats the |k - l| missing principal angles as right angles, so each
    contributes its formula's value at pi/2:

    * grassmann:  sqrt(|k-l| pi^2/4 + sum theta_i^2)
    * chordal:    sqrt(|k-l| + sum sin^2 theta_i)
    * procrustes: 2 sqrt(|k-l|/2 + sum sin^2(theta_i/2))

    Unlike :func:`delta_distance` these satisfy the triangle inequality
    across dimensions; they reduce to :func:`distance` when k = l.
    """
    kind = _as_kind(kind)
    if kind not in _INFINITE_KINDS:
        raise UnsupportedKind(
            f"no cross-dimension metric for kind {kind.value!r};"
            " choose grassmann, chordal, or procrustes"
        )
    return _formula(*_angles(*_overlap(flat1, flat2)), kind, abs(flat1.k - flat2.k))


def equal_flats(flat1: AffineFlat, flat2: AffineFlat, tol: float = 1e-8) -> bool:
    """Whether |P1 - P2|_F <= tol for the flats' projection coordinates, unique per flat.

    Invariant to basis rotation A -> AQ and to the coset freedom in the raw displacement;
    flats of different dimensions compare unequal.  No projection is formed: |P1 - P2|_F^2
    = |W|_F^2 + |V|_F^2 with M = Y1^T Y2, W = Y2 - Y1 M, V = Y1 - Y2 M^T, in either order.
    """
    M, W = _overlap(flat1, flat2)
    V = stiefel_coords(flat1).Y - stiefel_coords(flat2).Y @ M.T
    return math.sqrt(float(np.vdot(W, W)) + float(np.vdot(V, V))) <= tol


@dataclass(frozen=True, eq=False)
class GeodesicCurve:
    """Data defining the minimizing geodesic between two equidimensional flats.

    The curve is gamma(t) = span(Y_start U cos(t Theta) + Q sin(t Theta)),
    where Q, tan(Theta) and U are the factors of the thin SVD

        (Y' - Y Y^T Y') (Y^T Y')^{-1} = Q tan(Theta) U^T

    with Theta nondecreasing.  Where n - k < k + 1 the k + 1 - (n - k) directions with no
    room beyond span(Y_start) get angle 0 and a zero column of Q; the other columns are
    orthonormal and orthogonal to span(Y_start) to rounding, so every frame is orthonormal.
    """

    Y_start: StiefelMatrix
    U: np.ndarray
    Theta: np.ndarray
    Q: np.ndarray


def geodesic(flat1: AffineFlat, flat2: AffineFlat) -> GeodesicCurve:
    """Minimizing geodesic from ``flat1`` to ``flat2`` in Graff(k, n).

    Raises ``SingularPair`` unless Y_F^T Y_G is invertible with every tangent of
    the angles at most 1e10 (cosines down to about 1e-10).  The curve has constant
    speed and length the Grassmann distance.  ``evaluate_geodesic`` raises ``NotAFlat``
    where the frame's last row has norm below 1e-10: where the curve leaves the space of
    flats, and on an interval of t around an endpoint with |b0| above about 1e10 (t = 0
    included for such a flat1).  Every angle is kept, so the point at t = 1 is flat2 to
    rounding; angles of rounding size, as between a flat and itself in another basis,
    move a point at t by about |t| eps.
    """
    M, W = _overlap(flat1, flat2)
    if flat1.k != flat2.k:
        raise DimensionError(f"geodesics need equal flat dimensions, got {flat1.k} and {flat2.k}")
    Y, k = stiefel_coords(flat1), flat1.k
    # H = W M^{-1} = Q tan(Theta) U^T; unlike M's, its SVD keeps the directions when every
    # cosine rounds to 1.  Taken in a basis of span(Y, H) beyond span(Y), it gives a Q that
    # is orthonormal and orthogonal to span(Y) to rounding however small the cosines.
    try:
        H = _lapack.solve(M.T, W.T).T
        beyond = _lapack.qr(np.concatenate((Y.Y, H), axis=1))[0][:, k + 1:]
        Q_beyond, tangents, Ut = _lapack.svd(beyond.T @ H)
    except np.linalg.LinAlgError:
        tangents = None
    if tangents is None or not tangents[0] <= 1e10:  # nan and inf included
        raise SingularPair("Stiefel overlap matrix is numerically singular")
    # Ascending; a direction with no room beyond span(Y) gets angle 0.
    thetas = [math.atan(x) for x in reversed(tangents.tolist())]
    pad = k + 1 - len(thetas)
    Q = np.zeros((flat1.n + 1, k + 1))
    Q[:, pad:] = beyond @ Q_beyond[:, : len(thetas)][:, ::-1]
    return GeodesicCurve(Y_start=Y, U=Ut[::-1].T, Theta=np.diag([0.0] * pad + thetas), Q=Q)


def evaluate_geodesic(curve: GeodesicCurve, t: float) -> AffineFlat:
    """Point of a geodesic at parameter t (values outside [0, 1] extrapolate).

    The frame is orthonormal by construction and skips ``unembed``'s QR.  Raises
    ``NotAFlat`` where the frame's last row has norm below 1e-10: where the curve
    exits the image of Graff(k, n), and near an endpoint with |b0| above about 1e10
    (see :func:`geodesic`).  Raises ``ValueError`` when some angle t * theta_i is not finite.
    """
    t = float(t)
    if not math.isfinite(t * float(curve.Theta.max())):
        raise ValueError(f"geodesic parameter t={t} gives a non-finite angle")
    angles = t * curve.Theta.diagonal()
    frame = (curve.Y_start.Y @ curve.U) * np.cos(angles) + curve.Q * np.sin(angles)
    return _flat_from_frame(frame)
