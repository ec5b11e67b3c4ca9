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

from .coords import AffineFlat, StiefelMatrix, stiefel_coords, unembed
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


def _as_kind(kind) -> DistanceKind:
    if isinstance(kind, DistanceKind):
        return kind
    try:
        return DistanceKind(str(kind))
    except ValueError:
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


def _check_same_ambient(flat1: AffineFlat, flat2: AffineFlat) -> None:
    if flat1.n != flat2.n:
        raise DimensionError(
            f"ambient dimensions differ ({flat1.n} vs {flat2.n}); pad_ambient first"
        )


def _clip_sigmas(sigmas: np.ndarray) -> np.ndarray:
    if sigmas.size and float(sigmas.max()) > 1.0 + 1e-8:
        raise InternalError(f"singular value {sigmas.max()} exceeds 1 beyond rounding")
    return np.clip(sigmas, 0.0, 1.0)


def _corrected_thetas(Y1: np.ndarray, Y2: np.ndarray, M: np.ndarray,
                      sigmas: np.ndarray) -> np.ndarray:
    """Angles from cosines and sines, whichever is numerically accurate.

    ``sigmas`` are the (clipped, descending) singular values of M = Y1^T Y2,
    the cosines of the angles.  arccos near sigma = 1 loses half the digits,
    so angles below pi/4 are recovered from the sines instead: the smallest
    singular values of Y2 - Y1 M.  Returned nondecreasing.
    """
    count = sigmas.size
    sines_desc = np.linalg.svd(Y2 - Y1 @ M, compute_uv=False)
    sines = np.clip(sines_desc[::-1][:count], 0.0, 1.0)
    return np.where(sigmas**2 >= 0.5, np.arcsin(sines), np.arccos(sigmas))


def affine_principal_angles(flat1: AffineFlat, flat2: AffineFlat) -> np.ndarray:
    """Affine principal angles between two flats of any dimensions.

    The arccosines of the min(k,l)+1 singular values of the product of
    Stiefel coordinate matrices, in nondecreasing order.  Angles below pi/4
    are computed through their sines so that nearly identical flats yield
    angles at rounding level rather than at sqrt(rounding) level.
    """
    return _angles_and_sigmas(flat1, flat2)[0]


def principal_decomposition(flat1: AffineFlat, flat2: AffineFlat) -> PrincipalDecomposition:
    """Full SVD of Y_F^T Y_G with angles, rotations, and principal vectors."""
    _check_same_ambient(flat1, flat2)
    Y1 = stiefel_coords(flat1).Y
    Y2 = stiefel_coords(flat2).Y
    M = Y1.T @ Y2
    U, sigmas, Vt = np.linalg.svd(M, full_matrices=True)
    sigmas = _clip_sigmas(sigmas)
    return PrincipalDecomposition(
        thetas=_corrected_thetas(Y1, Y2, M, sigmas),
        sigmas=sigmas,
        U=U,
        V=Vt.T,
        P_vecs=Y1 @ U,
        Q_vecs=Y2 @ Vt.T,
    )


def _formula(thetas: np.ndarray, sigmas: np.ndarray, kind: DistanceKind) -> float:
    """Evaluate one row of the distance table on angles and their cosines."""
    largest = float(thetas[-1])
    if kind is DistanceKind.GRASSMANN:
        return float(np.sqrt(np.sum(thetas**2)))
    if kind is DistanceKind.ASIMOV:
        return largest
    if kind is DistanceKind.BINET_CAUCHY:
        return math.sqrt(max(0.0, 1.0 - float(np.prod(sigmas**2))))
    if kind is DistanceKind.CHORDAL:
        return float(np.sqrt(np.sum(np.sin(thetas) ** 2)))
    if kind is DistanceKind.FUBINI_STUDY:
        return math.acos(min(1.0, float(np.prod(sigmas))))
    if kind is DistanceKind.MARTIN:
        if np.any(sigmas == 0.0):
            return math.inf
        return float(np.sqrt(-2.0 * np.sum(np.log(sigmas))))
    if kind is DistanceKind.PROCRUSTES:
        return 2.0 * float(np.sqrt(np.sum(np.sin(thetas / 2.0) ** 2)))
    if kind is DistanceKind.PROJECTION:
        return math.sin(largest)
    if kind is DistanceKind.SPECTRAL:
        return 2.0 * math.sin(largest / 2.0)
    raise UnsupportedKind(f"unknown distance kind {kind!r}")  # pragma: no cover


def _angles_and_sigmas(flat1: AffineFlat, flat2: AffineFlat) -> tuple[np.ndarray, np.ndarray]:
    _check_same_ambient(flat1, flat2)
    Y1 = stiefel_coords(flat1).Y
    Y2 = stiefel_coords(flat2).Y
    M = Y1.T @ Y2
    sigmas = _clip_sigmas(np.linalg.svd(M, compute_uv=False))
    return _corrected_thetas(Y1, Y2, M, sigmas), sigmas


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
    thetas, sigmas = _angles_and_sigmas(flat1, flat2)
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
    thetas, _ = _angles_and_sigmas(flat1, flat2)
    gap = abs(flat1.k - flat2.k)
    if kind is DistanceKind.GRASSMANN:
        return math.sqrt(gap * math.pi**2 / 4.0 + float(np.sum(thetas**2)))
    if kind is DistanceKind.CHORDAL:
        return math.sqrt(gap + float(np.sum(np.sin(thetas) ** 2)))
    return 2.0 * math.sqrt(gap / 2.0 + float(np.sum(np.sin(thetas / 2.0) ** 2)))


@dataclass(frozen=True, eq=False)
class GeodesicCurve:
    """Data defining the minimizing geodesic between two equidimensional flats.

    The curve is gamma(t) = span(Y_start U cos(t Theta) + Q sin(t Theta)),
    where Q, tan(Theta) and U are the factors of the thin SVD

        (Y' - Y Y^T Y') (Y^T Y')^{-1} = Q tan(Theta) U^T

    with Theta nondecreasing.  Columns of Q whose angle is at rounding level
    (tangent at most 1e-12) are zero; sin(t Theta) removes them anyway.
    """

    Y_start: StiefelMatrix
    U: np.ndarray
    Theta: np.ndarray
    Q: np.ndarray
    n: int
    k: int


def geodesic(flat1: AffineFlat, flat2: AffineFlat) -> GeodesicCurve:
    """Minimizing geodesic from ``flat1`` to ``flat2`` in Graff(k, n).

    Requires Y_F^T Y_G to be invertible; raises ``SingularPair`` when its
    smallest singular value falls below 1e-10.  The curve has constant speed
    and length equal to the Grassmann distance; at most one parameter value
    leaves the space of flats (``evaluate_geodesic`` raises ``NotAFlat``
    there).
    """
    _check_same_ambient(flat1, flat2)
    if flat1.k != flat2.k:
        raise DimensionError(f"geodesics need equal flat dimensions, got {flat1.k} and {flat2.k}")
    n, k = flat1.n, flat1.k
    Y1 = stiefel_coords(flat1).Y
    Y2 = stiefel_coords(flat2).Y
    M = Y1.T @ Y2
    if np.linalg.svd(M, compute_uv=False)[-1] < 1e-10:
        raise SingularPair("Stiefel overlap matrix is numerically singular")
    # H = (Y2 - Y1 M) M^{-1} = Q tan(Theta) U^T.  Unlike the SVD of M, the SVD
    # of H keeps its directions accurate when every cosine rounds to 1.
    H = np.linalg.solve(M.T, (Y2 - Y1 @ M).T).T
    Q, tangents, Ut = np.linalg.svd(H, full_matrices=False)
    Q = np.where(tangents > 1e-12, Q, 0.0)
    return GeodesicCurve(
        Y_start=stiefel_coords(flat1),
        U=Ut[::-1].T,
        Theta=np.diag(np.arctan(tangents[::-1])),
        Q=Q[:, ::-1],
        n=n,
        k=k,
    )


def evaluate_geodesic(curve: GeodesicCurve, t: float) -> AffineFlat:
    """Point of a geodesic at parameter t (values outside [0, 1] extrapolate).

    Raises ``NotAFlat`` at the isolated parameter, if any, where the curve
    exits the embedded image of Graff(k, n).
    """
    t = float(t)
    angles = np.diag(curve.Theta)
    Z = curve.Y_start.Y @ curve.U @ np.diag(np.cos(t * angles)) + curve.Q @ np.diag(
        np.sin(t * angles)
    )
    return unembed(Z)
