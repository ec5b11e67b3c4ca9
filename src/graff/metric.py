"""Distances, principal angles, and geodesics between affine flats.

Every distance here is a function of the affine principal angles
theta_1 <= ... <= theta_{min(k,l)+1}: the arccosines of the singular values
of Y_F^T Y_G, where Y_F and Y_G are the matrices of Stiefel coordinates.
Equidimensional flats get the full family of classical subspace distances;
flats of different dimensions get the same formulas on the min(k,l)+1
angles (the distance from one flat to the nearest flat of the other's
dimension containing/contained in it), and three of the distances extend to
genuine metrics across dimensions with an extra |k - l| penalty term.  Both flats of a pair keep
one record of it, M = Y_F^T Y_G, W = Y_G - Y_F M and the angles (two unpadded SVDs) in an order
fixed by content: its distances, principal decomposition, geodesic and ``equal_flats`` share it in
either order, and every angle-derived value is exactly symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lapack
from ._plain import DistanceKind
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


def _angles(M: np.ndarray, W: np.ndarray) -> tuple[list[float], list[float]]:
    """Angles (nondecreasing) and cosines, as float lists, from M = Y1^T Y2, W = Y2 - Y1 M.

    The cosines are the singular values of M, the sines the smallest of W: two SVDs,
    of M itself and of W, under one errstate entry, each read once with ``tolist``.
    Angles below pi/4 come from ``math.asin`` of the sines, as arccos near 1 loses
    half the digits; ``min(x, 1.0)`` keeps a nan a nan.
    """
    cosines, sines = (values.tolist() for values in _lapack.svdvals(M, W))
    if cosines[0] > 1.0 + 1e-8:
        raise InternalError(f"singular value {cosines[0]} exceeds 1 beyond rounding")
    sigmas = [min(s, 1.0) for s in cosines]
    thetas = [math.asin(min(t, 1.0)) if s * s >= 0.5 else math.acos(s)
              for s, t in zip(sigmas, sines[::-1])]
    return thetas, sigmas


def _pair(flat1: AffineFlat, flat2: AffineFlat, angles: bool = True) -> list:
    """[S_a, S_b, M, W, _angles(M, W)]: the unordered pair's record, kept on both flats
    as ``_pair`` and read from flat1, else flat2, in the order fixed by content, larger k first,
    then the bytes of the Stiefel coordinates S_a, S_b (held, so not reused; no flat is held).
    M = Y_a^T Y_b, W = Y_b - Y_a M; the angles (None until wanted) serve both orders."""
    S1, S2 = stiefel_coords(flat1), stiefel_coords(flat2)
    pair = getattr(flat1, "_pair", None)  # a record on flat1 holds S1
    if pair is None or (pair[1] if pair[0] is S1 else pair[0]) is not S2:
        pair = getattr(flat2, "_pair", None)  # else flat2's, which holds S2
    if pair is None or (pair[1] if pair[0] is S2 else pair[0]) is not S1:
        (n1, k1), (n2, k2) = flat1.A.shape, flat2.A.shape
        if n1 != n2:
            raise DimensionError(f"ambient dimensions differ ({n1} vs {n2}); pad_ambient first")
        if k1 < k2 or k1 == k2 and S1.Y.tobytes() > S2.Y.tobytes():
            S1, S2 = S2, S1  # a: larger k, then smaller bytes
        M = S1.Y.T.dot(S2.Y)
        pair = [S1, S2, M, S2.Y - S1.Y.dot(M), None]
        flat1.__dict__["_pair"] = flat2.__dict__["_pair"] = pair  # past the frozen __setattr__
    if angles and pair[4] is None:
        pair[4] = _angles(pair[2], pair[3])
    return pair


def _ordered(flat1: AffineFlat, flat2: AffineFlat, angles: bool = False) -> tuple:
    """(M, W, angles) with M = Y1^T Y2 and W = Y2 - Y1 M in the order given: the record's own when
    that order is its canonical one, else a contiguous copy of the record's M^T (the bits of
    Y1^T Y2) and W None, which the caller forms if it needs it."""
    pair = _pair(flat1, flat2, angles)
    if pair[0] is stiefel_coords(flat1):
        return pair[2], pair[3], pair[4]
    return pair[2].T.copy(), None, pair[4]


def affine_principal_angles(flat1: AffineFlat, flat2: AffineFlat) -> np.ndarray:
    """Affine principal angles between two flats of any dimensions.

    The arccosines of the min(k,l)+1 singular values of the product of
    Stiefel coordinate matrices, in nondecreasing order.  Angles below pi/4
    are computed through their sines so that nearly identical flats yield
    angles at rounding level rather than at sqrt(rounding) level.
    """
    return np.array(_pair(flat1, flat2)[4][0])


def principal_decomposition(flat1: AffineFlat, flat2: AffineFlat) -> PrincipalDecomposition:
    """Full SVD of Y_F^T Y_G (the pair's stored M) with angles, rotations, and principal vectors."""
    M, _, (thetas, sigmas) = _ordered(flat1, flat2, angles=True)
    Y1, Y2 = stiefel_coords(flat1).Y, stiefel_coords(flat2).Y
    U, _, Vt = _lapack.svd(M)
    return PrincipalDecomposition(
        thetas=np.array(thetas),
        sigmas=np.array(sigmas),
        U=U,
        V=Vt.T,
        P_vecs=Y1.dot(U),
        Q_vecs=Y2.dot(Vt.T),
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
    return _formula(*_pair(flat1, flat2)[4], kind)


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
    return _formula(*_pair(flat1, flat2)[4], kind, abs(flat1.k - flat2.k))


def equal_flats(flat1: AffineFlat, flat2: AffineFlat, tol: float = 1e-8) -> bool:
    """Whether |P1 - P2|_F <= tol for the flats' projection coordinates, unique per flat.

    Invariant to basis rotation A -> AQ and to the coset freedom in the raw displacement;
    flats of different dimensions compare unequal.  No projection is formed: |P1 - P2|_F^2
    = |W|_F^2 + |V|_F^2 with M = Y1^T Y2, W = Y2 - Y1 M, V = Y1 - Y2 M^T, in either order.
    M and W come from the pair's record, in its canonical order, shared with the distances.
    """
    S1, S2, M, W = _pair(flat1, flat2, angles=False)[:4]
    V = S1.Y - S2.Y.dot(M.T)
    return math.sqrt(float(np.vdot(W, W)) + float(np.vdot(V, V))) <= tol


_ROOM_TOL = 0.1


def _beyond(Y: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(W) beyond span(Y): the QR of W' = W - Y (Y^T W), W projected
    twice, which leaves Q's column j off span(Y) by about eps |w_j| / |R_jj|.  Where some
    |R_jj| <= 0.1 |w_j| (|w_j| <= 1, so only then are the norms formed), or where there is no
    room for k + 1 directions beyond span(Y), the last k + 1 columns of the QR of [Y, W]."""
    k1 = Y.shape[1]
    if Y.shape[0] >= 2 * k1:
        a = W - Y.dot(Y.T.dot(W))
        Q, size = _lapack.qr_in_place(a), [abs(r) for r in a.diagonal().tolist()]
        if min(size) > _ROOM_TOL or all(r * r > _ROOM_TOL**2 * w for r, w in zip(
                size, np.einsum("ij,ij->j", W, W).tolist())):
            return Q
    return _lapack.qr(np.concatenate((Y, W), axis=1))[0][:, k1:]


@dataclass(frozen=True, eq=False)
class GeodesicCurve:
    """Data defining the minimizing geodesic between two equidimensional flats.

    The curve is gamma(t) = span(Y_start U cos(t Theta) + Q sin(t Theta)),
    where Q, tan(Theta) and U are the factors of the thin SVD

        H = W M^{-1} = Q tan(Theta) U^T,   M = Y^T Y',  W = Y' - Y M,

    with Theta nondecreasing, in a basis of span(Y, W) beyond span(Y): the QR of W projected
    twice, W - Y (Y^T W), or the QR of [Y, W] where that one is rank-deficient or n - k < k + 1.
    In the latter case the k + 1 - (n - k) directions with no room beyond span(Y_start) get
    angle 0 and a zero column of Q; the other columns are orthonormal and orthogonal to
    span(Y_start) to rounding, so every frame is orthonormal.  ``evaluate_geodesic`` keeps
    Y_start U and the angles on the curve, which pickle and copy leave behind.
    """

    Y_start: StiefelMatrix
    U: np.ndarray
    Theta: np.ndarray
    Q: np.ndarray

    def __getstate__(self):
        return {"Y_start": self.Y_start, "U": self.U, "Theta": self.Theta, "Q": self.Q}


def geodesic(flat1: AffineFlat, flat2: AffineFlat) -> GeodesicCurve:
    """Minimizing geodesic from ``flat1`` to ``flat2`` in Graff(k, n).

    Raises ``SingularPair`` unless Y_F^T Y_G is invertible with every tangent of
    the angles at most 1e10 (cosines down to about 1e-10).  The curve has constant
    speed and length the Grassmann distance.  ``evaluate_geodesic`` raises ``NotAFlat``
    where the frame's last row has norm below 1e-10: where the curve leaves the space of
    flats, and on an interval of t around an endpoint with |b0| above about 1e10 (t = 0
    included for such a flat1).  Every angle is kept, so the point at t = 1 is flat2 to
    rounding; angles of rounding size, as between a flat and itself in another basis,
    move a point at t by about |t| eps.  M and W come from the pair's record; Q from a basis
    of span(Y_F, W) beyond span(Y_F), with M inverted on the (k+1)-square block only: the QR
    of W' = W - Y_F (Y_F^T W), W projected twice, or, where some column of W' nearly depends
    on the others or n - k < k + 1, the QR of [Y_F, W].
    """
    if flat1.k != flat2.k:
        raise DimensionError(f"geodesics need equal flat dimensions, got {flat1.k} and {flat2.k}")
    M, W, _ = _ordered(flat1, flat2)
    Y, k = stiefel_coords(flat1), flat1.k
    W = stiefel_coords(flat2).Y - Y.Y.dot(M) if W is None else W  # the other order's W
    # H = W M^{-1} keeps, unlike M's SVD, the directions when every cosine rounds to 1; as
    # span(H) = span(W), Q is orthogonal to span(Y) to rounding however small the cosines.
    try:
        beyond = _beyond(Y.Y, W)
        Q_beyond, tangents, Ut = _lapack.svd(_lapack.solve(M.T, W.T.dot(beyond)).T)
    except np.linalg.LinAlgError:
        tangents = None
    if tangents is None or not tangents[0] <= 1e10:  # nan and inf included
        raise SingularPair("Stiefel overlap matrix is numerically singular")
    # Ascending; a direction with no room beyond span(Y) gets angle 0.
    thetas = [math.atan(x) for x in reversed(tangents.tolist())]
    pad = k + 1 - len(thetas)
    Q = np.zeros((flat1.n + 1, k + 1))
    Q[:, pad:] = beyond.dot(Q_beyond[:, : len(thetas)][:, ::-1])
    return GeodesicCurve(Y_start=Y, U=Ut[::-1].T, Theta=np.diag([0.0] * pad + thetas), Q=Q)


def evaluate_geodesic(curve: GeodesicCurve, t: float) -> AffineFlat:
    """Point of a geodesic at parameter t (values outside [0, 1] extrapolate).

    The frame is orthonormal by construction and skips ``unembed``'s QR (Y_start U stays an @: on
    U's reversed view ``.dot`` rounds otherwise).  Raises ``NotAFlat`` where the frame's last row
    has norm below 1e-10: where the curve exits the image of Graff(k, n), and near an endpoint with
    |b0| above about 1e10 (see :func:`geodesic`); ``ValueError`` where t * theta_i is not finite.
    """
    t = float(t)
    if getattr(curve, "_base", None) is None:  # kept after the first call
        curve.__dict__["_base"] = (curve.Y_start.Y @ curve.U, curve.Theta.diagonal(),
                                   float(curve.Theta.max()))  # past the frozen __setattr__
    start, thetas, largest = curve._base
    if not math.isfinite(t * largest):
        raise ValueError(f"geodesic parameter t={t} gives a non-finite angle")
    angles = t * thetas
    frame = start * np.cos(angles) + curve.Q * np.sin(angles)
    return _flat_from_frame(frame)
