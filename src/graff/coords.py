"""Canonical representations of affine flats and conversions among them.

A k-flat in R^n is a k-dimensional linear subspace translated by a
displacement vector.  The canonical storage format is orthogonal affine
coordinates [A, b0]: an orthonormal basis A of the linear part together with
the unique displacement b0 orthogonal to it.  From there the flat can be
converted losslessly to

* Stiefel coordinates, an (n+1) x (k+1) orthonormal matrix that realizes the
  flat as a (k+1)-plane in R^(n+1),
* projection coordinates, the unique (n+1) x (n+1) orthogonal projection
  Y Y^T onto that plane (Y the Stiefel coordinates),
* projection affine coordinates, the pair [A A^T, b0] of an n x n projection
  and a displacement in its kernel.

The plane spanned by the Stiefel coordinates never lies inside the
hyperplane x_{n+1} = 0; (k+1)-planes that do lie there correspond to no flat
at all, and ``unembed`` reports them as ``NotAFlat``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import DimensionError, NotAFlat, RankDeficient, _check_int

__all__ = [
    "AffineFlat",
    "StiefelMatrix",
    "ProjectionMatrix",
    "ProjectionAffinePair",
    "make_flat",
    "stiefel_coords",
    "projection_coords",
    "projection_affine_coords",
    "unembed",
    "pad_ambient",
    "deaffine",
    "flat_from_projection",
]

# Relative tolerances: the rank ratio of a QR's diagonal, and (1e3 times looser)
# the orthogonality, projection and kernel checks on outside coordinates.
_RANK_TOL = 1e-10
_CHECK_TOL = 1e3 * _RANK_TOL
# An orthonormal frame whose last row has a smaller norm spans no flat.
_FLAT_TOL = 1e-10


def _as_matrix(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M[:, None]
    if M.ndim != 2:
        raise DimensionError(f"{name} must be a matrix, got ndim={M.ndim}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _as_vector(v, length: int, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape != (length,):
        raise DimensionError(f"{name} must have length {length}, got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _unit_scale(M: np.ndarray) -> tuple[np.ndarray, int]:
    """(M * 2**-e, e), with e the power of two that brings M's largest entry into [1/2, 1)."""
    e = math.frexp(float(np.abs(M).max()))[1]
    return np.ldexp(M, -e), e


def _unscale(x, e, what: str):
    """x * 2**e by ``np.ldexp``, e an int or one exponent per entry; ValueError unless finite."""
    with np.errstate(over="ignore"):  # refused below
        x = np.ldexp(x, e)
    if not np.isfinite(x).all():
        raise ValueError(f"{what} is too large to represent")
    return x


def _orthonormalize(M: np.ndarray, what: str) -> np.ndarray:
    """Orthonormal basis of span(M), Gram-Schmidt in column order, rank-checked.

    M is first scaled by a power of two that brings its largest entry into
    [1/2, 1): exact, so Q is unchanged, and the QR of outside input cannot overflow.
    """
    Q, diag = _lapack.qr(_unit_scale(M)[0])
    size = [abs(x) for x in diag.tolist()]
    largest = max(size)
    if largest == 0.0 or min(size) / largest < _RANK_TOL:
        raise RankDeficient(f"{what} has numerical rank below {M.shape[1]}")
    return np.multiply(Q, np.sign(diag), out=Q)


def _split_scale(b: np.ndarray) -> tuple[np.ndarray, int]:
    """(u, e) with b = u * 2**e exactly and u @ u free of overflow.

    An ordinary vector comes back as it is, with e = 0, so its results keep
    their bits; one of norm 2**500 or more is scaled to bring its largest
    entry into [1/2, 1).
    """
    return (b, 0) if math.hypot(*b.tolist()) < 2.0**500 else _unit_scale(b)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


def _check_orthonormal(M: np.ndarray, what: str) -> None:
    """Raise ``ValueError(what % deviation)`` unless |M^T M - I|max <= _CHECK_TOL."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan are refused below
        deviation = np.abs(M.T @ M - np.eye(M.shape[1])).max()
    if not deviation <= _CHECK_TOL:
        raise ValueError(what % deviation)


def _check_projection(P: np.ndarray) -> None:
    """Raise ``ValueError`` unless P is symmetric and idempotent to _CHECK_TOL."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan are refused below
        if not np.abs(P - P.T).max() <= _CHECK_TOL:
            raise ValueError("P is not symmetric")
        if not np.abs(P @ P - P).max() <= _CHECK_TOL:
            raise ValueError("P is not idempotent")


def _kernel_error(M: np.ndarray, b: np.ndarray) -> float:
    """|M b|max / max(1, |b|), for M with entries of order one and any finite b."""
    u, e = _split_scale(b)
    return np.abs(M @ u).max() / max(math.ldexp(1.0, -e), float(np.linalg.norm(u)))


def _trusted(cls, **arrays):
    """An instance of ``cls`` over arrays graff has just computed, frozen in place.

    The public constructors validate in full.  graff's own builders
    guarantee orthonormality, A^T b0 = 0, symmetry and idempotence by
    construction, so they skip those re-checks; each keeps the cheap checks
    whose outcome depends on its input (a finite b0, a positive corner).
    The arrays must not be shared with the caller.
    """
    obj = object.__new__(cls)
    for array in arrays.values():
        array.setflags(write=False)
    obj.__dict__.update(arrays)
    return obj


@dataclass(frozen=True, eq=False)
class AffineFlat:
    """A k-flat span(A) + b0 in orthogonal affine coordinates.

    Attributes
    ----------
    A : (n, k) ndarray
        Orthonormal basis of the linear part (n x 0 for a point).
    b0 : (n,) ndarray
        Displacement, orthogonal to the columns of A.

    The public constructor validates its input in full: finite entries,
    orthonormal A and b0 orthogonal to span(A).  Use :func:`make_flat` to
    build a flat from a raw basis and an arbitrary displacement.  Flats that
    graff builds itself (``make_flat``, ``unembed``, the samplers, the
    estimators) hold these invariants by construction and are not re-checked.
    """

    A: np.ndarray
    b0: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        n, k = A.shape
        b0 = _as_vector(self.b0, n, "b0")
        if not 0 <= k < n:
            raise DimensionError(f"flat dimension k={k} must satisfy 0 <= k < n={n}")
        if k > 0:
            _check_orthonormal(A, "A is not orthonormal (max deviation %.3e); use make_flat")
            disp_err = _kernel_error(A.T, b0)
            if disp_err > _CHECK_TOL:
                raise ValueError(
                    f"b0 is not orthogonal to span(A) (relative error {disp_err:.3e}); use make_flat"
                )
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "b0", _freeze(b0))

    @property
    def n(self) -> int:
        """Ambient dimension."""
        return self.A.shape[0]

    @property
    def k(self) -> int:
        """Dimension of the flat."""
        return self.A.shape[1]

    def __repr__(self) -> str:
        return f"AffineFlat(k={self.k}, n={self.n})"

    def __getstate__(self):  # pickle and copy keep A and b0, not the caches beside them
        return {"A": self.A, "b0": self.b0}

    def __setstate__(self, state):  # pickle restores writeable arrays; _trusted freezes them
        vars(self).update(vars(_trusted(AffineFlat, **state)))


@dataclass(frozen=True, eq=False)
class StiefelMatrix:
    """Stiefel coordinates: an (n+1) x (k+1) matrix with orthonormal columns.

    The last row is (0, ..., 0, r) with r = 1/sqrt(1 + |b0|^2) > 0.
    """

    Y: np.ndarray

    def __post_init__(self):
        Y = _as_matrix(self.Y, "Y")
        rows, cols = Y.shape
        if cols < 1 or rows < cols + 1:
            raise DimensionError(f"Stiefel coordinates must be (n+1) x (k+1) with k < n, got {Y.shape}")
        _check_orthonormal(Y, "columns are not orthonormal (max deviation %.3e)")
        if cols > 1 and np.any(Y[-1, :-1] != 0.0):
            raise ValueError("last row must vanish outside its final entry")
        if not Y[-1, -1] > 0.0:
            raise ValueError("entry (n+1, k+1) must be strictly positive")
        object.__setattr__(self, "Y", _freeze(Y))


@dataclass(frozen=True, eq=False)
class ProjectionMatrix:
    """Projection coordinates: the unique (n+1) x (n+1) orthogonal projection.

    Symmetric, idempotent, trace k+1, with strictly positive corner entry
    (n+1, n+1); a vanishing corner would be a linear-subspace limit point
    rather than a flat.
    """

    P: np.ndarray

    def __post_init__(self):
        P = _as_matrix(self.P, "P")
        m = P.shape[0]
        if P.shape != (m, m) or m < 2:
            raise DimensionError(f"P must be square of size >= 2, got {P.shape}")
        _check_projection(P)
        trace = float(np.trace(P))
        if abs(trace - round(trace)) > 1e-6 or not 1 <= round(trace) <= m - 1:
            raise ValueError(f"trace(P)={trace} is not an integer in [1, {m - 1}]")
        if not P[-1, -1] > 0.0:
            raise ValueError("corner entry must be strictly positive for a flat")
        object.__setattr__(self, "P", _freeze(P))


@dataclass(frozen=True, eq=False)
class ProjectionAffinePair:
    """Projection affine coordinates [P, b]: an n x n rank-k orthogonal
    projection together with a displacement b in its kernel."""

    P: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        P = _as_matrix(self.P, "P")
        n = P.shape[0]
        if P.shape != (n, n):
            raise DimensionError(f"P must be square, got {P.shape}")
        b = _as_vector(self.b, n, "b")
        _check_projection(P)
        if not _kernel_error(P, b) <= _CHECK_TOL:
            raise ValueError("b does not lie in ker(P)")
        object.__setattr__(self, "P", _freeze(P))
        object.__setattr__(self, "b", _freeze(b))


def make_flat(A_raw, b_raw) -> AffineFlat:
    """Build a flat from a raw basis and an arbitrary displacement.

    Parameters
    ----------
    A_raw : (n, k) array_like
        Basis of the linear part; columns need not be orthonormal.  A 1-D
        array is treated as a single column.  An n x 0 matrix gives a point.
    b_raw : (n,) array_like
        Any displacement vector; the part lying inside span(A_raw) is
        removed, so the stored displacement is the unique b0 orthogonal to
        the linear part.

    Returns
    -------
    AffineFlat
        The flat span(A_raw) + b_raw in orthogonal affine coordinates.  Its
        basis A is Gram-Schmidt in the caller's column order: A[:, 0] is a
        positive multiple of A_raw[:, 0], and an orthonormal A_raw is kept.

    Raises
    ------
    RankDeficient
        If A_raw has column rank below k, judged on the diagonal of a
        Householder QR's triangular factor, relative to its largest entry.
    DimensionError
        If k >= n.
    ValueError
        If the displacement orthogonal to the basis does not fit in a float.
    """
    A_raw = _as_matrix(A_raw, "A_raw")
    n, k = A_raw.shape
    b0 = _as_vector(b_raw, n, "b_raw")
    if k >= n:
        raise DimensionError(f"flat dimension k={k} must be smaller than ambient n={n}")
    if k == 0:  # _as_vector may return a view of the caller's array
        return _trusted(AffineFlat, A=np.zeros((n, 0)), b0=b0.copy())
    A = _orthonormalize(A_raw, "basis")
    return _trusted(AffineFlat, A=A, b0=_orthogonal_part(A, b0))


def _orthogonal_part(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b - A A^T b for orthonormal A, as a new array: projected twice when b lies
    nearly in span(A) (one pass leaves an eps |b| residue), at a power-of-two scale
    when b is huge, brought back by ``_unscale`` (``ValueError`` past the floats).
    """
    u, e = _split_scale(b)
    b0 = u - A @ (A.T @ u)
    if math.hypot(*b0.tolist()) < 1e-4 * math.hypot(*u.tolist()):
        b0 = b0 - A @ (A.T @ b0)
    return _unscale(b0, e, "b0 orthogonal to the basis") if e else b0


def stiefel_coords(flat: AffineFlat) -> StiefelMatrix:
    """Stiefel coordinates of a flat.

    Returns the (n+1) x (k+1) orthonormal matrix

        [ A   b0 / sqrt(1 + |b0|^2) ]
        [ 0    1 / sqrt(1 + |b0|^2) ]

    whose span realizes the flat as a (k+1)-plane in R^(n+1).  Computed once and cached
    on the (immutable) flat, beside its last partner's record (graff.metric); not pickled.
    """
    cached = getattr(flat, "_stiefel", None)
    if cached is not None:
        return cached
    n, k = flat.n, flat.k
    u, e = _split_scale(flat.b0)
    scale = 1.0 / math.sqrt(math.ldexp(1.0, -2 * e) + float(u.dot(u)))
    Y = np.zeros((n + 1, k + 1))
    Y[:n, :k] = flat.A
    Y[:n, k] = u * scale
    Y[n, k] = math.ldexp(scale, -e)  # at least 2^-1024 / sqrt(n), so positive
    result = _trusted(StiefelMatrix, Y=Y)
    object.__setattr__(flat, "_stiefel", result)
    return result


def projection_coords(flat: AffineFlat) -> ProjectionMatrix:
    """Projection coordinates of a flat: P = Y Y^T for Y = stiefel_coords(flat).Y.

    The unique orthogonal projection onto the plane spanned by the Stiefel
    coordinates; in terms of [A, b0] it is

        [ A A^T + b0 b0^T / (1 + |b0|^2)   b0 / (1 + |b0|^2) ]
        [ b0^T / (1 + |b0|^2)               1 / (1 + |b0|^2) ].

    P is recomputed on each call; only Stiefel coordinates and the last-partner record are cached.
    """
    Y = stiefel_coords(flat).Y
    P = Y @ Y.T
    if not P[-1, -1] > 0.0:
        raise ValueError("corner entry 1/(1 + |b0|^2) underflows: the flat is too far from the "
                         "origin (|b0| beyond about 1e154) for projection coordinates")
    return _trusted(ProjectionMatrix, P=P)


def projection_affine_coords(flat: AffineFlat) -> ProjectionAffinePair:
    """Projection affine coordinates [A A^T, b0] of a flat."""
    return _trusted(ProjectionAffinePair, P=flat.A @ flat.A.T, b=flat.b0)


def unembed(Y_raw) -> AffineFlat:
    """Invert the embedding: recover the flat whose image is span(Y_raw).

    Parameters
    ----------
    Y_raw : (n+1, k+1) array_like
        Any full-column-rank matrix spanning a (k+1)-plane in R^(n+1).

    Returns
    -------
    AffineFlat
        The unique flat F with span(stiefel_coords(F).Y) = span(Y_raw), read
        off the orthonormalized spanning matrix by ``_flat_from_frame``.

    Raises
    ------
    NotAFlat
        If the last row of the orthonormalized spanning matrix is
        numerically zero (norm below 1e-10): the plane lies inside the
        hyperplane x_{n+1} = 0 and corresponds to a linear k+1 subspace of
        R^n, not to a flat.
    RankDeficient
        If Y_raw does not have full column rank, judged on the diagonal of a
        Householder QR's triangular factor, relative to its largest entry.
        The basis of span(Y_raw) is Gram-Schmidt in the caller's column order.
    """
    Y_raw = _as_matrix(Y_raw, "Y_raw")
    rows, cols = Y_raw.shape
    if cols < 1 or rows < cols + 1:
        raise DimensionError(f"expected an (n+1) x (k+1) matrix with k < n, got {Y_raw.shape}")
    return _flat_from_frame(_orthonormalize(Y_raw, "spanning matrix"))


def _flat_from_frame(Q: np.ndarray) -> AffineFlat:
    """The flat whose image is span(Q), for Q with orthonormal columns.

    :func:`unembed` after its QR, for frames orthonormal by construction (chain
    states, geodesic points); Q is left unchanged.  Raises ``NotAFlat`` as ``unembed`` does.
    """
    n, k = Q.shape[0] - 1, Q.shape[1] - 1
    u = Q[-1].copy()
    r = math.sqrt(float(u.dot(u)))
    if r < _FLAT_TOL:
        raise NotAFlat("span lies in the hyperplane x_{n+1} = 0 (a linear subspace, not a flat)")
    # Reflect within the column space so the last row becomes (0, ..., 0, -+r);
    # the reflector adds |v_last| + r to the pivot entry, so it never cancels.
    # The sign of r needs no fixing: b0 is a ratio within the last column.
    u[-1] += r if u[-1] >= 0.0 else -r
    Y = np.multiply.outer(Q.dot(u), u)  # not a gemm, which would turn a -0.0 into +0.0
    Y *= 2.0 / float(u.dot(u))
    np.subtract(Q, Y, out=Y)
    return _trusted(AffineFlat, A=Y[:n, :k], b0=Y[:n, k] / Y[n, k])


def _flats_from_frames(Q: np.ndarray) -> list[AffineFlat]:
    """:func:`_flat_from_frame` of each frame of an (m, n+1, k+1) stack, bit for bit.

    The products are stacked matmuls over explicit axes, which round as the
    scalar dot products do; the sign rule is ``np.where``, which sends -0.0 to +r
    as the scalar ``>=`` does (``copysign`` would not).  Raises ``NotAFlat`` if
    any frame spans no flat; Q is left unchanged.
    """
    n, k = Q.shape[1] - 1, Q.shape[2] - 1
    u = Q[:, -1, :].copy()
    r = np.sqrt((u[:, None, :] @ u[:, :, None])[:, 0, 0])
    if (r < _FLAT_TOL).any():
        raise NotAFlat("span lies in the hyperplane x_{n+1} = 0 (a linear subspace, not a flat)")
    u[:, -1] += np.where(u[:, -1] >= 0.0, r, -r)
    Q = Q - (Q @ u[:, :, None]) * u[:, None, :] * (2.0 / (u[:, None, :] @ u[:, :, None]))
    b0 = Q[:, :n, k] / Q[:, n, k, None]
    return [_trusted(AffineFlat, A=frame[:n, :k], b0=b) for frame, b in zip(Q, b0)]


def pad_ambient(flat: AffineFlat, m: int) -> AffineFlat:
    """Include a flat of R^n into R^m (m >= n) by zero-padding A and b0.

    Distances between flats padded into a common ambient space are unchanged.
    """
    m = _check_int(m, "m", flat.n)
    if m == flat.n:
        return flat
    A = np.zeros((m, flat.k))
    A[: flat.n] = flat.A
    b0 = np.zeros(m)
    b0[: flat.n] = flat.b0
    return _trusted(AffineFlat, A=A, b0=b0)


def deaffine(flat: AffineFlat) -> AffineFlat:
    """The linear part of a flat, as the flat span(A) + 0 through the origin."""
    return _trusted(AffineFlat, A=flat.A, b0=np.zeros(flat.n))


def flat_from_projection(P) -> AffineFlat:
    """Recover a flat from its projection coordinates.

    Accepts any matrix satisfying the ProjectionMatrix invariants; the flat is obtained
    by unembedding an orthonormal basis of range(P), so it raises ``NotAFlat`` past |b0|
    of about 1e10, where that basis's last row (norm 1/sqrt(1 + |b0|^2)) is below 1e-10.
    """
    proj = P if isinstance(P, ProjectionMatrix) else ProjectionMatrix(P)
    _, eigvecs = np.linalg.eigh(proj.P)
    return unembed(eigvecs[:, -round(np.trace(proj.P)):])
