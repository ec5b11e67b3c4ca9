"""Closed-form discrete invariants of affine Grassmannians.

Dimensions of the manifolds and their Schubert-type subvarieties, volumes
and relative volumes under the orthogonally invariant measure, Betti numbers
with Z/2 coefficients, and the low-degree homotopy groups.  Everything here
is a pure function of small integers.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import Sequence

from .errors import DimensionError, InvalidFlag

__all__ = [
    "GroupDescriptor",
    "dim_graff",
    "dim_stiefel_affine",
    "dim_schubert_affine",
    "dim_psi_plus",
    "dim_psi_minus",
    "unit_ball_volume",
    "volume_gr",
    "volume_graff",
    "relative_volume",
    "betti",
    "homotopy_group",
]

INFINITY = math.inf


class GroupDescriptor(Enum):
    """Isomorphism class of a homotopy group, or `unknown` outside the
    ranges for which a value is stated."""

    Z = "Z"
    Z2 = "Z2"
    TRIVIAL = "trivial"
    UNKNOWN = "unknown"


def _check_int(value, name: str, least: int | None = None) -> int:
    """``value`` as an int; ``DimensionError`` unless it is an integer, at least ``least``."""
    try:
        if value == int(value) and (least is None or value >= least):
            return int(value)
    except (TypeError, ValueError, OverflowError):  # a non-number, nan or infinity
        pass
    bound = "" if least is None else f" >= {least}"
    raise DimensionError(f"{name} must be an integer{bound}, got {value!r}")


def _check_positive(value, name: str, most: float = sys.float_info.max) -> float:
    """``value`` as a float; ``DimensionError`` unless it is a real number in (0, most]."""
    try:
        if value == float(value) and 0.0 < float(value) <= most:
            return float(value)
    except (TypeError, ValueError, OverflowError):  # a non-number or an int past floats
        pass
    raise DimensionError(f"{name} must be a number in (0, {most:.3g}], got {value!r}")


def dim_graff(k: int, n: int) -> int:
    """Dimension (n - k)(k + 1) of the manifold of k-flats in R^n."""
    k = _check_int(k, "k", 0)
    n = _check_int(n, "n", k + 1)
    return (n - k) * (k + 1)


def dim_stiefel_affine(k: int, n: int) -> tuple[int, int]:
    """Dimensions of the compact and noncompact affine Stiefel manifolds.

    Returns the pair (k(2n - k + 1)/2, n(k + 1)).
    """
    k = _check_int(k, "k", 1)
    n = _check_int(n, "n", k)
    return k * (2 * n - k + 1) // 2, n * (k + 1)


def dim_schubert_affine(d: Sequence[int]) -> int:
    """Dimension of the affine Schubert variety of a flag with dimensions d.

    ``d`` must be strictly increasing positive integers with d_j >= j; the
    dimension is sum(d) - k(k+1)/2 + (d_1 - 1) for k = len(d).
    """
    dims = [_check_int(x, "flag dimension") for x in d]
    k = len(dims)
    if k == 0:
        raise InvalidFlag("flag must contain at least one dimension")
    for j, dj in enumerate(dims, start=1):
        if dj < j:
            raise InvalidFlag(f"flag dimension d_{j}={dj} is below its index {j}")
        if j > 1 and dj <= dims[j - 2]:
            raise InvalidFlag("flag dimensions must be strictly increasing")
    return sum(dims) - k * (k + 1) // 2 + (dims[0] - 1)


def dim_psi_plus(k: int, l: int, n: int) -> int:
    """Dimension (n - l)(l - k) of the variety of l-flats containing a k-flat."""
    k = _check_int(k, "k", 0)
    l = _check_int(l, "l", k)
    n = _check_int(n, "n", l)
    return (n - l) * (l - k)


def dim_psi_minus(k: int, l: int, n: int) -> int:
    """Dimension (k + 1)(l - k) of the variety of k-flats contained in an l-flat."""
    k = _check_int(k, "k", 0)
    l = _check_int(l, "l", k)
    n = _check_int(n, "n", l)
    return (k + 1) * (l - k)


def _log_unit_ball_volume(m: int) -> float:
    return 0.5 * m * math.log(math.pi) - math.lgamma(1.0 + 0.5 * m)


def unit_ball_volume(m: int) -> float:
    """Volume pi^(m/2) / Gamma(1 + m/2) of the unit ball in R^m (1 for m = 0)."""
    m = _check_int(m, "m", 0)
    return math.exp(_log_unit_ball_volume(m))


def _log_volume_gr(k: int, n: int) -> float:
    # log of binom(n, k) * prod_{j<=n} w_j / (prod_{j<=k} w_j * prod_{j<=n-k} w_j),
    # accumulated in log scale so large n stays finite.  The products cancel
    # down to prod_{n-m<j<=n} w_j / prod_{j<=m} w_j with m = min(k, n-k).
    m = min(k, n - k)
    if m > 10**6:
        raise DimensionError(f"volume of Gr({k}, {n}) needs min(k, n - k) = {m} terms, over 10**6")
    total = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    for j in range(1, m + 1):
        total += _log_unit_ball_volume(n - m + j) - _log_unit_ball_volume(j)
    return total


def volume_gr(k: int, n: int, log: bool = False) -> float:
    """Volume of the Grassmannian of k-planes in R^n.

    With ``log=True`` the natural logarithm is returned instead, which stays
    finite far beyond the range where the volume itself overflows.
    """
    k = _check_int(k, "k", 0)
    n = _check_int(n, "n", k)
    value = _log_volume_gr(k, n)
    return value if log else math.exp(value)


def volume_graff(k: int, n: int, log: bool = False) -> float:
    """Volume of the space of k-flats in R^n; equals volume_gr(k+1, n+1)."""
    k = _check_int(k, "k", 0)
    n = _check_int(n, "n", k + 1)
    return volume_gr(k + 1, n + 1, log=log)


def relative_volume(k: int, l: int, n: int, log: bool = False) -> float:
    """Relative volume of the flats through / inside a fixed flat.

    For 0 <= k <= l <= n with k + l >= n, the relative volume of the l-flats
    containing a fixed k-flat equals the relative volume of the k-flats
    contained in a fixed l-flat:

        (l+1)! (n-k)! prod_{j=l-k+1}^{l+1} w_j
        --------------------------------------- ,
        (n+1)! (l-k)! prod_{j=n-k+1}^{n+1} w_j

    with w_j the unit-ball volumes.  The same number is the volume ratio
    volume_gr(n-l, n-k) / volume_gr(l+1, n+1) and also
    volume_gr(k+1, l+1) / volume_gr(k+1, n+1), which is what is computed, in
    log scale, from at most min(k+1, l-k) + min(k+1, n-k) unit-ball terms.
    """
    k = _check_int(k, "k", 0)
    l = _check_int(l, "l", k)
    n = _check_int(n, "n", l)
    if k + l < n:
        raise DimensionError(f"need k + l >= n, got k={k}, l={l}, n={n}")
    total = _log_volume_gr(k + 1, l + 1) - _log_volume_gr(k + 1, n + 1)
    return total if log else math.exp(total)


def betti(k: int, i: int) -> int:
    """i-th Betti number of the space of k-flats, with Z/2 coefficients.

    Equals the number of partitions of i into at most k parts, computed by
    exact integer dynamic programming.
    """
    k, i = _check_int(k, "k", 1), _check_int(i, "i", 0)
    # counts[m] = partitions of m into parts <= current bound, at most that many parts
    # via the conjugate view: partitions of i with at most k parts == partitions
    # of i into parts of size <= k.
    counts = [1] + [0] * i
    for part in range(1, k + 1):
        for m in range(part, i + 1):
            counts[m] += counts[m - part]
    return counts[i]


def homotopy_group(k: int, n, r: int) -> GroupDescriptor:
    """Homotopy group pi_r of the space of k-flats in R^n.

    ``n`` may be a positive integer or ``math.inf``.  Returns the stated
    isomorphism class within the ranges below and ``UNKNOWN`` elsewhere:

    * r = 1: Z when (k, n) = (1, 2); Z2 for n >= k+2 and 0 < k < n/2, and
      for every k when n is infinite.
    * r >= 2 with 0 <= k < n/2 and r < n - 2k (any r when n is infinite):
      Z when r = 0, 4 (mod 8), Z2 when r = 1, 2 (mod 8), trivial otherwise.
    """
    k, r = _check_int(k, "k", 0), _check_int(r, "r", 1)
    infinite = n == INFINITY
    if not infinite:
        n = _check_int(n, "n", 1)
    if r == 1:
        if not infinite and k == 1 and n == 2:
            return GroupDescriptor.Z
        if infinite or (n >= k + 2 and 0 < k < n / 2):
            return GroupDescriptor.Z2
        return GroupDescriptor.UNKNOWN
    if infinite or (0 <= k < n / 2 and 2 <= r < n - 2 * k):
        residue = r % 8
        if residue in (0, 4):
            return GroupDescriptor.Z
        if residue in (1, 2):
            return GroupDescriptor.Z2
        return GroupDescriptor.TRIVIAL
    return GroupDescriptor.UNKNOWN
