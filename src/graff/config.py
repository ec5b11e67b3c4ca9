"""Global numerical tolerances.

Rank and orthogonality checks use a single default tolerance, interpreted
relative to the largest singular value of the matrix under test.  The value
may be changed process-wide; all modules read it at call time.
"""

from .invariants import _check_positive

_default_tol = 1e-10


def get_default_tol() -> float:
    """Return the current default rank/orthogonality tolerance."""
    return _default_tol


def set_default_tol(tol: float) -> None:
    """Set the process-wide default tolerance, a number in (0, 0.5]."""
    global _default_tol
    _default_tol = _check_positive(tol, "tol", 0.5)
