"""Exception and warning types shared across the package, and the checks raising DimensionError."""

__all__ = ["GraffError", "DimensionError", "RankDeficient", "NotAFlat", "SingularPair",
           "UnsupportedKind", "InvalidFlag", "NotSeparable", "InternalError", "DegenerateSpectrum"]


class GraffError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(GraffError, ValueError):
    """A dimension, count or numeric setting is out of range, or dimensions are
    inconsistent between arguments."""


class RankDeficient(GraffError):
    """An input matrix does not have the required column rank."""


class NotAFlat(GraffError):
    """A subspace of R^(n+1) that is not the embedding of any affine flat."""


class SingularPair(GraffError):
    """The Stiefel overlap matrix of two flats is numerically singular."""


class UnsupportedKind(GraffError):
    """The requested distance kind is not available for this operation."""


class InvalidFlag(GraffError):
    """A sequence of flag dimensions violates the required ordering."""


class NotSeparable(GraffError):
    """The two classes admit no separating hyperplane with positive margin."""


class InternalError(GraffError):
    """An internal consistency check failed; indicates a bug or bad input."""


class DegenerateSpectrum(UserWarning):
    """A spectral tie made a fitted subspace non-unique; ties are broken by index order."""


def _check_int(value, name: str, least: int | None = None) -> int:
    """``value`` as an int; ``DimensionError`` unless it is an integer (no bool), >= ``least``."""
    try:
        if (least is None or value >= least) and value == int(value) and type(value) is not bool:
            return int(value)
    except (TypeError, ValueError, OverflowError):  # a non-number, nan or infinity
        pass
    bound = "" if least is None else f" >= {least}"
    raise DimensionError(f"{name} must be an integer{bound}, got {value!r}")


def _check_positive(value, name: str) -> float:
    """``value`` as a float; ``DimensionError`` unless a real number (no bool) in (0, 1e300]."""
    try:
        if not isinstance(value, bool) and value == float(value) and 0.0 < float(value) <= 1e300:
            return float(value)
    except (TypeError, ValueError, OverflowError):  # a non-number or an int past floats
        pass
    raise DimensionError(f"{name} must be a number in (0, 1e+300], got {value!r}")
