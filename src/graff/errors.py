"""Exception and warning types shared across the package."""


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
