"""The numpy-free names that the command line needs before any numerics: the
distance kinds for ``--kind``, the float format and ``FLAT_BLOCK``.  ``metric`` and
``io`` re-export the first two, so ``graff invariant`` and the parser run without numpy.
"""

from enum import Enum

FLAT_BLOCK = 4096  # flats per write of the command line, frames per reflected stack of a chain


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


def fmt_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trips exactly; inf stays ``inf``)."""
    return format(float(x), ".17g")
