"""The numpy-free names that the command line needs before any numerics: the
distance kinds for ``--kind``, the float format and ``flat_block``.  ``metric`` and
``io`` re-export the first two, so ``graff invariant`` and the parser run without numpy.
"""

from enum import Enum


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


def flat_block(k: int, n: int) -> int:
    """Flats per block, from the draw to stdout: a stacked uniform draw, a chain's list of kept
    flats and a write of the command line hold 4096, fewer where they would pass 2**17 Stiefel
    entries (1 MiB); the normalizer draws its (k+1)-planes of R^(n+1) in the same blocks."""
    return max(1, min(4096, 2**17 // ((n + 1) * (k + 1))))
