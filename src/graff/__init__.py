"""Affine subspaces of Euclidean space.

Coordinates and conversions for k-flats, distances and geodesics between
them, closed-form topological and volumetric invariants, probability
distributions with samplers, and classical estimators posed as searches for
a best flat.  Each module's ``__all__`` lists the public names re-exported here.
"""

from .coords import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .fitting import *  # noqa: F401,F403
from .invariants import *  # noqa: F401,F403
from .metric import *  # noqa: F401,F403
from .probability import *  # noqa: F401,F403

__version__ = "0.1.0"
