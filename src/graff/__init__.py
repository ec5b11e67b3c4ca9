"""Affine subspaces of Euclidean space.

Coordinates and conversions for k-flats, distances and geodesics between
them, closed-form topological and volumetric invariants, probability
distributions with samplers, and classical estimators posed as searches for
a best flat.  Each module's ``__all__`` lists the public names re-exported here.

Modules load on first use (PEP 562): ``import graff`` loads none of them, a
public name loads the modules, cheapest first, up to the one defining it, and
``dir(graff)`` or ``from graff import *`` loads them all.
"""

__version__ = "0.1.0"
_MODULES = ("errors", "invariants", "coords", "metric", "fitting", "probability")


def __getattr__(name):
    if name in _MODULES:
        __import__(f"{__name__}.{name}")  # as an import statement, so -X importtime sees it
        return globals()[name]
    if name == "__all__":
        return [*_MODULES, *(public for m in map(__getattr__, _MODULES) for public in m.__all__)]
    if not name.startswith("_"):  # ``from . import _lapack`` probes the package first
        for module in map(__getattr__, _MODULES):
            if name in module.__all__:
                globals()[name] = value = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    names = __getattr__("__all__")  # loads every module first
    return sorted({*names, *globals()} - {"_MODULES", "__getattr__", "__dir__"})
