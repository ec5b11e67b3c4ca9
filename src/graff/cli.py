"""The ``graff`` command line tool.

Subcommands expose every part of the library over flat documents (JSON, one
per line) and CSV point clouds:

    graff convert FLAT --to {stiefel|projection|projection-affine}
    graff distance FLAT FLAT [--kind K] [--infinite] [--verbose]
    graff geodesic FLAT FLAT --t T [T ...]
    graff invariant --what {dim|schubert-dim|volume|relative-volume|betti|homotopy} ARGS...
    graff sample --dist {uniform|langevin|langevin-gaussian} --seed S [--count N] ...
    graff fit --method {flat|regression|svm} [--k K] CLOUD.csv
        (errors-in-variables regression is the total-least-squares line: flat --k 1)

Each subcommand imports only the modules it runs, its parser's ``modules`` default:
``invariant`` runs without numpy, and ``convert`` without metric, probability or fitting.

Exit codes, which ``main`` alone sets: 0 on success; 2 on a usage error and on GraffError,
ValueError, TypeError, KeyError, IndexError, OSError, ArithmeticError, MemoryError (a size
too large to allocate) and RecursionError (too deeply nested JSON); 3 on the domain errors
NotSeparable, SingularPair and NotAFlat.  Flats are written as they are made, and those
made before an error are written.  Stdout holds finite numbers only, but for the bare
``inf`` of ``distance --kind martin``, and is deterministic given the flags and ``--seed``.
Input checks use one fixed relative rank tolerance, 1e-10; a document that needs a
looser orthogonality check drops ``"orthogonal": true`` to go through ``make_flat``.
The process entries run BLAS on one thread unless the environment sets its own count.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import warnings

from ._plain import DistanceKind, flat_block, fmt_float
from .errors import GraffError, NotAFlat, NotSeparable, SingularPair, _check_int

__all__ = ["main", "entry_point"]

# The names this module takes from each module of the package, bound by ``_import``; it runs
# no sample_uniform, langevin_mh_run or langevin_gaussian_run: perfbench traces them here.
_IMPORTS = {
    "coords": ("projection_affine_coords", "projection_coords", "stiefel_coords"),
    "io": ("dumps_document", "dumps_flats", "flat_from_document", "load_cloud_csv",
           "matrix_document"),
    "metric": ("affine_principal_angles", "delta_distance", "distance", "evaluate_geodesic",
               "geodesic", "infinite_metric"),
    "probability": ("LangevinGaussianParams", "LangevinParams", "MHConfig", "_kept_chain",
                    "_uniform_flats", "langevin_gaussian_run", "langevin_mh_run",
                    "random_stream", "sample_uniform"),
    "fitting": ("LabeledCloud", "PointCloud", "fit_flat", "linear_regression", "svm_hyperplane"),
    "invariants": ("betti", "dim_graff", "dim_schubert_affine", "homotopy_group",
                   "relative_volume", "volume_gr", "volume_graff"),
}


def _import(modules=_IMPORTS) -> None:
    """Bind the names taken from ``modules`` into this module: ``main`` passes its subcommand's,
    a first read of a name not bound yet (``__getattr__``) all.  A name bound already, such as
    a caller's wrapper, is kept.  ``__import__`` is what an import statement calls, so
    ``-X importtime`` logs each module."""
    for module in modules:
        names = _IMPORTS[module]
        source = __import__(module, globals(), None, names, 1)
        for name in names:
            globals().setdefault(name, getattr(source, name))


def __getattr__(name):
    if not name.startswith("__"):  # a dunder probe such as ``__path__`` loads nothing
        _import()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@contextlib.contextmanager
def _write_flats():
    """An ``emit(flat)`` that writes the documents on stdout, one write per ``flat_block`` flats
    of the first flat's size, holding at most that many; on leaving, by an error too, the rest
    are written."""
    chunk, block = [], 0

    def emit(flat):
        nonlocal block
        block = block or flat_block(flat.k, flat.n)
        chunk.append(flat)
        if len(chunk) == block:
            full, chunk[:] = chunk[:], []
            sys.stdout.write(dumps_flats(full))
    try:
        yield emit
    finally:
        sys.stdout.write(dumps_flats(chunk))


def _load_flat(path: str):
    with open(path) as handle:
        return flat_from_document(json.load(handle))


def _cmd_convert(args) -> None:
    flat = _load_flat(args.flat)
    if args.to == "stiefel":
        M = stiefel_coords(flat).Y
    elif args.to == "projection":
        M = projection_coords(flat).P
    else:
        import numpy as np

        pair = projection_affine_coords(flat)
        M = np.column_stack([pair.P, pair.b])
    print(dumps_document(matrix_document(M)))


def _cmd_distance(args) -> None:
    flat1 = _load_flat(args.flat1)
    flat2 = _load_flat(args.flat2)
    if args.verbose:
        print(dumps_document({"angles": affine_principal_angles(flat1, flat2)}))
    if args.infinite:
        value = infinite_metric(flat1, flat2, args.kind)
    elif flat1.k == flat2.k:
        value = distance(flat1, flat2, args.kind)
    else:
        value = delta_distance(flat1, flat2, args.kind)
    print(fmt_float(value))


def _cmd_geodesic(args) -> None:
    curve = geodesic(_load_flat(args.flat1), _load_flat(args.flat2))
    with _write_flats() as emit:
        for t in args.t:
            emit(evaluate_geodesic(curve, t))


def _parse_n(token: str):
    if token in ("inf", "infinity"):
        return math.inf
    return int(token)


def _volume(space: str, k: str, n: str) -> str:
    k, n = int(k), int(n)
    if space not in ("gr", "graff"):
        raise ValueError(f"volume expects 'gr' or 'graff', got {space!r}")
    return fmt_float((volume_gr if space == "gr" else volume_graff)(k, n))


# --what: its argument names (``...`` repeats the last) and the call giving the printed value.
_INVARIANTS = {
    "dim": ("K N", lambda k, n: dim_graff(int(k), int(n))),
    "schubert-dim": ("K [K ...]", lambda *d: dim_schubert_affine([int(v) for v in d])),
    "volume": ("gr|graff K N", _volume),
    "relative-volume": ("K L N",
                        lambda k, l, n: fmt_float(relative_volume(int(k), int(l), int(n)))),
    "betti": ("K I", lambda k, i: betti(int(k), int(i))),
    "homotopy": ("K N|inf R", lambda k, n, r: homotopy_group(int(k), _parse_n(n), int(r)).value),
}


def _cmd_invariant(args) -> None:
    names, call = _INVARIANTS[args.what]
    if "..." not in names and len(args.args) != len(names.split()):
        raise ValueError(f"--what {args.what} takes the arguments {names}; got {len(args.args)}")
    print(call(*args.args))


def _load_params(args):
    if not args.params:
        raise ValueError(f"--dist {args.dist} requires --params FILE")
    with open(args.params) as handle:
        doc = json.load(handle)
    fields = ("S", "k", "n") + (("sigma2",) if args.dist == "langevin-gaussian" else ())
    missing = [name for name in fields if name not in doc] if isinstance(doc, dict) else fields
    if missing:
        raise ValueError(f"params document {args.params} must be a JSON object with the fields"
                         f" {', '.join(fields)}; it lacks {', '.join(missing)}")
    params = LangevinParams if args.dist == "langevin" else LangevinGaussianParams
    return params(**{name: doc[name] for name in fields})


def _cmd_sample(args) -> None:
    count = _check_int(args.count, "count", 1)
    rng = random_stream(_check_int(args.seed, "seed", 0))
    config = MHConfig(**{key: value for key, value in vars(args).items()  # flags given
                         if key in ("step_size", "burn_in", "thin")})
    if args.dist == "uniform" and (args.k is None or args.n is None):
        raise ValueError("--dist uniform requires --k and --n")
    params = None if args.dist == "uniform" else _load_params(args)
    with _write_flats() as emit:
        if params is None:
            for flat in _uniform_flats(args.k, args.n, count, rng):
                emit(flat)
        else:
            _kept_chain(params, count, config, rng, emit)


def _cmd_fit(args) -> None:
    data = load_cloud_csv(args.cloud)
    coefficients = None
    if args.method == "flat":
        if args.k is None:
            raise ValueError("--method flat requires --k")
        flat = fit_flat(PointCloud(data), args.k)
    elif data.shape[1] < 2:
        raise ValueError(f"{args.method} needs at least one column before the last")
    elif args.method == "regression":
        flat, beta = linear_regression(data[:, :-1], data[:, -1])
        coefficients = {"beta": beta}
    else:
        flat, w, beta = svm_hyperplane(LabeledCloud(data[:, :-1], data[:, -1]))
        coefficients = {"w": w, "beta": beta}
    with _write_flats() as emit:
        emit(flat)
    if coefficients is not None:
        print(dumps_document(coefficients))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graff", description="Affine subspaces: coordinates, distances, sampling, fitting."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert a flat document to other coordinates")
    p.add_argument("flat", help="flat document (JSON file)")
    p.add_argument("--to", required=True, choices=["stiefel", "projection", "projection-affine"])
    p.set_defaults(func=_cmd_convert, modules=("coords", "io"))

    p = sub.add_parser("distance", help="distance between two flats")
    p.add_argument("flat1")
    p.add_argument("flat2")
    p.add_argument("--kind", default="grassmann", choices=[kind.value for kind in DistanceKind])
    p.add_argument("--infinite", action="store_true", help="use the cross-dimension metric")
    p.add_argument("--verbose", action="store_true", help="also print the principal angles")
    p.set_defaults(func=_cmd_distance, modules=("io", "metric"))

    p = sub.add_parser("geodesic", help="evaluate the minimizing geodesic between two flats")
    p.add_argument("flat1")
    p.add_argument("flat2")
    p.add_argument("--t", type=float, nargs="+", required=True, help="parameter values")
    p.set_defaults(func=_cmd_geodesic, modules=("io", "metric"))

    p = sub.add_parser("invariant", help="closed-form invariants")
    p.add_argument("--what", required=True, choices=list(_INVARIANTS),
                   help="; ".join(f"{what} {names}" for what, (names, _) in _INVARIANTS.items()))
    p.add_argument("args", nargs="+", help="arguments of the chosen invariant")
    p.set_defaults(func=_cmd_invariant, modules=("invariants",))

    p = sub.add_parser("sample", help="draw flats from a distribution")
    p.add_argument("--dist", required=True, choices=["uniform", "langevin", "langevin-gaussian"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--k", type=int, help="flat dimension (uniform)")
    p.add_argument("--n", type=int, help="ambient dimension (uniform)")
    p.add_argument("--params", help="JSON parameter file (langevin variants)")
    p.add_argument("--step-size", type=float, default=argparse.SUPPRESS, dest="step_size")
    p.add_argument("--burn-in", type=int, default=argparse.SUPPRESS, dest="burn_in")
    p.add_argument("--thin", type=int, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_sample, modules=("io", "probability"))

    p = sub.add_parser("fit", help="fit a flat to a point cloud")
    p.add_argument("--method", required=True, choices=["flat", "regression", "svm"])
    p.add_argument("--k", type=int, help="flat dimension (method=flat)")
    p.add_argument("cloud", help="CSV cloud document")
    p.set_defaults(func=_cmd_fit, modules=("io", "fitting"))
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    _import(args.modules)
    format_warning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        args.func(args)
    except (NotSeparable, SingularPair, NotAFlat) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (GraffError, ValueError, TypeError, KeyError, IndexError, OSError,
            ArithmeticError, MemoryError, RecursionError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = format_warning
    return 0


def _format_warning(message, category, *_) -> str:
    """A printed warning as one line, ``Category: message``, without the code location."""
    return f"{category.__name__}: {message}\n"


def entry_point() -> None:
    """The ``graff`` script and ``python -m graff``: one BLAS thread unless the environment sets
    another, before numpy loads, so the printed digits do not follow the machine's core count."""
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    sys.exit(main())
