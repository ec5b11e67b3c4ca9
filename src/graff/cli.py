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

Exit codes: 0 on success, 2 on input or usage errors and on results that do
not fit in a float (ArithmeticError), 3 on domain errors (NotSeparable,
SingularPair, NotAFlat).  Output is deterministic given the
flags and ``--seed``.  The default tolerance of the checks on input may be
overridden with ``--tol`` or the ``GRAFF_TOL`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import invariants
from .config import get_default_tol, set_default_tol
from .coords import projection_affine_coords, projection_coords, stiefel_coords
from .errors import GraffError, NotAFlat, NotSeparable, SingularPair
from .fitting import LabeledCloud, PointCloud, fit_flat, linear_regression, svm_hyperplane
from .io import (
    dumps_document,
    flat_from_document,
    flat_to_document,
    fmt_float,
    load_cloud_csv,
    matrix_document,
)
from .metric import (
    DistanceKind,
    affine_principal_angles,
    delta_distance,
    distance,
    evaluate_geodesic,
    geodesic,
    infinite_metric,
)
from .probability import (
    LangevinGaussianParams,
    LangevinParams,
    MHConfig,
    _chain_length,
    langevin_gaussian_run,
    langevin_mh_run,
    random_stream,
    sample_uniform,
)

__all__ = ["main", "entry_point"]


def _load_flat(path: str):
    with open(path) as handle:
        return flat_from_document(json.load(handle))


def _cmd_convert(args) -> int:
    flat = _load_flat(args.flat)
    if args.to == "stiefel":
        M = stiefel_coords(flat).Y
    elif args.to == "projection":
        M = projection_coords(flat).P
    else:
        pair = projection_affine_coords(flat)
        M = np.column_stack([pair.P, pair.b])
    print(dumps_document(matrix_document(M)))
    return 0


def _cmd_distance(args) -> int:
    flat1 = _load_flat(args.flat1)
    flat2 = _load_flat(args.flat2)
    if args.verbose:
        angles = affine_principal_angles(flat1, flat2)
        print(dumps_document({"angles": [float(t) for t in angles]}))
    if args.infinite:
        value = infinite_metric(flat1, flat2, args.kind)
    elif flat1.k == flat2.k:
        value = distance(flat1, flat2, args.kind)
    else:
        value = delta_distance(flat1, flat2, args.kind)
    print(fmt_float(value))
    return 0


def _cmd_geodesic(args) -> int:
    curve = geodesic(_load_flat(args.flat1), _load_flat(args.flat2))
    for t in args.t:
        print(dumps_document(flat_to_document(evaluate_geodesic(curve, t))))
    return 0


def _parse_n(token: str):
    if token in ("inf", "infinity"):
        return math.inf
    return int(token)


def _cmd_invariant(args) -> int:
    what, values = args.what, args.args
    if what == "dim":
        k, n = (int(v) for v in values)
        print(invariants.dim_graff(k, n))
    elif what == "schubert-dim":
        print(invariants.dim_schubert_affine([int(v) for v in values]))
    elif what == "volume":
        space, k, n = values[0], int(values[1]), int(values[2])
        if space == "gr":
            print(fmt_float(invariants.volume_gr(k, n)))
        elif space == "graff":
            print(fmt_float(invariants.volume_graff(k, n)))
        else:
            raise ValueError(f"volume expects 'gr' or 'graff', got {space!r}")
    elif what == "relative-volume":
        k, l, n = (int(v) for v in values)
        print(fmt_float(invariants.relative_volume(k, l, n)))
    elif what == "betti":
        k, i = (int(v) for v in values)
        print(invariants.betti(k, i))
    else:
        k, n, r = int(values[0]), _parse_n(values[1]), int(values[2])
        print(invariants.homotopy_group(k, n, r).value)
    return 0


def _load_params(args):
    if not args.params:
        raise ValueError(f"--dist {args.dist} requires --params FILE")
    with open(args.params) as handle:
        doc = json.load(handle)
    S, k, n = doc["S"], doc["k"], doc["n"]
    if args.dist == "langevin":
        return LangevinParams(S=S, k=k, n=n)
    return LangevinGaussianParams(S=S, sigma2=doc["sigma2"], k=k, n=n)


def _cmd_sample(args) -> int:
    count = invariants._check_int(args.count, "count", 1)
    rng = random_stream(args.seed)
    config = MHConfig(step_size=args.step_size, burn_in=args.burn_in, thin=args.thin)
    if args.dist == "uniform":
        if args.k is None or args.n is None:
            raise ValueError("--dist uniform requires --k and --n")
        flats = [sample_uniform(args.k, args.n, rng) for _ in range(count)]
    elif args.dist == "langevin":
        params = _load_params(args)
        flats, _ = langevin_mh_run(params, _chain_length(config, count), config.step_size,
                                   rng, burn_in=config.burn_in, thin=config.thin)
    else:
        flats = langevin_gaussian_run(_load_params(args), count, config, rng)
    for flat in flats:
        print(dumps_document(flat_to_document(flat)))
    return 0


def _cmd_fit(args) -> int:
    data = load_cloud_csv(args.cloud)
    if args.method == "flat":
        if args.k is None:
            raise ValueError("--method flat requires --k")
        print(dumps_document(flat_to_document(fit_flat(PointCloud(data), args.k))))
        return 0
    if data.shape[1] < 2:
        raise ValueError(f"{args.method} needs at least one column before the last")
    if args.method == "regression":
        flat, beta = linear_regression(data[:, :-1], data[:, -1])
        print(dumps_document(flat_to_document(flat)))
        print(dumps_document({"beta": [float(b) for b in beta]}))
    else:
        flat, w, beta = svm_hyperplane(LabeledCloud(data[:, :-1], data[:, -1]))
        print(dumps_document(flat_to_document(flat)))
        print(dumps_document({"w": [float(v) for v in w], "beta": float(beta)}))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graff", description="Affine subspaces: coordinates, distances, sampling, fitting."
    )
    parser.add_argument("--tol", type=float, help="override the default numerical tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert a flat document to other coordinates")
    p.add_argument("flat", help="flat document (JSON file)")
    p.add_argument("--to", required=True, choices=["stiefel", "projection", "projection-affine"])
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("distance", help="distance between two flats")
    p.add_argument("flat1")
    p.add_argument("flat2")
    p.add_argument("--kind", default="grassmann", choices=[kind.value for kind in DistanceKind])
    p.add_argument("--infinite", action="store_true", help="use the cross-dimension metric")
    p.add_argument("--verbose", action="store_true", help="also print the principal angles")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("geodesic", help="evaluate the minimizing geodesic between two flats")
    p.add_argument("flat1")
    p.add_argument("flat2")
    p.add_argument("--t", type=float, nargs="+", required=True, help="parameter values")
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("invariant", help="closed-form invariants")
    p.add_argument(
        "--what",
        required=True,
        choices=["dim", "schubert-dim", "volume", "relative-volume", "betti", "homotopy"],
    )
    p.add_argument("args", nargs="+", help="arguments of the chosen invariant")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("sample", help="draw flats from a distribution")
    p.add_argument("--dist", required=True, choices=["uniform", "langevin", "langevin-gaussian"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--k", type=int, help="flat dimension (uniform)")
    p.add_argument("--n", type=int, help="ambient dimension (uniform)")
    p.add_argument("--params", help="JSON parameter file (langevin variants)")
    p.add_argument("--step-size", type=float, default=0.1, dest="step_size")
    p.add_argument("--burn-in", type=int, default=1000, dest="burn_in")
    p.add_argument("--thin", type=int, default=10)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("fit", help="fit a flat to a point cloud")
    p.add_argument("--method", required=True, choices=["flat", "regression", "svm"])
    p.add_argument("--k", type=int, help="flat dimension (method=flat)")
    p.add_argument("cloud", help="CSV cloud document")
    p.set_defaults(func=_cmd_fit)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    saved_tol = get_default_tol()
    try:
        if args.tol is not None:
            set_default_tol(args.tol)
        elif os.environ.get("GRAFF_TOL"):
            set_default_tol(float(os.environ["GRAFF_TOL"]))
        return args.func(args)
    except (NotSeparable, SingularPair, NotAFlat) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (GraffError, ValueError, TypeError, KeyError, IndexError, OSError,
            ArithmeticError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        set_default_tol(saved_tol)  # --tol and GRAFF_TOL last for one call only


def entry_point() -> None:
    sys.exit(main())
