"""graff's layers as the traced run sees them.

The layers are the modules of ``src/graff``: coords, metric, probability,
fitting, io, cli and invariants (config and errors do no work).  This module
names the span of every public call the workloads make, lists the names one
layer imports from another (patched in the traced run, so calls across a
layer boundary inside the library get spans too), and turns the spans of one
run into the per-layer metrics declared in BENCHMARK.json.
"""

from __future__ import annotations

from collections import defaultdict

from spans import Tracer, self_times

WIDE_N = 12  # flats with a larger ambient dimension belong to the wide class

PUBLIC = {
    "make_flat": "coords.make_flat",
    "stiefel_coords": "coords.stiefel_coords",
    "projection_coords": "coords.projection_coords",
    "unembed": "coords.unembed",
    "distance": "metric.distance",
    "delta_distance": "metric.delta_distance",
    "infinite_metric": "metric.infinite_metric",
    "affine_principal_angles": "metric.affine_principal_angles",
    "principal_decomposition": "metric.principal_decomposition",
    "geodesic": "metric.geodesic",
    "evaluate_geodesic": "metric.evaluate_geodesic",
    "sample_uniform": "probability.sample_uniform",
    "langevin_mh_run": "probability.langevin_mh_run",
    "langevin_gaussian_run": "probability.langevin_gaussian_run",
    "langevin_normalizer": "probability.langevin_normalizer",
    "grassmann_normalizer": "probability.grassmann_normalizer",
    "fit_flat": "fitting.fit_flat",
    "linear_regression": "fitting.linear_regression",
    "svm_hyperplane": "fitting.svm_hyperplane",
    "load_cloud_csv": "io.load_cloud_csv",
    "flat_from_document": "io.flat_from_document",
    "dumps_document": "io.dumps_document",
}


def _ambient(flat, *_):
    return {"n": flat.n}


def _cached(flat, *_):
    return {"cached": getattr(flat, "_stiefel", None) is not None}


def _mh_steps(params, n_steps, *_):
    return {"steps": int(n_steps)}


def _gaussian_steps(params, count, config, *_):
    return {"steps": config.burn_in + 1 + (int(count) - 1) * config.thin}


def _samples(*args):
    return {"samples": int(args[-2])}


TAGS = {
    "distance": _ambient,
    "stiefel_coords": _cached,
    "langevin_mh_run": _mh_steps,
    "langevin_gaussian_run": _gaussian_steps,
    "langevin_normalizer": _samples,
    "grassmann_normalizer": _samples,
}


def internal_targets() -> list:
    """Names one graff module imported from another, as ``patched`` targets."""
    import graff.cli
    import graff.fitting
    import graff.io
    import graff.metric
    import graff.probability

    targets = [(graff.coords.AffineFlat, "__post_init__", "coords.affine_flat", None)]
    crossings = {
        graff.metric: ("stiefel_coords", "unembed"),
        graff.probability: ("stiefel_coords", "unembed", "projection_coords"),
        graff.io: ("make_flat",),
        graff.fitting: ("make_flat",),
        graff.cli: (
            "flat_from_document", "dumps_document", "load_cloud_csv", "stiefel_coords",
            "projection_coords", "affine_principal_angles", "distance", "delta_distance",
            "infinite_metric", "geodesic", "evaluate_geodesic", "sample_uniform",
            "langevin_mh_run", "langevin_gaussian_run", "fit_flat", "linear_regression",
            "svm_hyperplane",
        ),
    }
    for module, names in crossings.items():
        for name in names:
            targets.append((module, name, PUBLIC[name], TAGS.get(name)))
    return targets


SELF_SHARE_LAYERS = ("coords", "metric", "probability", "fitting", "io", "cli")
SUBCOMMANDS = ("convert", "distance", "geodesic", "invariant", "sample", "fit")

# (name, unit, better); the order is the order of BENCHMARK.json's per_layer list.
# Shares, counts and acceptance describe the workload; "better" for them only
# says which way a change would be welcome.
PER_LAYER = [
    ("coords.make_flat.us", "us", "lower"),
    ("coords.affine_flat.us", "us", "lower"),
    ("coords.unembed.us", "us", "lower"),
    ("coords.stiefel_coords.us", "us", "lower"),
    ("coords.stiefel_coords.cached_us", "us", "lower"),
    ("coords.projection_coords.us", "us", "lower"),
    ("coords.stiefel_reuse", "count", "higher"),
    ("metric.distance.us.small", "us", "lower"),
    ("metric.distance.us.wide", "us", "lower"),
    ("metric.delta_distance.us", "us", "lower"),
    ("metric.infinite_metric.us", "us", "lower"),
    ("metric.affine_principal_angles.us", "us", "lower"),
    ("metric.principal_decomposition.us", "us", "lower"),
    ("metric.geodesic.us", "us", "lower"),
    ("metric.evaluate_geodesic.us", "us", "lower"),
    ("metric.near_equal_share", "ratio", "higher"),
    ("metric.twin_geodesic_miss_share", "ratio", "lower"),
    ("metric.singular_pair_refusals", "count", "lower"),
    ("metric.wide_time_share", "ratio", "higher"),
    ("probability.sample_uniform.us", "us", "lower"),
    ("probability.langevin_mh_run.us_per_step", "us", "lower"),
    ("probability.langevin_gaussian_run.us_per_step", "us", "lower"),
    ("probability.mh.acceptance", "ratio", "higher"),
    ("probability.mh.ess_per_step", "1/step", "higher"),
    ("probability.langevin_normalizer.us_per_sample", "us", "lower"),
    ("probability.grassmann_normalizer.us_per_sample", "us", "lower"),
    ("probability.known_defect_share", "ratio", "lower"),
    ("probability.concentrated_overflow_share", "ratio", "lower"),
    ("fitting.fit_flat.ms", "ms", "lower"),
    ("fitting.linear_regression.ms", "ms", "lower"),
    ("fitting.svm_hyperplane.ms", "ms", "lower"),
    ("io.load_cloud_csv.ms", "ms", "lower"),
    ("io.flat_from_document.us", "us", "lower"),
    ("io.dumps_document.us", "us", "lower"),
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_numpy_s", "s", "lower"),
    ("cli.import_graff_s", "s", "lower"),
    ("cli.modules_loaded", "count", "lower"),
    ("cli.scipy_loaded", "flag", "lower"),
    *[(f"cli.main.{sub}.ms", "ms", "lower") for sub in SUBCOMMANDS],
    *[(f"{layer}.self_share", "ratio", "lower") for layer in SELF_SHARE_LAYERS],
    ("trace.overhead.light", "ratio", "lower"),
    ("trace.overhead.heavy", "ratio", "lower"),
]


def self_shares(tracer: Tracer) -> dict[str, float]:
    """Share of the workload's traced time that is self time in each layer."""
    selfs = self_times(tracer.spans)
    busy: defaultdict = defaultdict(float)
    total = 0.0
    for span, own in zip(tracer.spans, selfs):
        if span.phase != "workload":
            continue
        busy[span.layer] += own
        if span.parent < 0:
            total += span.duration
    return {layer: busy[layer] / total if total else 0.0 for layer in SELF_SHARE_LAYERS}


def per_layer_metrics(tracer: Tracer, properties: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    Per-call timings are medians over the workload's spans of that call; a
    call the workload never makes is timed by the probe that ends every
    traced run.  ``properties`` holds the values the workload and probe
    measured themselves (shares, counts, acceptance, overhead).
    """
    m = tracer.median
    lookups = [s for s in tracer.select("coords.stiefel_coords", "workload")]
    first = sum(not s.tags["cached"] for s in lookups)
    values = {
        "coords.make_flat.us": m("coords.make_flat"),
        "coords.affine_flat.us": m("coords.affine_flat"),
        "coords.unembed.us": m("coords.unembed"),
        "coords.stiefel_coords.us": m("coords.stiefel_coords", where=lambda s: not s.tags["cached"]),
        "coords.stiefel_coords.cached_us": m("coords.stiefel_coords", where=lambda s: s.tags["cached"]),
        "coords.projection_coords.us": m("coords.projection_coords"),
        "coords.stiefel_reuse": (len(lookups) - first) / first if first else 0.0,
        "metric.distance.us.small": m("metric.distance", where=lambda s: s.tags["n"] <= WIDE_N),
        "metric.distance.us.wide": m("metric.distance", where=lambda s: s.tags["n"] > WIDE_N),
        "metric.delta_distance.us": m("metric.delta_distance"),
        "metric.infinite_metric.us": m("metric.infinite_metric"),
        "metric.affine_principal_angles.us": m("metric.affine_principal_angles"),
        "metric.principal_decomposition.us": m("metric.principal_decomposition"),
        "metric.geodesic.us": m("metric.geodesic"),
        "metric.evaluate_geodesic.us": m("metric.evaluate_geodesic"),
        "probability.sample_uniform.us": m("probability.sample_uniform"),
        "probability.langevin_mh_run.us_per_step": m("probability.langevin_mh_run", per="steps"),
        "probability.langevin_gaussian_run.us_per_step": m(
            "probability.langevin_gaussian_run", per="steps"),
        "probability.langevin_normalizer.us_per_sample": m(
            "probability.langevin_normalizer", per="samples"),
        "probability.grassmann_normalizer.us_per_sample": m(
            "probability.grassmann_normalizer", per="samples"),
        "fitting.fit_flat.ms": m("fitting.fit_flat", 1e3),
        "fitting.linear_regression.ms": m("fitting.linear_regression", 1e3),
        "fitting.svm_hyperplane.ms": m("fitting.svm_hyperplane", 1e3),
        "io.load_cloud_csv.ms": m("io.load_cloud_csv", 1e3),
        "io.flat_from_document.us": m("io.flat_from_document"),
        "io.dumps_document.us": m("io.dumps_document"),
        "cli.interpreter_s": m("cli.interpreter", 1.0),
        "cli.import_numpy_s": m("cli.import_numpy", 1.0),
        "cli.import_graff_s": m("cli.import_graff", 1.0),
        "cli.modules_loaded": tracer.tag_median("cli.import_graff", "modules"),
        "cli.scipy_loaded": tracer.tag_median("cli.import_graff", "scipy"),
    }
    for sub in SUBCOMMANDS:
        values[f"cli.main.{sub}.ms"] = m(f"cli.main.{sub}", 1e3)
    for layer, share in self_shares(tracer).items():
        values[f"{layer}.self_share"] = share
    for name, _, _ in PER_LAYER:
        values.setdefault(name, float(properties.get(name, 0.0)))
    return values
