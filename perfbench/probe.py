"""The fixed probe that ends every traced run.

It calls every public function the per-layer metrics name, at (k, n) =
(2, 5) unless a metric says otherwise, so that each traced run reports every
per-layer metric: a call its workload never makes is timed here instead.
Its medians also form the per-call table at (2, 5) printed by the traced run.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import numpy as np

import cli_batch
import reference
from harness import Clock, api_namespace
from layers import PUBLIC, TAGS

REPS = 100
K, N = 2, 5
WIDE = ((64, 8), (128, 32))
TABLE = [
    ("make_flat", "coords.make_flat", None),
    ("AffineFlat validation", "coords.affine_flat", None),
    ("distance (cached Stiefel coordinates)", "metric.distance", None),
    ("unembed", "coords.unembed", None),
    ("sample_uniform", "probability.sample_uniform", None),
    ("projection_coords (fresh flat)", "coords.projection_coords", None),
    ("geodesic", "metric.geodesic", None),
    ("evaluate_geodesic", "metric.evaluate_geodesic", None),
    ("one MH step", "probability.langevin_mh_run", "steps"),
    ("import graff", "cli.import_graff", None),
    ("python -m graff cold start", "cli.cold_start", None),
]


def run(graff, workload, tracer, outer: Clock) -> dict:
    """Run the probe under ``tracer`` (already in the probe phase); returns its properties."""
    from graff.io import flat_to_document

    clock = Clock(graff.GraffError)
    reps = max(5, round(REPS * workload.scale))
    api = api_namespace(PUBLIC, tracer, TAGS)
    rng = np.random.default_rng([workload.seed, 5])

    def call(fn, *args, **kwargs):
        return clock.call("probe", fn, *args, **kwargs)

    def flat(n, k):
        return call(api.make_flat, rng.standard_normal((n, k)), rng.standard_normal(n))

    for _ in range(reps):
        a, b, line = flat(N, K), flat(N, K), flat(N, 1)
        call(api.projection_coords, a)
        call(api.stiefel_coords, a)
        call(api.stiefel_coords, a)
        call(api.stiefel_coords, b)
        call(api.unembed, rng.standard_normal((N + 1, K + 1)))
        call(api.distance, a, b)
        call(api.affine_principal_angles, a, b)
        call(api.principal_decomposition, a, b)
        call(api.delta_distance, a, line)
        call(api.infinite_metric, a, line)
        curve = call(api.geodesic, a, b)
        if curve is not None:
            call(api.evaluate_geodesic, curve, 0.5)
        call(api.sample_uniform, K, N, rng)
    for n, k in WIDE:
        for _ in range(10):
            call(api.distance, flat(n, k), flat(n, k))

    S = rng.standard_normal((N + 1, N + 1))
    params = graff.LangevinParams(S=(S + S.T) / 2.0, k=K, n=N)
    steps = 400
    out = call(api.langevin_mh_run, params, steps, 0.35, rng, burn_in=50, thin=5)
    props = {}
    if out is not None:
        samples, acceptance = out
        trace = [float(np.sum(params.S * reference.projection(f))) for f in samples]
        props = {"probability.mh.acceptance": acceptance,
                 "probability.mh.ess_per_step": reference.ess(trace) / steps}
    gaussian = graff.LangevinGaussianParams(S=params.S[:N, :N], sigma2=0.5, k=K, n=N)
    call(api.langevin_gaussian_run, gaussian, 10, graff.MHConfig(0.35, 50, 5), rng)
    call(api.langevin_normalizer, params, 100, rng)
    call(api.grassmann_normalizer, params.S[:N, :N], K, N, 100, rng)

    cli = cli_batch.Workload(graff, workload.seed, _probe_dir(workload), scale=0.02)
    cli.setup()
    for name, fit in (("cloud.csv", lambda d: api.fit_flat(graff.PointCloud(d), 3)),
                      ("regression.csv", lambda d: api.linear_regression(d[:, :-1], d[:, -1])),
                      ("svm.csv", lambda d: api.svm_hyperplane(graff.LabeledCloud(d[:, :-1], d[:, -1])))):
        data = call(api.load_cloud_csv, cli.dir / name)
        if data is not None:
            call(fit, data)
    text = (cli.dir / "a.json").read_text()
    for _ in range(reps):
        parsed = call(api.flat_from_document, text)
        if parsed is not None:
            call(api.dumps_document, flat_to_document(parsed))
    cli.warm_pass(tracer, clock)
    invariant = next(c for c in cli.script if c.sub == "invariant")
    for _ in range(2):
        tracer.call("cli.interpreter", cli._invoke, [sys.executable, "-c", "pass"])
        tracer.call("cli.cold_start", cli._invoke, [sys.executable, "-m", "graff", *invariant.argv])
        cli._timed(invariant, clock, tracer)
    outer.merge(clock)
    return props


def _probe_dir(workload) -> Path:
    path = Path(workload.dir) / "probe"
    path.mkdir(exist_ok=True)
    return path


def table(tracer) -> list[tuple]:
    """Median per call of each row, over the probe's spans at (2, 5)."""
    rows = []
    for label, name, per in TABLE:
        spans = [s for s in tracer.select(name, "probe")
                 if "error" not in s.tags and s.tags.get("n", N) == N]
        if spans:
            value = statistics.median(s.duration / (s.tags[per] if per else 1) for s in spans)
            rows.append((label, value))
    return rows
