"""metric_sweep: clouds of flats queried pairwise, the read-heavy path.

Each round builds a cloud of flats from raw Gaussian (A, b) with
``make_flat`` and runs every pair query over it, so each flat's cached
Stiefel coordinates serve many calls.  The mix per same-dimension pair is
the nine ``distance`` kinds, ``distance`` with the arguments swapped,
``affine_principal_angles``, ``principal_decomposition`` and ``geodesic``
followed by ``evaluate_geodesic`` at t = 0, 1/2, 1; each mixed-dimension pair
gets ``delta_distance`` and ``infinite_metric`` for grassmann, chordal and
procrustes.  Some pairs are a flat and its near-equal twin: a rotated basis,
a displacement shifted along A, and a 1e-8 perturbation.

Rounds cycle through fixed size classes, so the mix does not depend on the
seed: the small class (n from 2 to 12, overhead-bound) and the wide class
((k, n) = (8, 64) and (32, 128), kernel-bound), timed apart.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

import reference
from harness import Clock, api_namespace
from layers import PUBLIC, TAGS

LIGHT, HEAVY, LATENCY = ("small",), ("wide",), "small"

# (n, k, l): the cloud holds k-flats and l-flats of R^n.
SMALL = [(2, 1, 0), (3, 1, 2), (4, 2, 1), (5, 2, 3), (6, 3, 1), (7, 2, 4),
         (8, 4, 2), (9, 3, 6), (10, 5, 2), (11, 4, 7), (12, 6, 3)]
WIDE = [(64, 8, 4), (128, 32, 16)]
KINDS = ("grassmann", "asimov", "binet_cauchy", "chordal", "fubini_study",
         "martin", "procrustes", "projection", "spectral")
CROSS_KINDS = ("grassmann", "chordal", "procrustes")
TS = (0.0, 0.5, 1.0)
CLOUD, OTHERS, TWINS = 6, 3, 2
WIDE_EVERY = 6  # one wide round after this many small rounds
ANGLE_TOL = 1e-9
SIGMA_TOL = 1e-7
CALLS = ("make_flat", "distance", "delta_distance", "infinite_metric", "affine_principal_angles",
         "principal_decomposition", "geodesic", "evaluate_geodesic")


class Workload:
    rss = "self"

    def __init__(self, graff, seed: int, workdir, scale: float = 1.0):
        self.graff = graff
        self.seed = seed
        self.dir = workdir
        self.scale = scale
        self.cloud = max(3, round(CLOUD * scale))
        self.wide = WIDE if scale >= 1.0 else [(16, 3, 2)]

    def setup(self) -> None:
        """Warm-up: one untimed round of every size class."""
        clock = Clock(self.graff.GraffError)
        api = api_namespace({c: PUBLIC[c] for c in CALLS})
        rng = np.random.default_rng([self.seed, 1])
        for sizes in SMALL + self.wide:
            _Round(self, api, clock, rng, "small").run(*sizes)

    def run(self, seconds: float, clock, tracer=None) -> dict:
        api = api_namespace({c: PUBLIC[c] for c in CALLS}, tracer, TAGS)
        rng = np.random.default_rng(self.seed)
        pairs = twins = misses = 0
        deadline = time.perf_counter() + seconds
        for index in itertools.count():
            if index % (WIDE_EVERY + 1) == WIDE_EVERY:
                cls, sizes = "wide", self.wide[(index // (WIDE_EVERY + 1)) % len(self.wide)]
            else:
                cls, sizes = "small", SMALL[(index - index // (WIDE_EVERY + 1)) % len(SMALL)]
            round_ = _Round(self, api, clock, rng, cls)
            with clock.round(cls, sizes):
                round_.run(*sizes)
            pairs += round_.pairs
            twins += round_.twins
            misses += round_.misses
            if time.perf_counter() >= deadline and index >= len(SMALL):
                break
        total = clock.seconds["small"] + clock.seconds["wide"]
        return {
            "metric.near_equal_share": twins / pairs if pairs else 0.0,
            "metric.twin_geodesic_miss_share": misses / twins if twins else 0.0,
            "metric.singular_pair_refusals": clock.refusals["SingularPair"],
            "metric.wide_time_share": clock.seconds["wide"] / total if total else 0.0,
        }

    @staticmethod
    def report(clock, props) -> list[tuple]:
        return [
            ("metric_calls_per_s", clock.rate(("small",)), "calls/s", clock.units["small"]),
            ("metric_calls_per_s_wide", clock.rate(("wide",)), "calls/s", clock.units["wide"]),
        ]


class _Round:
    """One cloud of one size class and every query over it."""

    def __init__(self, workload, api, clock, rng, cls):
        self.graff, self.api, self.clock, self.rng, self.cls = workload.graff, api, clock, rng, cls
        self.size = workload.cloud
        self.pairs = self.twins = self.misses = 0

    def call(self, fn, *args):
        return self.clock.call(self.cls, fn, *args)

    def flat(self, n, k):
        return self.call(self.api.make_flat, self.rng.standard_normal((n, k)), self.rng.standard_normal(n))

    def twin(self, flat):
        n, k = flat.A.shape
        Q = np.linalg.qr(self.rng.standard_normal((k, k)))[0]
        A = flat.A @ Q + 1e-8 * self.rng.standard_normal((n, k))
        b = flat.b0 + flat.A @ self.rng.standard_normal(k) + 1e-8 * self.rng.standard_normal(n)
        return self.call(self.api.make_flat, A, b)

    def run(self, n, k, l):
        flats = [self.flat(n, k) for _ in range(self.size)]
        others = [self.flat(n, l) for _ in range(OTHERS)]
        twins = [(flats[i], self.twin(flats[i])) for i in range(TWINS)]
        if any(f is None for f in flats + others) or any(t is None for _, t in twins):
            return
        grassmann = {}
        for i, j in itertools.combinations(range(self.size), 2):
            grassmann[i, j] = self.pair(flats[i], flats[j])
        for a, b in twins:
            self.pair(a, b, twin=True)
            self.twins += 1
        for a in flats:
            for c in others:
                self.mixed(a, c)
        # Triangle inequality on the Grassmann distances already computed.
        for i, j, m in itertools.combinations(range(self.size), 3):
            dij, djm, dim = grassmann[i, j], grassmann[j, m], grassmann[i, m]
            if None not in (dij, djm, dim):
                self.clock.check(dim <= dij + djm + 1e-10, f"triangle inequality fails at n={n}")

    def pair(self, a, b, twin=False):
        clock = self.clock
        self.pairs += 1
        ref = reference.angles(a, b)
        thetas = self.call(self.api.affine_principal_angles, a, b)
        if thetas is not None:
            clock.check(np.abs(thetas - ref).max() <= ANGLE_TOL, f"angles off at n={a.n}")
        dec = self.call(self.api.principal_decomposition, a, b)
        if dec is not None:
            clock.check(np.abs(dec.thetas - ref).max() <= ANGLE_TOL, f"decomposition off at n={a.n}")
        values = {}
        for kind in KINDS:
            values[kind] = value = self.call(self.api.distance, a, b, kind)
            if value is not None:
                tol = SIGMA_TOL if kind in reference.SIGMA_KINDS else ANGLE_TOL
                clock.check(abs(value - reference.distance(ref, kind)) <= tol,
                            f"{kind} distance off at n={a.n}")
        swapped = self.call(self.api.distance, b, a, "grassmann")
        if swapped is not None and values["grassmann"] is not None:
            clock.check(abs(swapped - values["grassmann"]) <= 1e-12, "distance not symmetric")
        curve = self.call(self.api.geodesic, a, b)
        if curve is not None:
            start, middle, end = (self.call(self.api.evaluate_geodesic, curve, t) for t in TS)
            if start is not None:
                clock.check(self.graff.equal_flats(start, a, 1e-8), "geodesic does not start at flat1")
            if end is not None and not self.graff.equal_flats(end, b, 1e-8):
                if twin:
                    # Known defect: geodesic takes the principal directions from
                    # the SVD of Y1^T Y2, whose cosines all round to 1 for flats
                    # 1e-8 apart, so the curve can end O(distance) off flat2.
                    clock.known_defect("geodesic of near-equal flats misses flat2")
                    self.misses += 1
                else:
                    clock.check(False, "geodesic does not end at flat2")
            if middle is not None:
                half = reference.distance(reference.angles(a, middle), "grassmann")
                clock.check(abs(half - 0.5 * reference.distance(ref, "grassmann")) <= 1e-8,
                            "geodesic midpoint off")
        return values["grassmann"]

    def mixed(self, a, c):
        ref = reference.angles(a, c)
        gap = abs(a.k - c.k)
        for kind in CROSS_KINDS:
            value = self.call(self.api.delta_distance, a, c, kind)
            if value is not None:
                self.clock.check(abs(value - reference.distance(ref, kind)) <= ANGLE_TOL,
                                 f"delta {kind} off at n={a.n}")
            value = self.call(self.api.infinite_metric, a, c, kind)
            if value is not None:
                self.clock.check(abs(value - reference.infinite_metric(ref, gap, kind)) <= ANGLE_TOL,
                                 f"infinite {kind} off at n={a.n}")
