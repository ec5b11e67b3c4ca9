"""sampling: uniform draws, Metropolis-Hastings chains and normalizers.

The write-heavy path: every operation builds fresh flats through ``unembed``,
``AffineFlat`` validation and ``projection_coords``, with no cache reuse, and
the angle kernel stays idle.  A fixed cycle of tasks runs as a closed loop:

* ``sample_uniform`` batches, each with draws at (k, n) = (1, 3), (2, 5)
  and (4, 12);
* ``langevin_mh_run`` chains at (1, 3) and (2, 5) with non-isotropic S,
  burn-in and thinning, and ``langevin_gaussian_run`` at (2, 5);
* ``langevin_normalizer`` and ``grassmann_normalizer``, at non-isotropic S
  and at S = c I, where the estimate is exact.

Every other cycle also calls ``langevin_normalizer`` at the concentrated
S = 800 e1 e1^T, (k, n) = (1, 3): a known defect that raises a raw
``OverflowError``.  It stays in the mix; its failures are counted as a
known defect, apart from ``failed``.
"""

from __future__ import annotations

import math
import time

import numpy as np

import reference
from harness import Clock, api_namespace
from layers import PUBLIC, TAGS

LIGHT, HEAVY, LATENCY = ("uniform", "normalizer"), ("mh",), "uniform"

UNIFORM_SIZES = ((1, 3), (2, 5), (4, 12))
BATCH = 50  # draws per size in one batch, the light request
NORMALIZER_SAMPLES = 200
CHAIN_STEPS, BURN_IN, THIN, STEP_SIZE = 600, 100, 5, 0.35
GAUSSIAN_COUNT = 40
ISOTROPIC_C = 0.7
DEFECT_EVERY = 2  # cycles per concentrated-S normalizer call, from the first
CALLS = ("sample_uniform", "langevin_mh_run", "langevin_gaussian_run",
         "langevin_normalizer", "grassmann_normalizer")


def _spd(rng, size, scale):
    """A fixed non-isotropic symmetric matrix."""
    G = rng.standard_normal((size, size))
    return scale * (G + G.T) / 2.0


class Workload:
    rss = "self"

    def __init__(self, graff, seed: int, workdir, scale: float = 1.0):
        self.graff = graff
        self.seed = seed
        self.dir = workdir
        self.scale = scale
        self.batch = max(2, round(BATCH * scale))
        self.steps = max(40, round(CHAIN_STEPS * scale))
        self.burn_in = max(5, round(BURN_IN * scale))
        self.count = max(4, round(GAUSSIAN_COUNT * scale))
        self.samples = max(100, round(NORMALIZER_SAMPLES * scale))

    def setup(self) -> None:
        """Parameters from the seed, then one untimed cycle as warm-up."""
        g = self.graff
        rng = np.random.default_rng([self.seed, 2])
        self.chain_params = [
            g.LangevinParams(S=_spd(rng, 4, 1.5), k=1, n=3),
            g.LangevinParams(S=_spd(rng, 6, 1.0), k=2, n=5),
        ]
        self.gaussian_params = g.LangevinGaussianParams(S=_spd(rng, 5, 1.0), sigma2=0.5, k=2, n=5)
        self.config = g.MHConfig(step_size=STEP_SIZE, burn_in=self.burn_in, thin=THIN)
        self.normalizer_S = (_spd(rng, 4, 1.0), _spd(rng, 5, 0.8))
        concentrated = np.zeros((4, 4))
        concentrated[0, 0] = 800.0
        self.concentrated = g.LangevinParams(S=concentrated, k=1, n=3)
        self.chains = []
        self._cycle(api_namespace({c: PUBLIC[c] for c in CALLS}), Clock(g.GraffError),
                    np.random.default_rng([self.seed, 3]), _Moments(), 0)

    def run(self, seconds: float, clock, tracer=None) -> dict:
        api = api_namespace({c: PUBLIC[c] for c in CALLS}, tracer, TAGS)
        rng = np.random.default_rng(self.seed)
        moments = _Moments()
        self.chains = []
        deadline = time.perf_counter() + seconds
        cycle, known = 0, clock.known
        while cycle == 0 or time.perf_counter() < deadline:
            self._cycle(api, clock, rng, moments, cycle)
            cycle += 1
        moments.check(clock)
        defects = len(range(0, cycle, DEFECT_EVERY))
        acceptance = [a for a, _ in self.chains]
        return {
            "probability.mh.acceptance": float(np.median(acceptance)) if acceptance else 0.0,
            "probability.mh.ess_per_step": float(np.median([e for _, e in self.chains]))
            if self.chains else 0.0,
            "probability.known_defect_share": defects / clock.attempted if clock.attempted else 0.0,
            "probability.concentrated_overflow_share": (clock.known - known) / defects,
        }

    @staticmethod
    def report(clock, props) -> list[tuple]:
        return [
            ("uniform_draws_per_s", clock.rate(("uniform",)), "draws/s", clock.units["uniform"]),
            ("mh_steps_per_s", clock.rate(("mh",)), "steps/s", clock.units["mh"]),
            ("normalizer_samples_per_s", clock.rate(("normalizer",)), "samples/s",
             clock.units["normalizer"]),
        ]

    def _cycle(self, api, clock, rng, moments, cycle) -> None:
        for index in range(3):
            with clock.round("uniform", "batch", calibrations=3):
                self._uniform_batch(api, clock, rng, moments)
            if index == 0:
                self._langevin_normalizer(api, clock, rng, self.chain_params[0].S, 1, 3)
            elif index == 1:
                self._grassmann_normalizer(api, clock, rng, self.normalizer_S[1], 2, 5)
            else:
                self._langevin_normalizer(api, clock, rng, ISOTROPIC_C * np.eye(6), 2, 5)
                self._grassmann_normalizer(api, clock, rng, ISOTROPIC_C * np.eye(5), 2, 5)
        for params in self.chain_params:
            with clock.round("mh", ("chain", params.k)):
                self._chain(api, clock, rng, params)
        with clock.round("mh", ("gaussian",)):
            self._gaussian(api, clock, rng)
        if cycle % DEFECT_EVERY == 0:
            clock.call("normalizer", api.langevin_normalizer, self.concentrated, self.samples, rng,
                       units=self.samples, known="langevin_normalizer overflows at concentrated S")

    def _uniform_batch(self, api, clock, rng, moments) -> None:
        for k, n in UNIFORM_SIZES:
            for _ in range(self.batch):
                flat = clock.call("uniform", api.sample_uniform, k, n, rng)
                if flat is None:
                    continue
                if clock.check(flat.k == k and flat.n == n,
                               f"uniform draw has shape ({flat.k}, {flat.n})"):
                    moments.add((k, n), 1.0 / (1.0 + float(flat.b0 @ flat.b0)))

    def _langevin_normalizer(self, api, clock, rng, S, k, n) -> None:
        params = self.graff.LangevinParams(S=S, k=k, n=n)
        with clock.round("normalizer", ("langevin", k, n, float(S[0, 0]))):
            result = clock.call("normalizer", api.langevin_normalizer, params, self.samples, rng,
                                units=self.samples)
        if result is not None:
            _check_normalizer(clock, result, params.S, k + 1, "langevin")

    def _grassmann_normalizer(self, api, clock, rng, S, k, n) -> None:
        with clock.round("normalizer", ("grassmann", k, n, float(S[0, 0]))):
            result = clock.call("normalizer", api.grassmann_normalizer, S, k, n, self.samples, rng,
                                units=self.samples)
        if result is not None:
            _check_normalizer(clock, result, (S + S.T) / 2.0, k, "grassmann")

    def _chain(self, api, clock, rng, params) -> None:
        out = clock.call("mh", api.langevin_mh_run, params, self.steps, STEP_SIZE, rng,
                         burn_in=self.burn_in, thin=THIN, units=self.steps)
        if out is None:
            return
        samples, acceptance = out
        expected = len(range(self.burn_in, self.steps, THIN))
        clock.check(len(samples) == expected, f"chain kept {len(samples)} states, expected {expected}")
        clock.check(0.05 < acceptance < 0.95, f"acceptance {acceptance:.3f} outside (0.05, 0.95)")
        trace = [float(np.sum(params.S * reference.projection(f))) for f in samples]
        self.chains.append((acceptance, reference.ess(trace) / self.steps))

    def _gaussian(self, api, clock, rng) -> None:
        config = self.config
        steps = config.burn_in + 1 + (self.count - 1) * config.thin
        flats = clock.call("mh", api.langevin_gaussian_run, self.gaussian_params, self.count, config,
                           rng, units=steps)
        if flats is None:
            return
        clock.check(len(flats) == self.count, f"gaussian run returned {len(flats)} flats")
        for flat in flats:
            A, b0 = flat.A, flat.b0
            ok = (np.abs(A.T @ A - np.eye(A.shape[1])).max() <= 1e-10
                  and np.abs(A.T @ b0).max() <= 1e-10 * max(1.0, float(np.linalg.norm(b0))))
            clock.check(ok, "Langevin-Gaussian flat has A^T b0 != 0 or A not orthonormal")


def _check_normalizer(clock, result, S, rank, name) -> None:
    """At S = c I the estimate is exactly exp(c * rank) with zero error;
    otherwise it lies between exp of the sums of the extreme eigenvalues."""
    estimate, std_error = result
    eig = np.linalg.eigvalsh(S)
    if np.allclose(S, S[0, 0] * np.eye(S.shape[0]), rtol=0.0, atol=0.0):
        exact = math.exp(S[0, 0] * rank)
        clock.check(abs(estimate - exact) <= 1e-12 * exact and std_error <= 1e-12 * exact,
                    f"{name} normalizer at S = cI gave {estimate!r} +- {std_error!r}, exact {exact!r}")
        return
    low, high = math.exp(eig[:rank].sum()), math.exp(eig[-rank:].sum())
    clock.check(low * (1 - 1e-12) <= estimate <= high * (1 + 1e-12) and 0.0 <= std_error < math.inf,
                f"{name} normalizer {estimate!r} outside [{low!r}, {high!r}]")


class _Moments:
    """Running mean of the corner entry P[n, n] = 1 / (1 + |b0|^2) of uniform draws.

    Its expectation is (k + 1) / (n + 1), because the mean projection of a
    uniform (k+1)-plane in R^(n+1) is ((k + 1) / (n + 1)) I.
    """

    def __init__(self):
        self.sums: dict = {}

    def add(self, size, value) -> None:
        count, total, squares = self.sums.get(size, (0, 0.0, 0.0))
        self.sums[size] = (count + 1, total + value, squares + value * value)

    def check(self, clock) -> None:
        zs = []
        for (k, n), (count, total, squares) in self.sums.items():
            if count < 30:
                continue
            mean = total / count
            var = max(squares / count - mean * mean, 0.0) * count / (count - 1)
            z = (mean - (k + 1) / (n + 1)) / math.sqrt(var / count)
            zs.append(z)
            # One size off by much is a failure on its own.
            clock.check(abs(z) <= 6.0, f"uniform mean projection at ({k}, {n}) is {z:.1f} SE off")
        if zs:
            combined = sum(zs) / math.sqrt(len(zs))
            clock.check(abs(combined) <= 4.0,
                        f"uniform mean projection is {combined:.1f} SE off over all sizes")
