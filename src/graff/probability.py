"""Uniform, Langevin, and Langevin-Gaussian distributions on spaces of flats.

The uniform measure is the pushforward of the invariant measure on the
Grassmannian of (k+1)-planes in R^(n+1) through the embedding of flats; the
complement of the embedded image has measure zero, so rejection is a
probability-zero event.  The Langevin density is exp(tr(S P)) in projection
coordinates, normalized by a constant that we estimate by Monte Carlo as a
uniform expectation.  The Langevin-Gaussian density factors into a Langevin
density on the linear part and a spherical Gaussian on the displacement
within the orthogonal complement.

All samplers take an explicit ``numpy.random.Generator``; there is no
hidden global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from . import _lapack
from .coords import (_FLAT_TOL, AffineFlat, _as_matrix, _flat_from_frame, _freeze,
                     _orthogonal_part, _trusted, projection_coords, stiefel_coords,
                     unembed)  # noqa: F401 (projection_coords, unembed: perfbench traces them)
from .errors import DimensionError, InternalError, NotAFlat
from .invariants import _check_int, _check_positive

__all__ = [
    "random_stream",
    "LangevinParams",
    "LangevinGaussianParams",
    "MHConfig",
    "sample_uniform",
    "langevin_log_density_unnormalized",
    "langevin_normalizer",
    "grassmann_normalizer",
    "langevin_mh_run",
    "langevin_gaussian_log_density_unnormalized",
    "langevin_gaussian_run",
]

def random_stream(seed=None) -> Generator:
    """A seedable random generator; equal seeds give equal sample sequences."""
    return np.random.default_rng(seed)


def _symmetric_matrix(S, size: int, name: str) -> np.ndarray:
    S = _as_matrix(S, name)
    if S.shape != (size, size):
        raise DimensionError(f"{name} must be {size} x {size}, got {S.shape}")
    if (np.abs(S) > 1e300).any():  # the bound of sigma2 and step_size; keeps S + S^T finite
        raise DimensionError(f"{name} entries must be at most 1e+300 in absolute value")
    return _freeze(0.5 * (S + S.T))


@dataclass(frozen=True, eq=False)
class LangevinParams:
    """Parameters of the Langevin (von Mises-Fisher) density on k-flats in R^n.

    ``S`` is an (n+1) x (n+1) symmetric concentration matrix, entries at most 1e300
    in absolute value; it is symmetrized on construction.  S = 0 gives the uniform law.
    """

    S: np.ndarray
    k: int
    n: int

    def __post_init__(self):
        k = _check_int(self.k, "k", 0)
        n = _check_int(self.n, "n", k + 1)
        object.__setattr__(self, "S", _symmetric_matrix(self.S, n + 1, "S"))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)


@dataclass(frozen=True, eq=False)
class LangevinGaussianParams:
    """Parameters of the Langevin-Gaussian density on k-flats in R^n.

    ``S`` is an n x n symmetric concentration matrix for the linear part and ``sigma2``
    the variance of the Gaussian on the displacement; |S_ij| and sigma2 are at most 1e300.
    """

    S: np.ndarray
    sigma2: float
    k: int
    n: int

    def __post_init__(self):
        k = _check_int(self.k, "k", 0)
        n = _check_int(self.n, "n", k + 1)
        object.__setattr__(self, "sigma2", _check_positive(self.sigma2, "sigma2"))
        object.__setattr__(self, "S", _symmetric_matrix(self.S, n, "S"))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)


@dataclass(frozen=True)
class MHConfig:
    """Metropolis-Hastings settings: proposal scale (at most 1e300), burn-in and thinning."""

    step_size: float = 0.1
    burn_in: int = 1000
    thin: int = 10

    def __post_init__(self):
        object.__setattr__(self, "step_size", _check_positive(self.step_size, "step_size"))
        object.__setattr__(self, "burn_in", _check_int(self.burn_in, "burn_in", 0))
        object.__setattr__(self, "thin", _check_int(self.thin, "thin", 1))


def _chain_length(config: MHConfig, count: int) -> int:
    """Steps of a chain that keeps ``count`` states after burn-in and thinning."""
    return config.burn_in + 1 + (count - 1) * config.thin


def sample_uniform(k: int, n: int, rng: Generator) -> AffineFlat:
    """Draw a flat from the uniform distribution on k-flats in R^n.

    A Gaussian (n+1) x (k+1) matrix is unembedded, skipping input checks, the
    power-of-two scaling and the rank test that standard-normal entries do not
    need (rank deficiency has probability zero); the law of its span is
    invariant under the orthogonal group of R^(n+1).  The measure-zero event
    that the span is not a flat is retried, at most 100 times.
    """
    k = _check_int(k, "k", 0)
    n = _check_int(n, "n", k + 1)
    for _ in range(100):
        Q, diag = _lapack.qr(rng.standard_normal((n + 1, k + 1)))
        try:
            return _flat_from_frame(np.multiply(Q, np.sign(diag), out=Q))
        except NotAFlat:
            continue
    raise InternalError("100 consecutive uniform draws landed outside the flat locus")


def _trace_form(S: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """tr(S Y Y^T) for a frame Y or each frame of a stack: the Langevin log density."""
    return ((S @ Y) * Y).sum(axis=(-2, -1))


def _check_params(flat: AffineFlat, params) -> None:
    if flat.n != params.n or flat.k != params.k:
        raise DimensionError(
            f"flat is in Graff({flat.k}, {flat.n}) but parameters are for"
            f" Graff({params.k}, {params.n})"
        )


def langevin_log_density_unnormalized(flat: AffineFlat, params: LangevinParams) -> float:
    """Log of the unnormalized Langevin density: tr(S P) = tr(S Y Y^T), Y Stiefel coordinates."""
    _check_params(flat, params)
    return float(_trace_form(params.S, stiefel_coords(flat).Y))


def grassmann_normalizer(S, k: int, n: int, n_samples: int, rng: Generator) -> tuple[float, float]:
    """Normalizer of the Langevin density on k-planes in R^n (no affine part).

    Monte Carlo estimate of the uniform expectation of exp(tr(S A A^T));
    returns the sample mean over ``n_samples`` draws and its standard error.
    Used for the linear factor of the Langevin-Gaussian density.  The frames
    come from one (m, n, k) Gaussian draw and one stacked QR per block of at
    most 2**17 entries (1 MiB), in the stream order of n_samples (n, k)
    draws; ``math.exp`` raises ``OverflowError`` for a concentrated S.
    """
    k = _check_int(k, "k", 0)
    n = _check_int(n, "n", k)
    S = _symmetric_matrix(S, n, "S")
    n_samples = _check_int(n_samples, "n_samples", 100)
    if k == 0:
        return 1.0, 0.0
    block = max(1, 2**17 // (n * k))
    values = []
    for start in range(0, n_samples, block):
        Q, _ = _lapack.qr(rng.standard_normal((min(block, n_samples - start), n, k)))
        values += [math.exp(x) for x in _trace_form(S, Q).tolist()]
    values = np.array(values)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n_samples))


def langevin_normalizer(
    params: LangevinParams, n_samples: int, rng: Generator
) -> tuple[float, float]:
    """Monte Carlo estimate of the Langevin normalizing constant.

    The uniform measure on Graff(k, n) is the pushforward of the invariant
    measure on Gr(k+1, n+1), and tr(S P) depends only on the span of the
    Stiefel coordinates.  So the normalizer is :func:`grassmann_normalizer`
    on (k+1)-planes of R^(n+1): no flat is built per sample, and the frames
    are drawn in stacked blocks of bounded memory.  Returns the sample mean
    over ``n_samples`` uniform draws and its standard error.  Exact (zero
    variance) whenever tr(S P) is constant, e.g. S = c I.
    """
    return grassmann_normalizer(params.S, params.k + 1, params.n + 1, n_samples, rng)


def _mh_chain(S: np.ndarray, Y0: np.ndarray, n_steps: int, config: MHConfig,
              rng: Generator, keep, require_flat: bool) -> float:
    """Metropolis-Hastings chain on spans of orthonormal frames, target exp(tr(S Y Y^T)).

    Proposals are span(Y + step_size * G), G iid Gaussian, one QR each.  Their
    law depends only on span(Y) (GR has the law of G for orthogonal R) and is
    O(N)-equivariant, so by two-point homogeneity it is a symmetric function of
    the principal angles between the spans.  ``require_flat`` rejects spans
    that ``_flat_from_frame`` refuses (last row of norm below ``_FLAT_TOL``).
    ``keep(Y)`` gets the state after steps burn_in, burn_in + thin, ..., so its
    draws interleave with the chain's.  Returns the acceptance rate.
    """
    Y, current, accepted = Y0, float(_trace_form(S, Y0)), 0
    for step in range(n_steps):
        proposal, _ = _lapack.qr(Y + config.step_size * rng.standard_normal(Y.shape))
        if not (require_flat and math.sqrt(proposal[-1] @ proposal[-1]) < _FLAT_TOL):
            new = float(_trace_form(S, proposal))
            if math.log(max(rng.uniform(), 1e-300)) <= new - current:
                Y, current = proposal, new
                accepted += 1
        if step >= config.burn_in and (step - config.burn_in) % config.thin == 0:
            keep(Y)
    return accepted / n_steps


def langevin_mh_run(
    params: LangevinParams,
    n_steps: int,
    step_size: float,
    rng: Generator,
    burn_in: int = 0,
    thin: int = 1,
    init: AffineFlat | None = None,
) -> tuple[list[AffineFlat], float]:
    """Run a Metropolis-Hastings chain targeting the Langevin density.

    Returns the retained flats (after ``burn_in``, every ``thin``-th state)
    and the overall acceptance rate; :class:`MHConfig` checks the settings.
    The chain lives on spans of Stiefel coordinates; tr(S P) is basis-free,
    so the density needs no canonicalization per step.
    """
    n_steps = _check_int(n_steps, "n_steps", 1)
    config = MHConfig(step_size, burn_in, thin)
    if init is None:
        init = sample_uniform(params.k, params.n, rng)
    _check_params(init, params)
    samples: list[AffineFlat] = []
    rate = _mh_chain(params.S, stiefel_coords(init).Y, n_steps, config, rng,
                     lambda Y: samples.append(_flat_from_frame(Y)), require_flat=True)
    return samples, rate


def langevin_gaussian_log_density_unnormalized(flat: AffineFlat,
                                               params: LangevinGaussianParams) -> float:
    """Log of the Langevin-Gaussian density at a flat, without its Langevin normalizer.

    The value is tr(S A A^T) - |b0|^2 / (2 sigma^2) - ((n-k)/2) log(2 pi sigma^2).
    Subtracting log(grassmann_normalizer(params.S, params.k, params.n, ...)[0])
    normalizes it; for S = 0 that estimate is exactly 1.  It is -inf once |b0|^2
    is past the floats (|b0| of about 1.3e154 or more).
    """
    _check_params(flat, params)
    with np.errstate(over="ignore"):  # an infinite |b0|^2 gives -inf
        square = float(flat.b0 @ flat.b0)
    return (float(_trace_form(params.S, flat.A))
            - square / (2.0 * params.sigma2)
            - 0.5 * (params.n - params.k) * math.log(2.0 * math.pi * params.sigma2))


def langevin_gaussian_run(
    params: LangevinGaussianParams,
    count: int,
    config: MHConfig,
    rng: Generator,
) -> list[AffineFlat]:
    """Draw ``count`` flats from the Langevin-Gaussian distribution.

    The linear parts come from one Metropolis-Hastings chain on k-planes in
    R^n (burn-in then thinning per ``config``); each retained plane gets an
    independent Gaussian displacement in its orthogonal complement.
    """
    count = _check_int(count, "count", 1)
    n, k = params.n, params.k
    flats: list[AffineFlat] = []

    def keep(Y):
        b0 = _orthogonal_part(Y, math.sqrt(params.sigma2) * rng.standard_normal(n))
        flats.append(_trusted(AffineFlat, A=Y, b0=b0))

    if k == 0:
        for _ in range(count):
            keep(np.zeros((n, 0)))
        return flats
    Y0, _ = _lapack.qr(rng.standard_normal((n, k)))  # a uniform k-plane
    _mh_chain(params.S, Y0, _chain_length(config, count), config, rng, keep, require_flat=False)
    return flats
