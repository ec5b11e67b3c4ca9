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
from dataclasses import astuple, dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _lapack
from ._plain import flat_block
from .coords import (_FLAT_TOL, AffineFlat, _as_matrix, _flat_from_frame, _flats_from_frames,
                     _freeze, _orthogonal_part, _trusted, projection_coords, stiefel_coords,
                     unembed)  # noqa: F401 (projection_coords, unembed: perfbench traces them)
from .errors import DimensionError, InternalError, NotAFlat, _check_int, _check_positive

if TYPE_CHECKING:  # numpy.random loads on the first random_stream
    from numpy.random import Generator

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


def sample_uniform(k: int, n: int, rng: Generator) -> AffineFlat:
    """Draw a flat from the uniform distribution on k-flats in R^n.

    A Gaussian (n+1) x (k+1) matrix is factored in place and unembedded without input checks,
    power-of-two scaling or rank test (standard-normal entries have full rank almost surely);
    the law of its span is invariant under the orthogonal group of R^(n+1).  A span that is no
    flat (probability zero) is redrawn, at most 100 times.
    """
    k = _check_int(k, "k", 0)
    n = _check_int(n, "n", k + 1)
    for _ in range(100):
        Q = _lapack.qr_in_place(a := rng.standard_normal((n + 1, k + 1)))  # a holds R
        try:
            return _flat_from_frame(np.multiply(Q, np.sign(a.diagonal()), out=Q))
        except NotAFlat:
            continue
    raise InternalError("100 consecutive uniform draws landed outside the flat locus")


def _uniform_flats(k: int, n: int, count: int, rng: Generator, emit) -> None:
    """``count`` calls of :func:`sample_uniform`, handed to ``emit`` in lists of
    ``flat_block(k, n)`` flats, the last shorter: one Gaussian draw, one QR and one ``emit`` each.

    A list's (m, n+1, k+1) draw, made once the list before it is emitted, reads the stream as m
    scalar draws do, and the stacked QR and reflection give their flats bit for bit.  A frame
    that spans no flat (probability zero) is redrawn by ``sample_uniform`` after its stack, frame
    by frame: only this event moves the stream position against the scalar draws, and an error
    in it emits the flats made before it first.
    """
    k = _check_int(k, "k", 0)
    n = _check_int(n, "n", k + 1)
    block = flat_block(k, n)
    for start in range(0, count, block):
        Q, diag = _lapack.qr(rng.standard_normal((min(block, count - start), n + 1, k + 1)))
        frames = np.multiply(Q, np.sign(diag)[:, None, :], out=Q)
        flats = []
        try:
            flats = _flats_from_frames(frames)
        except NotAFlat:
            for frame in frames:
                try:
                    flats.append(_flat_from_frame(frame))
                except NotAFlat:
                    flats.append(sample_uniform(k, n, rng))
        finally:  # by an error too, the flats made before it
            if flats:
                emit(flats)


def _trace_form(S: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """tr(S Y Y^T) for a frame Y (by ``ndarray.dot``, the same bits) or each frame of a stack."""
    return (S.dot(Y) * Y).sum() if Y.ndim == 2 else ((S @ Y) * Y).sum(axis=(-2, -1))


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
    come from one (m, n, k) Gaussian draw and one stacked QR per block of
    ``flat_block(k - 1, n - 1)`` (a k-plane of R^n is the frame of a
    (k-1)-flat of R^(n-1)), in the stream order of n_samples (n, k) draws;
    ``math.exp`` raises ``OverflowError`` for a concentrated S.
    """
    k = _check_int(k, "k", 0)
    n = _check_int(n, "n", k)
    S = _symmetric_matrix(S, n, "S")
    n_samples = _check_int(n_samples, "n_samples", 100)
    if k == 0:
        return 1.0, 0.0
    block, values = flat_block(k - 1, n - 1), []
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
              rng: Generator, keep, require_flat: bool, flush=lambda: None) -> float:
    """Metropolis-Hastings chain on spans of orthonormal frames, target exp(tr(S Y Y^T)).

    Proposals are span(Y + step_size * G), G iid Gaussian, one QR each.  Their law depends only
    on span(Y) (GR has the law of G for orthogonal R) and is O(N)-equivariant, so by two-point
    homogeneity it is a symmetric function of the principal angles between the spans.
    ``require_flat`` rejects spans that ``_flat_from_frame`` refuses (last row of norm below
    ``_FLAT_TOL``).  ``keep(Y)`` gets the state after steps burn_in, burn_in + thin, ..., so its
    draws interleave with the chain's; ``flush()`` runs last, also on an error.  Returns the
    acceptance rate.  It runs on S - s I, s the midpoint of the diagonal's extremes: the log
    density moves by a constant only, and S = c I gives s = c exactly, so its chain is the uniform
    one even at c = 1e300.  ``normal(-0.0, step_size)`` is -0.0 + step_size * z, z from
    ``standard_normal``'s stream, so step_size * z bit for bit (loc 0.0 would make -0.0 +0.0);
    ``random()`` is ``uniform()``'s draw.  The loop, ``keep`` and ``flush`` share one errstate, not
    for the QR: step_size * z may overflow unwarned (a nan frame, refused); an invalid operation
    raises QR's ``LinAlgError``.
    """
    S = S - 0.5 * (S.diagonal().max() + S.diagonal().min()) * np.eye(len(S))
    Y, current, accepted = Y0, float(_trace_form(S, Y0)), 0
    step_size, burn_in, thin, normal, random = *astuple(config), rng.normal, rng.random
    with _lapack.errstate(_lapack.QR_FAILED):
        try:
            for step in range(n_steps):
                proposal = normal(-0.0, step_size, Y0.shape)
                proposal += Y
                proposal = _lapack.qr_in_place(proposal)
                if not (require_flat and math.sqrt(proposal[-1].dot(proposal[-1])) < _FLAT_TOL):
                    new = float(_trace_form(S, proposal))
                    if math.log(max(random(), 1e-300)) <= new - current:
                        Y, current = proposal, new
                        accepted += 1
                if step >= burn_in and (step - burn_in) % thin == 0:
                    keep(Y)
        finally:
            flush()
    return accepted / n_steps


def _chain(params, n_steps: int, config: MHConfig, rng: Generator, emit, init=None) -> float:
    """``n_steps`` steps of the chain of ``params``' law; returns the acceptance rate.  Its kept
    flats go to ``emit`` in lists of ``flat_block(k, n)``, each at the step that fills it, the
    last (by an error too, the flats kept before it) as the chain ends.  A Langevin chain starts
    at ``init`` (default: a uniform flat) and reflects each list's frames as one stack.  A
    Langevin-Gaussian one starts at a uniform k-plane and draws each displacement as it keeps
    the state; at k = 0 its one plane, {0}, would accept every step: no chain runs, rate 1."""
    n, k, block, size = params.n, params.k, [], flat_block(params.k, params.n)

    def keep(Y):  # state(Y) and flats() are the law's, below
        block.append(state(Y))
        if len(block) == size:
            flush()

    def flush():
        if block:
            kept, block[:] = flats(), []
            emit(kept)

    if isinstance(params, LangevinParams):
        init = sample_uniform(k, n, rng) if init is None else init
        _check_params(init, params)
        Y0 = stiefel_coords(init).Y

        def state(Y):
            if Y is Y0:  # only init can span no flat (proposals passed the test): raise now
                _flat_from_frame(Y)
            return Y

        def flats():
            return _flats_from_frames(np.stack(block))
        return _mh_chain(params.S, Y0, n_steps, config, rng, keep, True, flush)
    scale, flats = math.sqrt(params.sigma2), block.copy

    def state(Y):
        return _trusted(AffineFlat, A=Y, b0=_orthogonal_part(Y, scale * rng.standard_normal(n)))

    if k == 0:
        for _ in range(config.burn_in, n_steps, config.thin):
            keep(np.zeros((n, 0)))
        flush()
        return 1.0
    Y0, _ = _lapack.qr(rng.standard_normal((n, k)))  # a uniform k-plane
    return _mh_chain(params.S, Y0, n_steps, config, rng, keep, False, flush)


def _kept_chain(params, count: int, config: MHConfig, rng: Generator, emit) -> float:
    """:func:`_chain` keeping ``count`` states: burn_in + 1 + (count - 1) * thin steps."""
    return _chain(params, config.burn_in + 1 + (count - 1) * config.thin, config, rng, emit)


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
    if not isinstance(params, LangevinParams):
        raise TypeError("langevin_mh_run expects LangevinParams")
    samples: list[AffineFlat] = []
    rate = _chain(params, _check_int(n_steps, "n_steps", 1), MHConfig(step_size, burn_in, thin),
                  rng, samples.extend, init)
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
    if not isinstance(params, LangevinGaussianParams):
        raise TypeError("langevin_gaussian_run expects LangevinGaussianParams")
    flats: list[AffineFlat] = []
    _kept_chain(params, _check_int(count, "count", 1), config, rng, flats.extend)
    return flats
