"""Flats that graff builds itself skip re-validation; they must still pass it.

The builders in coords and probability freeze what they compute without the
public constructors' checks.  Here the result of every internal builder is
handed to those constructors, so the invariants they check (orthonormality,
A^T b0 = 0, symmetry, idempotence, a positive corner) are shown to hold by
construction.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graff import (
    AffineFlat,
    LabeledCloud,
    LangevinGaussianParams,
    LangevinParams,
    MHConfig,
    PointCloud,
    ProjectionAffinePair,
    ProjectionMatrix,
    StiefelMatrix,
    deaffine,
    evaluate_geodesic,
    fit_flat,
    geodesic,
    langevin_gaussian_run,
    langevin_mh_run,
    make_flat,
    pad_ambient,
    projection_affine_coords,
    projection_coords,
    random_stream,
    sample_uniform,
    stiefel_coords,
    svm_hyperplane,
    unembed,
)

PROPERTY = settings(deadline=None, derandomize=True, max_examples=40)


@st.composite
def cases(draw):
    """(k, n), a seed and a power-of-two exponent for the inputs."""
    n = draw(st.sampled_from([1, 2, 3, 5, 8, 13, 64]))
    k = draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1))
    return k, n, draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([-500, 0, 500]))


def assert_valid(flat, k, n):
    assert (flat.k, flat.n) == (k, n)
    assert np.all(np.isfinite(flat.A)) and np.all(np.isfinite(flat.b0))
    AffineFlat(flat.A, flat.b0)
    StiefelMatrix(stiefel_coords(flat).Y)
    ProjectionMatrix(projection_coords(flat).P)


@PROPERTY
@given(cases())
def test_make_flat_and_unembed(case):
    k, n, seed, e = case
    rng = random_stream(seed)
    assert_valid(make_flat(np.ldexp(rng.standard_normal((n, k)), e),
                           np.ldexp(rng.standard_normal(n), e)), k, n)
    assert_valid(make_flat(rng.standard_normal((n, k)), np.ldexp(rng.standard_normal(n), e)), k, n)
    assert_valid(unembed(np.ldexp(rng.standard_normal((n + 1, k + 1)), e)), k, n)


@PROPERTY
@given(cases())
def test_pad_ambient_deaffine_and_fit_flat(case):
    k, n, seed, e = case
    rng = random_stream(seed)
    flat = make_flat(rng.standard_normal((n, k)), np.ldexp(rng.standard_normal(n), e))
    assert_valid(pad_ambient(flat, n + 3), k, n + 3)
    assert_valid(deaffine(flat), k, n)
    cloud = PointCloud(np.ldexp(rng.standard_normal((k + 4, n)), e))
    assert_valid(fit_flat(cloud, k), k, n)


@PROPERTY
@given(cases())
def test_projection_affine_coords_and_svm_hyperplane(case):
    k, n, seed, e = case
    rng = random_stream(seed)
    pair = projection_affine_coords(
        make_flat(rng.standard_normal((n, k)), np.ldexp(rng.standard_normal(n), e)))
    ProjectionAffinePair(pair.P, pair.b)
    # Two clusters of three points, 4 apart along a random unit direction.
    direction = rng.standard_normal(n)
    centers = np.outer([-2.0, -2.0, -2.0, 2.0, 2.0, 2.0], direction / np.linalg.norm(direction))
    X = centers + 0.1 * rng.standard_normal((6, n))
    hyperplane, _, _ = svm_hyperplane(LabeledCloud(X, np.repeat([-1.0, 1.0], 3)))
    assert_valid(hyperplane, n - 1, n)


@PROPERTY
@given(cases())
def test_samplers_and_geodesics(case):
    k, n, seed, e = case
    rng = random_stream(seed)
    assert_valid(sample_uniform(k, n, rng), k, n)
    # Flats with |b0| beyond 1e10 have no image off the hyperplane x_{n+1} = 0
    # that unembed accepts, so geodesic endpoints are scaled down only.
    scale = min(e, 0)
    ends = [make_flat(rng.standard_normal((n, k)), np.ldexp(rng.standard_normal(n), scale))
            for _ in range(2)]
    curve = geodesic(*ends)
    for t in (0.0, 0.5, 1.0):
        assert_valid(evaluate_geodesic(curve, t), k, n)
    S = rng.standard_normal((n + 1, n + 1))
    samples, _ = langevin_mh_run(LangevinParams(S=S, k=k, n=n), 12, 0.3, rng, burn_in=2, thin=5)
    for flat in samples:
        assert_valid(flat, k, n)
    # sigma2 is at most 1e300, so the 2**999 of e = 500 is taken down to that bound.
    params = LangevinGaussianParams(S=S[:n, :n], sigma2=min(np.ldexp(0.5, 2 * e), 1e300), k=k, n=n)
    for flat in langevin_gaussian_run(params, 3, MHConfig(step_size=0.3, burn_in=2, thin=2), rng):
        assert_valid(flat, k, n)
