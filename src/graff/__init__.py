"""Affine subspaces of Euclidean space.

Coordinates and conversions for k-flats, distances and geodesics between
them, closed-form topological and volumetric invariants, probability
distributions with samplers, and classical estimators posed as searches for
a best flat.
"""

from .coords import (
    AffineFlat,
    ProjectionAffinePair,
    ProjectionMatrix,
    StiefelMatrix,
    deaffine,
    equal_flats,
    flat_from_projection,
    make_flat,
    pad_ambient,
    projection_affine_coords,
    projection_coords,
    stiefel_coords,
    unembed,
)
from .errors import (
    DegenerateSpectrum,
    DimensionError,
    GraffError,
    InternalError,
    InvalidFlag,
    NotAFlat,
    NotSeparable,
    RankDeficient,
    SingularPair,
    UnsupportedKind,
)
from .fitting import (
    LabeledCloud,
    PointCloud,
    fit_flat,
    linear_regression,
    point_to_flat_distance,
    svm_hyperplane,
)
from .invariants import (
    GroupDescriptor,
    betti,
    dim_graff,
    dim_psi_minus,
    dim_psi_plus,
    dim_schubert_affine,
    dim_stiefel_affine,
    homotopy_group,
    relative_volume,
    unit_ball_volume,
    volume_gr,
    volume_graff,
)
from .metric import (
    DistanceKind,
    GeodesicCurve,
    PrincipalDecomposition,
    affine_principal_angles,
    delta_distance,
    distance,
    evaluate_geodesic,
    geodesic,
    infinite_metric,
    principal_decomposition,
)
from .probability import (
    LangevinGaussianParams,
    LangevinParams,
    MHConfig,
    RandomStream,
    grassmann_normalizer,
    langevin_gaussian_log_density,
    langevin_gaussian_run,
    langevin_log_density_unnormalized,
    langevin_mh_run,
    langevin_normalizer,
    random_stream,
    sample_langevin,
    sample_langevin_gaussian,
    sample_uniform,
)

__version__ = "0.1.0"
