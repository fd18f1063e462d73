"""Geodesics and optimality for left-invariant metrics on PSL(2,R) and SL(2,R).

The package works with axially symmetric metrics (two equal principal
moments) and exposes closed-form geodesics, Maxwell and conjugate times,
cut loci, the injectivity radius, a Riemannian logarithm, and the
sub-Riemannian limit of the cut time.
"""

from .algebra import (
    SplitQuaternion,
    psl2_canonicalize,
    sq_mul,
)
from .errors import (
    DomainError,
    HypgeoError,
    IdentityTarget,
    NegativeTime,
    NoConvergence,
    NonPositiveEigenvalue,
    NoRootFound,
    NotOnC,
    NotTimeLike,
    OnCutLocus,
    UndefinedAtEquator,
)
from .geodesic_engine import (
    GeodesicSample,
    exp_map,
    sample_geodesic,
    vertical_flow,
)
from .metric_space import (
    ETA_INJ_SPLIT,
    ETA_POLE_SPLIT_PSL2,
    ETA_POLE_SPLIT_SL2,
    CausalType,
    Covector,
    Metric,
    covector_from_components,
    covector_from_pbar3,
    light_covector,
    make_metric,
    metric_from_eta,
)
from .optimality import (
    CutDescriptor,
    GroupTag,
    LocusSample,
    WavefrontPoint,
    cut_locus_sample,
    cut_time,
    describe_cut,
    first_conjugate_time,
    injectivity_radius,
    maxwell_time,
    riemannian_log,
    wavefront_sample,
)
from .root_solver import conjugate_roots
from .sr_limit import (
    SrMomentum,
    beta_from_pbar3,
    limit_comparison,
    sr_cut_time,
    sr_exp_map,
)

__version__ = "0.1.0"

__all__ = [
    "CausalType",
    "Covector",
    "CutDescriptor",
    "DomainError",
    "ETA_INJ_SPLIT",
    "ETA_POLE_SPLIT_PSL2",
    "ETA_POLE_SPLIT_SL2",
    "GeodesicSample",
    "GroupTag",
    "HypgeoError",
    "IdentityTarget",
    "LocusSample",
    "Metric",
    "NegativeTime",
    "NoConvergence",
    "NoRootFound",
    "NonPositiveEigenvalue",
    "NotOnC",
    "NotTimeLike",
    "OnCutLocus",
    "SplitQuaternion",
    "SrMomentum",
    "UndefinedAtEquator",
    "WavefrontPoint",
    "beta_from_pbar3",
    "conjugate_roots",
    "covector_from_components",
    "covector_from_pbar3",
    "cut_locus_sample",
    "cut_time",
    "describe_cut",
    "exp_map",
    "first_conjugate_time",
    "injectivity_radius",
    "light_covector",
    "limit_comparison",
    "make_metric",
    "maxwell_time",
    "metric_from_eta",
    "psl2_canonicalize",
    "riemannian_log",
    "sample_geodesic",
    "sq_mul",
    "sr_cut_time",
    "sr_exp_map",
    "vertical_flow",
    "wavefront_sample",
]
