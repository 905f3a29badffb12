"""Disc-averaged Frechet-Hoeffding copulas.

The sharp bivariate bounds W(u,v) = max(u+v-1, 0) and M(u,v) = min(u,v)
are singular; averaging them over discs of position-dependent radius
r(w, z) in the rotated frame yields absolutely continuous copulas with
closed-form values, partials, and density.  This package builds those
closed forms, certifies when a radius field actually produces a copula,
verifies everything against a brute-force quadrature/finite-difference
oracle, and samples by conditional inversion.
"""

from .checker import CopulaCheckReport, check_copula
from .copulas import CopulaSpec, copula_density, copula_partials, copula_values, smoothed_value
from .geometry import (
    DIAMOND_RADIUS,
    DiamondPoint,
    DomainError,
    Orientation,
    SquarePoint,
    orientation_for_family,
)
from .kernel import std_normal_pdf, std_normal_quantile
from .oracle import OracleError, OracleRequest, disc_average, fd_second_partials
from .radius import (
    ConstantRadius,
    GaussianBandRadius,
    ModelSpecError,
    ProductRadius,
    RadiusEvalError,
    constant_radius,
    gaussian_band_radius,
    model_from_json,
    model_to_json,
    product_radius,
)
from .sampler import (
    InvalidModelError,
    SampleBatch,
    conditional_inverse,
    counter_uniforms,
    sample_batch,
    to_gaussian,
)
from .validator import (
    ContainmentResult,
    ValidationReport,
    containment_check,
    validate_model,
)

__version__ = "0.1.0"
