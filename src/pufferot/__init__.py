"""Pufferfish-private data release via optimal-transport noise calibration.

The library couples the secret-conditional distributions of a public value
through their Kantorovich optimal transport plan, calibrates additive
noise (Laplace, exponential-family, or Gaussian) to the plan's sensitivity,
and numerically certifies the resulting indistinguishability guarantee.
"""

from .distributions import DiscreteDistribution, poisson_binomial
from .errors import NumericError, ValidationError
from .mechanisms import (
    INVERSE_SCALE,
    MechanismSpec,
    PrivacyReport,
    RateFunction,
    calibrate_exponential,
    calibrate_gaussian,
    calibrate_pufferfish,
    relaxed_theta,
    release,
    sample_noise,
)
from .pairs import DiscriminativePair
from .scenarios import (
    SecretEvent,
    SeparableQuery,
    UserSystem,
    bernoulli_counting,
    conditional_output_dist,
    discriminative_pairs,
    query_sensitivity,
)
from .tabular import (
    AttributeMapping,
    adult_education_conditionals,
    adult_education_fixture,
    adult_education_pair,
    empirical_conditionals,
    enumerate_pairs,
    load_table,
)
from .transport import (
    L1,
    Metric,
    TransportPlan,
    joint_cdf_table,
    optimal_plan,
    plan_sensitivity,
    support_sensitivity,
    w1_distance,
)
from .verify import (
    VerificationReport,
    gaussian_violation_mass,
    output_density,
    verify_delta_approx,
    verify_pufferfish,
)

__version__ = "0.1.0"

__all__ = [
    "AttributeMapping",
    "DiscreteDistribution",
    "DiscriminativePair",
    "INVERSE_SCALE",
    "L1",
    "MechanismSpec",
    "Metric",
    "NumericError",
    "PrivacyReport",
    "RateFunction",
    "SecretEvent",
    "SeparableQuery",
    "TransportPlan",
    "UserSystem",
    "ValidationError",
    "VerificationReport",
    "adult_education_conditionals",
    "adult_education_fixture",
    "adult_education_pair",
    "bernoulli_counting",
    "calibrate_exponential",
    "calibrate_gaussian",
    "calibrate_pufferfish",
    "conditional_output_dist",
    "discriminative_pairs",
    "empirical_conditionals",
    "enumerate_pairs",
    "gaussian_violation_mass",
    "joint_cdf_table",
    "load_table",
    "optimal_plan",
    "output_density",
    "plan_sensitivity",
    "poisson_binomial",
    "query_sensitivity",
    "relaxed_theta",
    "release",
    "sample_noise",
    "support_sensitivity",
    "verify_delta_approx",
    "verify_pufferfish",
    "w1_distance",
]
