"""Pufferfish-private data release via optimal-transport noise calibration.

The library couples the secret-conditional distributions of a public value
through their Kantorovich optimal transport plan, calibrates additive
noise (Laplace or Gaussian) to the plan's sensitivity, and numerically
certifies the resulting indistinguishability guarantee.
"""

import importlib

#: Each exported name, grouped by the module that defines it. The modules
#: load on first use (PEP 562), so ``import pufferot.cli`` pulls in only
#: what a command runs.
_MODULE_EXPORTS = {
    "distributions": ("DiscreteDistribution", "poisson_binomial"),
    "errors": ("NumericError", "ValidationError"),
    "mechanisms": (
        "MechanismSpec",
        "PrivacyReport",
        "calibrate_exponential",
        "calibrate_gaussian",
        "calibrate_pufferfish",
        "relaxed_theta",
        "release",
        "sample_noise",
    ),
    "pairs": ("DiscriminativePair",),
    "scenarios": (
        "UserSystem",
        "bernoulli_counting",
        "conditional_output_dist",
        "discriminative_pairs",
        "query_sensitivity",
    ),
    "tabular": (
        "AttributeMapping",
        "adult_education_conditionals",
        "adult_education_fixture",
        "adult_education_pair",
        "empirical_conditionals",
        "enumerate_pairs",
        "load_table",
    ),
    "transport": (
        "TransportPlan",
        "joint_cdf_table",
        "optimal_plan",
        "plan_sensitivity",
        "support_sensitivity",
        "w1_distance",
    ),
    "verify": (
        "VerificationReport",
        "gaussian_violation_mass",
        "verify_delta_approx",
        "verify_pufferfish",
    ),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import the module that defines ``name`` on first use, and keep the name here.

    A module of the table is imported as ``pufferot.<module>``, as when the
    package imported every module up front.
    """
    if name in _MODULE_EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
