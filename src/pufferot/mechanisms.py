"""Additive-noise calibration and release.

Three calibration routes are implemented, all driven by the optimal
transport plan between the secret-conditional distributions:

* the strict exponential-mechanism rule theta = eta^{-1}(eps / s), where s
  is the largest ground distance on the plan support;
* a relaxed rule that solves, per plan row and column, the moment equation
  sum_k exp(eta(theta) d_k) pi_k = e^eps * (marginal mass) and keeps the
  largest root, which never exceeds the strict rule's scale;
* Gaussian scales achieving the delta-approximate guarantee, in the
  closed-form variant (valid for eps <= 1) and the quadratic-bound variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import DiscreteDistribution
from .errors import NumericError, ValidationError
from .pairs import DiscriminativePair
from .transport import L1, Metric, TransportPlan, optimal_plan, plan_sensitivity

#: Absolute tolerance on log(theta) for the relaxed-rule root search.
ROOT_LOG_TOL = 1e-10
_ROOT_MAX_ITER = 200
_BRACKET_MAX_STEPS = 400

_RATE_PROBES = (0.5, 1.0, 2.0, 8.0)

FAMILIES = ("laplace", "gaussian", "exponential")

METHODS = {
    "theorem1": "theorem-1",
    "theorem2": "theorem-2",
    "gaussian-a": "gaussian-a",
    "gaussian-b": "gaussian-b",
}
_GAUSSIAN_METHODS = ("gaussian-a", "gaussian-b")


@dataclass(frozen=True, eq=False)
class RateFunction:
    """Invertible rate eta(theta), nonincreasing in the scale theta.

    ``forward`` evaluates eta and ``inverse`` its inverse; the two are
    probed against each other at construction. The Laplace mechanism is
    the instance eta(theta) = 1/theta.
    """

    forward: Callable[[float], float]
    inverse: Callable[[float], float]
    name: str = "custom"

    def __post_init__(self) -> None:
        for a in _RATE_PROBES:
            theta = float(self.inverse(a))
            back = float(self.forward(theta))
            if not math.isclose(back, a, rel_tol=1e-10, abs_tol=1e-10):
                raise ValidationError(
                    f"rate function {self.name!r} fails eta(eta^-1({a})) = {a}: got {back!r}"
                )


#: Default rate eta(theta) = 1/theta (the Laplace instance).
INVERSE_SCALE = RateFunction(forward=lambda t: 1.0 / t, inverse=lambda a: 1.0 / a, name="inverse-scale")


def _check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < math.inf:
        raise ValidationError(f"epsilon must be finite and > 0, got {epsilon!r}")


@dataclass(frozen=True, eq=False)
class MechanismSpec:
    """A calibrated additive-noise mechanism Y = X + N.

    ``theta`` is the noise scale (0 denotes the degenerate noiseless
    release); ``delta`` is only meaningful for the Gaussian family.
    """

    family: str
    theta: float
    epsilon: float
    delta: float | None = None
    metric: Metric | None = None
    rate: RateFunction | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown noise family {self.family!r}; expected one of {FAMILIES}")
        if not 0 <= self.theta < math.inf:
            raise ValidationError(f"theta must be finite and >= 0, got {self.theta!r}")
        _check_epsilon(self.epsilon)
        if self.delta is not None:
            if self.family != "gaussian":
                raise ValidationError("delta is only meaningful for the gaussian family")
            if not 0 < self.delta < 1:
                raise ValidationError(f"delta must lie in (0, 1), got {self.delta!r}")
        if self.family == "exponential" and (self.metric is None or self.rate is None):
            raise ValidationError("the exponential family requires an explicit metric and rate")

    @property
    def variance(self) -> float | None:
        """Noise variance: 2 theta^2 for Laplace, theta^2 for Gaussian."""
        if self.family == "laplace":
            return 2.0 * self.theta**2
        if self.family == "gaussian":
            return self.theta**2
        return None


@dataclass(frozen=True)
class PairCalibration:
    labels: tuple[str, str]
    prior: str
    sensitivity: float
    theta: float


@dataclass(frozen=True, eq=False)
class PrivacyReport:
    """Outcome of a calibration run, with the per-pair breakdown."""

    method: str
    epsilon: float
    delta: float | None
    theta: float
    variance: float | None
    pairs: tuple[PairCalibration, ...]
    verification: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "theta": self.theta,
            "variance": self.variance,
            "pairs": [
                {
                    "labels": list(rec.labels),
                    "prior": rec.prior,
                    "sensitivity": rec.sensitivity,
                    "theta": rec.theta,
                }
                for rec in self.pairs
            ],
            "verification": self.verification,
        }


def calibrate_exponential(
    sensitivity: float, epsilon: float, rate: RateFunction = INVERSE_SCALE
) -> float:
    """Strict rule: theta = eta^{-1}(epsilon / sensitivity).

    A zero sensitivity means the two conditionals are already
    indistinguishable on the plan support, so no noise is required.
    """
    _check_epsilon(epsilon)
    if sensitivity < 0:
        raise ValidationError(f"sensitivity must be >= 0, got {sensitivity!r}")
    if sensitivity == 0:
        return 0.0
    return float(rate.inverse(epsilon / sensitivity))


def calibrate_gaussian(
    sensitivity: float, epsilon: float, delta: float, variant: str = "a"
) -> float:
    """Gaussian scale achieving the delta-approximate guarantee.

    Variant "a" returns the boundary scale sqrt(2 ln(1.25/delta)) * s / eps
    and requires eps <= 1; variant "b" uses the quadratic bound
    c > 0.41 delta^{-1/3} + sqrt((0.41 delta^{-1/3})^2 + eps/2) with a
    1e-9 slack on the strict inequality.
    """
    _check_epsilon(epsilon)
    if not 0 < delta < 1:
        raise ValidationError(f"delta must lie in (0, 1), got {delta!r}")
    if sensitivity < 0:
        raise ValidationError(f"sensitivity must be >= 0, got {sensitivity!r}")
    if variant not in ("a", "b"):
        raise ValidationError(f"variant must be 'a' or 'b', got {variant!r}")
    if sensitivity == 0:
        return 0.0
    if variant == "a":
        if epsilon > 1:
            raise ValidationError(
                f"variant 'a' is only valid for epsilon <= 1, got {epsilon!r}"
            )
        return math.sqrt(2.0 * math.log(1.25 / delta)) * sensitivity / epsilon
    t = 0.41 * delta ** (-1.0 / 3.0)
    c = t + math.sqrt(t * t + epsilon / 2.0) + 1e-9
    return sensitivity / epsilon * c


def _solve_decreasing_log_theta(g: Callable[[float], float], context: str) -> float:
    """Root of a strictly decreasing g on the log(theta) axis.

    The bracket is grown by repeated doubling of theta (steps of log 2)
    and then bisected to ROOT_LOG_TOL. A NaN g raises ``NumericError``
    rather than compare as "not positive" and steer to a wrong root.
    """

    def safe_g(log_theta: float) -> float:
        try:
            value = g(log_theta)
        except (OverflowError, ZeroDivisionError, FloatingPointError) as exc:
            raise NumericError(
                f"objective for {context} failed at log(theta)={log_theta!r}: {exc}"
            ) from exc
        if math.isnan(value):
            raise NumericError(f"objective for {context} is NaN at log(theta)={log_theta!r}")
        return value

    step = math.log(2.0)
    hi = 0.0
    for _ in range(_BRACKET_MAX_STEPS):
        if safe_g(hi) <= 0.0:
            break
        hi += step
    else:
        raise NumericError(
            f"no upper bracket for {context}: g still positive at log(theta)={hi!r}"
        )
    lo = 0.0
    for _ in range(_BRACKET_MAX_STEPS):
        if safe_g(lo) > 0.0:
            break
        lo -= step
    else:
        raise NumericError(
            f"no lower bracket for {context}: g still nonpositive at log(theta)={lo!r}"
        )
    for _ in range(_ROOT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if safe_g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= ROOT_LOG_TOL:
            break
    return math.exp(0.5 * (lo + hi))


def relaxed_theta(
    plan: TransportPlan,
    p: DiscreteDistribution,
    q: DiscreteDistribution,
    epsilon: float,
    metric: Metric = L1,
    rate: RateFunction = INVERSE_SCALE,
) -> float:
    """Largest root of the per-row / per-column moment equations.

    For each column x' with q(x') > 0 the equation
    sum_x exp(eta(theta) d(x - x')) pi(x, x') = e^eps q(x') has a unique
    root because the left side strictly decreases in theta whenever any
    entry has positive distance; the symmetric equation is solved per row
    against p(x). Rows or columns whose entries all sit at distance zero
    hold their inequality for every theta and are left out. The equations
    are solved together: their log residuals all decrease in theta, so the
    largest root is the root of their maximum, found by one bisection that
    evaluates every equation at once as a grouped log-sum-exp.
    """
    _check_epsilon(epsilon)
    if not (
        np.array_equal(plan.source.support, p.support)
        and np.array_equal(plan.target.support, q.support)
    ):
        raise ValidationError("plan supports do not match the supplied distributions")
    distances = np.array(metric.over(plan.displacements()))
    # One equation per row key 0..len(p)-1 and per column key after them.
    keys = np.concatenate([plan.rows, plan.cols + p.mass.size])
    live = np.bincount(keys, weights=np.tile(distances > 0, 2))[keys] > 0
    if not live.any():
        return 0.0
    # The stable sort keeps plan order inside each equation's group.
    order = np.flatnonzero(live)[np.argsort(keys[live], kind="stable")]
    keys, entries = keys[order], order % len(plan)
    d, log_mass = distances[entries], np.log(plan.mass[entries])
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    sizes = np.diff(starts, append=keys.size)
    targets = epsilon + np.log(np.concatenate([p.mass, q.mass])[keys[starts]])

    def g(log_theta: float) -> float:
        terms = log_mass + float(rate.forward(math.exp(log_theta))) * d
        peak = np.maximum.reduceat(terms, starts)
        sums = np.add.reduceat(np.exp(terms - np.repeat(peak, sizes)), starts)
        return float(np.max(peak + np.log(sums) - targets))

    return _solve_decreasing_log_theta(g, "the row and column moment equations")


def calibrate_pufferfish(
    pairs: Sequence[DiscriminativePair],
    epsilon: float,
    method: str = "theorem1",
    metric: Metric = L1,
    rate: RateFunction = INVERSE_SCALE,
    delta: float | None = None,
) -> PrivacyReport:
    """Calibrate one noise scale covering every discriminative pair.

    Each pair is calibrated on its own optimal transport plan and the
    maximum scale wins; the per-pair breakdown is kept in the report.
    Gaussian methods measure plan sensitivity with the absolute-value
    distance regardless of ``metric``.
    """
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}; expected one of {sorted(METHODS)}")
    pairs = list(pairs)
    if not pairs:
        raise ValidationError("at least one discriminative pair is required")
    _check_epsilon(epsilon)
    gaussian = method in _GAUSSIAN_METHODS
    if gaussian and delta is None:
        raise ValidationError(f"method {method!r} requires delta")
    if not gaussian and delta is not None:
        raise ValidationError(f"method {method!r} does not accept delta")

    records = []
    for pair in pairs:
        plan = optimal_plan(pair.p, pair.q)
        if gaussian:
            sens = plan_sensitivity(plan, L1)
            theta = calibrate_gaussian(sens, epsilon, delta, variant=method[-1])
        else:
            sens = plan_sensitivity(plan, metric)
            if method == "theorem2":
                theta = relaxed_theta(plan, pair.p, pair.q, epsilon, metric, rate)
            else:
                theta = calibrate_exponential(sens, epsilon, rate)
        records.append(
            PairCalibration(labels=pair.labels, prior=pair.prior, sensitivity=sens, theta=theta)
        )

    theta = max(rec.theta for rec in records)
    if gaussian:
        variance = theta**2
    elif metric is L1 and rate is INVERSE_SCALE:
        variance = 2.0 * theta**2
    else:
        variance = None
    return PrivacyReport(
        method=METHODS[method],
        epsilon=epsilon,
        delta=delta,
        theta=theta,
        variance=variance,
        pairs=tuple(records),
    )


def sample_noise(spec: MechanismSpec, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. noise values, deterministically under ``seed``."""
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n!r}")
    if spec.family == "exponential":
        raise ValidationError("sampling is implemented for the laplace and gaussian families only")
    if spec.theta == 0:
        return np.zeros(int(n))
    rng = np.random.default_rng(seed)
    if spec.family == "laplace":
        return rng.laplace(0.0, spec.theta, int(n))
    return rng.normal(0.0, spec.theta, int(n))


def release(values: Sequence[float], spec: MechanismSpec, seed: int) -> np.ndarray:
    """Elementwise noised copy of ``values`` under the calibrated spec."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"values must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        return arr.copy()
    return arr + sample_noise(spec, arr.size, seed)
