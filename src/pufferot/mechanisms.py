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
import weakref
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
#: Newton steps allowed before relaxed_theta evaluates the whole bisection.
_NEWTON_MAX_ITER = 30
#: Least half-width, in log(theta), of the window around the Newton root
#: inside which the replayed bisection evaluates the objective: far above
#: the float spacing of log(theta), and under ROOT_LOG_TOL.
_REPLAY_MARGIN = 1e-11
#: Bound on the objective's rounding error per unit of its terms' magnitude
#: and group size: 128 float64 unit roundoffs, where seeded sweeps (float64
#: against long double) stay under 2.
_REPLAY_NOISE = 2.0**-46

_RATE_PROBES = (0.5, 1.0, 2.0, 8.0)

FAMILIES = ("laplace", "gaussian")

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


def _check_delta(delta: float) -> None:
    if not 0 < delta < 1:
        raise ValidationError(f"delta must lie in (0, 1), got {delta!r}")


def _noise_variance(family: str, theta: float) -> float:
    """2 theta^2 for Laplace noise, theta^2 for Gaussian; ``NumericError`` past the float range."""
    try:
        variance = (2.0 if family == "laplace" else 1.0) * theta**2
    except OverflowError:
        variance = math.inf
    if variance == math.inf:
        raise NumericError(f"{family} noise variance overflows a float at theta={theta!r}")
    return variance


@dataclass(frozen=True, eq=False)
class MechanismSpec:
    """A calibrated additive-noise mechanism Y = X + N, with N Laplace or Gaussian.

    ``theta`` is the noise scale (0 denotes the degenerate noiseless
    release); ``delta`` is only meaningful for the Gaussian family.
    """

    family: str
    theta: float
    epsilon: float
    delta: float | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown noise family {self.family!r}; expected one of {FAMILIES}")
        if not 0 <= self.theta < math.inf:
            raise ValidationError(f"theta must be finite and >= 0, got {self.theta!r}")
        _check_epsilon(self.epsilon)
        if self.delta is not None:
            if self.family != "gaussian":
                raise ValidationError("delta is only meaningful for the gaussian family")
            _check_delta(self.delta)

    @property
    def variance(self) -> float:
        """Noise variance: 2 theta^2 for Laplace, theta^2 for Gaussian."""
        return _noise_variance(self.family, self.theta)


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
    _check_delta(delta)
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


def _checked(g: Callable[[float], float], context: str) -> Callable[[float], float]:
    """``g`` with its failures, and a NaN value, raised as ``NumericError``.

    A NaN must not compare as "not positive" and steer a bisection to a
    wrong root.
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

    return safe_g


def _bisect_log_theta(positive: Callable[[float], bool], context: str) -> float:
    """theta where ``positive`` (a sign test on the log(theta) axis) turns false.

    The bracket is grown by repeated doubling of theta (steps of log 2)
    from theta = 1 and then bisected to ROOT_LOG_TOL; theta is exp of the
    final bracket's midpoint. The result depends on nothing but the
    answers of ``positive`` at these fixed probe points.
    """
    step = math.log(2.0)
    hi = 0.0
    for _ in range(_BRACKET_MAX_STEPS):
        if not positive(hi):
            break
        hi += step
    else:
        raise NumericError(
            f"no upper bracket for {context}: g still positive at log(theta)={hi!r}"
        )
    lo = 0.0
    for _ in range(_BRACKET_MAX_STEPS):
        if positive(lo):
            break
        lo -= step
    else:
        raise NumericError(
            f"no lower bracket for {context}: g still nonpositive at log(theta)={lo!r}"
        )
    for _ in range(_ROOT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if positive(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= ROOT_LOG_TOL:
            break
    return math.exp(0.5 * (lo + hi))


def _solve_decreasing_log_theta(g: Callable[[float], float], context: str) -> float:
    """Root of a decreasing g on the log(theta) axis, evaluating g at every probe.

    This is the reference bisection: ``relaxed_theta`` replays it with
    fewer evaluations for the inverse-scale rate and falls back to it
    everywhere else. A NaN g raises ``NumericError``.
    """
    safe_g = _checked(g, context)
    return _bisect_log_theta(lambda log_theta: safe_g(log_theta) > 0.0, context)


def _replay_window(
    residuals: Callable[[float], tuple[np.ndarray, np.ndarray, np.ndarray]],
    d: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    a: float,
    noise: float,
) -> tuple[float, float] | None:
    """The log(theta) window outside which G = max(residuals(a)) has a known sign.

    G must be convex and increasing in the rate a = 1/theta, with a at or
    left of its root. Newton's method then lands at or right of the root
    in its first step and decreases monotonically towards it; its slope is
    the softmax-weighted mean distance of the binding group. It stops once
    |G| <= ``noise``, a bound on G's rounding error. Across the window
    |G| rises to several times ``noise``, so no rounding error flips its
    sign outside. Returns None when Newton does not stop within
    _NEWTON_MAX_ITER steps, its slope is not positive, or the window
    is a log(theta) unit or wider.
    """
    for _ in range(_NEWTON_MAX_ITER):
        values, weights, sums = residuals(a)
        k = int(values.argmax())
        group = slice(starts[k], starts[k] + sizes[k])
        value = float(values[k])
        slope = float(np.dot(weights[group], d[group])) / float(sums[k])
        if not (math.isfinite(value) and 0.0 < slope < math.inf):
            return None
        a -= value / slope
        if not 0.0 < a < math.inf:
            return None
        if abs(value) <= noise:
            # |dG / dlog(theta)| = a G'(a) near the root.
            margin = max(_REPLAY_MARGIN, 8.0 * noise / (a * slope))
            if not margin < 1.0:
                return None
            return -math.log(a) - margin, -math.log(a) + margin
    return None


@dataclass(frozen=True, eq=False)
class _MomentEquations:
    """The live row and column moment equations of one plan under one metric.

    The entries are grouped by equation, in plan order inside each group:
    equation k holds entries starts[k] to starts[k] + sizes[k] of ``d`` and
    ``log_mass``, and its marginal is element ``marginals[k]`` of the row
    masses followed by the column masses. Nothing here depends on epsilon.
    """

    d: np.ndarray
    log_mass: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    marginals: np.ndarray
    d_max: float
    #: The epsilon-free terms of the objective's rounding bound.
    magnitude: float


#: Pair -> its plan, and plan -> metric -> the plan's sensitivity or moment
#: equations under the metric. The keys are weak references compared by
#: identity, so an entry goes with its pair, plan or metric and no sweep
#: grows these. No value refers to its own key: a plan holds the pair's
#: distributions, not the pair.
_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_SENSITIVITIES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_EQUATIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _per_metric(
    memo: weakref.WeakKeyDictionary,
    plan: TransportPlan,
    metric: Metric,
    compute: Callable[[TransportPlan, Metric], object],
):
    """``compute(plan, metric)``, computed once per plan and metric object."""
    by_metric = memo.get(plan)
    if by_metric is None:
        by_metric = memo[plan] = weakref.WeakKeyDictionary()
    if metric not in by_metric:
        by_metric[metric] = compute(plan, metric)
    return by_metric[metric]


def _moment_equations(plan: TransportPlan, metric: Metric) -> _MomentEquations | None:
    """The equations ``relaxed_theta`` solves on ``plan``, or None when none is live."""
    distances = metric.over(plan.displacements())
    # One equation per row key 0..len(p)-1 and per column key after them.
    keys = np.concatenate([plan.rows, plan.cols + plan.source.mass.size])
    live = np.bincount(keys, weights=np.tile(distances > 0, 2))[keys] > 0
    if not live.any():
        return None
    # The stable sort keeps plan order inside each equation's group.
    order = np.flatnonzero(live)[np.argsort(keys[live], kind="stable")]
    keys, entries = keys[order], order % len(plan)
    d, log_mass = distances[entries], np.log(plan.mass[entries])
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    sizes = np.diff(starts, append=keys.size)
    return _MomentEquations(
        d=d,
        log_mass=log_mass,
        starts=starts,
        sizes=sizes,
        marginals=keys[starts],
        d_max=float(d.max()),
        magnitude=float(sizes.max()) + float(np.abs(log_mass).max()),
    )


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
    largest root is the root of their maximum G, evaluated for every
    equation at once as a grouped log-sum-exp. The grouping depends only
    on the plan and the metric, so it is built once per plan and metric
    object and reused at every epsilon.

    An epsilon at or below G's rounding bound cannot move the targets
    eps + log(marginal) off log(marginal), so rounding alone would decide
    the root; that raises ``NumericError``.

    With the inverse-scale rate, G is convex and increasing in the rate
    a = 1/theta, so a few Newton steps from the strict rate eps / max d
    find its root. The reference bisection of ``_solve_decreasing_log_theta``
    is then replayed probe for probe: a probe more than a margin below the
    root is known to be positive, one more than a margin above it is known
    to be nonpositive, and G is evaluated only inside the margin. The
    returned theta is therefore the reference bisection's, bit for bit.
    G is checked at both ends of the margin first; if a check fails or
    Newton does not settle, and for any other rate, every probe is
    evaluated.
    """
    _check_epsilon(epsilon)
    if not (
        (plan.source is p or np.array_equal(plan.source.support, p.support))
        and (plan.target is q or np.array_equal(plan.target.support, q.support))
    ):
        raise ValidationError("plan supports do not match the supplied distributions")
    eqs = _per_metric(_EQUATIONS, plan, metric, _moment_equations)
    if eqs is None:
        return 0.0
    d, log_mass, starts, sizes = eqs.d, eqs.log_mass, eqs.starts, eqs.sizes
    targets = epsilon + np.log(np.concatenate([p.mass, q.mass])[eqs.marginals])
    # Near the root the terms lie between the log masses and the targets.
    noise = _REPLAY_NOISE * (eqs.magnitude + float(np.abs(targets).max()))
    if epsilon <= noise:
        raise NumericError(
            f"epsilon={epsilon!r} is within the rounding bound {noise:.3g} of the "
            "moment equations' targets, so their root would be decided by rounding"
        )

    def residuals(a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each equation's log residual at rate a, with its entries' softmax weights and sums."""
        terms = log_mass + a * d
        peak = np.maximum.reduceat(terms, starts)
        weights = np.exp(terms - peak.repeat(sizes))
        sums = np.add.reduceat(weights, starts)
        return peak + np.log(sums) - targets, weights, sums

    def g(log_theta: float) -> float:
        return float(residuals(float(rate.forward(math.exp(log_theta))))[0].max())

    context = "the row and column moment equations"
    if rate is INVERSE_SCALE:
        window = _replay_window(residuals, d, starts, sizes, epsilon / eqs.d_max, noise)
        if window is not None:
            lo_edge, hi_edge = window
            safe_g = _checked(g, context)
            if safe_g(lo_edge) > noise and safe_g(hi_edge) < -noise:
                return _bisect_log_theta(
                    lambda x: x < lo_edge or (x <= hi_edge and safe_g(x) > 0.0), context
                )
    return _solve_decreasing_log_theta(g, context)


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
    distance regardless of ``metric``. A pair object's plan, and the plan's
    sensitivity per metric object, are computed on its first calibration
    and reused by later ones, as at every epsilon of a sweep.
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
        plan = _PLANS.get(pair)
        if plan is None:
            plan = _PLANS[pair] = optimal_plan(pair.p, pair.q)
        sens = _per_metric(_SENSITIVITIES, plan, L1 if gaussian else metric, plan_sensitivity)
        if gaussian:
            theta = calibrate_gaussian(sens, epsilon, delta, variant=method[-1])
        elif method == "theorem2":
            theta = relaxed_theta(plan, pair.p, pair.q, epsilon, metric, rate)
        else:
            theta = calibrate_exponential(sens, epsilon, rate)
        records.append(
            PairCalibration(labels=pair.labels, prior=pair.prior, sensitivity=sens, theta=theta)
        )

    theta = max(rec.theta for rec in records)
    if gaussian:
        variance = _noise_variance("gaussian", theta)
    elif metric is L1 and rate is INVERSE_SCALE:
        variance = _noise_variance("laplace", theta)
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


def sample_noise(
    spec: MechanismSpec, n: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Draw n i.i.d. noise values, deterministically under ``seed``.

    ``seed`` may be a ``np.random.Generator``, which is drawn from and left
    advanced; draws of n1 then n2 values from one generator equal one draw
    of n1 + n2.
    """
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n!r}")
    if spec.theta == 0:
        return np.zeros(int(n))
    rng = np.random.default_rng(seed)
    if spec.family == "laplace":
        return rng.laplace(0.0, spec.theta, int(n))
    return rng.normal(0.0, spec.theta, int(n))


def release(
    values: Sequence[float], spec: MechanismSpec, seed: int | np.random.Generator
) -> np.ndarray:
    """Elementwise noised copy of ``values`` under the calibrated spec.

    A non-finite value is rejected: no noise hides a published nan or inf.
    ``seed`` is as for ``sample_noise``.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"values must be one-dimensional, got shape {arr.shape}")
    finite = np.isfinite(arr)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValidationError(f"values must be finite, got {float(arr[k])!r} at index {k}")
    if arr.size == 0:
        return arr.copy()
    return arr + sample_noise(spec, arr.size, seed)
