"""Additive-noise calibration and release.

Three calibration routes are implemented, all driven by the optimal
transport plan between the secret-conditional distributions:

* the strict exponential-mechanism rule theta = s / eps, where s is the
  largest ground distance on the plan support;
* a relaxed rule that solves, per plan row and column, the moment equation
  sum_k exp(d_k / theta) pi_k = e^eps * (marginal mass) and keeps the
  largest root, which never exceeds the strict rule's scale;
* Gaussian scales achieving the delta-approximate guarantee, in the
  closed-form variant (valid for eps <= 1) and the quadratic-bound variant.

Both exponential rules use the inverse-scale rate eta(theta) = 1/theta of
Laplace noise. The paper's rate eta enters them only through a = eta(theta),
so another rate reparameterises the scale: its theta is eta^{-1}(1/theta).
"""

from __future__ import annotations

import math
import sys
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ValidationError
from .pairs import DiscriminativePair
from .transport import L1, Metric, TransportPlan, optimal_plan, plan_sensitivity

#: Absolute tolerance on log(theta) for the relaxed-rule root search.
ROOT_LOG_TOL = 1e-10
_ROOT_MAX_ITER = 200
#: |log(theta)| past which theta or 1/theta overflows a float; the root
#: search's bracket grows no further.
_LOG_THETA_LIMIT = math.log(sys.float_info.max)
#: Newton steps allowed, over all equations, before relaxed_theta evaluates
#: the whole bisection.
_NEWTON_MAX_ITER = 30
#: Least half-width, in log(theta), of the window around the Newton root
#: inside which the replayed bisection evaluates the objective: far above
#: the float spacing of log(theta), and under ROOT_LOG_TOL.
_REPLAY_MARGIN = 1e-11
#: Bound on the objective's rounding error per unit of its terms' magnitude
#: and group size: 128 float64 unit roundoffs, where seeded sweeps (float64
#: against long double) stay under 2.
_REPLAY_NOISE = 2.0**-46

FAMILIES = ("laplace", "gaussian")

METHODS = {
    "theorem1": "theorem-1",
    "theorem2": "theorem-2",
    "gaussian-a": "gaussian-a",
    "gaussian-b": "gaussian-b",
}
_GAUSSIAN_METHODS = ("gaussian-a", "gaussian-b")


def _check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < math.inf:
        raise ValidationError(f"epsilon must be finite and > 0, got {epsilon!r}")


def _check_sensitivity(sensitivity: float) -> None:
    if not 0 <= sensitivity < math.inf:
        raise ValidationError(f"sensitivity must be finite and >= 0, got {sensitivity!r}")


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


def calibrate_exponential(sensitivity: float, epsilon: float) -> float:
    """Strict rule: theta = sensitivity / epsilon, the inverse of the rate epsilon / sensitivity.

    A zero sensitivity means the two conditionals are already
    indistinguishable on the plan support, so no noise is required.
    """
    _check_epsilon(epsilon)
    _check_sensitivity(sensitivity)
    if sensitivity == 0:
        return 0.0
    return float(1.0 / (epsilon / sensitivity))


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
    _check_sensitivity(sensitivity)
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


def _checked(
    residuals: Callable[[float], np.ndarray], context: str
) -> Callable[[float], tuple[float, np.ndarray]]:
    """G = max(``residuals``) with the residuals; failures and a NaN G raised as ``NumericError``.

    A NaN must not compare as "not positive" and steer a bisection to a
    wrong root.
    """

    def safe_g(log_theta: float) -> tuple[float, np.ndarray]:
        try:
            values = residuals(log_theta)
            value = float(values.max())
        except (OverflowError, ZeroDivisionError, FloatingPointError) as exc:
            raise NumericError(
                f"objective for {context} failed at log(theta)={log_theta!r}: {exc}"
            ) from exc
        if math.isnan(value):
            raise NumericError(f"objective for {context} is NaN at log(theta)={log_theta!r}")
        return value, values

    return safe_g


def _bisect_log_theta(
    g: Callable[[float], tuple[float, np.ndarray]],
    context: str,
    lo_edge: float,
    hi_edge: float,
) -> float:
    """theta where the decreasing G (first item of ``g``) turns nonpositive on the log(theta) axis.

    The bracket is grown by repeated doubling of theta (steps of log 2)
    from theta = 1, as far as theta and 1/theta stay floats, and then
    bisected to ROOT_LOG_TOL; theta is exp of the final bracket's
    midpoint. The result depends on nothing but the sign of G at these
    fixed probe points. A probe below ``lo_edge`` is taken as positive and
    one above ``hi_edge`` as nonpositive without calling ``g``: the caller
    has checked G's sign at both edges.
    """
    step = math.log(2.0)
    hi = 0.0
    while hi <= hi_edge and (hi < lo_edge or g(hi)[0] > 0.0):
        if hi + step > _LOG_THETA_LIMIT:
            raise NumericError(
                f"no upper bracket for {context}: g still positive at log(theta)={hi!r}"
            )
        hi += step
    lo = 0.0
    while lo >= lo_edge and (lo > hi_edge or g(lo)[0] <= 0.0):
        if lo - step < -_LOG_THETA_LIMIT:
            raise NumericError(
                f"no lower bracket for {context}: g still nonpositive at log(theta)={lo!r}"
            )
        lo -= step
    for _ in range(_ROOT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid < lo_edge or (mid <= hi_edge and g(mid)[0] > 0.0):
            lo = mid
        else:
            hi = mid
        if hi - lo <= ROOT_LOG_TOL:
            break
    return math.exp(0.5 * (lo + hi))


@dataclass(frozen=True, eq=False)
class _MomentEquations:
    """The live row and column moment equations of one plan under one metric.

    The entries are grouped by equation, in plan order inside each group:
    equation k holds entries starts[k] to starts[k] + sizes[k] of ``d`` and
    ``log_mass``, and its target less epsilon is ``log_marginals[k]``, the
    log of its row or column mass. Nothing here depends on epsilon.
    """

    d: np.ndarray
    log_mass: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    log_marginals: np.ndarray
    d_max: float
    #: The epsilon-free terms of the objective's rounding bound.
    magnitude: float


def _objective(eqs: _MomentEquations, targets: np.ndarray, a: float) -> np.ndarray:
    """Every equation's log residual at rate a, as one grouped log-sum-exp; G is their maximum."""
    terms = eqs.log_mass + a * eqs.d
    peak = np.maximum.reduceat(terms, eqs.starts)
    sums = np.add.reduceat(np.exp(terms - peak.repeat(eqs.sizes)), eqs.starts)
    return peak + np.log(sums) - targets


def _newton_root(
    eqs: _MomentEquations, k: int, target: float, a: float, noise: float, budget: int
) -> tuple[float, float, int] | None:
    """Newton's method on equation k alone, in Python floats over its entries.

    The equation's log residual is convex and increasing in the rate a,
    so from the left of its root the first step lands at or right of the
    root, and from the right the steps decrease monotonically towards it;
    its slope is the softmax-weighted mean distance of the entries. Returns
    (a, slope, steps left of ``budget``) after the step from a point where
    |residual| <= ``noise``, a bound on G's rounding error; None when the
    budget runs out first, a residual is not finite or a slope is not
    positive.
    """
    start = int(eqs.starts[k])
    stop = start + int(eqs.sizes[k])
    d = eqs.d[start:stop].tolist()
    log_mass = eqs.log_mass[start:stop].tolist()
    for used in range(1, budget + 1):
        terms = [m + a * x for m, x in zip(log_mass, d)]
        peak = max(terms)
        total = moment = 0.0
        for t, x in zip(terms, d):
            w = math.exp(t - peak)
            total += w
            moment += w * x
        value = peak + math.log(total) - target
        slope = moment / total
        if not (math.isfinite(value) and 0.0 < slope < math.inf):
            return None
        a -= value / slope
        if not 0.0 < a < math.inf:
            return None
        if abs(value) <= noise:
            return a, slope, budget - used
    return None


def _newton_window(
    eqs: _MomentEquations,
    targets: np.ndarray,
    epsilon: float,
    noise: float,
    g: Callable[[float], tuple[float, np.ndarray]],
) -> tuple[float, float] | None:
    """The log(theta) window outside which G, the first item of ``g``, has a known sign.

    G is convex and increasing in the inverse-scale rate a = 1/theta, and
    the strict rate eps / max d lies at or left of every equation's root.
    G is evaluated there once, and Newton runs on its largest equation
    alone. The window is the Newton root's log(theta) plus or minus a
    margin across which |G| rises to several times ``noise``, so no
    rounding error flips its sign outside. G below -noise at the upper
    edge confirms that no other equation binds further left; otherwise
    Newton continues on the largest equation there, from the current a,
    right of that equation's root. G above ``noise`` at the lower edge
    completes the check. Returns None when Newton does not settle within
    _NEWTON_MAX_ITER steps in all, or the window is a log(theta) unit or
    wider.
    """
    a, budget = epsilon / eqs.d_max, _NEWTON_MAX_ITER
    # Only its argmax is used: a NaN makes Newton give up, and the full
    # bisection, which checks every value, runs instead.
    values = _objective(eqs, targets, a)
    while True:
        k = int(values.argmax())
        found = _newton_root(eqs, k, float(targets[k]), a, noise, budget)
        if found is None:
            return None
        a, slope, budget = found
        # |dG / dlog(theta)| = a G'(a) near the root.
        margin = max(_REPLAY_MARGIN, 8.0 * noise / (a * slope))
        if not margin < 1.0:
            return None
        root = -math.log(a)
        value, values = g(root + margin)
        if value < -noise:
            break
    if g(root - margin)[0] > noise:
        return root - margin, root + margin
    return None


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
        log_marginals=np.log(np.concatenate([plan.source.mass, plan.target.mass])[keys[starts]]),
        d_max=float(d.max()),
        magnitude=float(sizes.max()) + float(np.abs(log_mass).max()),
    )


def relaxed_theta(plan: TransportPlan, epsilon: float, metric: Metric = L1) -> float:
    """Largest root of the per-row / per-column moment equations of ``plan``.

    For each column x' with q(x') > 0 the equation
    sum_x exp(d(x - x') / theta) pi(x, x') = e^eps q(x') has a unique root
    because the left side strictly decreases in theta whenever any entry
    has positive distance; the symmetric equation is solved per row
    against p(x). The marginals p and q are the plan's own source and
    target. Rows or columns whose entries all sit at distance zero hold
    their inequality for every theta and are left out. The equations are
    solved together: their log residuals all decrease in theta, so the
    largest root is the root of their maximum G, evaluated for every
    equation at once as a grouped log-sum-exp. The grouping depends only
    on the plan and the metric, so it is built once per plan and metric
    object and reused at every epsilon.

    An epsilon at or below G's rounding bound cannot move the targets
    eps + log(marginal) off log(marginal), so rounding alone would decide
    the root; that raises ``NumericError``.

    G is convex and increasing in the rate a = 1/theta. G is evaluated once
    at the strict rate eps / max d, and Newton's method runs on its largest
    equation alone, in Python floats; G at a margin either side of that
    root confirms that no other equation binds (``_newton_window``), or
    Newton moves on to the equation that does. One bisection,
    ``_bisect_log_theta``, then finds theta: a probe below the window is
    known to be positive, one above it is known to be nonpositive, and G
    is evaluated only inside it. Its probes do not depend on the window,
    so theta is the same bit for bit as with G evaluated at every probe,
    which is what happens when Newton does not settle or a check at an
    edge fails.
    """
    _check_epsilon(epsilon)
    eqs = _per_metric(_EQUATIONS, plan, metric, _moment_equations)
    if eqs is None:
        return 0.0
    targets = epsilon + eqs.log_marginals
    # Near the root the terms lie between the log masses and the targets.
    noise = _REPLAY_NOISE * (eqs.magnitude + float(np.abs(targets).max()))
    if epsilon <= noise:
        raise NumericError(
            f"epsilon={epsilon!r} is within the rounding bound {noise:.3g} of the "
            "moment equations' targets, so their root would be decided by rounding"
        )
    context = "the row and column moment equations"
    g = _checked(lambda log_theta: _objective(eqs, targets, 1.0 / math.exp(log_theta)), context)
    window = _newton_window(eqs, targets, epsilon, noise, g)
    return _bisect_log_theta(g, context, *(window or (-math.inf, math.inf)))


def calibrate_pufferfish(
    pairs: Sequence[DiscriminativePair],
    epsilon: float,
    method: str = "theorem1",
    metric: Metric = L1,
    delta: float | None = None,
) -> PrivacyReport:
    """Calibrate one noise scale covering every discriminative pair.

    Each pair is calibrated on its own optimal transport plan and the
    maximum scale wins; the per-pair breakdown is kept in the report.
    ``theorem1`` and ``theorem2`` give the Laplace scale, whose variance
    2 theta^2 is reported only for the built-in ``L1``. Gaussian methods
    measure plan sensitivity with the absolute-value distance regardless
    of ``metric``. A pair object's plan, and the plan's sensitivity per
    metric object, are computed on its first calibration and reused by
    later ones, as at every epsilon of a sweep.
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
            theta = relaxed_theta(plan, epsilon, metric)
        else:
            theta = calibrate_exponential(sens, epsilon)
        records.append(
            PairCalibration(labels=pair.labels, prior=pair.prior, sensitivity=sens, theta=theta)
        )

    theta = max(rec.theta for rec in records)
    if gaussian:
        variance = _noise_variance("gaussian", theta)
    elif metric is L1:
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
