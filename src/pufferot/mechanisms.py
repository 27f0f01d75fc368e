"""Additive-noise calibration and release.

Three calibration routes are implemented, all driven by the optimal
transport plan between the secret-conditional distributions:

* the strict exponential-mechanism rule theta = s / eps, where s is the
  largest distance |x - x'| on the plan support;
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
import operator
import sys
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericError, ValidationError
from .pairs import DiscriminativePair
from .transport import TransportPlan, optimal_plan, plan_sensitivity

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
#: What Theorem 2's root-search errors call the system they solve.
_EQUATIONS_NAME = "the row and column moment equations"

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


def _pairs_and_epsilon(
    pairs: Sequence[DiscriminativePair], epsilon: float
) -> list[DiscriminativePair]:
    """``pairs`` as a list, once it holds a pair and ``epsilon`` is finite and > 0."""
    pairs = list(pairs)
    if not pairs:
        raise ValidationError("at least one discriminative pair is required")
    _check_epsilon(epsilon)
    return pairs


def _check_sensitivity(sensitivity: float) -> None:
    if not 0 <= sensitivity < math.inf:
        raise ValidationError(f"sensitivity must be finite and >= 0, got {sensitivity!r}")


def _check_scale(theta: float, sensitivity: float, epsilon: float) -> float:
    """``theta``, unless a positive sensitivity gave a scale of 0 (no noise) or inf."""
    if sensitivity > 0 and not 0 < theta < math.inf:
        raise NumericError(
            f"the noise scale for sensitivity={sensitivity!r} at epsilon={epsilon!r} "
            f"is {theta!r}, outside the positive floats"
        )
    return theta


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
    variance: float
    pairs: tuple[PairCalibration, ...]

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
    rate = epsilon / sensitivity
    return _check_scale(float(1.0 / rate) if rate else math.inf, sensitivity, epsilon)


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
        theta = math.sqrt(2.0 * math.log(1.25 / delta)) * sensitivity / epsilon
    else:
        t = 0.41 * delta ** (-1.0 / 3.0)
        c = t + math.sqrt(t * t + epsilon / 2.0) + 1e-9
        theta = sensitivity / epsilon * c
    return _check_scale(theta, sensitivity, epsilon)


def _bisect_log_theta(
    eqs: _MomentEquations, targets: np.ndarray, lo_edge: float, hi_edge: float
) -> float:
    """theta where the decreasing G of ``_checked_objective`` turns nonpositive in log(theta).

    The bracket is grown by repeated doubling of theta (steps of log 2)
    from theta = 1, as far as theta and 1/theta stay floats, and then
    bisected to ROOT_LOG_TOL; theta is exp of the final bracket's
    midpoint. The result depends on nothing but the sign of G at these
    fixed probe points. A probe below ``lo_edge`` is taken as positive and
    one above ``hi_edge`` as nonpositive without evaluating G: the caller
    has established G's sign beyond both edges.
    """
    step = math.log(2.0)
    hi = 0.0
    while hi <= hi_edge and (hi < lo_edge or _checked_objective(eqs, targets, hi)[0] > 0.0):
        if hi + step > _LOG_THETA_LIMIT:
            raise NumericError(
                f"no upper bracket for {_EQUATIONS_NAME}: g still positive at log(theta)={hi!r}"
            )
        hi += step
    lo = 0.0
    while lo >= lo_edge and (lo > hi_edge or _checked_objective(eqs, targets, lo)[0] <= 0.0):
        if lo - step < -_LOG_THETA_LIMIT:
            raise NumericError(
                f"no lower bracket for {_EQUATIONS_NAME}: g still nonpositive at log(theta)={lo!r}"
            )
        lo -= step
    for _ in range(_ROOT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid < lo_edge or (mid <= hi_edge and _checked_objective(eqs, targets, mid)[0] > 0.0):
            lo = mid
        else:
            hi = mid
        if hi - lo <= ROOT_LOG_TOL:
            break
    return math.exp(0.5 * (lo + hi))


@dataclass(eq=False)
class _MomentEquations:
    """The live row and column moment equations of one plan.

    The entries are grouped by equation, in plan order inside each group:
    equation k holds entries starts[k] to starts[k] + sizes[k] of ``d`` and
    ``log_mass``, and its target less epsilon is ``log_marginals[k]``, the
    log of its row or column mass. Nothing here depends on epsilon, and
    only ``binding`` changes after the equations are built.
    """

    d: np.ndarray
    log_mass: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    log_marginals: np.ndarray
    #: The least and the largest of ``log_marginals``.
    log_marginal_range: tuple[float, float]
    d_max: float
    #: The epsilon-free terms of the objective's rounding bound.
    magnitude: float
    #: The equation whose root was theta at the last call that proved its
    #: Newton window, as (k, its d list, its log_mass list); None before.
    #: Only replaced whole, so a thread reads the old tuple or the new one.
    binding: tuple[int, list, list] | None = None


def _objective(eqs: _MomentEquations, targets: np.ndarray, a: float) -> np.ndarray:
    """Every equation's log residual at rate a, as one grouped log-sum-exp; G is their maximum."""
    terms = eqs.log_mass + a * eqs.d
    peak = np.maximum.reduceat(terms, eqs.starts)
    sums = np.add.reduceat(np.exp(terms - peak.repeat(eqs.sizes)), eqs.starts)
    return peak + np.log(sums) - targets


def _checked_objective(
    eqs: _MomentEquations, targets: np.ndarray, log_theta: float
) -> tuple[float, np.ndarray]:
    """G at theta = exp(``log_theta``), with every equation's residual (``_objective``).

    Failures and a NaN G are raised as ``NumericError``: a NaN must not
    compare as "not positive" and steer a bisection to a wrong root.
    """
    try:
        values = _objective(eqs, targets, 1.0 / math.exp(log_theta))
        value = float(values.max())
    except (OverflowError, ZeroDivisionError, FloatingPointError) as exc:
        raise NumericError(
            f"objective for {_EQUATIONS_NAME} failed at log(theta)={log_theta!r}: {exc}"
        ) from exc
    if math.isnan(value):
        raise NumericError(f"objective for {_EQUATIONS_NAME} is NaN at log(theta)={log_theta!r}")
    return value, values


def _log_residual(d: list, log_mass: list, target: float, a: float) -> tuple[float, float]:
    """One equation's log residual at rate a, and its slope in a, in Python floats.

    ``d`` and ``log_mass`` are the equation's entries and ``target`` its
    target. The slope is the softmax-weighted mean distance of the
    entries. A NaN or infinite input gives a NaN residual, never an
    exception.
    """
    terms = [m + a * x for m, x in zip(log_mass, d)]
    peak = max(terms)
    total = moment = 0.0
    for t, x in zip(terms, d):
        w = math.exp(t - peak)
        total += w
        moment += w * x
    return peak + math.log(total) - target, moment / total


def _newton_root(
    d: list, log_mass: list, target: float, a: float, noise: float, budget: int
) -> tuple[float, float, int] | None:
    """Newton's method on one equation alone, by ``_log_residual``.

    The equation's log residual is convex and increasing in the rate a,
    so from the left of its root the first step lands at or right of the
    root, and from the right the steps decrease monotonically towards it.
    Returns (a, slope, steps left of ``budget``) after the step from a
    point where |residual| <= ``noise``, a bound on G's rounding error;
    None when the budget runs out first, a residual is not finite or a
    slope is not positive.
    """
    for used in range(1, budget + 1):
        value, slope = _log_residual(d, log_mass, target, a)
        if not (math.isfinite(value) and 0.0 < slope < math.inf):
            return None
        a -= value / slope
        if not 0.0 < a < math.inf:
            return None
        if abs(value) <= noise:
            return a, slope, budget - used
    return None


def _newton_window(
    eqs: _MomentEquations, targets: np.ndarray, epsilon: float, noise: float
) -> tuple[float, float] | None:
    """The log(theta) window outside which G, of ``_checked_objective``, has a known sign.

    G is convex and increasing in the inverse-scale rate a = 1/theta, and
    the strict rate eps / max d lies at or left of every equation's root.
    Newton runs from there on one equation alone: the one whose root was
    theta at the plan's last proved window (``eqs.binding``), or, on a
    plan's first call, the largest at the strict rate, where G is then
    evaluated once. The window is the Newton root's log(theta) plus or
    minus a margin across which |G| rises to several times ``noise``, so no
    rounding error flips its sign outside. G below -noise at the upper
    edge confirms that no other equation binds further left; otherwise
    Newton continues on the largest equation there, from the current a,
    right of that equation's root. The lower edge needs only the equation
    Newton solved last: G is the maximum of the equations, so that
    equation's residual above ``noise`` puts G above it too. That equation
    becomes ``eqs.binding``. Returns None when Newton does not settle
    within _NEWTON_MAX_ITER steps in all, the window is a log(theta) unit
    or wider, or an edge lies outside +-_LOG_THETA_LIMIT.
    """
    a, budget = epsilon / eqs.d_max, _NEWTON_MAX_ITER
    equation = eqs.binding
    if equation is None:
        # Only its argmax is used: a NaN makes Newton give up, and the full
        # bisection, which checks every value, runs instead.
        values = _objective(eqs, targets, a)
    while True:
        if equation is None:
            k = int(values.argmax())
            start = int(eqs.starts[k])
            stop = start + int(eqs.sizes[k])
            equation = (k, eqs.d[start:stop].tolist(), eqs.log_mass[start:stop].tolist())
        k, d, log_mass = equation
        target = float(targets[k])
        found = _newton_root(d, log_mass, target, a, noise, budget)
        if found is None:
            return None
        a, slope, budget = found
        # |dG / dlog(theta)| = a G'(a) near the root.
        margin = max(_REPLAY_MARGIN, 8.0 * noise / (a * slope))
        root = -math.log(a)
        # Past the limit, 1/theta or theta is not a float: G is inf x 0 there.
        if not (margin < 1.0 and abs(root) + margin <= _LOG_THETA_LIMIT):
            return None
        value, values = _checked_objective(eqs, targets, root + margin)
        if value < -noise:
            break
        equation = None
    if _log_residual(d, log_mass, target, 1.0 / math.exp(root - margin))[0] > noise:
        eqs.binding = equation
        return root - margin, root + margin
    return None


#: Pair -> (its plan, the plan's sensitivity), and plan -> its moment
#: equations. The keys are weak references compared by identity, so an
#: entry goes with its pair or plan and no sweep grows these. No value
#: refers to its own key: a plan holds the pair's distributions, not the pair.
_CALIBRATIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_EQUATIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _moment_equations(plan: TransportPlan) -> _MomentEquations | None:
    """The equations ``relaxed_theta`` solves on ``plan``, or None when none is live."""
    distances = np.abs(plan.displacements())
    # One equation per row key 0..len(p)-1 and per column key after them.
    keys = np.concatenate([plan.rows, plan.cols + plan.source.mass.size])
    marginals = np.concatenate([plan.source.mass, plan.target.mass])
    positive = distances > 0
    live_keys = np.bincount(keys, np.concatenate([positive, positive]), marginals.size) > 0
    if not live_keys.any():
        return None
    # The stable sort keeps plan order inside each equation's group, and
    # the groups follow in key order.
    order = np.argsort(keys, kind="stable")
    order = order[live_keys[keys[order]]]
    entries = order % len(plan)
    d, log_mass = distances[entries], np.log(plan.mass[entries])
    sizes = np.bincount(keys, minlength=marginals.size)[live_keys]
    starts = sizes.cumsum() - sizes
    log_marginals = np.log(marginals[live_keys])
    return _MomentEquations(
        d=d,
        log_mass=log_mass,
        starts=starts,
        sizes=sizes,
        log_marginals=log_marginals,
        log_marginal_range=(float(log_marginals.min()), float(log_marginals.max())),
        d_max=float(d.max()),
        magnitude=float(sizes.max()) + float(np.abs(log_mass).max()),
    )


def relaxed_theta(plan: TransportPlan, epsilon: float) -> float:
    """Largest root of the per-row / per-column moment equations of ``plan``.

    For each column x' with q(x') > 0 the equation
    sum_x exp(|x - x'| / theta) pi(x, x') = e^eps q(x') has a unique root
    because the left side strictly decreases in theta whenever any entry
    has positive distance; the symmetric equation is solved per row
    against p(x). The marginals p and q are the plan's own source and
    target. Rows or columns whose entries all sit at distance zero hold
    their inequality for every theta and are left out. The equations are
    solved together: their log residuals all decrease in theta, so the
    largest root is the root of their maximum G, evaluated for every
    equation at once as a grouped log-sum-exp. The grouping depends only
    on the plan, so it is built once per plan object and reused at every
    epsilon.

    An epsilon at or below G's rounding bound cannot move the targets
    eps + log(marginal) off log(marginal), so rounding alone would decide
    the root; that raises ``NumericError``, as does a strict rate eps / max d
    that overflows, where theorem1's scale is 0 and this one no larger.

    G is convex and increasing in the rate a = 1/theta. Newton's method
    runs from the strict rate eps / max d on one equation alone, in Python
    floats: on a plan's first call the largest there, the one place G is
    evaluated at the strict rate, and on later calls the equation whose
    root was theta last time, kept beside the plan's equations. G a margin
    above that root in log(theta) confirms that no other equation binds
    (``_newton_window``), or Newton moves on to the equation that does, and
    the binding equation alone a margin below it confirms the root. Which
    equation Newton starts on never changes theta. One bisection,
    ``_bisect_log_theta``, then finds theta: a probe below the window is
    known to be positive, one above it is known to be nonpositive, and G
    is evaluated only inside it. Its probes do not depend on the window,
    so theta is the same bit for bit as with G evaluated at every probe,
    which is what happens when Newton does not settle or a check at an
    edge fails.
    """
    _check_epsilon(epsilon)
    try:
        eqs = _EQUATIONS[plan]
    except KeyError:
        eqs = _EQUATIONS[plan] = _moment_equations(plan)
    if eqs is None:
        return 0.0
    targets = epsilon + eqs.log_marginals
    # Near the root the terms lie between the log masses and the targets.
    # The largest |target| is at an extreme log marginal, as eps + x rounds
    # monotonically in x.
    eps, (lo, hi) = float(epsilon), eqs.log_marginal_range
    noise = _REPLAY_NOISE * (eqs.magnitude + max(abs(eps + lo), abs(eps + hi)))
    if epsilon <= noise:
        raise NumericError(
            f"epsilon={epsilon!r} is within the rounding bound {noise:.3g} of the "
            "moment equations' targets, so their root would be decided by rounding"
        )
    if epsilon / eqs.d_max == math.inf:
        _check_scale(0.0, eqs.d_max, epsilon)
    window = _newton_window(eqs, targets, epsilon, noise)
    return _bisect_log_theta(eqs, targets, *(window or (-math.inf, math.inf)))


def calibrate_pufferfish(
    pairs: Sequence[DiscriminativePair],
    epsilon: float,
    method: str = "theorem1",
    delta: float | None = None,
) -> PrivacyReport:
    """Calibrate one noise scale covering every discriminative pair.

    Each pair is calibrated on its own optimal transport plan and the
    maximum scale wins; the per-pair breakdown is kept in the report.
    ``theorem1`` and ``theorem2`` give the Laplace scale, with variance
    2 theta^2, and the Gaussian methods a Gaussian one, with variance
    theta^2. A pair object's plan, and the plan's sensitivity, are
    computed on its first calibration and reused by later ones, as at
    every epsilon of a sweep.
    """
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}; expected one of {sorted(METHODS)}")
    pairs = _pairs_and_epsilon(pairs, epsilon)
    gaussian = method in _GAUSSIAN_METHODS
    if gaussian and delta is None:
        raise ValidationError(f"method {method!r} requires delta")
    if not gaussian and delta is not None:
        raise ValidationError(f"method {method!r} does not accept delta")

    records = []
    for pair in pairs:
        try:
            plan, sens = _CALIBRATIONS[pair]
        except KeyError:
            plan = optimal_plan(pair.p, pair.q)
            sens = plan_sensitivity(plan)
            _CALIBRATIONS[pair] = plan, sens
        if gaussian:
            theta = calibrate_gaussian(sens, epsilon, delta, variant=method[-1])
        elif method == "theorem2":
            theta = relaxed_theta(plan, epsilon)
        else:
            theta = calibrate_exponential(sens, epsilon)
        records.append(
            PairCalibration(labels=pair.labels, prior=pair.prior, sensitivity=sens, theta=theta)
        )

    theta = max(rec.theta for rec in records)
    return PrivacyReport(
        method=METHODS[method],
        epsilon=epsilon,
        delta=delta,
        theta=theta,
        variance=_noise_variance("gaussian" if gaussian else "laplace", theta),
        pairs=tuple(records),
    )


def sample_noise(
    spec: MechanismSpec, n: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Draw n i.i.d. noise values, deterministically under ``seed``.

    ``seed`` may be a ``np.random.Generator``, which is drawn from and left
    advanced; draws of n1 then n2 values from one generator equal one draw
    of n1 + n2. ``n`` is an integer >= 0: anything ``operator.index`` takes.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ValidationError(f"n must be an integer, got {n!r}") from None
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n!r}")
    if spec.theta == 0:
        return np.zeros(n)
    rng = np.random.default_rng(seed)
    if spec.family == "laplace":
        return rng.laplace(0.0, spec.theta, n)
    return rng.normal(0.0, spec.theta, n)


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
