"""Numerical certification of the epsilon-indistinguishability guarantee.

The output density under each secret is the noise density convolved with
the conditional data distribution; verification bounds the absolute
log-ratio of the two output densities. Both certificates take each pair's
figures (worst log-ratio, its argmax, the grid and a note) from one
per-pair evaluation: the log-ratio check passes a pair on them, and the
Gaussian delta check reports them and decides on the noise tail mass.

For Laplace noise the check is exact: between neighbouring positive-mass
support points the ratio is a Moebius function of exp(2y/theta), hence
monotone, and outside their hull it is constant, so its supremum over y is
attained at a support point. Only those points are evaluated, in O(n + m),
by prefix sweeps rather than from the density. Pairs with the same number
of points are swept together, in chunks of a fixed element budget, each to
the bits a sweep of that pair alone gives.
For Gaussian noise, the only family :func:`log_output_density` takes, the
ratio's maximum is taken over a grid reaching 10 theta past the support
hull at a step h = theta / 50. Its slope is (E_p[X|y] - E_q[X|y]) /
theta^2 by Tweedie's formula, so between grid points it can exceed the
grid by at most span h / (2 theta^2), and its limits as y -> +-inf are
exact. The maximum is found without evaluating every grid point: a coarse
pass evaluates the densities and both posterior means at every 16th
point; the posterior means are nondecreasing, which bounds the ratio on
each cell between coarse points from its two ends; and only the cells
whose bound, plus a rounding margin, reaches the coarse maximum are
evaluated in full. The maximum and its first grid index are those of an
all-points pass. One gap is open: beyond the grid the ratio may overshoot
its limit before it settles, and nothing bounds that overshoot.

Reports are strict JSON: an infinite figure is written as "inf" or "-inf",
and a figure that was not evaluated (a grid over its cap) as null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import DiscreteDistribution
from .errors import ValidationError
from .mechanisms import MechanismSpec, _check_delta, _pairs_and_epsilon
from .pairs import DiscriminativePair
from .transport import optimal_plan, plan_sensitivity

#: Slack allowed on the log-ratio bound before a pair is flagged.
VERIFY_TOL = 1e-6
#: Most Gaussian grid points a pair may need; a larger grid fails the pair closed.
MAX_GRID_POINTS = 1_000_000
#: (y, atom) terms per block of log_output_density, about 256 KB of float64.
_BLOCK_ELEMENTS = 1 << 15
#: The Gaussian grid reaches this many theta beyond the support hull,
_GRID_PAD_SCALES = 10.0
#: with this many points per theta.
_GRID_POINTS_PER_SCALE = 50
#: The grid's maximum is searched from every this-many-th point.
_COARSE_STRIDE = 16


@dataclass(frozen=True, eq=False)
class PairCheck:
    labels: tuple[str, str]
    passed: bool
    worst_log_ratio: float | None
    argmax_y: float | None
    grid: tuple[float, float, float] | None
    note: str = ""
    violation_mass: float | None = None

    def to_json_dict(self) -> dict:
        """The check as strict JSON: an infinite number is written as ``"inf"`` or ``"-inf"``."""
        payload = {
            "labels": list(self.labels),
            "pass": self.passed,
            "worst_log_ratio": _json_number(self.worst_log_ratio),
            "argmax_y": _json_number(self.argmax_y),
            "grid": list(map(_json_number, self.grid)) if self.grid is not None else None,
        }
        if self.note:
            payload["note"] = self.note
        if self.violation_mass is not None:
            payload["violation_mass"] = self.violation_mass
        return payload


def _json_number(value: float | None) -> float | str | None:
    """``value``, or where it is not finite its ``repr`` (``"inf"``, ``"-inf"``) for ``float``."""
    return value if value is None or math.isfinite(value) else repr(value)


@dataclass(frozen=True, eq=False)
class VerificationReport:
    kind: str
    family: str
    theta: float
    epsilon: float
    tolerance: float
    passed: bool
    checks: tuple[PairCheck, ...]
    delta: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "family": self.family,
            "theta": self.theta,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "pairs": [check.to_json_dict() for check in self.checks],
        }


def log_output_density(
    dist: DiscreteDistribution, spec: MechanismSpec, ys: Sequence[float]
) -> np.ndarray:
    """log of the Gaussian-noised output density at each y, via log-sum-exp.

    The (y, atom) terms are evaluated in blocks of rows holding about
    _BLOCK_ELEMENTS terms, so memory is O(len(ys) + block) whatever the
    atom count. Each row's max and sum do not depend on the rows beside
    it, so the result is the same as one pass over the whole grid.
    Laplace noise needs no density here: its certificate is exact at the
    support points (:func:`_laplace_log_ratios`).
    """
    return _log_density_and_mean(dist, spec, ys)[0]


def _log_density_and_mean(
    dist: DiscreteDistribution, spec: MechanismSpec, ys: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`log_output_density`'s blocked loop, with E[X | y] at each y.

    The posterior mean is the block's weights summed against the atoms,
    over the same sum the log density takes its log of.
    """
    if spec.family != "gaussian" or spec.theta <= 0:
        raise ValidationError(f"the output density is Gaussian-only with theta > 0, got {spec!r}")
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    keep = dist.mass > 0
    xs = dist.support[keep]
    log_mass = np.log(dist.mass[keep])
    log_normaliser = -0.5 * math.log(2.0 * math.pi) - math.log(spec.theta)
    rows = max(1, _BLOCK_ELEMENTS // xs.size)
    buf = np.empty((min(rows, ys.size), xs.size))
    out = np.empty(ys.size)
    mean = np.empty(ys.size)
    for start in range(0, ys.size, rows):
        block = ys[start : start + rows]
        stop = start + block.size
        terms = np.subtract(block[:, None], xs[None, :], out=buf[: block.size])
        terms /= spec.theta
        np.square(terms, out=terms)
        terms *= 0.5
        np.subtract(log_normaliser, terms, out=terms)
        terms += log_mass
        peak = terms.max(axis=1)
        terms -= peak[:, None]
        np.exp(terms, out=terms)
        total = terms.sum(axis=1)
        out[start:stop] = peak + np.log(total)
        mean[start:stop] = terms @ xs / total
    return out, mean


def _identical(p: DiscreteDistribution, q: DiscreteDistribution) -> bool:
    return np.array_equal(p.support, q.support) and np.array_equal(p.mass, q.mass)


@dataclass(frozen=True, eq=False)
class _GaussianGrid:
    """One pair on the Gaussian grid; over the cap nothing is evaluated.

    ``worst`` is the largest of the grid maximum and both limits, found at
    ``argmax_y`` (-inf or inf for a limit); over the cap both are None and
    ``grid_max`` is inf. Between grid points the log-ratio stays within
    ``grid_max + slack``.
    """

    grid: tuple[float, float, float]
    grid_max: float
    slack: float
    worst: float | None
    argmax_y: float | None
    note: str


def _gaussian_grid(pair: DiscriminativePair, spec: MechanismSpec) -> _GaussianGrid:
    """The log-ratio's maximum on the grid, its limits and its slack.

    The point count is computed before anything is allocated; past
    MAX_GRID_POINTS no grid is built and the worst is not evaluated. The
    maximum over the grid is found by :func:`_grid_maximum`, which
    evaluates every _COARSE_STRIDE-th point and only the cells whose
    Tweedie bound can reach the coarse maximum; it equals the maximum
    over every grid point. The slope of the log-ratio is
    (E_p[X|y] - E_q[X|y]) / theta^2: at most span / theta^2 for the hull of
    both positive supports (0 for identical conditionals), and tending to
    (x_p - x_q) / theta^2 as y -> +-inf, for the extreme positive-mass
    points at that end. So the limit at an end is inf where they differ
    and the log mass ratio of the shared atom where they agree.
    """
    points = np.concatenate([pair.p.support, pair.q.support])
    lo = float(points.min() - _GRID_PAD_SCALES * spec.theta)
    hi = float(points.max() + _GRID_PAD_SCALES * spec.theta)
    step = spec.theta / _GRID_POINTS_PER_SCALE
    grid = (lo, hi, step)
    # np.arange's length; inf when the step underflows or the ratio overflows
    length = (hi + 0.5 * step - lo) / step if step > 0 else math.inf
    count = (math.ceil(length) if length < math.inf else length) + points.size
    if count > MAX_GRID_POINTS:
        needed = f"{count:,}" if count < 10**15 else f"{count:.3g}"
        note = (
            f"the Gaussian grid needs up to {needed} points, more than the cap of "
            f"{MAX_GRID_POINTS:,}; the log-ratio was not evaluated"
        )
        return _GaussianGrid(grid, math.inf, 0.0, None, None, note)
    ys = np.unique(np.concatenate([np.arange(lo, hi + 0.5 * step, step), points]))
    grid_max, k = _grid_maximum(pair, spec, ys)
    worst = grid_max
    argmax_y = float(ys[k])
    # the extreme positive-mass points, low and high, and their log masses
    (x_p, m_p), (x_q, m_q) = (
        (d.support[d.mass > 0][[0, -1]], np.log(d.mass[d.mass > 0][[0, -1]]))
        for d in (pair.p, pair.q)
    )
    limits = np.where(x_p == x_q, np.abs(m_p - m_q), np.inf).tolist()
    for limit, end in zip(limits, (-math.inf, math.inf)):
        if limit > worst:
            worst, argmax_y = limit, end
    span = float(max(x_p[1], x_q[1]) - min(x_p[0], x_q[0]))
    slack = 0.0 if _identical(pair.p, pair.q) else span * step / (2.0 * spec.theta**2)
    note = (
        f"gaussian: grid maximum {grid_max:.6g} plus a Lipschitz slack of {slack:.3g} "
        f"between grid points; limits {limits[0]:.6g} as y -> -inf and {limits[1]:.6g} "
        "as y -> inf; an overshoot of a limit beyond the grid is not bounded"
    )
    return _GaussianGrid(grid, grid_max, slack, worst, argmax_y, note)


def _grid_maximum(
    pair: DiscriminativePair, spec: MechanismSpec, ys: np.ndarray
) -> tuple[float, int]:
    """max |log P(y|s_i) - log P(y|s_j)| over the grid ``ys``, and its first index.

    Both are the same as ``np.argmax`` over every point gives, from a
    fraction of the density evaluations. Every _COARSE_STRIDE-th point and
    the last are evaluated first, with both posterior means. On the cell
    [y0, y1] between two such points the log-ratio r has slope
    (m_p(y) - m_q(y)) / theta^2 (Tweedie's formula), and each posterior
    mean m is nondecreasing in y, so the slope lies in
    [(m_p(y0) - m_q(y1)) / theta^2, (m_p(y1) - m_q(y0)) / theta^2]. Rising
    at most ``up`` and falling at most ``down`` across the cell, r stays
    under the tent a + lam (b - a) + lam down from its ends a = r(y0) and
    b = r(y1), with lam = up / (up + down); -r likewise. Only the cells
    whose tent, plus a bound on the rounding of every figure in it,
    reaches the coarse maximum have their interior evaluated. A skipped
    cell holds no point whose computed ratio is at or above that maximum,
    so the maximum and its first index are the all-points ones. Each row
    of the blocked loop is independent of the rows beside it, so every
    evaluated point has the bits the all-points pass gives it.

    Rounding, to first order in the unit roundoff u: a computed log density
    l is within 12u (|l| + K) of the exact one, where K = |log normaliser|
    + max |log mass| + n for n positive atoms. That counts the rounding of
    each term, weighted by the posterior (whose entropy is at most log n),
    and of the n-term sum; 16u leaves room for the second order. On a cell
    |l| is at most A: its largest value at the ends, plus the cell width
    times max(|m(y0) - y1|, |m(y1) - y0|) / theta^2, which bounds the slope
    (m(y) - y) / theta^2 of l. A computed mean is within
    32u S (A + K) + (2n + 1) u X, for the span S and largest magnitude X
    of the positive atoms. The tent moves by at most the error of a or b
    plus the errors of ``up`` and ``down``, and its own arithmetic adds
    8u (|a| + |b| + tent height) and 5u (up + down). The margin sums
    these for r at the cell's ends and at any point inside it.
    """
    theta = spec.theta
    coarse = np.minimum(np.arange(0, ys.size + _COARSE_STRIDE - 1, _COARSE_STRIDE), ys.size - 1)
    (l_p, mean_p), (l_q, mean_q) = (
        _log_density_and_mean(d, spec, ys[coarse]) for d in (pair.p, pair.q)
    )
    r = l_p - l_q
    ratio = np.abs(r)
    top = ratio.max()
    y0, y1 = ys[coarse[:-1]], ys[coarse[1:]]
    width = (y1 - y0) / theta  # in units of theta
    a, b = r[:-1], r[1:]
    up = np.maximum(mean_p[1:] - mean_q[:-1], 0.0) / theta * width
    down = np.maximum(mean_q[1:] - mean_p[:-1], 0.0) / theta * width
    lam = np.divide(up, up + down, out=np.zeros_like(up), where=up + down > 0)
    height = lam * down  # the tent's peak above its chord
    tent = np.maximum(lam * b + (1.0 - lam) * a, -(lam * a + (1.0 - lam) * b)) + height
    # the rounding margin derived above
    u = np.finfo(float).eps / 2.0
    keeps = [d.mass > 0 for d in (pair.p, pair.q)]
    atoms = np.concatenate([d.support[keep] for d, keep in zip((pair.p, pair.q), keeps)])
    log_mass = np.log(np.concatenate([d.mass[keep] for d, keep in zip((pair.p, pair.q), keeps)]))
    n = max(np.count_nonzero(keep) for keep in keeps)
    k = abs(0.5 * math.log(2.0 * math.pi) + math.log(theta)) + np.abs(log_mass).max() + n
    logs = np.maximum(np.abs(l_p), np.abs(l_q))
    means = np.stack([mean_p, mean_q])
    drift = np.maximum(np.abs(means[:, :-1] - y1), np.abs(means[:, 1:] - y0)).max(axis=0)
    magnitude = np.maximum(logs[:-1], logs[1:]) + drift / theta * width + k
    span, size = atoms.max() - atoms.min(), np.abs(atoms).max()
    margin = u * (
        64.0 * magnitude
        + (128.0 * span * magnitude + (8.0 * n + 12.0) * size) / theta * width
        + 5.0 * (up + down)
        + 8.0 * (np.abs(a) + np.abs(b) + height)
    )
    # NaN bounds (or a NaN maximum) refine their cells
    refine = ~(tent + margin < top)
    fine = coarse[:-1][refine, None] + np.arange(1, _COARSE_STRIDE)
    fine = fine[fine < coarse[1:][refine, None]]
    fine_p, fine_q = (log_output_density(d, spec, ys[fine]) for d in (pair.p, pair.q))
    index = np.concatenate([coarse, fine])
    ratio = np.concatenate([ratio, np.abs(fine_p - fine_q)])
    order = np.argsort(index)
    best = order[np.argmax(ratio[order])]
    return float(ratio[best]), int(index[best])


def _decayed_prefix(y: np.ndarray, log_w: np.ndarray, theta: float) -> np.ndarray:
    """log sum_{j <= k} w_j exp(-(y_k - y_j) / theta) at every k of the last axis.

    ``y`` increases along its last axis and broadcasts against ``log_w``.
    Each decay is a difference of nearby points divided by theta, never an
    offset from a distant origin, so precision does not fall as the span
    grows against theta. The N points are laid out in rows of about
    sqrt(N): one sweep runs along all rows at once, a second carries each
    row's last prefix into the next row, so the Python loops take
    O(sqrt(N)) steps and the work is O(N).
    """
    n = log_w.shape[-1]
    width = math.isqrt(n - 1) + 1
    rows = -(-n // width)
    pad = rows * width - n
    y = np.concatenate([y, np.repeat(y[..., -1:], pad, axis=-1)], axis=-1)
    y = y.reshape(y.shape[:-1] + (rows, width))
    v = np.concatenate([log_w, np.full(log_w.shape[:-1] + (pad,), -np.inf)], axis=-1)
    v = v.reshape(v.shape[:-1] + (rows, width))
    for c in range(1, width):
        v[..., c] = np.logaddexp(v[..., c], v[..., c - 1] - (y[..., c] - y[..., c - 1]) / theta)
    # prev[r]: the point before row r (row 0: its own first point, carrying nothing)
    prev = np.concatenate([y[..., :1, 0], y[..., :-1, -1]], axis=-1)
    carry = np.full(v.shape[:-1], -np.inf)
    for r in range(1, rows):
        carry[..., r] = np.logaddexp(
            v[..., r - 1, -1], carry[..., r - 1] - (prev[..., r] - prev[..., r - 1]) / theta
        )
    v = np.logaddexp(v, carry[..., None] - (y - prev[..., None]) / theta)
    return v.reshape(v.shape[:-2] + (rows * width,))[..., :n]


def _laplace_log_ratios(pairs: Sequence[DiscriminativePair], theta: float):
    """Each pair's |log P(y|s_i) - log P(y|s_j)| under Laplace noise, at its points.

    A pair's points are the union of its positive-mass support points.
    Yields ``(index, points, ratios)`` for every pair, in chunks rather
    than in input order. Each density is the sum of a left sweep (atoms at
    or below y) and a right sweep (atoms strictly above y). Pairs with
    the same number of points share one :func:`_decayed_prefix` call over
    stacked ``(pairs, 2, 2, points)`` arrays, in chunks of at most
    _BLOCK_ELEMENTS elements (or one pair). Every element gets the float
    operations a call for its pair alone would give it, so the ratios
    are the same bits. Only the point counts are kept across chunks, so
    memory stays within one chunk whatever the pair count.
    """
    groups: dict[int, list[int]] = {}
    for index, pair in enumerate(pairs):
        n = np.union1d(pair.p.support[pair.p.mass > 0], pair.q.support[pair.q.mass > 0]).size
        groups.setdefault(n, []).append(index)
    for n, indices in groups.items():
        size = max(1, _BLOCK_ELEMENTS // (4 * n))
        for start in range(0, len(indices), size):
            chunk = indices[start : start + size]
            ys = np.empty((len(chunk), n))
            log_w = np.full((len(chunk), 2, n), -np.inf)
            for points, weights, index in zip(ys, log_w, chunk):
                dists = (pairs[index].p, pairs[index].q)
                keeps = [d.mass > 0 for d in dists]
                points[:] = np.union1d(*(d.support[keep] for d, keep in zip(dists, keeps)))
                for row, d, keep in zip(weights, dists, keeps):
                    row[np.searchsorted(points, d.support[keep])] = np.log(d.mass[keep])
            # A decay that overflows is inf: the far atom then adds nothing.
            with np.errstate(over="ignore"):
                # left sweep on ys and right sweep on -ys reversed, in one call
                sweeps = _decayed_prefix(
                    np.stack([ys, -ys[:, ::-1]], axis=1)[:, :, None, :],
                    np.stack([log_w, log_w[..., ::-1]], axis=1),
                    theta,
                )
                left, right = sweeps[:, 0], sweeps[:, 1, :, ::-1]
                above = np.concatenate(
                    [right[..., 1:] - (np.diff(ys) / theta)[:, None, :],
                     np.full((len(chunk), 2, 1), -np.inf)],
                    axis=-1,
                )
            log_density = np.logaddexp(left, above)  # up to the common -log(2 theta)
            ratios = np.abs(log_density[:, 0] - log_density[:, 1])
            for index, pair_points, pair_ratios in zip(chunk, ys, ratios):
                yield index, pair_points, pair_ratios


def _pair_log_ratio(
    pair: DiscriminativePair, spec: MechanismSpec, exact: tuple[float, float, int] | None = None
) -> tuple[float | None, float | None, tuple[float, float, float] | None, str, float]:
    """One pair's figures (worst, argmax_y, grid, note) and the bound its log-ratio check tests.

    ``exact`` is a Laplace pair's (worst, argmax_y, point count) from the
    :func:`_laplace_log_ratios` sweep. At theta = 0 the release is the
    data: the worst is 0 for identical conditionals and inf otherwise. A
    Gaussian pair's bound is the largest of both limits and its grid
    maximum plus the Lipschitz slack; over the cap it is inf.
    """
    if spec.theta == 0:
        worst = 0.0 if _identical(pair.p, pair.q) else math.inf
        note = (
            "theta = 0: identical conditionals compared exactly"
            if worst == 0
            else "theta = 0 releases the data unchanged while the conditionals differ"
        )
        return worst, None, None, note, worst
    if spec.family == "laplace":
        worst, argmax_y, points = exact
        note = (
            f"laplace: exact, evaluated at the {points} positive-mass support "
            "points, where the log-ratio attains its supremum"
        )
        return worst, argmax_y, None, note, worst
    ev = _gaussian_grid(pair, spec)
    bound = ev.grid_max + ev.slack if ev.worst is None else max(ev.worst, ev.grid_max + ev.slack)
    return ev.worst, ev.argmax_y, ev.grid, ev.note, bound


def _report(
    kind: str, spec: MechanismSpec, epsilon: float, checks: list, delta: float | None = None
) -> VerificationReport:
    passed = all(check.passed for check in checks)
    return VerificationReport(
        kind, spec.family, spec.theta, epsilon, VERIFY_TOL, passed, tuple(checks), delta
    )


def verify_pufferfish(
    pairs: Sequence[DiscriminativePair],
    spec: MechanismSpec,
    epsilon: float,
) -> VerificationReport:
    """Check |log P(y|s_i) - log P(y|s_j)| <= epsilon for every pair.

    Laplace pairs are checked exactly, at the union of the positive-mass
    support points. A Gaussian pair passes only if both limits of its
    log-ratio as y -> +-inf, and its grid maximum plus the Lipschitz slack
    span h / (2 theta^2), are within epsilon; the note gives the slack.
    That bounds the ratio everywhere but beyond the grid, +-10 theta past
    the support hull, where it may overshoot its limit unchecked. A pair
    whose grid would exceed MAX_GRID_POINTS fails without being evaluated.
    """
    pairs = _pairs_and_epsilon(pairs, epsilon)
    laplace = [None] * len(pairs)
    if spec.theta > 0 and spec.family == "laplace":
        for index, ys, ratios in _laplace_log_ratios(pairs, spec.theta):
            k = int(np.argmax(ratios))
            laplace[index] = (float(ratios[k]), float(ys[k]), ys.size)
    checks = []
    for pair, exact in zip(pairs, laplace):
        *figures, bound = _pair_log_ratio(pair, spec, exact)
        checks.append(PairCheck(pair.labels, bound <= epsilon + VERIFY_TOL, *figures))
    return _report("log-ratio", spec, epsilon, checks)


def gaussian_violation_mass(theta: float, epsilon: float, sensitivity: float) -> float:
    """Probability that Gaussian noise lands in the ratio-violating region.

    With c = theta * epsilon / sensitivity, the log-ratio bound can only
    fail when |noise| / theta exceeds t = c - epsilon / (2c); the returned
    value is the standard-normal mass beyond t on both sides.
    """
    if sensitivity == 0:
        return 0.0
    c = theta * epsilon / sensitivity
    if c <= 0:  # theta = 0, or a product that underflows: t -> -inf as c -> 0
        return 1.0
    t = c - epsilon / (2.0 * c)
    if t <= 0:
        return 1.0
    return math.erfc(t / math.sqrt(2.0))


def verify_delta_approx(
    pairs: Sequence[DiscriminativePair],
    spec: MechanismSpec,
    epsilon: float,
    delta: float,
) -> VerificationReport:
    """Check the Gaussian delta-approximate guarantee on every pair.

    A pair passes when the probability that the noise lands where the
    log-ratio bound can fail is at most delta, and on nothing else. Its
    other figures and its note are those of :func:`verify_pufferfish`,
    behind a note that names the pass criterion; over MAX_GRID_POINTS the
    grid is not evaluated, and the note says so.
    """
    pairs = _pairs_and_epsilon(pairs, epsilon)
    if spec.family != "gaussian":
        raise ValidationError(f"the delta-approximation check is Gaussian-only, got {spec.family!r}")
    _check_delta(delta)
    checks = []
    for pair in pairs:
        mass = gaussian_violation_mass(
            spec.theta, epsilon, plan_sensitivity(optimal_plan(pair.p, pair.q))
        )
        worst, argmax_y, grid, note, _ = _pair_log_ratio(pair, spec)
        note = f"pass criterion is the noise tail mass; {note}"
        checks.append(PairCheck(pair.labels, mass <= delta, worst, argmax_y, grid, note, mass))
    return _report("delta-tail", spec, epsilon, checks, delta)
