"""Numerical certification of the epsilon-indistinguishability guarantee.

The output density under each secret is the noise density convolved with
the conditional data distribution; verification bounds the absolute
log-ratio of the two output densities. The log-ratio check gives each
pair's figures (worst log-ratio, its argmax, the grid and a note) and
passes it on them. The Gaussian delta check runs the log-ratio check,
keeps those figures, and decides each pair on its noise tail mass.

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
pass evaluates the densities and both posterior means at every 32nd
point; the posterior means are nondecreasing, which bounds the ratio on
each cell between coarse points from its two ends (more tightly where the
bounds on its slope share a sign, so that it is monotone on the cell);
and only the cells whose bound, plus a rounding margin, reaches the
coarse maximum are evaluated in full. The maximum and its first grid
index are those of an all-points pass. One gap is open: beyond the grid
the ratio may overshoot its limit before it settles, and nothing bounds
that overshoot.

Reports are strict JSON: an infinite figure is written as "inf" or "-inf",
and a figure that was not evaluated (a grid over its cap) as null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
#: The grid's maximum is searched from every this-many-th point; 32 evaluated
#: the fewest rows in the least time on seeded counting pairs (16 to 128 tried).
_COARSE_STRIDE = 32


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

    ``ys`` must be a one-dimensional sequence of finite numbers. The (y,
    atom) terms are evaluated in blocks of rows holding about
    _BLOCK_ELEMENTS terms, so memory is O(len(ys) + block) whatever the
    atom count. Each row's max and sum do not depend on the rows beside
    it, so the result is the same as one pass over the whole grid. A y so
    far from every atom that each squared offset overflows, so that every
    term is -inf, has density 0 and log density -inf. Laplace noise needs
    no density here: its certificate is exact at the support points
    (:func:`_laplace_log_ratios`).
    """
    if spec.family != "gaussian" or spec.theta <= 0:
        raise ValidationError(f"the output density is Gaussian-only with theta > 0, got {spec!r}")
    try:
        ys = np.asarray(ys, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"ys must be a list of numbers: {exc}") from None
    if ys.ndim != 1:
        raise ValidationError(f"ys must be one-dimensional, got shape {ys.shape}")
    finite = np.isfinite(ys)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValidationError(f"ys[{i}] is not finite: {float(ys[i])!r}")
    xs, log_mass = _positive(dist)
    # a row of -inf terms gives -inf - -inf = NaN where its log density is -inf
    with np.errstate(over="ignore", invalid="ignore"):
        out = _density_rows(xs, log_mass, spec.theta, ys)[0]
    out[np.isnan(out)] = -np.inf
    return out


def _positive(dist: DiscreteDistribution) -> tuple[np.ndarray, np.ndarray]:
    """``dist``'s positive-mass atoms, in increasing order, and their log masses."""
    keep = dist.mass > 0
    return dist.support[keep], np.log(dist.mass[keep])


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of ``values``, sorted in place, in increasing order.

    ``np.unique``'s result without the cost of its wrapper. The sort is
    stable, so of equal values (0.0 and -0.0) the first in ``values`` is
    kept.
    """
    values.sort(kind="stable")
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _density_rows(
    xs: np.ndarray, log_mass: np.ndarray, theta: float, ys: np.ndarray, with_mean: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """The blocked loop every density row passes through, with E[X | y] if ``with_mean``.

    ``xs`` and ``log_mass`` are the positive-mass atoms and their log
    masses, as :func:`_positive` gives them. The posterior mean is the
    block's weights summed against the atoms, over the same sum the log
    density takes its log of.
    """
    log_normaliser = -0.5 * math.log(2.0 * math.pi) - math.log(theta)
    rows = max(1, _BLOCK_ELEMENTS // xs.size)
    buf = np.empty((min(rows, ys.size), xs.size))
    out = np.empty(ys.size)
    mean = np.empty(ys.size) if with_mean else None
    for start in range(0, ys.size, rows):
        block = ys[start : start + rows]
        stop = start + block.size
        terms = np.subtract(block[:, None], xs[None, :], out=buf[: block.size])
        terms /= theta
        np.square(terms, out=terms)
        terms *= 0.5
        np.subtract(log_normaliser, terms, out=terms)
        terms += log_mass
        peak = terms.max(axis=1)
        terms -= peak[:, None]
        np.exp(terms, out=terms)
        total = terms.sum(axis=1)
        out[start:stop] = peak + np.log(total)
        if with_mean:
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
    ys = _sorted_unique(np.concatenate([np.arange(lo, hi + 0.5 * step, step), points]))
    grid_max, k = _grid_maximum(pair, spec, ys)
    worst = grid_max
    argmax_y = float(ys[k])
    (xs_p, log_p), (xs_q, log_q) = _positive(pair.p), _positive(pair.q)
    # as y -> -inf, then inf: the log mass ratio of a shared extreme atom, else inf
    limits = [
        float(abs(log_p[end] - log_q[end])) if xs_p[end] == xs_q[end] else math.inf
        for end in (0, -1)
    ]
    for limit, end in zip(limits, (-math.inf, math.inf)):
        if limit > worst:
            worst, argmax_y = limit, end
    span = float(max(xs_p[-1], xs_q[-1]) - min(xs_p[0], xs_q[0]))
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
    the last are evaluated first, and each cell between two of them gets a
    bound on every computed ratio inside it (:func:`_cell_limits`). Only
    the cells whose bound reaches the coarse maximum have their interior
    evaluated, through :func:`log_output_density`. A skipped cell holds no
    point whose computed ratio is at or above that maximum, so the maximum
    and its first index are the all-points ones. Each row of the blocked
    loop is independent of the rows beside it, so every evaluated point has
    the bits the all-points pass gives it.
    """
    coarse, ratio, limit = _cell_limits(pair, spec, ys)
    # NaN bounds (or a NaN maximum) refine their cells
    refine = ~(limit < ratio.max())
    fine = coarse[:-1][refine, None] + np.arange(1, _COARSE_STRIDE)
    fine = fine[fine < coarse[1:][refine, None]]
    fine_p, fine_q = (log_output_density(d, spec, ys[fine]) for d in (pair.p, pair.q))
    index = np.concatenate([coarse, fine])
    ratio = np.concatenate([ratio, np.abs(fine_p - fine_q)])
    order = np.argsort(index)
    best = order[np.argmax(ratio[order])]
    return float(ratio[best]), int(index[best])


def _cell_limits(
    pair: DiscriminativePair, spec: MechanismSpec, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coarse indices into ``ys``, |log-ratio| at them, and a bound on it inside each cell.

    Each conditional's positive atoms and log masses are taken once, for
    the coarse pass and the rounding margin. Every _COARSE_STRIDE-th point
    and the last are evaluated, with both posterior means. On the cell
    [y0, y1] between two such points the log-ratio r has slope
    (m_p(y) - m_q(y)) / theta^2 (Tweedie's formula), and each posterior
    mean m is nondecreasing in y. So across the cell r rises by at most
    ``rise`` = (m_p(y1) - m_q(y0)) (y1 - y0) / theta^2 and falls by at most
    ``fall`` = (m_q(y1) - m_p(y0)) (y1 - y0) / theta^2. With ``up`` and
    ``down`` those clipped at 0, r stays under the tent a + lam (b - a +
    down) from its ends a = r(y0) and b = r(y1), with lam = up / (up +
    down), and -r under -b + lam (b - a + down). Where one of ``rise`` and
    ``fall`` is negative (call it ``steep``), r is strictly monotone on the
    cell, and at the share t of the cell past y0, |r| is at most the larger
    of |a| + steep t and |b| + steep (1 - t). The cell's inner points lie
    at least shares t0 and t1 of it from y0 and y1, so none exceeds the
    larger of |a| + steep t0 and |b| + steep t1. A cell's bound is that
    bound plus a bound on the rounding of every figure in it, so no ratio
    computed at an inner point exceeds it; it is NaN where a figure is.

    Rounding, to first order in the unit roundoff u: a computed log density
    l is within 12u (|l| + K) of the exact one, where K = |log normaliser|
    + max |log mass| + n for n positive atoms. That counts the rounding of
    each term, weighted by the posterior (whose entropy is at most log n),
    and of the n-term sum; 16u leaves room for the second order. On a cell
    |l| is at most A: its largest value at the ends, plus the cell width
    times max(H - y0, y1 - L) / theta^2, which bounds the slope
    |m(y) - y| / theta^2 of l, since every posterior mean lies in the hull
    [L, H] of both positive supports. A computed mean is within
    32u S (A + K) + (2n + 1) u X, for the span S = H - L and the largest
    magnitude X of the positive atoms. Either bound moves by at most the
    error of a or b plus the errors of ``rise`` and ``fall``. The tent's
    own arithmetic adds 8u (|a| + |b| + tent height) + 5u (up + down), with
    the height at most (up + down) / 4; the monotone bound's adds
    u (|a| + |b|) + 5u |steep|, with |steep| at most up + down, because
    rise + fall >= 0. As |a| and |b| are at most the coarse maximum, 16u
    times that maximum plus 12u (up + down) covers both. The margin sums
    these for r at the cell's ends and at any point inside it.
    """
    theta = spec.theta
    (xs_p, log_p), (xs_q, log_q) = _positive(pair.p), _positive(pair.q)
    coarse = np.minimum(np.arange(0, ys.size + _COARSE_STRIDE - 1, _COARSE_STRIDE), ys.size - 1)
    y = ys[coarse]
    l_p, mean_p = _density_rows(xs_p, log_p, theta, y, with_mean=True)
    l_q, mean_q = _density_rows(xs_q, log_q, theta, y, with_mean=True)
    r = l_p - l_q
    ratio = np.abs(r)
    top = ratio.max()
    y0, y1 = y[:-1], y[1:]
    dy = y1 - y0
    width = dy / theta  # in units of theta
    a, b = r[:-1], r[1:]
    # the most r can rise, and fall, across each cell
    rise = (mean_p[1:] - mean_q[:-1]) / theta * width
    fall = (mean_q[1:] - mean_p[:-1]) / theta * width
    up, down = np.maximum(rise, 0.0), np.maximum(fall, 0.0)
    slopes = up + down
    # 0 where the cell is flat: 0 / the least subnormal, where any positive sum is unchanged
    lam = up / np.maximum(slopes, 5e-324)
    tent = np.maximum(a, -b) + lam * (b - a + down)
    steep = np.minimum(np.minimum(rise, fall), 0.0)
    inner = (ys[coarse[:-1] + 1] - y0) / dy, (y1 - ys[coarse[1:] - 1]) / dy
    bound = np.where(
        steep < 0, np.maximum(ratio[:-1] + steep * inner[0], ratio[1:] + steep * inner[1]), tent
    )
    # the rounding margin derived above
    u = np.finfo(float).eps / 2.0
    low, high = min(xs_p[0], xs_q[0]), max(xs_p[-1], xs_q[-1])
    n = max(xs_p.size, xs_q.size)
    k = (abs(0.5 * math.log(2.0 * math.pi) + math.log(theta))
         + max(np.abs(log_p).max(), np.abs(log_q).max()) + n)
    logs = np.maximum(np.abs(l_p), np.abs(l_q))
    cell = width / theta
    magnitude = np.maximum(logs[:-1], logs[1:]) + np.maximum(high - y0, y1 - low) * cell + k
    margin = u * (
        magnitude * (64.0 + 128.0 * (high - low) * cell)
        + (8.0 * n + 12.0) * max(-low, high) * cell
        + 12.0 * slopes
        + 16.0 * top
    )
    return coarse, ratio, bound + margin


def _decayed_prefix(y: np.ndarray, log_w: np.ndarray, theta: float) -> np.ndarray:
    """log sum_{j <= k} w_j exp(-(y_k - y_j) / theta) at every k of the last axis.

    ``y`` increases along its last axis and broadcasts against ``log_w``.
    Each decay is a difference of nearby points divided by theta, never an
    offset from a distant origin, so precision does not fall as the span
    grows against theta. The N points are laid out in rows of about
    sqrt(N): one sweep runs along all rows at once, a second carries each
    row's last prefix into the next row, so the Python loops take
    O(sqrt(N)) steps and the work is O(N). The decays between neighbouring
    columns, and between the points before neighbouring rows, are computed
    once before their loop, by the same subtraction and division a step
    would make, and each step writes its column or carry in place.
    """
    n = log_w.shape[-1]
    width = math.isqrt(n - 1) + 1
    rows = -(-n // width)
    pad = rows * width - n
    y = np.concatenate([y, np.repeat(y[..., -1:], pad, axis=-1)], axis=-1)
    y = y.reshape(y.shape[:-1] + (rows, width))
    v = np.concatenate([log_w, np.full(log_w.shape[:-1] + (pad,), -np.inf)], axis=-1)
    v = v.reshape(v.shape[:-1] + (rows, width))
    decay = np.diff(y, axis=-1) / theta
    for c in range(1, width):
        np.logaddexp(v[..., c], v[..., c - 1] - decay[..., c - 1], out=v[..., c])
    # prev[r]: the point before row r (row 0: its own first point, carrying nothing)
    prev = np.concatenate([y[..., :1, 0], y[..., :-1, -1]], axis=-1)
    decay = np.diff(prev, axis=-1) / theta
    carry = np.full(v.shape[:-1], -np.inf)
    for r in range(1, rows):
        np.logaddexp(v[..., r - 1, -1], carry[..., r - 1] - decay[..., r - 1], out=carry[..., r])
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
        n = _sorted_unique(np.concatenate([d.support[d.mass > 0] for d in (pair.p, pair.q)])).size
        groups.setdefault(n, []).append(index)
    for n, indices in groups.items():
        size = max(1, _BLOCK_ELEMENTS // (4 * n))
        for start in range(0, len(indices), size):
            chunk = indices[start : start + size]
            ys = np.empty((len(chunk), n))
            log_w = np.full((len(chunk), 2, n), -np.inf)
            for points, weights, index in zip(ys, log_w, chunk):
                views = _positive(pairs[index].p), _positive(pairs[index].q)
                points[:] = _sorted_unique(np.concatenate([xs for xs, _ in views]))
                for row, (xs, log_mass) in zip(weights, views):
                    row[np.searchsorted(points, xs)] = log_mass
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


def verify_pufferfish(
    pairs: Sequence[DiscriminativePair],
    spec: MechanismSpec,
    epsilon: float,
) -> VerificationReport:
    """Check |log P(y|s_i) - log P(y|s_j)| <= epsilon for every pair.

    At theta = 0 the release is the data: the worst is 0 for identical
    conditionals and inf otherwise. Laplace pairs are checked exactly, at
    the union of the positive-mass support points. A Gaussian pair passes
    only if both limits of its log-ratio as y -> +-inf, and its grid
    maximum plus the Lipschitz slack span h / (2 theta^2), are within
    epsilon; the note gives the slack. That bounds the ratio everywhere but
    beyond the grid, +-10 theta past the support hull, where it may
    overshoot its limit unchecked. A pair whose grid would exceed
    MAX_GRID_POINTS fails without being evaluated.
    """
    pairs = _pairs_and_epsilon(pairs, epsilon)
    bar = epsilon + VERIFY_TOL
    checks = [None] * len(pairs)
    if spec.theta == 0:
        for index, pair in enumerate(pairs):
            # epsilon > 0, so a pair passes exactly when its worst, 0 or inf, is 0
            same = _identical(pair.p, pair.q)
            note = (
                "theta = 0: identical conditionals compared exactly"
                if same
                else "theta = 0 releases the data unchanged while the conditionals differ"
            )
            checks[index] = PairCheck(
                pair.labels, same, 0.0 if same else math.inf, None, None, note
            )
    elif spec.family == "laplace":
        for index, ys, ratios in _laplace_log_ratios(pairs, spec.theta):
            k = int(np.argmax(ratios))
            worst = float(ratios[k])
            note = (
                f"laplace: exact, evaluated at the {ys.size} positive-mass support "
                "points, where the log-ratio attains its supremum"
            )
            checks[index] = PairCheck(
                pairs[index].labels, worst <= bar, worst, float(ys[k]), None, note
            )
    else:
        for index, pair in enumerate(pairs):
            ev = _gaussian_grid(pair, spec)
            # ev.worst holds both limits; over the cap, grid_max is inf and ev.worst None
            bound = ev.grid_max + ev.slack
            passed = bound <= bar and (ev.worst is None or ev.worst <= bar)
            checks[index] = PairCheck(pair.labels, passed, ev.worst, ev.argmax_y, ev.grid, ev.note)
    return VerificationReport(
        "log-ratio", spec.family, spec.theta, epsilon, VERIFY_TOL,
        all(check.passed for check in checks), tuple(checks),
    )


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

    The check runs :func:`verify_pufferfish` on the same pairs and decides
    each pair on its noise tail mass: it passes when the probability that
    the noise lands where the log-ratio bound can fail is at most delta,
    and on nothing else. Its other figures and its note are the log-ratio
    check's, behind a note that names the pass criterion; over
    MAX_GRID_POINTS the grid is not evaluated, and the note says so.
    """
    pairs = _pairs_and_epsilon(pairs, epsilon)
    if spec.family != "gaussian":
        raise ValidationError(f"the delta-approximation check is Gaussian-only, got {spec.family!r}")
    _check_delta(delta)
    checks = []
    for pair, check in zip(pairs, verify_pufferfish(pairs, spec, epsilon).checks):
        sensitivity = plan_sensitivity(optimal_plan(pair.p, pair.q))
        mass = gaussian_violation_mass(spec.theta, epsilon, sensitivity)
        note = f"pass criterion is the noise tail mass; {check.note}"
        checks.append(replace(check, passed=mass <= delta, note=note, violation_mass=mass))
    return VerificationReport(
        "delta-tail", spec.family, spec.theta, epsilon, VERIFY_TOL,
        all(check.passed for check in checks), tuple(checks), delta,
    )
