"""Independent oracles the tests check the library against.

Everything here deliberately avoids the code paths under test: transport
cost comes from a linear program, probability laws from exhaustive
enumeration, W1 from the CDF-difference identity, tail masses from
scipy's normal distribution, the Theorem-2 scale from one bracket and
bisection per moment equation, the Laplace log-ratio from an O(n m)
log-sum-exp, the noised output density from one unblocked (y, atom)
matrix, scenario conditionals from one dict-merged pushforward and one
freshly scattered grid (or one pairwise merge scan) per user, CSV tallies from
``csv.DictReader`` rows, and the comonotone plan from a sweep on numpy
scalars.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections import defaultdict

import numpy as np
from scipy.optimize import linprog
from scipy.stats import norm

from pufferot import ValidationError
from pufferot.scenarios import ATOM_MERGE_TOL
from pufferot.transport import ENTRY_DROP_TOL


def lp_transport_cost(p, q) -> float:
    """Minimum of sum |x - x'| pi(x, x') over all couplings, by LP."""
    n, m = len(p.support), len(q.support)
    cost = np.abs(np.subtract.outer(p.support, q.support)).ravel()
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([p.mass, q.mass])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def cdf_area_w1(p, q) -> float:
    """W1 for d = |z| as the area between the two CDFs."""
    grid = np.unique(np.concatenate([p.support, q.support]))
    fp = np.array([p.cdf(x) for x in grid])
    fq = np.array([q.cdf(x) for x in grid])
    return float(np.sum(np.abs(fp[:-1] - fq[:-1]) * np.diff(grid)))


def brute_force_poisson_binomial(ps) -> np.ndarray:
    """PMF of a Bernoulli sum by enumerating all 2^V outcomes."""
    ps = list(ps)
    pmf = np.zeros(len(ps) + 1)
    for bits in itertools.product((0, 1), repeat=len(ps)):
        prob = 1.0
        for b, p in zip(bits, ps):
            prob *= p if b else (1.0 - p)
        pmf[sum(bits)] += prob
    return pmf


def brute_force_counting_conditional(ps, user=None, value=None) -> dict[int, float]:
    """Law of sum_i S_i given S_user == value (user=None: unconditional)."""
    ps = list(ps)
    pmf: dict[int, float] = defaultdict(float)
    for bits in itertools.product((0, 1), repeat=len(ps)):
        if user is not None and bits[user] != value:
            continue
        prob = 1.0
        for b, p in zip(bits, ps):
            prob *= p if b else (1.0 - p)
        pmf[sum(bits)] += prob
    total = sum(pmf.values())
    return {k: v / total for k, v in pmf.items()}


def laplace_mixture_density(dist, theta: float, y: float) -> float:
    """Direct floating-point summation of the noised output density."""
    dens = 0.0
    for x, m in zip(dist.support, dist.mass):
        dens += m / (2.0 * theta) * np.exp(-abs(y - x) / theta)
    return float(dens)


def direct_laplace_log_ratio(p, q, theta: float, ys) -> np.ndarray:
    """|log P(y|p) - log P(y|q)| at each y, every atom summed by log-sum-exp."""
    ys = np.asarray(ys, dtype=float)

    def log_density(dist):
        keep = dist.mass > 0
        terms = np.log(dist.mass[keep])[None, :] - np.abs(
            ys[:, None] - dist.support[keep][None, :]
        ) / theta
        peak = terms.max(axis=1)
        return peak + np.log(np.exp(terms - peak[:, None]).sum(axis=1))

    return np.abs(log_density(p) - log_density(q))


def per_step_conditional(system, user, value=None):
    """Scenario conditional as (support, mass), convolved one user at a time.

    Each user's query outputs are merged in a dict. When every positive-mass
    output of the system is an integer, both operands are scattered into
    fresh zero arrays spanning their positive atoms before every
    convolution; otherwise atoms are summed pairwise and sums within
    ``ATOM_MERGE_TOL`` merged by a sequential scan. ``value=None``
    conditions on absence.
    """
    laws = []
    for i, prior in enumerate(system.priors):
        agg: dict[float, float] = {}
        for a, m in zip(prior.support, prior.mass):
            if m > 0:
                out = system.query.output(i, a)
                agg[out] = agg.get(out, 0.0) + m
        laws.append((np.array(sorted(agg)), np.array([agg[v] for v in sorted(agg)])))
    integer = all(np.all(v == np.round(v)) for v, _ in laws)
    vals, mass = np.array([0.0]), np.array([1.0])
    for i, (b_vals, b_mass) in enumerate(laws):
        if value is not None and i == user:
            continue
        if integer:
            a_pmf = np.zeros(int(vals[-1] - vals[0]) + 1)
            a_pmf[(vals - vals[0]).astype(int)] = mass
            b_pmf = np.zeros(int(b_vals[-1] - b_vals[0]) + 1)
            b_pmf[(b_vals - b_vals[0]).astype(int)] = b_mass
            pmf = np.convolve(a_pmf, b_pmf)
            grid = np.arange(pmf.size) + vals[0] + b_vals[0]
            vals, mass = grid[pmf > 0], pmf[pmf > 0]
        else:
            vals, mass = _merge_close_scan(
                np.add.outer(vals, b_vals).ravel(), np.multiply.outer(mass, b_mass).ravel()
            )
    if value is not None:
        vals = vals + system.query.output(user, value)
    return vals, mass / mass.sum()


def _merge_close_scan(values, mass):
    """Sort, then merge runs of atoms within ATOM_MERGE_TOL of their neighbour.

    A merged atom sits at the mass-weighted mean of its run.
    """
    order = np.argsort(values, kind="stable")
    values, mass = values[order], mass[order]
    out_vals, out_mass = [], []
    k = 0
    while k < values.size:
        end = k + 1
        while end < values.size and values[end] - values[end - 1] <= ATOM_MERGE_TOL:
            end += 1
        run_mass = mass[k:end].sum()
        out_vals.append(float((values[k:end] * mass[k:end]).sum() / run_mass))
        out_mass.append(float(run_mass))
        k = end
    return np.array(out_vals), np.array(out_mass)


def unblocked_log_output_density(dist, spec, ys) -> np.ndarray:
    """log of the noised output density with every (y, atom) term in one matrix."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    keep = dist.mass > 0
    xs = dist.support[keep]
    log_mass = np.log(dist.mass[keep])
    z = ys[:, None] - xs[None, :]
    if spec.family == "laplace":
        noise = -math.log(2.0 * spec.theta) - np.abs(z) / spec.theta
    else:
        noise = -0.5 * math.log(2.0 * math.pi) - math.log(spec.theta) - 0.5 * (z / spec.theta) ** 2
    terms = noise + log_mass[None, :]
    peak = terms.max(axis=1)
    return peak + np.log(np.exp(terms - peak[:, None]).sum(axis=1))


def normal_two_sided_tail(t: float) -> float:
    """P(|Z| > t) for standard normal Z."""
    return float(2.0 * norm.sf(t))


def _bisect_decreasing_log_theta(g) -> float:
    """Root of a decreasing g of log(theta): log-2 bracket steps from 0, then bisection."""
    step, tol = math.log(2.0), 1e-10
    hi = 0.0
    while g(hi) > 0.0:
        hi += step
    lo = 0.0
    while g(lo) <= 0.0:
        lo -= step
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return math.exp(0.5 * (lo + hi))


def per_equation_relaxed_theta(plan, epsilon, metric) -> float:
    """Theorem-2 scale solving each row and column moment equation on its own.

    Every equation with an entry at positive distance gets its own
    bracket and bisection against the plan's own marginal; the largest
    root wins, and 0 when no equation has one.
    """
    distances = np.array([metric(z) for z in plan.displacements()])
    log_mass = np.log(plan.mass)
    best = 0.0
    for indices, marginals in ((plan.rows, plan.source.mass), (plan.cols, plan.target.mass)):
        for k in np.unique(indices):
            sel = indices == k
            d = distances[sel]
            if not np.any(d > 0):
                continue
            lm = log_mass[sel]
            target = epsilon + math.log(marginals[k])

            def g(log_theta, d=d, lm=lm, target=target):
                values = lm + 1.0 / math.exp(log_theta) * d
                m = float(values.max())
                return m + math.log(float(np.exp(values - m).sum())) - target

            best = max(best, _bisect_decreasing_log_theta(g))
    return best


def dictreader_load_table(path, secret_column, data_column, mapping, delimiter=","):
    """Per-secret label counts from ``csv.DictReader`` rows, one dict per row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        if reader.fieldnames is None:
            raise ValidationError(f"{path}: empty file (no header row)")
        fieldnames = [name.strip() for name in reader.fieldnames]
        for column in (secret_column, data_column):
            if column not in fieldnames:
                raise ValidationError(f"{path}: column {column!r} not found in header {fieldnames}")
        counts: dict[str, np.ndarray] = {}
        rejected: list[tuple[int, str]] = []
        rows = 0
        for rownum, raw in enumerate(reader, start=2):
            row = {key.strip(): (value or "").strip() for key, value in raw.items() if key}
            rows += 1
            secret = row.get(secret_column, "")
            label = row.get(data_column, "")
            try:
                idx = mapping.index(label)
            except ValidationError:
                rejected.append((rownum, label))
                continue
            if secret not in counts:
                counts[secret] = np.zeros(len(mapping))
            counts[secret][idx - 1] += 1
    if rejected:
        rownum, label = rejected[0]
        raise ValidationError(
            f"{path}: {len(rejected)} row(s) rejected with unmappable data labels; "
            f"first is label {label!r} at row {rownum}"
        )
    if rows == 0:
        raise ValidationError(f"{path}: no data rows")
    return counts


def numpy_scalar_optimal_plan(p, q):
    """North-west-corner sweep on numpy scalars, as (rows, cols, mass) arrays."""
    p_rem = p.mass.copy()
    q_rem = q.mass.copy()
    rows, cols, mass = [], [], []
    i = j = 0
    while i < p_rem.size and j < q_rem.size:
        if p_rem[i] <= ENTRY_DROP_TOL:
            i += 1
            continue
        if q_rem[j] <= ENTRY_DROP_TOL:
            j += 1
            continue
        take = min(p_rem[i], q_rem[j])
        rows.append(i)
        cols.append(j)
        mass.append(take)
        p_rem[i] -= take
        q_rem[j] -= take
    return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), np.array(mass)
