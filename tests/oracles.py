"""Independent oracles the tests check the library against.

Everything here deliberately avoids the code paths under test: transport
cost comes from a linear program, probability laws from exhaustive
enumeration, W1 from the CDF-difference identity (each CDF its own
cumulative sum), tail masses from scipy's normal distribution, the
Theorem-2 scale from one bracket and bisection per moment equation, the
Laplace log-ratio from an O(n m) log-sum-exp (and, to pin the batched
certificate's bits, from the sweep kernel run one pair at a time), the
Gaussian-noised output density from one unblocked (y, atom) matrix and
from a per-atom sum, the Gaussian grid's maximum from the density at
every grid point, scenario conditionals from one dict-merged pushforward
and one freshly scattered grid (or one pairwise merge scan) per user and
from every joint outcome, user systems one user at a time,
CSV tallies from ``csv.DictReader`` rows, released tables from
whole-table ``csv.reader`` rows stripped cell by cell and one
``csv.writer``, and the comonotone plan from a sweep on numpy scalars
and from a sweep that writes each remainder back into its list.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from collections import defaultdict
from types import SimpleNamespace

import numpy as np
from scipy.optimize import linprog
from scipy.stats import norm

from pufferot import DiscreteDistribution, ValidationError, release
from pufferot.scenarios import ATOM_MERGE_TOL, MAX_ATOMS
from pufferot.transport import ENTRY_DROP_TOL
from pufferot.verify import _decayed_prefix, log_output_density


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
    # each CDF at the grid points: the cumulative mass of the atoms at or below each
    fp, fq = (
        np.concatenate([[0.0], np.cumsum(d.mass)])[np.searchsorted(d.support, grid, side="right")]
        for d in (p, q)
    )
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


def gaussian_mixture_density(dist, theta: float, y: float) -> float:
    """Direct floating-point summation of the Gaussian-noised output density."""
    dens = 0.0
    for x, m in zip(dist.support, dist.mass):
        dens += m / (math.sqrt(2.0 * math.pi) * theta) * math.exp(-0.5 * ((y - x) / theta) ** 2)
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


def per_pair_laplace_log_ratio(pair, theta: float):
    """The Laplace log-ratio at one pair's positive-mass support points, as (points, ratios).

    The library's own sweep kernel, ``verify._decayed_prefix``, run on this
    pair alone: the per-pair form that the batched certificate replaced,
    against which its stacked chunks must agree bit for bit.
    """
    dists = (pair.p, pair.q)
    ys = np.union1d(*(d.support[d.mass > 0] for d in dists))
    log_w = np.full((2, ys.size), -np.inf)
    for row, d in enumerate(dists):
        keep = d.mass > 0
        log_w[row, np.searchsorted(ys, d.support[keep])] = np.log(d.mass[keep])
    # left sweep on ys and right sweep on -ys reversed, in one call
    sweeps = _decayed_prefix(
        np.stack([ys, -ys[::-1]])[:, None, :], np.stack([log_w, log_w[:, ::-1]]), theta
    )
    left, right = sweeps[0], sweeps[1][:, ::-1]
    above = np.concatenate(
        [right[:, 1:] - np.diff(ys) / theta, np.full((2, 1), -np.inf)], axis=1
    )
    log_density = np.logaddexp(left, above)
    return ys, np.abs(log_density[0] - log_density[1])


def per_step_conditional(system, user, value=None):
    """Scenario conditional as (support, mass), convolved one user at a time.

    Each user's query outputs are looked up in a dict keyed by alphabet
    value, and equal outputs merged in a dict. When every positive-mass
    output of the system is an integer, both operands are scattered into
    fresh zero arrays spanning their positive atoms before every
    convolution; otherwise atoms are summed pairwise and sums within
    ``ATOM_MERGE_TOL`` merged by a sequential scan. ``value=None``
    conditions on absence: the other users are convolved in index order,
    then the user.
    """
    tables = [
        dict(zip(prior.support.tolist(), outputs.tolist()))
        for prior, outputs in zip(system.priors, system.outputs)
    ]
    laws = []
    for table, prior in zip(tables, system.priors):
        agg: dict[float, float] = {}
        for a, m in zip(prior.support, prior.mass):
            if m > 0:
                out = table[float(a)]
                agg[out] = agg.get(out, 0.0) + m
        laws.append((np.array(sorted(agg)), np.array([agg[v] for v in sorted(agg)])))
    integer = all(np.all(v == np.round(v)) for v, _ in laws)
    vals, mass = np.array([0.0]), np.array([1.0])
    order = [i for i in range(len(laws)) if i != user]
    if value is None:
        order.append(user)
    for i in order:
        b_vals, b_mass = laws[i]
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
        vals = vals + tables[user][float(value)]
    return vals, mass / mass.sum()


def per_user_system(priors, outputs):
    """A user system built one user at a time, as the library stored it before its flat arrays.

    Returns the priors as given, one read-only float copy per distinct
    output object (users given one object share one copy), and per user
    the output law on the integer grid as ``(offset, pmf)``, scattered one
    positive-mass atom at a time in support order; ``pmf`` is None for a
    user whose outputs span more than ``MAX_ATOMS`` integers, and the
    terms are None unless every positive-mass output is an integer.
    """
    copies = {}
    for out in outputs:
        if id(out) not in copies:
            copies[id(out)] = np.array(out, dtype=float)
            copies[id(out)].setflags(write=False)
    outputs = tuple(copies[id(out)] for out in outputs)
    laws = [
        [(o, m) for o, m in zip(out.tolist(), prior.mass.tolist()) if m > 0]
        for prior, out in zip(priors, outputs)
    ]
    terms = None
    if all(o == round(o) for law in laws for o, _ in law):
        terms = []
        for law in laws:
            lo = min(o for o, _ in law)
            width = int(max(o for o, _ in law) - lo) + 1
            pmf = None
            if width <= MAX_ATOMS:
                pmf = np.zeros(width)
                for o, m in law:
                    pmf[int(o - lo)] += m
            terms.append((int(lo), pmf))
    return SimpleNamespace(priors=tuple(priors), outputs=outputs, grid_terms=terms)


def per_user_bernoulli(ps):
    """:func:`per_user_system` of a Bernoulli counting query: one prior object per p."""
    support = np.array([0.0, 1.0])
    priors = [DiscreteDistribution(support, np.array([1.0 - p, p])) for p in ps]
    return per_user_system(priors, (support,) * len(priors))


def enumerated_conditional(system, user, value=None):
    """Scenario conditional as (support, mass) from every joint outcome of the users.

    Given a value, the user's outcome is that value, with mass 1; given
    absence (``value=None``), every outcome of the user counts. Outcomes
    whose product of prior masses is 0 (an empty atom, or a product that
    underflows) are dropped; the others' output sums are sorted and merged
    by :func:`_merge_close_scan`.
    """
    choices = []
    for i, (prior, outputs) in enumerate(zip(system.priors, system.outputs)):
        atoms = zip(prior.support.tolist(), outputs.tolist(), prior.mass.tolist())
        if i == user and value is not None:
            atoms = [(a, o, 1.0) for a, o, _ in atoms if a == value]
        choices.append([(o, m) for _, o, m in atoms])
    sums, masses = [], []
    for outcome in itertools.product(*choices):
        prob = math.prod(m for _, m in outcome)
        if prob > 0:
            sums.append(math.fsum(o for o, _ in outcome))
            masses.append(prob)
    vals, mass = _merge_close_scan(np.array(sums), np.array(masses))
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
    """log of the Gaussian-noised output density with every (y, atom) term in one matrix."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    keep = dist.mass > 0
    xs = dist.support[keep]
    log_mass = np.log(dist.mass[keep])
    z = ys[:, None] - xs[None, :]
    noise = -0.5 * math.log(2.0 * math.pi) - math.log(spec.theta) - 0.5 * (z / spec.theta) ** 2
    terms = noise + log_mass[None, :]
    peak = terms.max(axis=1)
    return peak + np.log(np.exp(terms - peak[:, None]).sum(axis=1))


def all_points_grid_maximum(pair, spec, ys) -> tuple[float, int]:
    """The Gaussian log-ratio's maximum over every grid point, and its first index.

    The densities come from the blocked ``log_output_density``, whose bits
    TestBlockedDensity pins to the unblocked matrix above.
    """
    ratios = np.abs(log_output_density(pair.p, spec, ys) - log_output_density(pair.q, spec, ys))
    k = int(np.argmax(ratios))
    return float(ratios[k]), k


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


def per_equation_relaxed_theta(plan, epsilon) -> float:
    """Theorem-2 scale solving each row and column moment equation on its own.

    Every equation with an entry at positive distance gets its own
    bracket and bisection against the plan's own marginal; the largest
    root wins, and 0 when no equation has one.
    """
    distances = np.array([abs(z) for z in plan.displacements().tolist()])
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


def stripping_release(path, column, spec, seed, mapping=None, delimiter=","):
    """The bytes ``pufferot release`` writes, from every row of the table at once.

    Every cell of every row is stripped, the column is noised in one draw
    from ``numpy.random.default_rng(seed)`` and all rows go through one
    ``csv.writer``. Mapped labels become their 1-based indices.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [[cell.strip() for cell in row] for row in csv.reader(fh, delimiter=delimiter)]
    col = rows[0].index(column)
    parse = float if mapping is None else mapping.index
    noised = release([parse(row[col]) for row in rows[1:]], spec, np.random.default_rng(seed))
    for row, value in zip(rows[1:], noised.tolist()):
        row[col] = repr(value)
    out = io.StringIO(newline="")
    csv.writer(out, delimiter=delimiter).writerows(rows)
    return out.getvalue().encode("utf-8")


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


def list_sweep_optimal_plan(p, q):
    """North-west-corner sweep on lists of Python floats, writing each remainder back.

    Every step reads both remainders from their lists, skips a side at or
    under ENTRY_DROP_TOL (first p, then q) and otherwise takes the smaller
    remainder from both sides. Returns (rows, cols, mass) arrays.
    """
    p_rem = p.mass.tolist()
    q_rem = q.mass.tolist()
    rows, cols, mass = [], [], []
    i = j = 0
    while i < len(p_rem) and j < len(q_rem):
        a, b = p_rem[i], q_rem[j]
        if a <= ENTRY_DROP_TOL:
            i += 1
            continue
        if b <= ENTRY_DROP_TOL:
            j += 1
            continue
        take = min(a, b)
        rows.append(i)
        cols.append(j)
        mass.append(take)
        p_rem[i] = a - take
        q_rem[j] = b - take
    return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), np.array(mass)
