"""Reference computations the benchmark checks the library against.

Nothing here imports pufferot. Each routine reaches the library's answer
by another road: the coupling from the merged CDF breakpoints instead of
the north-west sweep, the Theorem-2 equations by a grouped log-sum-exp on
that coupling, the Poisson-binomial law by the textbook dynamic programme
instead of repeated convolution, the Laplace certificate at support
points only, and the Gaussian tail mass from the privacy-loss threshold.
"""

from __future__ import annotations

import math

import numpy as np

#: CDF breakpoints closer than this are the same point up to rounding.
BREAKPOINT_SNAP = 1e-12
#: The library bisects log(theta) to this width (mechanisms.ROOT_LOG_TOL).
ROOT_LOG_TOL = 1e-10


def comonotone_coupling(p_mass, q_mass):
    """Quantile coupling of two mass vectors as (rows, cols, mass).

    The unit interval is cut at the union of both CDFs' breakpoints; each
    piece pairs the atom of ``p`` and the atom of ``q`` whose quantile
    ranges contain it, and carries the piece's length as mass.
    """
    p_mass = np.asarray(p_mass, dtype=float)
    q_mass = np.asarray(q_mass, dtype=float)
    f = np.cumsum(p_mass)
    g = np.cumsum(q_mass)
    top = min(f[-1], g[-1])
    cuts = np.unique(np.concatenate([[0.0], f, g]))
    cuts = cuts[cuts <= top + BREAKPOINT_SNAP]
    cuts = cuts[np.concatenate([[True], np.diff(cuts) > BREAKPOINT_SNAP])]
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    last_p = int(np.flatnonzero(p_mass > 0)[-1])
    last_q = int(np.flatnonzero(q_mass > 0)[-1])
    rows = np.minimum(np.searchsorted(f, mid), last_p)
    cols = np.minimum(np.searchsorted(g, mid), last_q)
    return rows, cols, np.diff(cuts)


def coupling_sensitivity(p_support, q_support, rows, cols) -> float:
    """Largest |x - x'| over the coupling's support."""
    return float(np.abs(np.asarray(p_support)[rows] - np.asarray(q_support)[cols]).max())


def moment_residuals(p_support, p_mass, q_support, q_mass, theta, epsilon):
    """Theorem-2 moment equations at ``theta`` (Laplace, d = |x - x'|).

    For every row x and column x' of the coupling that carries a positive
    distance, returns log sum_k exp(d_k / theta) pi_k - (epsilon + log
    marginal). The relaxed rule's theta makes every residual <= 0 and the
    binding one 0.
    """
    rows, cols, mass = comonotone_coupling(p_mass, q_mass)
    d = np.abs(np.asarray(p_support)[rows] - np.asarray(q_support)[cols])
    terms = np.log(mass) + d / theta
    out = []
    for keys, marginal in ((rows, np.asarray(p_mass)), (cols, np.asarray(q_mass))):
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
        sizes = np.diff(np.append(starts, ordered.size))
        t = terms[order]
        peak = np.maximum.reduceat(t, starts)
        lse = peak + np.log(np.add.reduceat(np.exp(t - np.repeat(peak, sizes)), starts))
        moving = np.maximum.reduceat(d[order], starts) > 0
        out.append((lse - epsilon - np.log(marginal[ordered[starts]]))[moving])
    return np.concatenate(out)


def moment_tolerance(sensitivity: float, theta: float) -> float:
    """Residual slack implied by bisecting log(theta) to ROOT_LOG_TOL.

    Each residual changes by at most sensitivity / theta per unit of
    log(theta), so a root found to ROOT_LOG_TOL is within this of zero.
    """
    return ROOT_LOG_TOL * sensitivity / theta + 1e-12


def poisson_binomial_dp(ps) -> np.ndarray:
    """P(sum of independent Bernoulli(p_i) = k) for k = 0..V, by the usual recursion."""
    pmf = np.zeros(len(ps) + 1)
    pmf[0] = 1.0
    for i, p in enumerate(ps):
        pmf[1 : i + 2] = pmf[1 : i + 2] * (1.0 - p) + pmf[: i + 1] * p
        pmf[0] *= 1.0 - p
    return pmf


def laplace_support_log_ratio(p_support, p_mass, q_support, q_mass, theta) -> float:
    """max |log P(y|p) - log P(y|q)| over the positive-mass support points.

    With Laplace noise the log-ratio is monotone between support points
    and constant outside their hull, so this maximum is the supremum over
    every output y.
    """
    xs_p = np.asarray(p_support)[np.asarray(p_mass) > 0]
    xs_q = np.asarray(q_support)[np.asarray(q_mass) > 0]
    ys = np.union1d(xs_p, xs_q)

    def log_density(xs, mass):
        a = np.log(mass[mass > 0])[None, :] - np.abs(ys[:, None] - xs[None, :]) / theta
        peak = a.max(axis=1)
        return peak + np.log(np.exp(a - peak[:, None]).sum(axis=1))

    gap = log_density(xs_p, np.asarray(p_mass)) - log_density(xs_q, np.asarray(q_mass))
    return float(np.abs(gap).max())


def gaussian_tail_mass(theta: float, epsilon: float, sensitivity: float) -> float:
    """Two-sided standard-normal mass where the Gaussian privacy loss can exceed epsilon.

    For a shift s the loss at noise z is (s z + s^2 / 2) / theta^2, which
    passes epsilon once |z| / theta > epsilon theta / s - s / (2 theta).
    """
    t = epsilon * theta / sensitivity - sensitivity / (2.0 * theta)
    return math.erfc(t / math.sqrt(2.0)) if t > 0 else 1.0


def gaussian_theta(sensitivity: float, epsilon: float, delta: float, variant: str) -> float:
    """The paper's two Gaussian scales: closed form (a) and quadratic bound (b)."""
    if variant == "a":
        return math.sqrt(2.0 * math.log(1.25 / delta)) * sensitivity / epsilon
    t = 0.41 * delta ** (-1.0 / 3.0)
    return sensitivity / epsilon * (t + math.sqrt(t * t + epsilon / 2.0) + 1e-9)
