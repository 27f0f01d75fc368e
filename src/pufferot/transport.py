"""Kantorovich optimal transport plans between discrete distributions.

For every convex ground distance on the line the Kantorovich problem is
minimized by the comonotone (quantile) coupling, whose cumulative mass is
min{F(x), G(x')}. The plan is built here by a north-west-corner sweep over
the sorted supports, which computes exactly the discrete second difference
of that minimum. The sweep runs on Python floats taken from the mass
arrays: the same IEEE operations as on numpy scalars, so the same bits,
at a fraction of the per-step cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import DiscreteDistribution
from .errors import ValidationError

#: Entries below this are floating-point residue and are dropped.
ENTRY_DROP_TOL = 1e-15
#: Per-atom tolerance when checking that plan marginals reproduce the inputs.
MARGINAL_TOL = 1e-10

_SYMMETRY_PROBES = (0.25, 1.0, 2.5, 7.0)


@dataclass(frozen=True, eq=False)
class Metric:
    """Symmetric nonnegative ground distance d(z) on the real line.

    ``symmetric`` and ``triangle_inequality`` record what the caller
    declares about d; symmetry is additionally probed at a few points.
    Convexity cannot be detected reliably at runtime, so it too is
    declared; the closed-form optimal plan and the transport cost are
    only meaningful for convex distances.
    """

    fn: Callable[[float], float]
    convex: bool
    name: str = "custom"
    symmetric: bool = True
    triangle_inequality: bool = True

    def __post_init__(self) -> None:
        if not (self.symmetric and self.triangle_inequality):
            raise ValidationError(
                f"metric {self.name!r} must declare symmetry and the triangle inequality"
            )
        if self.fn(0.0) != 0.0:
            raise ValidationError(f"metric {self.name!r} must satisfy d(0) = 0")
        for z in _SYMMETRY_PROBES:
            plus = float(self.fn(z))
            minus = float(self.fn(-z))
            if plus < 0 or minus < 0:
                raise ValidationError(f"metric {self.name!r} is negative at z={z}")
            if not math.isclose(plus, minus, rel_tol=1e-12, abs_tol=1e-12):
                raise ValidationError(f"metric {self.name!r} is not symmetric at z={z}")

    def __call__(self, z: float) -> float:
        return float(self.fn(z))

    def over(self, z: np.ndarray) -> list[float]:
        """d at every element of ``z``, each evaluated on a Python float."""
        return list(map(float, map(self.fn, z.tolist())))


#: The absolute-value ground distance used by the Laplace mechanism.
L1 = Metric(fn=abs, convex=True, name="l1")


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Sparse coupling between two discrete distributions.

    ``rows[k]`` / ``cols[k]`` index into the supports of ``source`` /
    ``target``, the marginals the plan was built from, and every stored
    entry carries strictly positive mass, so the support of the plan is
    exactly the stored entries.
    """

    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray
    source: DiscreteDistribution
    target: DiscreteDistribution

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.intp)
        cols = np.asarray(self.cols, dtype=np.intp)
        mass = np.asarray(self.mass, dtype=float)
        if not (rows.size == cols.size == mass.size):
            raise ValidationError("rows, cols and mass must have equal lengths")
        if mass.size == 0:
            raise ValidationError("a transport plan must carry at least one entry")
        if np.any(mass <= 0):
            raise ValidationError("plan entries must carry strictly positive mass")
        total = float(mass.sum())
        if abs(total - 1.0) > MARGINAL_TOL:
            raise ValidationError(f"plan mass must total 1 within {MARGINAL_TOL}, got {total!r}")
        row_marg = np.bincount(rows, weights=mass, minlength=self.source.mass.size)
        col_marg = np.bincount(cols, weights=mass, minlength=self.target.mass.size)
        if np.abs(row_marg - self.source.mass).max() > MARGINAL_TOL:
            raise ValidationError("row marginals do not reproduce the source distribution")
        if np.abs(col_marg - self.target.mass).max() > MARGINAL_TOL:
            raise ValidationError("column marginals do not reproduce the target distribution")
        for name in ("rows", "cols", "mass"):
            arr = {"rows": rows, "cols": cols, "mass": mass}[name]
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.mass.size)

    def displacements(self) -> np.ndarray:
        """Row value minus column value for every stored entry."""
        return self.source.support[self.rows] - self.target.support[self.cols]

    def transpose(self) -> "TransportPlan":
        order = np.lexsort((self.rows, self.cols))
        return TransportPlan(
            rows=self.cols[order],
            cols=self.rows[order],
            mass=self.mass[order],
            source=self.target,
            target=self.source,
        )

    def to_json_dict(self) -> dict:
        return {
            "row_support": self.source.support.tolist(),
            "col_support": self.target.support.tolist(),
            "entries": [
                [int(i), int(j), float(m)]
                for i, j, m in zip(self.rows, self.cols, self.mass)
            ],
        }


def optimal_plan(p: DiscreteDistribution, q: DiscreteDistribution) -> TransportPlan:
    """Comonotone coupling of ``p`` and ``q`` (the Kantorovich minimizer).

    Entry (k, l) equals max(0, min(F_k, G_l) - max(F_{k-1}, G_{l-1})) for
    the two CDFs F and G; the sweep below produces the same values while
    keeping the result sparse.
    """
    p_rem = p.mass.tolist()
    q_rem = q.mass.tolist()
    n, m = len(p_rem), len(q_rem)
    rows: list[int] = []
    cols: list[int] = []
    mass: list[float] = []
    i = j = 0
    while i < n and j < m:
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
    return TransportPlan(
        rows=np.array(rows, dtype=np.intp),
        cols=np.array(cols, dtype=np.intp),
        mass=np.array(mass, dtype=float),
        source=p,
        target=q,
    )


def plan_sensitivity(plan: TransportPlan, metric: Metric = L1) -> float:
    """Largest ground distance carried by the support of the plan."""
    return max(metric.over(plan.displacements()))


def w1_distance(
    p: DiscreteDistribution, q: DiscreteDistribution, metric: Metric = L1
) -> float:
    """Optimal transport cost between ``p`` and ``q`` under a convex metric."""
    if not metric.convex:
        raise ValidationError(
            f"transport cost requires a convex metric; {metric.name!r} is not declared convex"
        )
    plan = optimal_plan(p, q)
    # cumsum adds left to right; np.sum adds pairwise and would change the last bits
    return float(np.cumsum(np.array(metric.over(plan.displacements())) * plan.mass)[-1])


def support_sensitivity(
    p: DiscreteDistribution, q: DiscreteDistribution, metric: Metric = L1
) -> float:
    """Largest ground distance between the positive-mass supports.

    This is the naive query-sensitivity baseline: the maximum of d(x - x')
    over all x with p(x) > 0 and x' with q(x') > 0.
    """
    xs = p.support[p.mass > 0]
    ys = q.support[q.mass > 0]
    return max(metric.over(np.subtract.outer(xs, ys).ravel()))


def joint_cdf_table(p: DiscreteDistribution, q: DiscreteDistribution) -> np.ndarray:
    """Cumulative mass min{F(x), G(x')} of the comonotone coupling.

    Returned as a len(p) x len(q) matrix indexed by the two supports.
    """
    return np.minimum.outer(np.cumsum(p.mass), np.cumsum(q.mass))
