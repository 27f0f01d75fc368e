"""Kantorovich optimal transport plans between discrete distributions.

For every convex ground distance on the line the Kantorovich problem is
minimized by the comonotone (quantile) coupling, whose cumulative mass is
min{F(x), G(x')}. The plan therefore does not depend on the distance, and
every distance here is |x - x'|, the one Laplace noise is calibrated to.
The plan is built by a north-west-corner sweep over the sorted supports,
which computes exactly the discrete second difference of that minimum.
The sweep runs on Python floats taken from the mass arrays: the same IEEE
operations as on numpy scalars, so the same bits, at a fraction of the
per-step cost.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution
from .errors import ValidationError

#: Entries below this are floating-point residue and are dropped.
ENTRY_DROP_TOL = 1e-15
#: Per-atom tolerance when checking that plan marginals reproduce the inputs.
MARGINAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Sparse coupling between two discrete distributions.

    ``rows[k]`` / ``cols[k]`` index into the supports of ``source`` /
    ``target``, the marginals the plan was built from, and every stored
    entry carries strictly positive mass, so the support of the plan is
    exactly the stored entries. The plan keeps read-only copies of the
    three arrays, so a later write to the caller's arrays does not reach it.
    """

    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray
    source: DiscreteDistribution
    target: DiscreteDistribution

    def __post_init__(self) -> None:
        rows = np.array(self.rows)
        cols = np.array(self.cols)
        mass = np.array(self.mass, dtype=float)
        if not (rows.size == cols.size == mass.size):
            raise ValidationError("rows, cols and mass must have equal lengths")
        if mass.size == 0:
            raise ValidationError("a transport plan must carry at least one entry")
        for name, index in (("rows", rows), ("cols", cols)):
            # checked before the conversion below, which would truncate a float index
            if index.dtype.kind not in "iu":
                raise ValidationError(f"{name} must hold integer indices, got dtype {index.dtype}")
        rows = rows.astype(np.intp, copy=False)
        cols = cols.astype(np.intp, copy=False)
        if np.any(mass <= 0):
            raise ValidationError("plan entries must carry strictly positive mass")
        total = float(mass.sum())
        if abs(total - 1.0) > MARGINAL_TOL:
            raise ValidationError(f"plan mass must total 1 within {MARGINAL_TOL}, got {total!r}")
        row_marg = _marginal(rows, mass, self.source, "rows")
        col_marg = _marginal(cols, mass, self.target, "cols")
        if np.abs(row_marg - self.source.mass).max() > MARGINAL_TOL:
            raise ValidationError("row marginals do not reproduce the source distribution")
        if np.abs(col_marg - self.target.mass).max() > MARGINAL_TOL:
            raise ValidationError("column marginals do not reproduce the target distribution")
        for name, arr in (("rows", rows), ("cols", cols), ("mass", mass)):
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


def _marginal(
    index: np.ndarray, mass: np.ndarray, dist: DiscreteDistribution, name: str
) -> np.ndarray:
    """The plan's mass on each atom of ``dist``, summed by ``index``, the plan's ``name``.

    An index out of range shows in the one ``bincount`` pass: numpy rejects
    a negative one, and one past the support lengthens the result.
    """
    try:
        marginal = np.bincount(index, weights=mass, minlength=dist.mass.size)
    except ValueError:
        raise ValidationError(
            f"{name} must be a vector of indices into a support of {dist.mass.size} points"
        ) from None
    if marginal.size > dist.mass.size:
        raise ValidationError(
            f"{name} holds index {marginal.size - 1}, past a support of {dist.mass.size} points"
        )
    return marginal


def optimal_plan(p: DiscreteDistribution, q: DiscreteDistribution) -> TransportPlan:
    """Comonotone coupling of ``p`` and ``q`` (the Kantorovich minimizer).

    Entry (k, l) equals max(0, min(F_k, G_l) - max(F_{k-1}, G_{l-1})) for
    the two CDFs F and G; the sweep below produces the same values while
    keeping the result sparse.
    """
    p_mass = p.mass.tolist()
    q_mass = q.mass.tolist()
    n, m = len(p_mass), len(q_mass)
    rows: list[int] = []
    cols: list[int] = []
    mass: list[float] = []
    # a and b are what is left of atoms i and j; each entry uses up one of them.
    i = j = 0
    a, b = p_mass[0], q_mass[0]
    while True:
        if a <= ENTRY_DROP_TOL:
            i += 1
            if i == n:
                break
            a = p_mass[i]
        elif b <= ENTRY_DROP_TOL:
            j += 1
            if j == m:
                break
            b = q_mass[j]
        elif a <= b:
            rows.append(i)
            cols.append(j)
            mass.append(a)
            a, b = 0.0, b - a
        else:
            rows.append(i)
            cols.append(j)
            mass.append(b)
            a, b = a - b, 0.0
    return TransportPlan(rows=rows, cols=cols, mass=mass, source=p, target=q)


def plan_sensitivity(plan: TransportPlan) -> float:
    """Largest distance |x - x'| carried by the support of the plan."""
    return float(np.abs(plan.displacements()).max())


def w1_distance(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Optimal transport cost between ``p`` and ``q`` under |x - x'|."""
    plan = optimal_plan(p, q)
    # cumsum adds left to right; np.sum adds pairwise and would change the last bits
    return float(np.cumsum(np.abs(plan.displacements()) * plan.mass)[-1])


def support_sensitivity(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Largest distance between the positive-mass supports.

    This is the naive query-sensitivity baseline: the maximum of |x - x'|
    over all x with p(x) > 0 and x' with q(x') > 0.
    """
    xs = p.support[p.mass > 0]
    ys = q.support[q.mass > 0]
    return float(np.abs(np.subtract.outer(xs, ys).ravel()).max())


def joint_cdf_table(p: DiscreteDistribution, q: DiscreteDistribution) -> np.ndarray:
    """Cumulative mass min{F(x), G(x')} of the comonotone coupling.

    Returned as a len(p) x len(q) matrix indexed by the two supports.
    """
    return np.minimum.outer(np.cumsum(p.mass), np.cumsum(q.mass))
