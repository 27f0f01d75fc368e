"""Independent multi-user systems and their secret-conditional output laws.

Each of V users independently draws a value from a per-user alphabet; a
separable query sums one term per user. Conditioning on a user's value
shifts the convolution of the other users' terms; conditioning on absence
marginalizes the user out, which equals the prior mixture of the value
conditionals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .distributions import DiscreteDistribution, integer_convolution
from .errors import ValidationError
from .pairs import DiscriminativePair

#: Nearby non-integer output atoms are merged within this tolerance.
ATOM_MERGE_TOL = 1e-9
#: Cap on the atom count of the running convolution.
MAX_ATOMS = 10_000

MODES = ("values", "absence")


@dataclass(frozen=True, eq=False)
class SeparableQuery:
    """Per-user output tables for a query that sums one term per user."""

    tables: tuple[Mapping[float, float], ...]

    def output(self, user: int, value: float) -> float:
        table = self.tables[user]
        try:
            return float(table[float(value)])
        except KeyError:
            raise ValidationError(
                f"value {value!r} is not in the alphabet of user {user}"
            ) from None

    @classmethod
    def counting(cls, alphabets: Sequence[Sequence[float]]) -> "SeparableQuery":
        """Identity per-user terms: the query counts (sums) the raw values."""
        return cls(tables=tuple({float(a): float(a) for a in alpha} for alpha in alphabets))


@dataclass(frozen=True, eq=False)
class SecretEvent:
    """Either "user i reported value a" or "user i is absent"."""

    user: int
    value: float | None = None

    @classmethod
    def absent(cls, user: int) -> "SecretEvent":
        return cls(user=user, value=None)

    @property
    def is_absent(self) -> bool:
        return self.value is None


@dataclass(frozen=True, eq=False)
class UserSystem:
    """V independent users with per-user priors and a separable query."""

    priors: tuple[DiscreteDistribution, ...]
    query: SeparableQuery
    #: Per user, f_i(S_i) as ``(offset, pmf)`` on the integers, or ``None``
    #: when some output is not an integer; see :func:`_grid_terms`.
    _grid_terms: tuple | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        priors = tuple(self.priors)
        if not priors:
            raise ValidationError("a user system needs at least one user")
        if len(self.query.tables) != len(priors):
            raise ValidationError(
                f"query has {len(self.query.tables)} tables for {len(priors)} users"
            )
        users = np.repeat(np.arange(len(priors)), [prior.support.size for prior in priors])
        support = np.concatenate([prior.support for prior in priors])
        outputs = np.array([self.query.output(i, a) for i, a in zip(users.tolist(), support)])
        bad = np.flatnonzero(~np.isfinite(outputs))
        if bad.size:
            k = int(bad[0])
            raise ValidationError(
                f"query output for user {users[k]} at {support[k]!r} is not finite"
            )
        mass = np.concatenate([prior.mass for prior in priors])
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "_grid_terms", _grid_terms(users, outputs, mass))

    @property
    def user_count(self) -> int:
        return len(self.priors)

    def _check_user(self, user: int) -> None:
        if not 0 <= user < len(self.priors):
            raise ValidationError(f"user index {user} out of range for {len(self.priors)} users")


def bernoulli_counting(p_values: Sequence[float]) -> UserSystem:
    """Counting query over users with {0, 1} alphabets and P(1) = p_i.

    The p vector is validated once; each prior's support {0, 1} and masses
    (1 - p_i, p_i) then meet every distribution invariant by construction.
    """
    ps = np.array(p_values, dtype=float)
    if ps.ndim != 1 or ps.size == 0:
        raise ValidationError("p_values must be a nonempty vector")
    bad = np.flatnonzero(~((ps >= 0) & (ps <= 1)))
    if bad.size:
        i = int(bad[0])
        raise ValidationError(f"each p must lie in [0, 1], got p_values[{i}]={ps[i]!r}")
    support = np.array([0.0, 1.0])
    masses = np.stack([1.0 - ps, ps], axis=1)
    priors = tuple(DiscreteDistribution._from_checked(support, mass) for mass in masses)
    query = SeparableQuery.counting([support] * ps.size)
    return UserSystem(priors=priors, query=query)


def _grid_terms(users: np.ndarray, outputs: np.ndarray, mass: np.ndarray):
    """Each user's output law as ``(offset, pmf)`` on the integer grid.

    The arguments are aligned over every prior support point, users in
    ascending order. Masses of equal outputs are added in support order.
    Returns ``None`` unless every positive-mass output is an integer. A
    user whose outputs span more than MAX_ATOMS integers gets
    ``(offset, None)``: any convolution that includes that user exceeds
    the cap.
    """
    keep = mass > 0
    out, mass, users = outputs[keep], mass[keep], users[keep]
    if not np.all(out == np.round(out)):
        return None
    starts = np.flatnonzero(np.diff(users, prepend=-1))
    lo = np.minimum.reduceat(out, starts)
    width = np.maximum.reduceat(out, starts) - lo + 1
    dense = width <= MAX_ATOMS
    size = np.where(dense, width, 0).astype(np.intp)
    ends = np.cumsum(size)
    flat = np.zeros(int(ends[-1]))
    at = dense[users]
    np.add.at(flat, (ends - size)[users[at]] + (out - lo[users])[at].astype(np.intp), mass[at])
    pmfs = np.split(flat, ends[:-1])
    return tuple(
        (int(offset), pmf if ok else None)
        for offset, pmf, ok in zip(lo.tolist(), pmfs, dense.tolist())
    )


def _pushforward(system: UserSystem, user: int):
    """Atoms of f_i(S_i): query outputs with prior mass, equal outputs merged."""
    prior = system.priors[user]
    keep = prior.mass > 0
    outputs = [system.query.output(user, a) for a in prior.support[keep]]
    values, inverse = np.unique(outputs, return_inverse=True)
    return values, np.bincount(inverse, weights=prior.mass[keep])


def _merge_close(values: np.ndarray, mass: np.ndarray):
    """Merge atoms lying within ATOM_MERGE_TOL; value is the mass-weighted mean."""
    order = np.argsort(values, kind="stable")
    values = values[order]
    mass = mass[order]
    out_vals: list[float] = []
    out_mass: list[float] = []
    k = 0
    while k < values.size:
        end = k + 1
        while end < values.size and values[end] - values[end - 1] <= ATOM_MERGE_TOL:
            end += 1
        chunk_mass = mass[k:end].sum()
        out_vals.append(float((values[k:end] * mass[k:end]).sum() / chunk_mass))
        out_mass.append(float(chunk_mass))
        k = end
    return np.array(out_vals), np.array(out_mass)


def _sum_law(system: UserSystem, users: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Atoms and weights of the sum of the given users' terms, convolved in order.

    When every output is an integer the terms are convolved as pmfs on the
    integer grid; otherwise atoms are summed pairwise and near-equal sums
    merged.
    """
    if system._grid_terms is not None:
        terms = [system._grid_terms[i] for i in users]
        if any(pmf is None for _, pmf in terms) or (
            1 + sum(pmf.size - 1 for _, pmf in terms) > MAX_ATOMS
        ):
            raise ValidationError(f"convolution grid would hold more than {MAX_ATOMS} atoms")
        offset, mass = integer_convolution(terms)
        keep = mass > 0
        return np.arange(offset, offset + mass.size, dtype=float)[keep], mass[keep]
    vals = np.array([0.0])
    mass = np.array([1.0])
    for i in users:
        pv, pm = _pushforward(system, i)
        vals, mass = _merge_close(
            np.add.outer(vals, pv).ravel(), np.multiply.outer(mass, pm).ravel()
        )
        if vals.size > MAX_ATOMS:
            raise ValidationError(
                f"convolution support grew to {vals.size} atoms (cap {MAX_ATOMS})"
            )
    return vals, mass


def _others(system: UserSystem, user: int) -> list[int]:
    return [i for i in range(system.user_count) if i != user]


def conditional_output_dist(system: UserSystem, event: SecretEvent) -> DiscreteDistribution:
    """Law of the query output conditioned on a per-user secret event.

    For a value event the other users' terms are convolved and shifted by
    the conditioned user's output; for an absence event all users are
    convolved, which equals the prior mixture over the user's values.
    """
    system._check_user(event.user)
    if event.is_absent:
        vals, mass = _sum_law(system, range(system.user_count))
        return DiscreteDistribution.from_weights(vals, mass)
    alphabet = system.priors[event.user].support
    if not np.any(alphabet == float(event.value)):
        raise ValidationError(
            f"value {event.value!r} is not in the alphabet of user {event.user}"
        )
    vals, mass = _sum_law(system, _others(system, event.user))
    shift = system.query.output(event.user, event.value)
    return DiscreteDistribution.from_weights(vals + shift, mass)


def discriminative_pairs(
    system: UserSystem, user: int, mode: str = "values"
) -> list[DiscriminativePair]:
    """Secret pairs for one user: all value pairs, or each value vs absence.

    The other users' terms are convolved once; each value conditional is
    that law shifted by the user's output, exactly as
    :func:`conditional_output_dist` computes it.
    """
    system._check_user(user)
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    alphabet = system.priors[user].support.tolist()
    vals, mass = _sum_law(system, _others(system, user))
    conditionals = [
        DiscreteDistribution.from_weights(vals + system.query.output(user, a), mass)
        for a in alphabet
    ]
    labels = [f"S{user}={a:g}" for a in alphabet]
    if mode == "values":
        return [
            DiscriminativePair(
                labels=(labels[i], labels[j]),
                p=conditionals[i],
                q=conditionals[j],
                prior="scenario",
            )
            for i in range(len(alphabet))
            for j in range(i + 1, len(alphabet))
        ]
    absent = conditional_output_dist(system, SecretEvent.absent(user))
    return [
        DiscriminativePair(labels=(label, f"S{user}=absent"), p=p, q=absent, prior="scenario")
        for label, p in zip(labels, conditionals)
    ]


def query_sensitivity(system: UserSystem, user: int, mode: str = "values") -> float:
    """Worst per-user output swing: max over a, b of |f_i(a) - f_i(b)|.

    The value is independent of the priors. Absence pairs are covered by
    the same bound (the absent conditional is a mixture of the value
    conditionals), so both modes return it.
    """
    system._check_user(user)
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    outputs = np.array([system.query.output(user, a) for a in system.priors[user].support])
    return float(np.abs(np.subtract.outer(outputs, outputs).ravel()).max())
