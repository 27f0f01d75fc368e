"""Independent multi-user systems and their secret-conditional output laws.

Each of V users independently draws a value from a per-user alphabet; a
separable query sums one term per user. Conditioning on a user's value
shifts the convolution of the other users' terms (the leave-one-out law);
conditioning on absence marginalizes the user out, which equals the prior
mixture of the value conditionals: the leave-one-out law convolved with
the user's own term.

A system weakly keeps the latest user's leave-one-out law, read-only, and
the conditionals built from it. So a user's value pairs and absence pairs
cost V convolution steps between them, each conditional is built once,
and the memo goes with the system.
"""

from __future__ import annotations

import math
import sys
import weakref
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

from .distributions import DiscreteDistribution, integer_convolution
from .errors import ValidationError
from .pairs import DiscriminativePair

#: Nearby non-integer output atoms are merged within this tolerance.
ATOM_MERGE_TOL = 1e-9
#: Cap on the atom count of the running convolution.
MAX_ATOMS = 10_000

MODES = ("values", "absence")

#: Per system, ``(user, law, built)`` for the latest user: the other users'
#: law as read-only ``(atoms, weights)``, and the conditionals built from it
#: so far, keyed by alphabet index or None for absence; see
#: :func:`_conditional`.
_LAWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True, eq=False)
class UserSystem:
    """V independent users: per-user priors and the query's per-user outputs.

    ``outputs[i][k]`` is user i's term of the query when the user reports
    ``priors[i].support[k]``. The outputs are stored as read-only copies, one
    per distinct array given, so users given one array share one copy.
    """

    priors: tuple[DiscreteDistribution, ...]
    outputs: tuple[np.ndarray, ...]
    #: Per user, f_i(S_i) as ``(offset, pmf)`` on the integers, or ``None``
    #: when some output is not an integer; see :func:`_grid_terms`.
    _grid_terms: tuple | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        priors = tuple(self.priors)
        if not priors:
            raise ValidationError("a user system needs at least one user")
        given = tuple(self.outputs)
        copies: dict[int, np.ndarray] = {}
        try:
            for out in given:
                if id(out) not in copies:
                    copies[id(out)] = np.array(out, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"query outputs must be numbers: {exc}") from None
        outputs = tuple(copies[id(out)] for out in given)
        if len(outputs) != len(priors):
            raise ValidationError(f"outputs holds {len(outputs)} arrays for {len(priors)} users")
        for user, (prior, out) in enumerate(zip(priors, outputs)):
            if out.shape != prior.support.shape:
                raise ValidationError(
                    f"user {user} needs {prior.support.size} outputs, got shape {out.shape}"
                )
            out.setflags(write=False)
        sizes = np.array([out.size for out in outputs])
        flat = np.concatenate(outputs)
        users = np.repeat(np.arange(len(priors)), sizes)
        bad = np.flatnonzero(~np.isfinite(flat))
        if bad.size:
            k = int(bad[0])
            value = float(np.concatenate([prior.support for prior in priors])[k])
            raise ValidationError(f"query output for user {users[k]} at {value!r} is not finite")
        # Up to rounding, these bound every sum of one output per user and every
        # difference of two such sums, so the convolutions and pairs stay finite.
        starts = sizes.cumsum() - sizes
        with np.errstate(over="ignore"):
            reach = np.maximum.reduceat(np.abs(flat), starts).sum()
            spread = (np.maximum.reduceat(flat, starts) - np.minimum.reduceat(flat, starts)).sum()
        if max(reach, spread) == math.inf:
            raise ValidationError(
                "query outputs can sum past the float range: the users' largest |output| "
                f"values, or their output ranges, add up to more than {sys.float_info.max!r}"
            )
        mass = np.concatenate([prior.mass for prior in priors])
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "_grid_terms", _grid_terms(users, flat, mass))

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
    Each user's outputs are its support: the query sums the raw values.
    """
    ps = np.array(p_values, dtype=float)
    if ps.ndim != 1 or ps.size == 0:
        raise ValidationError("p_values must be a nonempty vector")
    bad = np.flatnonzero(~((ps >= 0) & (ps <= 1)))
    if bad.size:
        i = int(bad[0])
        raise ValidationError(f"each p must lie in [0, 1], got p_values[{i}]={float(ps[i])!r}")
    support = np.array([0.0, 1.0])
    masses = np.stack([1.0 - ps, ps], axis=1)
    priors = tuple(DiscreteDistribution._from_checked(support, mass) for mass in masses)
    return UserSystem(priors=priors, outputs=(support,) * ps.size)


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
    at = dense[users]
    # bincount adds in index order, as a sequential scatter does
    flat = np.bincount(
        (ends - size)[users[at]] + (out - lo[users])[at].astype(np.intp),
        weights=mass[at], minlength=int(ends[-1]),
    )
    # size is 0 only for the users past MAX_ATOMS.
    return tuple(
        (int(offset), flat[stop - n:stop] if n else None)
        for offset, n, stop in zip(lo.tolist(), size.tolist(), ends.tolist())
    )


def _merge_close(values: np.ndarray, mass: np.ndarray):
    """Merge runs of atoms each within ATOM_MERGE_TOL of the one before.

    A merged atom sits at the mass-weighted mean of its run. Each run is
    reduced behind a leading 0.0, so ``reduceat`` adds as ``ndarray.sum``
    does: 0 + pairwise(run), not run[0] + pairwise(run[1:]).
    """
    order = np.argsort(values, kind="stable")
    values = values[order]
    mass = mass[order]
    starts = np.flatnonzero(np.diff(values, prepend=-np.inf) > ATOM_MERGE_TOL)
    at = starts + np.arange(starts.size)
    run_mass = np.add.reduceat(np.insert(mass, starts, 0.0), at)
    run_moment = np.add.reduceat(np.insert(values * mass, starts, 0.0), at)
    return run_moment / run_mass, run_mass


def _conditional(system: UserSystem, user: int, index: int | None) -> DiscreteDistribution:
    """The memoised law of the output given ``user``'s alphabet ``index``, or absence (None).

    A value conditional is the other users' law shifted by the user's
    output; the absence conditional is that law convolved with the user's
    term. A new user's entry replaces the system's old one in one
    assignment.
    """
    entry = _LAWS.get(system)
    if entry is None or entry[0] != user:
        law = _convolve(system, user)
        for array in law:
            array.setflags(write=False)
        entry = (user, law, {})
        _LAWS[system] = entry
    _, (vals, mass), built = entry
    if index not in built:
        if index is None:
            vals, mass = _add_user(system, vals, mass, user)
        else:
            vals = vals + system.outputs[user][index]
        built[index] = DiscreteDistribution.from_weights(vals, mass)
    return built[index]


def _convolve(system: UserSystem, left_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Atoms and weights of the sum of every user's output but ``left_out``'s.

    Users are convolved in index order. When every output is an integer the
    outputs' laws are convolved as pmfs on the integer grid; otherwise each
    user's positive-mass outputs, equal ones merged, are summed pairwise
    with the running atoms and near-equal sums merged.
    """
    users = [i for i in range(system.user_count) if i != left_out]
    if system._grid_terms is not None:
        return _grid_atoms(*integer_convolution(_grid_factors(system, users)))
    vals = np.array([0.0])
    mass = np.array([1.0])
    for i in users:
        vals, mass = _merge_step(system, vals, mass, i)
    return vals, mass


def _add_user(
    system: UserSystem, vals: np.ndarray, mass: np.ndarray, user: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(vals, mass)`` convolved with ``user``'s output, one more step of :func:`_convolve`.

    On the grid, the atoms are scattered back onto their span first, and
    the cap is checked on the grid of every user's terms, as for a law
    convolved from scratch.
    """
    if system._grid_terms is None:
        return _merge_step(system, vals, mass, user)
    term = _grid_factors(system, range(system.user_count))[user]
    start = np.zeros(int(vals[-1] - vals[0]) + 1)
    start[(vals - vals[0]).astype(np.intp)] = mass
    return _grid_atoms(*integer_convolution([(int(vals[0]), start), term]))


def _grid_factors(system: UserSystem, users) -> list:
    """The grid terms of ``users``, once their sum's grid is known to fit MAX_ATOMS."""
    terms = [system._grid_terms[i] for i in users]
    if any(pmf is None for _, pmf in terms) or (
        1 + sum(pmf.size - 1 for _, pmf in terms) > MAX_ATOMS
    ):
        raise ValidationError(f"convolution grid would hold more than {MAX_ATOMS} atoms")
    return terms


def _grid_atoms(offset: int, pmf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positive-mass atoms of a pmf on the integers from ``offset``."""
    keep = pmf > 0
    return np.arange(offset, offset + pmf.size, dtype=float)[keep], pmf[keep]


def _merge_step(
    system: UserSystem, vals: np.ndarray, mass: np.ndarray, user: int
) -> tuple[np.ndarray, np.ndarray]:
    """Atoms ``(vals, mass)`` summed pairwise with ``user``'s outputs, near-equal sums merged."""
    keep = system.priors[user].mass > 0
    out, inverse = np.unique(system.outputs[user][keep], return_inverse=True)
    out_mass = np.bincount(inverse, weights=system.priors[user].mass[keep])
    vals, mass = _merge_close(
        np.add.outer(vals, out).ravel(), np.multiply.outer(mass, out_mass).ravel()
    )
    if vals.size > MAX_ATOMS:
        raise ValidationError(f"convolution support grew to {vals.size} atoms (cap {MAX_ATOMS})")
    return vals, mass


def conditional_output_dist(
    system: UserSystem, user: int, value: float | None = None
) -> DiscreteDistribution:
    """Law of the query output given that ``user`` reported ``value``, or is absent (None).

    Given a value, the other users' outputs are convolved and shifted by
    the user's output; given absence, the other users' law is convolved
    with the user's output law, which equals the prior mixture over the
    user's values.
    """
    system._check_user(user)
    if value is None:
        return _conditional(system, user, None)
    value = float(value)
    hit = np.flatnonzero(system.priors[user].support == value)
    if not hit.size:
        raise ValidationError(f"value {value!r} is not in the alphabet of user {user}")
    return _conditional(system, user, int(hit[0]))


def _label(user: int, value: float) -> str:
    """``S<user>=<value>``, the value in ``:g`` form where that reads back as it."""
    text = f"{value:g}"
    return f"S{user}={text if float(text) == value else repr(value)}"


def discriminative_pairs(
    system: UserSystem, user: int, mode: str = "values"
) -> list[DiscriminativePair]:
    """Secret pairs for one user: all value pairs, or each value vs absence.

    The conditionals are the memoised ones :func:`conditional_output_dist`
    returns, so ``values`` then ``absence`` convolve the other users once,
    extend their law by the user once, and build each conditional once.
    """
    system._check_user(user)
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    conditionals = [_conditional(system, user, k) for k in range(system.outputs[user].size)]
    labels = [_label(user, a) for a in system.priors[user].support.tolist()]
    if mode == "values":
        return [
            DiscriminativePair((labels[i], labels[j]), conditionals[i], conditionals[j], "scenario")
            for i, j in combinations(range(len(labels)), 2)
        ]
    absent = conditional_output_dist(system, user)
    return [
        DiscriminativePair(labels=(label, f"S{user}=absent"), p=p, q=absent, prior="scenario")
        for label, p in zip(labels, conditionals)
    ]


def query_sensitivity(system: UserSystem, user: int) -> float:
    """Worst per-user output swing: max over a, b of |f_i(a) - f_i(b)|.

    That is max - min of the user's outputs, as float rounding is monotone.
    The value is independent of the priors, and it bounds absence pairs
    too: the absent conditional is a mixture of the value conditionals.
    """
    system._check_user(user)
    return float(np.ptp(system.outputs[user]))
