"""Independent multi-user systems and their secret-conditional output laws.

Each of V users independently draws a value from a per-user alphabet; a
separable query sums one term per user. Conditioning on a user's value
shifts the convolution of the other users' terms (the leave-one-out law);
conditioning on absence marginalizes the user out, which equals the prior
mixture of the value conditionals: the leave-one-out law convolved with
the user's own term.

A system keeps all users in flat read-only arrays cut by V + 1 offsets;
no conditional reads a per-user object. It keeps in its own dict the
latest user's leave-one-out law, read-only, and the conditionals built
from it. So a user's value pairs and absence pairs cost V convolution
steps between them, and each conditional is built once.
"""

from __future__ import annotations

import math
import operator
import sys
from functools import cached_property
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

class UserSystem:
    """V independent users: per-user priors and the query's per-user outputs.

    ``outputs[i][k]`` is user i's term of the query when the user reports
    ``priors[i].support[k]``. Both are stored flat, in user order: user i's
    support points, prior masses and outputs are ``[_offsets[i],
    _offsets[i + 1])`` of ``_support``, ``_mass`` and ``_output``, all
    read-only copies. ``priors`` and ``outputs`` are tuples of views of
    them, built on first read. A system is immutable and identity-hashed.
    """

    def __init__(self, priors: Sequence[DiscreteDistribution], outputs: Sequence) -> None:
        priors = tuple(priors)
        if not priors:
            raise ValidationError("a user system needs at least one user")
        try:
            given = [np.asarray(out, dtype=float) for out in outputs]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"query outputs must be numbers: {exc}") from None
        if len(given) != len(priors):
            raise ValidationError(f"outputs holds {len(given)} arrays for {len(priors)} users")
        sizes = [prior.support.size for prior in priors]
        bad = next((u for u, (n, out) in enumerate(zip(sizes, given)) if out.shape != (n,)), None)
        if bad is not None:
            raise ValidationError(
                f"user {bad} needs {sizes[bad]} outputs, got shape {given[bad].shape}"
            )
        support = np.concatenate([prior.support for prior in priors])
        mass = np.concatenate([prior.mass for prior in priors])
        self._store(np.cumsum([0] + sizes), support, mass, np.concatenate(given))

    def _store(self, offsets, support, mass, output) -> None:
        """Check the flat arrays once, make them read-only and keep them; the caller owns them."""
        bad = np.flatnonzero(~np.isfinite(output))
        if bad.size:
            k = int(bad[0])
            value, user = support.item(k), np.searchsorted(offsets, k, side="right") - 1
            raise ValidationError(f"query output for user {user} at {value!r} is not finite")
        # Up to rounding, these bound every sum of one output per user and every
        # difference of two such sums, so the convolutions and pairs stay finite.
        starts = offsets[:-1]
        with np.errstate(over="ignore"):
            top, low = np.maximum.reduceat(output, starts), np.minimum.reduceat(output, starts)
            reach, spread = np.maximum(top, -low).sum(), (top - low).sum()
        if max(reach, spread) == math.inf:
            raise ValidationError(
                "query outputs can sum past the float range: the users' largest |output| "
                f"values, or their output ranges, add up to more than {sys.float_info.max!r}"
            )
        for array in (offsets, support, mass, output):
            array.setflags(write=False)
        users = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
        vars(self).update(_offsets=offsets, _support=support, _mass=mass, _output=output,
                          _grid_terms=_grid_terms(users, output, mass))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"a UserSystem is immutable: cannot set {name!r}")

    @cached_property
    def priors(self) -> tuple[DiscreteDistribution, ...]:
        cut = self._offsets[1:-1]
        pieces = np.split(self._support, cut), np.split(self._mass, cut)
        return tuple(map(DiscreteDistribution._from_checked, *pieces))

    @cached_property
    def outputs(self) -> tuple[np.ndarray, ...]:
        return tuple(np.split(self._output, self._offsets[1:-1]))

    @property
    def user_count(self) -> int:
        return self._offsets.size - 1

    def _check_user(self, user: int) -> tuple[int, slice]:
        """``user`` as an int, and its slice of the flat arrays, once it is known to name a user.

        The index is anything ``operator.index`` takes.
        """
        try:
            user = operator.index(user)
        except TypeError:
            raise ValidationError(f"user index must be an integer, got {user!r}") from None
        if not 0 <= user < self.user_count:
            raise ValidationError(f"user index {user} out of range for {self.user_count} users")
        return user, slice(*self._offsets[user:user + 2].tolist())


def bernoulli_counting(p_values: Sequence[float]) -> UserSystem:
    """Counting query over users with {0, 1} alphabets and P(1) = p_i.

    The p vector is validated once, and the flat arrays are built from it
    directly: supports {0, 1} end to end, masses (1 - p_i, p_i), and
    outputs equal to the supports, as the query sums the raw values.
    """
    ps = np.array(p_values, dtype=float)
    if ps.ndim != 1 or ps.size == 0:
        raise ValidationError("p_values must be a nonempty vector")
    bad = np.flatnonzero(~((ps >= 0) & (ps <= 1)))
    if bad.size:
        i = int(bad[0])
        raise ValidationError(f"each p must lie in [0, 1], got p_values[{i}]={float(ps[i])!r}")
    support = np.tile([0.0, 1.0], ps.size)
    system = object.__new__(UserSystem)
    system._store(
        np.arange(0, 2 * ps.size + 1, 2), support, np.stack([1.0 - ps, ps], axis=1).ravel(), support
    )
    return system


def _grid_terms(users: np.ndarray, outputs: np.ndarray, mass: np.ndarray):
    """Every user's output law on the integer grid, as flat ``(lo, pmf, bounds, span)``.

    The arguments are aligned over every prior support point, users in
    ascending order. User i's law puts ``pmf[bounds[i]:bounds[i + 1]]`` on
    the integers from ``lo[i]``; masses of equal outputs are added in
    support order, and zero-mass outputs are dropped. ``span[i]`` is the
    user's number of grid points past the first, capped at MAX_ATOMS: a
    user whose outputs span more than MAX_ATOMS integers gets an empty
    slice, and any convolution that includes that user exceeds the cap.
    Returns ``None`` unless every positive-mass output is an integer.
    """
    keep = mass > 0
    out, mass, users = outputs[keep], mass[keep], users[keep]
    if not np.all(out == np.round(out)):
        return None
    starts = np.flatnonzero(np.diff(users, prepend=-1))
    lo = np.minimum.reduceat(out, starts)
    width = np.maximum.reduceat(out, starts) - lo + 1
    dense = width <= MAX_ATOMS
    bounds = np.concatenate([[0], np.cumsum(np.where(dense, width, 0).astype(np.intp))])
    at = dense[users]
    # bincount adds in index order, as a sequential scatter does
    pmf = np.bincount(
        bounds[users[at]] + (out - lo[users])[at].astype(np.intp),
        weights=mass[at], minlength=int(bounds[-1]),
    )
    return list(map(int, lo.tolist())), pmf, bounds.tolist(), np.minimum(width - 1, MAX_ATOMS)


def _merge_close(values: np.ndarray, mass: np.ndarray):
    """Merge runs of atoms each within ATOM_MERGE_TOL of the one before.

    A merged atom sits at the mass-weighted mean of its run; a run of one
    atom keeps its value, which (v m) / m need not round back to. Each run
    is reduced behind a leading 0.0, so ``reduceat`` adds as
    ``ndarray.sum`` does: 0 + pairwise(run), not run[0] + pairwise(run[1:]).
    """
    order = np.argsort(values, kind="stable")
    values = values[order]
    mass = mass[order]
    starts = np.flatnonzero(np.diff(values, prepend=-np.inf) > ATOM_MERGE_TOL)
    at = starts + np.arange(starts.size)
    run_mass = np.add.reduceat(np.insert(mass, starts, 0.0), at)
    run_moment = np.add.reduceat(np.insert(values * mass, starts, 0.0), at)
    merged = run_moment / run_mass
    lone = np.diff(starts, append=values.size) == 1
    merged[lone] = values[starts[lone]]
    return merged, run_mass


def _conditional(system: UserSystem, user: int, index: int | None) -> DiscreteDistribution:
    """The memoised law of the output given ``user``'s alphabet ``index``, or absence (None).

    A value conditional is the other users' law shifted by the user's
    output; the absence conditional is that law convolved with the user's
    term. The system's own ``_law`` entry is ``(user, law, built)`` for
    the latest user: the other users' law as read-only ``(atoms,
    weights)``, and the conditionals built from it so far, keyed by
    alphabet index or None for absence. A new user's entry replaces the
    old one in one assignment, written as :meth:`UserSystem._store` writes.
    """
    entry = vars(system).get("_law")
    if entry is None or entry[0] != user:
        law = _convolve(system, user)
        for array in law:
            array.setflags(write=False)
        entry = vars(system)["_law"] = (user, law, {})
    _, (vals, mass), built = entry
    if index not in built:
        if index is None:
            vals, mass = _add_user(system, vals, mass, user)
        else:
            vals = vals + system._output[system._offsets[user] + index]
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
        span = system._grid_terms[3]
        factors = _grid_factors(system, users, span.sum() - span[left_out])
        return _grid_atoms(*integer_convolution(factors))
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
    the cap is checked on the span of every user's terms, as for a law
    convolved from scratch.
    """
    if system._grid_terms is None:
        return _merge_step(system, vals, mass, user)
    [term] = _grid_factors(system, [user], system._grid_terms[3].sum())
    start = np.zeros(int(vals[-1] - vals[0]) + 1)
    start[(vals - vals[0]).astype(np.intp)] = mass
    return _grid_atoms(*integer_convolution([(int(vals[0]), start), term]))


def _grid_factors(system: UserSystem, users, span) -> list:
    """The grid terms of ``users``, once their sum's ``span`` past its least atom fits MAX_ATOMS."""
    if 1 + span > MAX_ATOMS:
        raise ValidationError(f"convolution grid would hold more than {MAX_ATOMS} atoms")
    lo, pmf, bounds, _ = system._grid_terms
    return [(lo[i], pmf[bounds[i]:bounds[i + 1]]) for i in users]


def _grid_atoms(offset: int, pmf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positive-mass atoms of a pmf on the integers from ``offset``."""
    keep = pmf > 0
    return np.arange(offset, offset + pmf.size, dtype=float)[keep], pmf[keep]


def _merge_step(
    system: UserSystem, vals: np.ndarray, mass: np.ndarray, user: int
) -> tuple[np.ndarray, np.ndarray]:
    """Atoms ``(vals, mass)`` summed pairwise with ``user``'s outputs, near-equal sums merged.

    Sums whose mass underflows to 0 are dropped first, as :func:`_grid_atoms`
    drops empty grid points, so no run of atoms carries zero mass.
    """
    _, at = system._check_user(user)
    prior = system._mass[at]
    keep = prior > 0
    out, inverse = np.unique(system._output[at][keep], return_inverse=True)
    sums = np.multiply.outer(mass, np.bincount(inverse, weights=prior[keep])).ravel()
    live = sums > 0
    vals, mass = _merge_close(np.add.outer(vals, out).ravel()[live], sums[live])
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
    user, at = system._check_user(user)
    if value is None:
        return _conditional(system, user, None)
    value = float(value)
    hit = np.flatnonzero(system._support[at] == value)
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
    user, at = system._check_user(user)
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    labels = [_label(user, a) for a in system._support[at].tolist()]
    conditionals = [_conditional(system, user, k) for k in range(len(labels))]
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
    return float(np.ptp(system._output[system._check_user(user)[1]]))
