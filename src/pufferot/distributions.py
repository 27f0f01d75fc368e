"""Finite discrete probability distributions on the real line.

The value type here is deliberately small: a strictly increasing support
and an aligned probability mass vector. Everything downstream (transport
plans, noise calibration, verification) consumes these objects and relies
on their invariants, so construction is strict and instances are frozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError

#: Absolute tolerance on the total-mass-equals-one invariant.
MASS_TOL = 1e-12


def number_list(values, name: str) -> list:
    """``values`` if it is a JSON list of numbers; strings and booleans are not numbers."""
    if not isinstance(values, list):
        raise ValidationError(f"{name} must be a list of numbers, got {values!r}")
    if not set(map(type, values)) <= {int, float}:
        i, bad = next((i, v) for i, v in enumerate(values) if type(v) not in (int, float))
        raise ValidationError(f"{name}[{i}] must be a number, got {bad!r}")
    return values


def _as_vector(values: Sequence[float], name: str) -> np.ndarray:
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} must be a list of numbers: {exc}") from None
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must not be empty")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValidationError(f"{name}[{bad[0]}] is not finite: {float(arr[bad[0]])!r}")
    return arr


def _support_and_weights(support, weights, name: str) -> tuple[np.ndarray, np.ndarray]:
    """``support`` and ``weights`` as float vectors of one length; ``name`` names the weights.

    Negative weights are rejected.
    """
    sup = _as_vector(support, "support")
    w = _as_vector(weights, name)
    if sup.size != w.size:
        raise ValidationError(f"support and {name} lengths differ: {sup.size} != {w.size}")
    neg = np.flatnonzero(w < 0)
    if neg.size:
        i = int(neg[0])
        raise ValidationError(f"{name}[{i}] is negative: {float(w[i])!r}")
    return sup, w


def _check_total(mass: np.ndarray) -> None:
    total = float(mass.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise ValidationError(f"mass must sum to 1 within {MASS_TOL}, got {total!r}")


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Probability mass on a strictly increasing finite support.

    Masses may be zero: a zero atom records a declared support point
    (which matters for support-based sensitivity bounds) and is kept.
    Duplicate support values are always an error, never merged silently.
    Instances are immutable and safe for concurrent reads.
    """

    support: np.ndarray
    mass: np.ndarray

    def __post_init__(self) -> None:
        support, mass = _support_and_weights(self.support, self.mass, "mass")
        # compared, not subtracted: a step past the float range would overflow
        bad = np.flatnonzero(support[1:] <= support[:-1])
        if bad.size:
            i = int(bad[0]) + 1
            raise ValidationError(
                f"support must be strictly increasing; support[{i}]={float(support[i])!r} "
                f"does not exceed support[{i - 1}]={float(support[i - 1])!r}"
            )
        _check_total(mass)
        support.setflags(write=False)
        mass.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "mass", mass)

    @classmethod
    def from_weights(
        cls, support: Sequence[float], weights: Sequence[float]
    ) -> "DiscreteDistribution":
        """Build a distribution from nonnegative weights.

        The support is sorted ascending (weights permuted accordingly) and
        the weights are normalized to sum to one.
        """
        sup, w = _support_and_weights(support, weights, "weights")
        order = np.argsort(sup, kind="stable")
        sup = sup[order]
        w = w[order]
        dup = np.flatnonzero(sup[1:] == sup[:-1])
        if dup.size:
            i = int(order[dup[0] + 1])
            raise ValidationError(
                f"duplicate support value {float(sup[dup[0]])!r} (input index {i})"
            )
        with np.errstate(over="ignore"):
            total = float(w.sum())
        if total <= 0:
            raise ValidationError("weights must have a positive sum")
        # a total past the float range scales every weight to zero, which the check rejects
        mass = w / total
        _check_total(mass)
        return cls._from_checked(sup, mass)

    @classmethod
    def _from_checked(cls, support: np.ndarray, mass: np.ndarray) -> "DiscreteDistribution":
        """Wrap float arrays that already meet every invariant; no check is re-run.

        The arrays are made read-only, so the caller must own them.
        """
        dist = object.__new__(cls)
        support.setflags(write=False)
        mass.setflags(write=False)
        object.__setattr__(dist, "support", support)
        object.__setattr__(dist, "mass", mass)
        return dist

    def __len__(self) -> int:
        return int(self.support.size)

    def to_json_dict(self) -> dict:
        return {"support": self.support.tolist(), "mass": self.mass.tolist()}

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "DiscreteDistribution":
        if not isinstance(payload, Mapping):
            raise ValidationError(f"a distribution must be a JSON object, got {payload!r}")
        for key in ("support", "mass"):
            if key not in payload:
                raise ValidationError(f"distribution object is missing {key!r}")
            number_list(payload[key], key)
        return cls(payload["support"], payload["mass"])


def integer_convolution(factors) -> tuple[int, np.ndarray]:
    """Law of a sum of independent integer-valued terms, as ``(offset, pmf)``.

    Each factor is an ``(offset, pmf)`` pair putting mass ``pmf[k]`` on the
    integer ``offset + k``. The first factor starts the running pmf, and
    the others are convolved into it in the given order with
    ``np.convolve``. No factors give the point mass at 0; one factor gives
    that factor's own array.
    """
    offset, pmf = 0, None
    for lo, factor in factors:
        pmf = factor if pmf is None else np.convolve(pmf, factor)
        offset += lo
    return (0, np.ones(1)) if pmf is None else (offset, pmf)


def poisson_binomial(p_values: Sequence[float]) -> DiscreteDistribution:
    """Distribution of a sum of independent Bernoulli(p_i) variables.

    Computed by :func:`integer_convolution` of the Bernoulli laws; the full
    grid {0, ..., V} is kept even where the mass is zero.
    """
    ps = _as_vector(p_values, "p_values")
    bad = np.flatnonzero((ps < 0) | (ps > 1))
    if bad.size:
        i = int(bad[0])
        raise ValidationError(f"p_values[{i}]={float(ps[i])!r} is outside [0, 1]")
    offset, pmf = integer_convolution((0, np.array([1.0 - p, p])) for p in ps)
    full = np.zeros(ps.size + 1)
    full[offset : offset + pmf.size] = pmf
    return DiscreteDistribution(np.arange(ps.size + 1, dtype=float), full / full.sum())
