"""Discriminative secret pairs: the indistinguishability targets.

A pair couples two secret labels with the conditional distributions of the
public value under each secret, tagged by the prior (adversary) they were
derived from. Collections of pairs are what calibration and verification
consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import DiscreteDistribution
from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class DiscriminativePair:
    labels: tuple[str, str]
    p: DiscreteDistribution
    q: DiscreteDistribution
    prior: str = "empirical"

    def __post_init__(self) -> None:
        left, right = self.labels
        if left == right:
            raise ValidationError(f"pair labels must be distinct, got {left!r} twice")
        # Python floats overflow to inf without the RuntimeWarning numpy would issue
        lo = min(float(self.p.support[0]), float(self.q.support[0]))
        hi = max(float(self.p.support[-1]), float(self.q.support[-1]))
        if not math.isfinite(hi - lo):
            raise ValidationError(
                f"pair ({left!r}, {right!r}): the supports span {lo!r} to {hi!r}, "
                "a distance past the float range"
            )

    def swapped(self) -> "DiscriminativePair":
        return DiscriminativePair(
            labels=(self.labels[1], self.labels[0]), p=self.q, q=self.p, prior=self.prior
        )

    def to_json_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "prior": self.prior,
            "p": self.p.to_json_dict(),
            "q": self.q.to_json_dict(),
        }
