"""Tabular ingestion: empirical secret-conditional distributions from CSV.

A public categorical attribute is mapped onto contiguous 1-based numeric
indices (the index distances are what calibration measures, so unknown labels
reject the row rather than silently extending the mapping). Per-secret
counts then normalize into the conditional distributions that calibration
consumes.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass
from importlib import resources
from typing import Mapping, Sequence

import numpy as np

from .distributions import DiscreteDistribution
from .errors import ValidationError
from .pairs import DiscriminativePair

_ADULT_RESOURCE = "adult_education_by_race.json"
_ADULT_PAIR = ("White", "Asian-Pac-Islander")


@dataclass(frozen=True, eq=False)
class AttributeMapping:
    """Ordered category labels mapped to indices 1..n."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(str(label) for label in self.labels)
        if not labels:
            raise ValidationError("an attribute mapping needs at least one label")
        seen: dict[str, int] = {}
        for i, label in enumerate(labels):
            if label in seen:
                raise ValidationError(
                    f"duplicate label {label!r} at positions {seen[label]} and {i}"
                )
            seen[label] = i
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_positions", seen)

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        """1-based index of a label."""
        try:
            return self._positions[label] + 1
        except KeyError:
            raise ValidationError(f"label {label!r} is not in the attribute mapping") from None

    @property
    def support(self) -> np.ndarray:
        return np.arange(1, len(self.labels) + 1, dtype=float)

    @classmethod
    def from_json_file(cls, path: str) -> "AttributeMapping":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, list):
            raise ValidationError("a mapping file must hold a JSON array of labels")
        return cls(labels=tuple(payload))


def header_column(path: str, header: Sequence[str], column: str) -> int | None:
    """Position of the one header cell whose stripped name is ``column``.

    A header that does not name ``column``, or names it more than once, is
    rejected. A cell spelled exactly ``""`` is a column without a name, as
    ``csv.DictReader`` keys rows: asking for ``""`` finds it but gives None,
    and its cells read as empty.
    """
    found = [k for k, name in enumerate(header) if name.strip() == column]
    if len(found) != 1:
        fieldnames = [name.strip() for name in header]
        problem = f"named {len(found)} times in" if found else "not found in"
        raise ValidationError(f"{path}: column {column!r} {problem} header {fieldnames}")
    return found[0] if header[found[0]] else None


def csv_rows(path: str, fh, delimiter: str):
    """The rows of ``csv.reader(fh)``; a ``csv.Error`` is re-raised naming ``path`` and the line."""
    reader = csv.reader(fh, delimiter=delimiter)
    try:
        yield from reader
    except csv.Error as exc:
        raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None


def load_table(
    path: str,
    secret_column: str,
    data_column: str,
    mapping: AttributeMapping,
    delimiter: str = ",",
) -> dict[str, np.ndarray]:
    """Count data-column indices per secret label from a headered CSV.

    Columns are resolved by ``header_column``. Cells are stripped of
    surrounding whitespace; blank lines are skipped and missing trailing
    cells read as empty (``csv.DictReader``'s rules). Rows whose data label
    is not in the mapping are rejected; the error reports how many rows
    were rejected and names the first offending label with its row number.
    Secrets appear in the result in the order of their first row.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv_rows(path, fh, delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file (no header row)") from None
        s_col, d_col = (
            math.inf if k is None else k
            for k in (header_column(path, header, c) for c in (secret_column, data_column))
        )
        labels = mapping._positions
        n_labels = len(mapping)
        secrets: dict[str, int] = {}
        codes = array("q")
        rejected = 0
        first_rejected: tuple[int, str] | None = None
        rows = 0
        for row in reader:
            if not row:
                continue
            rows += 1
            width = len(row)
            label = row[d_col].strip() if d_col < width else ""
            code = labels.get(label)
            if code is None:
                rejected += 1
                if first_rejected is None:
                    first_rejected = (rows + 1, label)
                continue
            secret = row[s_col].strip() if s_col < width else ""
            codes.append(secrets.setdefault(secret, len(secrets)) * n_labels + code)
    if first_rejected is not None:
        rownum, label = first_rejected
        raise ValidationError(
            f"{path}: {rejected} row(s) rejected with unmappable data labels; "
            f"first is label {label!r} at row {rownum}"
        )
    if rows == 0:
        raise ValidationError(f"{path}: no data rows")
    tally = np.bincount(np.frombuffer(codes, dtype=np.int64), minlength=len(secrets) * n_labels)
    return dict(zip(secrets, tally.astype(float).reshape(len(secrets), n_labels)))


def empirical_conditionals(
    counts: Mapping[str, Sequence[float]],
) -> dict[str, DiscreteDistribution]:
    """Normalize per-secret counts on the mapped index support 1..n."""
    out: dict[str, DiscreteDistribution] = {}
    for secret, values in counts.items():
        arr = np.asarray(values, dtype=float)
        if arr.sum() <= 0:
            raise ValidationError(f"secret {secret!r} has zero total count")
        support = np.arange(1, arr.size + 1, dtype=float)
        out[secret] = DiscreteDistribution.from_weights(support, arr)
    return out


def enumerate_pairs(
    conditionals: Mapping[str, DiscreteDistribution],
    pairs: Sequence[Sequence[str]] | None = None,
    prior: str = "empirical",
) -> list[DiscriminativePair]:
    """Build discriminative pairs: all unordered secret pairs, or a listed subset."""
    if pairs is None:
        labels = sorted(conditionals)
        if len(labels) < 2:
            raise ValidationError("need at least two secrets to enumerate pairs")
        listed = [
            (labels[i], labels[j])
            for i in range(len(labels))
            for j in range(i + 1, len(labels))
        ]
    else:
        listed = []
        for entry in pairs:
            if len(entry) != 2:
                raise ValidationError(f"pair {entry!r} must hold exactly two labels")
            a, b = str(entry[0]), str(entry[1])
            for label in (a, b):
                if label not in conditionals:
                    raise ValidationError(f"unknown secret label {label!r} in pair list")
            listed.append((a, b))
    return [
        DiscriminativePair(labels=(a, b), p=conditionals[a], q=conditionals[b], prior=prior)
        for a, b in listed
    ]


def load_conditionals_json(payload: Mapping) -> dict[str, DiscreteDistribution]:
    """Parse a per-secret distribution object; keys starting with '_' are metadata."""
    if not isinstance(payload, Mapping):
        raise ValidationError("conditionals must be a JSON object of per-secret distributions")
    out = {}
    for label, dist in payload.items():
        if label.startswith("_"):
            continue
        out[str(label)] = DiscreteDistribution.from_json_dict(dist)
    if not out:
        raise ValidationError("no per-secret distributions found")
    return out


def adult_education_fixture() -> dict:
    """Raw packaged fixture: education-index conditionals per race, plus metadata."""
    text = resources.files("pufferot.data").joinpath(_ADULT_RESOURCE).read_text("utf-8")
    return json.loads(text)


def adult_education_conditionals() -> dict[str, DiscreteDistribution]:
    """Education-index distributions conditioned on race (packaged fixture)."""
    return load_conditionals_json(adult_education_fixture())


def adult_education_pair() -> DiscriminativePair:
    """The White vs Asian-Pac-Islander education pair from the packaged fixture."""
    conditionals = adult_education_conditionals()
    return enumerate_pairs(conditionals, pairs=[_ADULT_PAIR], prior="adult")[0]
