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
from collections import defaultdict
from dataclasses import dataclass
from importlib import resources
from itertools import chain, combinations, islice, repeat
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


#: ``table_blocks`` yields a table's data rows this many csv rows at a time.
_BLOCK_ROWS = 1024

#: ASCII whitespace that ``str.strip`` would take off a cell, besides the
#: line feed and carriage return that end a line. Such a character is plain
#: only as the delimiter.
_PADDING = " \t\x0b\x0c\x1c\x1d\x1e\x1f"


def table_blocks(path: str, fh, delimiter: str):
    """The header row of the table ``fh``, then its data rows as blocks of ``_BLOCK_ROWS`` csv rows.

    Each block is ``(cells, width, plain)``. A block is plain when its raw
    lines are ASCII with no quote, NUL or ``_PADDING`` other than the
    delimiter: ``csv.reader`` then splits each line at the delimiter alone
    and no cell needs stripping. A carriage return can only end a line
    there, as ``fh`` is opened with ``newline=""``, which splits lines at
    every one. When the lines of a plain block are also regular (none blank,
    all with the same number of cells, none longer than
    ``csv.field_size_limit()``), they are split without ``csv.reader``:
    ``cells`` is one flat list of their cells, row k being
    ``cells[k * width:(k + 1) * width]``. Every other block has ``width`` 0
    and ``cells`` holds ``csv.reader``'s rows, stripped unless the block is
    plain; a quoted record takes the block past its first ``_BLOCK_ROWS``
    lines. The header is read as a block of one row, and never stripped. A
    ``csv.Error`` is a ``ValidationError`` naming ``path`` and the line.
    """
    unplain = ['"', "\0", *_PADDING.replace(delimiter, "")]
    # deleting every byte but the delimiter and the line feed leaves the shape of each line
    not_shape = bytes(b for b in range(256) if chr(b) not in (delimiter, "\n"))
    line = 0  # lines read before the block

    def block(count: int):
        """The next ``count`` csv rows as ``(cells, width, plain)``; None at the end of ``fh``."""
        nonlocal line
        lines = list(islice(fh, count))
        if not lines:
            return None
        raw = "".join(lines)
        plain = raw.isascii() and not any(map(raw.__contains__, unplain))
        if plain and (split := _split_regular(raw, lines, delimiter, not_shape)):
            line += len(lines)
            return *split, True
        del raw
        reader = csv.reader(chain(lines, fh), delimiter=delimiter)
        try:
            rows = list(islice(reader, count))
        except csv.Error as exc:
            raise ValidationError(f"{path}: line {line + reader.line_num}: {exc}") from None
        line += reader.line_num
        return rows, 0, plain

    header = block(1)
    if header is None:
        raise ValidationError(f"{path}: empty file (no header row)")
    cells, width, _ = header
    del header
    yield cells if width else cells[0]
    while (data := block(_BLOCK_ROWS)) is not None:
        cells, width, plain = data
        del data
        if not plain:
            cells = [list(map(str.strip, row)) for row in cells]
        yield cells, width, plain
        del cells  # so that no more than one block is held while the next is read


def _split_regular(raw: str, lines: list[str], delimiter: str, not_shape: bytes):
    """The cells of the plain ``lines`` (joined, ``raw``) as one flat list, and their width.

    None when the lines are not regular: when one is blank, has a cell count
    other than the first's, or is longer than ``csv.field_size_limit()``.
    ``not_shape`` holds every byte but the delimiter and the line feed.
    """
    if "\r" in raw:
        raw = raw.replace("\r\n", "\n").replace("\r", "\n")
    if not raw.endswith("\n"):
        raw += "\n"
    shape = raw.encode("ascii").translate(None, not_shape)
    width = shape.index(b"\n") + 1
    limit = csv.field_size_limit()
    if (shape != shape[:width] * len(lines) or "\n\n" in raw or raw[0] == "\n"
            or len(raw) > limit and max(map(len, lines)) > limit):
        return None
    return raw[:-1].replace("\n", delimiter).split(delimiter), width


def _column(cells: list, width: int, k: int | None) -> list[str]:
    """Cell ``k`` of each row of a ``table_blocks`` block, ``""`` where a row has none."""
    if width:
        return cells[k::width] if k is not None and k < width else [""] * (len(cells) // width)
    return [row[k] if k is not None and k < len(row) else "" for row in cells]


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
    Secrets appear in the result in the order of their first row. The table
    is read and tallied one ``table_blocks`` block at a time, so memory is
    bounded by one block and the tally, whatever the table's length.
    """
    labels = mapping._positions
    n_labels = len(mapping)
    # a new secret is numbered by its first appearance, as the count of secrets before it
    secrets: defaultdict[str, int] = defaultdict()
    secrets.default_factory = secrets.__len__
    tally = np.zeros(0, dtype=np.int64)
    rejected = 0
    first_rejected: tuple[int, str] | None = None
    rows = 0
    with open(path, newline="", encoding="utf-8") as fh:
        blocks = table_blocks(path, fh, delimiter)
        header = next(blocks)
        s_col, d_col = (header_column(path, header, c) for c in (secret_column, data_column))
        for cells, width, _ in blocks:
            if not width:
                cells = [row for row in cells if row]
            count = len(cells) // width if width else len(cells)
            data = _column(cells, width, d_col)
            codes = np.fromiter(map(labels.get, data, repeat(-1)), np.int64, count)
            bad = np.flatnonzero(codes < 0)
            if bad.size and first_rejected is None:
                first_rejected = (rows + int(bad[0]) + 2, data[bad[0]])
            rejected += bad.size
            rows += count
            if not rejected:  # a refused table needs no tally
                secret = np.fromiter(map(secrets.__getitem__, _column(cells, width, s_col)),
                                     np.int64, count)
                block = np.bincount(secret * n_labels + codes, minlength=len(secrets) * n_labels)
                block[:tally.size] += tally
                tally = block
            del cells, data  # so that no more than one block is held while the next is read
    if first_rejected is not None:
        rownum, label = first_rejected
        raise ValidationError(
            f"{path}: {rejected} row(s) rejected with unmappable data labels; "
            f"first is label {label!r} at row {rownum}"
        )
    if rows == 0:
        raise ValidationError(f"{path}: no data rows")
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
        listed = combinations(labels, 2)
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
