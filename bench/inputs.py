"""Seeded input generators for the benchmark workloads (numpy only).

Every generator takes a numpy Generator, so the same ``--seed`` always
yields the same inputs. Sizes are fixed constants, never drawn: only the
contents vary with the seed, which keeps the work per op comparable
between seeds.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: The paper's Figure-4 epsilon grid: 0.8 to 5.8 in steps of 0.5.
FIGURE4_EPSILONS = tuple(round(0.8 + 0.5 * k, 10) for k in range(11))
#: (atoms, zero-mass atoms) of the two random pairs in each figure4-sweep op.
RANDOM_PAIR_SHAPES = ((14, 2), (100, 10))
GAUSSIAN_EPSILON = 0.8
DELTA = 1e-5

COUNTING_USERS = 100
COUNTING_EPSILON = 1.0

CENSUS_ROWS = 100_000
CENSUS_SECRETS = 40
CENSUS_LABELS = 100
CENSUS_EPSILON = 1.0
CENSUS_HEADER = ("id", "age", "group", "education", "region")
CENSUS_SECRET_COL = "group"
CENSUS_DATA_COL = "education"

_STREAMS = {"figure4-sweep": 1, "counting-certify": 2, "census-release": 3}


def op_rng(workload: str, seed: int, op: int) -> np.random.Generator:
    """Independent stream for op ``op`` of a run; op -1 is the run's own stream."""
    return np.random.default_rng([seed, _STREAMS[workload], op + 1])


def random_pair_masses(rng: np.random.Generator, atoms: int, zeros: int):
    """Two Dirichlet(1) mass vectors on support 1..atoms, each with ``zeros`` empty atoms."""
    out = []
    for _ in range(2):
        w = rng.dirichlet(np.ones(atoms))
        w[rng.choice(atoms, size=zeros, replace=False)] = 0.0
        out.append(w / w.sum())
    return np.arange(1.0, atoms + 1.0), out[0], out[1]


def figure4_random_pairs(rng: np.random.Generator):
    """The seeded random pairs of one figure4-sweep op, as (support, p, q) arrays."""
    return [random_pair_masses(rng, atoms, zeros) for atoms, zeros in RANDOM_PAIR_SHAPES]


def counting_probabilities(rng: np.random.Generator) -> np.ndarray:
    """P(user reports 1) for each of the V users.

    Kept inside [0.05, 0.95] so that no atom of a conditional underflows to
    zero mass and every op evaluates the same number of densities.
    """
    return rng.uniform(0.05, 0.95, COUNTING_USERS)


def census_labels(secrets: int = CENSUS_SECRETS, labels: int = CENSUS_LABELS):
    return [f"grp-{k:02d}" for k in range(secrets)], [f"edu-{k:03d}" for k in range(labels)]


def census_columns(rng: np.random.Generator, rows: int = CENSUS_ROWS,
                   secrets: int = CENSUS_SECRETS, labels: int = CENSUS_LABELS) -> dict:
    """Columns of a census-like table as integer arrays.

    Secret frequencies and the per-secret label distributions are Dirichlet
    draws, so many (secret, label) cells are empty, as in real census
    cross-tabulations. The first rows cycle through every secret so that
    each of them appears.
    """
    freq = rng.dirichlet(np.full(secrets, 2.0))
    secret = rng.choice(secrets, size=rows, p=freq)
    secret[:secrets] = np.arange(secrets)
    cond = rng.dirichlet(np.full(labels, 0.5), size=secrets).cumsum(axis=1)
    label = (rng.random(rows)[:, None] > cond[secret]).sum(axis=1)
    label = np.minimum(label, labels - 1)
    age = rng.integers(17, 91, size=rows)
    return {"secret": secret, "label": label, "age": age,
            "secrets": secrets, "labels": labels}


def census_counts(columns: dict) -> np.ndarray:
    """Counts per (secret, data label), the benchmark's own tally."""
    shape = (columns["secrets"], columns["labels"])
    flat = columns["secret"] * shape[1] + columns["label"]
    return np.bincount(flat, minlength=shape[0] * shape[1]).reshape(shape)


def write_census(columns: dict, table: Path, mapping: Path) -> None:
    """Write the table as a headered CSV and the label order as a mapping file."""
    secrets, labels = census_labels(columns["secrets"], columns["labels"])
    lines = [",".join(CENSUS_HEADER)]
    for i, (age, s, d) in enumerate(
        zip(columns["age"].tolist(), columns["secret"].tolist(), columns["label"].tolist())
    ):
        lines.append(f"{i},{age},{secrets[s]},{labels[d]},r{i % 7}")
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    mapping.write_text(json.dumps(labels), encoding="utf-8")
