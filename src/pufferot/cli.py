"""Command-line front end for reproducible calibration and release runs.

Every command reads and writes machine-readable JSON/CSV only; plotting is
left to external tools. Exit codes: 0 on success, 2 on validation errors,
3 on numeric failures. All randomness is driven by --seed (default 7), so
identical invocations produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import stat
import sys
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import NoReturn

import numpy as np

from .distributions import DiscreteDistribution
from .errors import NumericError, ValidationError
from .mechanisms import MechanismSpec, calibrate_pufferfish
from .mechanisms import release as release_values
from .pairs import DiscriminativePair
from .tabular import (
    AttributeMapping,
    adult_education_pair,
    empirical_conditionals,
    enumerate_pairs,
    header_column,
    load_conditionals_json,
    load_table,
)
from .transport import L1, joint_cdf_table, optimal_plan, plan_sensitivity, w1_distance
from .scenarios import (
    SeparableQuery,
    UserSystem,
    discriminative_pairs,
    query_sensitivity,
)
from .verify import GridConfig, verify_delta_approx, verify_pufferfish

#: Fixed default seed so repeated runs are reproducible by default.
DEFAULT_SEED = 7

_METRICS = {"l1": L1}
_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_NUMERIC = 3

#: ``release`` turns noised values into text this many at a time.
_TEXT_BLOCK = 4096


@dataclass(frozen=True)
class RunConfig:
    """One parsed command invocation."""

    command: str
    inputs: dict = field(default_factory=dict)
    epsilon: float | None = None
    delta: float | None = None
    method: str | None = None
    metric: str = "l1"
    seed: int = DEFAULT_SEED
    out: str | None = None
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.command:
            raise ValidationError("a command is required")


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(payload, path: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
        fh.write("\n")


def _read_pairs_file(path: str) -> list[DiscriminativePair]:
    """Pairs file: {"prior": tag, "conditionals": {label: dist}, "pairs": "all" | [[a, b], ...]}."""
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    conditionals = load_conditionals_json(payload.get("conditionals", {}))
    prior = str(payload.get("prior", "empirical"))
    listed = payload.get("pairs", "all")
    if listed == "all":
        return enumerate_pairs(conditionals, prior=prior)
    return enumerate_pairs(conditionals, pairs=listed, prior=prior)


def _mechanism_spec(cfg: RunConfig) -> MechanismSpec:
    return MechanismSpec(
        family=cfg.options.get("family", "laplace"),
        theta=float(cfg.options["theta"]),
        epsilon=cfg.epsilon if cfg.epsilon is not None else 1.0,
        delta=cfg.delta,
    )


def cmd_plan(cfg: RunConfig) -> int:
    metric = _METRICS[cfg.metric]
    p = DiscreteDistribution.from_json_dict(_read_json(cfg.inputs["p"]))
    q = DiscreteDistribution.from_json_dict(_read_json(cfg.inputs["q"]))
    plan = optimal_plan(p, q)
    payload = plan.to_json_dict()
    payload["sensitivity"] = plan_sensitivity(plan, metric)
    payload["w1_cost"] = w1_distance(p, q, metric)
    _write_json(payload, cfg.out)
    return _EXIT_OK


def _calibration_pairs(cfg: RunConfig) -> list[DiscriminativePair]:
    has_pairs = "pairs" in cfg.inputs
    has_table = "table" in cfg.inputs
    if has_pairs == has_table:
        raise ValidationError("calibrate takes exactly one of --pairs or --table")
    if has_pairs:
        return _read_pairs_file(cfg.inputs["pairs"])
    for flag, key in (("--secret-col", "secret_col"), ("--data-col", "data_col"),
                      ("--mapping", "mapping")):
        if key not in cfg.options and key not in cfg.inputs:
            raise ValidationError(f"--table requires {flag}")
    mapping = AttributeMapping.from_json_file(cfg.inputs["mapping"])
    counts = load_table(
        cfg.inputs["table"],
        cfg.options["secret_col"],
        cfg.options["data_col"],
        mapping,
        delimiter=cfg.options.get("delimiter", ","),
    )
    conditionals = empirical_conditionals(counts)
    return enumerate_pairs(conditionals, prior=Path(cfg.inputs["table"]).stem)


def cmd_calibrate(cfg: RunConfig) -> int:
    report = calibrate_pufferfish(
        _calibration_pairs(cfg),
        epsilon=cfg.epsilon,
        method=cfg.method,
        metric=_METRICS[cfg.metric],
        delta=cfg.delta,
    )
    _write_json(report.to_json_dict(), cfg.out)
    return _EXIT_OK


def _changed(table: str) -> ValidationError:
    return ValidationError(f"{table}: the table changed between release's two reads")


def _raise_first_bad_row(
    table: str, delimiter: str, column: str, col: int, mapping: AttributeMapping | None
) -> NoReturn:
    """Read ``table`` again and raise for its first row whose cell ``col`` does not parse.

    The row is reported as too short, as an unmappable label or (without a
    mapping) as a non-numeric cell; rows are numbered from 2, the header
    being row 1.
    """
    with open(table, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        next(reader, None)
        for rownum, row in enumerate(reader, start=2):
            if len(row) <= col:
                raise ValidationError(f"{table}: row {rownum} is too short")
            cell = row[col].strip()
            if mapping is not None:
                mapping.index(cell)  # raises the mapping's error for an unknown label
                continue
            try:
                float(cell)
            except ValueError:
                raise ValidationError(
                    f"{table}: row {rownum} column {column!r} is not numeric: {cell!r}"
                ) from None
    raise _changed(table)


def _release_column(
    table: str, delimiter: str, column: str, mapping: AttributeMapping | None
) -> tuple[list[str], int, np.ndarray]:
    """Pass 1: the raw header, the column's position and its cells as floats.

    Mapped labels become their indices. The stripped cells are parsed
    straight into an array, so no row outlives its parse; only when that
    fails is the table read again for the first failing row.
    """
    if mapping is None:
        parse = float
    else:
        parse = {label: k for k, label in enumerate(mapping.labels, start=1)}.__getitem__
    with open(table, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{table}: empty file (no header row)") from None
        col = header_column(table, header, column)
        if col is None:
            raise ValidationError(f"{table}: an unnamed column cannot be released")
        try:
            cells = map(str.strip, map(itemgetter(col), reader))
            return header, col, np.fromiter(map(parse, cells), float)
        except (IndexError, KeyError, ValueError):
            pass
    _raise_first_bad_row(table, delimiter, column, col, mapping)


def _noised_rows(table: str, reader, col: int, noised: np.ndarray):
    """Pass 2: the stripped rows of ``reader`` with cell ``col`` replaced by ``noised``.

    Values become text ``_TEXT_BLOCK`` at a time, so no list of all of them
    is built. The reader must hold exactly one row per value, as pass 1
    found; otherwise the table changed between the reads.
    """
    rows = 0
    try:
        for start in range(0, noised.size, _TEXT_BLOCK):
            for text, row in zip(map(repr, noised[start:start + _TEXT_BLOCK].tolist()), reader):
                row = list(map(str.strip, row))
                row[col] = text
                rows += 1
                yield row
    except IndexError:
        raise _changed(table) from None
    if rows != noised.size or next(reader, None) is not None:
        raise _changed(table)


def cmd_release(cfg: RunConfig) -> int:
    """Noise one column of ``--table`` in two reads of the file.

    Pass 1 parses the column; pass 2 streams the rows into a new file beside
    ``--out`` that replaces it only once every row is written, so ``--out``
    may name ``--table``. Neither pass keeps a row, but the file must be a
    regular one that stays the same between the reads.
    """
    table = cfg.inputs["table"]
    column = cfg.options["data_col"]
    delimiter = cfg.options.get("delimiter", ",")
    if not stat.S_ISREG(os.stat(table).st_mode):
        raise ValidationError(f"{table}: not a regular file; release reads the table twice")
    mapping = None
    if cfg.inputs.get("mapping"):
        mapping = AttributeMapping.from_json_file(cfg.inputs["mapping"])
    header, col, values = _release_column(table, delimiter, column, mapping)
    noised = release_values(values, _mechanism_spec(cfg), cfg.seed)
    out = Path(cfg.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    partial = out.with_name(f".{out.name}.{os.getpid()}.partial")
    dst = open(partial, "x", newline="", encoding="utf-8")
    try:
        with dst, open(table, newline="", encoding="utf-8") as src:
            reader = csv.reader(src, delimiter=delimiter)
            if next(reader, None) != header:
                raise _changed(table)
            writer = csv.writer(dst, delimiter=delimiter)
            writer.writerow([name.strip() for name in header])
            writer.writerows(_noised_rows(table, reader, col, noised))
        os.replace(partial, out)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return _EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    pairs = _read_pairs_file(cfg.inputs["pairs"])
    spec = _mechanism_spec(cfg)
    if cfg.delta is not None:
        report = verify_delta_approx(pairs, spec, cfg.epsilon, cfg.delta, GridConfig())
    else:
        report = verify_pufferfish(pairs, spec, cfg.epsilon, GridConfig())
    _write_json(report.to_json_dict(), cfg.out)
    return _EXIT_OK


def _system_from_json(payload) -> UserSystem:
    if not isinstance(payload, dict):
        raise ValidationError("scenario file must hold a JSON object")
    priors_raw = payload.get("priors")
    if not priors_raw:
        raise ValidationError("scenario file is missing 'priors'")
    if "V" in payload and int(payload["V"]) != len(priors_raw):
        raise ValidationError(
            f"scenario declares V={payload['V']} but lists {len(priors_raw)} priors"
        )
    priors = []
    for probs in priors_raw:
        support = np.arange(len(probs), dtype=float)
        priors.append(DiscreteDistribution.from_weights(support, probs))
    query_raw = payload.get("query", "counting")
    if query_raw == "counting":
        query = SeparableQuery.counting([prior.support for prior in priors])
    else:
        if len(query_raw) != len(priors):
            raise ValidationError("query tables must align one-to-one with priors")
        tables = []
        for user, outputs in enumerate(query_raw):
            if len(outputs) != len(priors[user]):
                raise ValidationError(
                    f"user {user}: query table holds {len(outputs)} outputs "
                    f"for an alphabet of {len(priors[user])}"
                )
            tables.append({float(j): float(v) for j, v in enumerate(outputs)})
        query = SeparableQuery(tables=tuple(tables))
    return UserSystem(priors=tuple(priors), query=query)


def cmd_scenario(cfg: RunConfig) -> int:
    system = _system_from_json(_read_json(cfg.inputs["scenario"]))
    user = int(cfg.options.get("user", 0))
    mode = cfg.options.get("mode", "values")
    pairs = discriminative_pairs(system, user, mode)
    payload = {
        "user": user,
        "mode": mode,
        "query_sensitivity": query_sensitivity(system, user, _METRICS[cfg.metric], mode),
        "pairs": [pair.to_json_dict() for pair in pairs],
    }
    _write_json(payload, cfg.out)
    return _EXIT_OK


def _epsilon_grid(start: float, stop: float, step: float) -> list[float]:
    if step <= 0 or stop < start:
        raise ValidationError("epsilon grid requires step > 0 and stop >= start")
    grid = []
    k = 0
    while True:
        eps = start + k * step
        if eps > stop + 1e-9:
            break
        grid.append(eps)
        k += 1
    return grid


def cmd_figure4(cfg: RunConfig) -> int:
    pair = adult_education_pair()
    grid = _epsilon_grid(
        cfg.options.get("eps_start", 0.8),
        cfg.options.get("eps_stop", 5.8),
        cfg.options.get("eps_step", 0.5),
    )
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for method, filename in (("theorem1", "theorem1.csv"), ("theorem2", "theorem2.csv")):
        lines = ["epsilon,variance"]
        for eps in grid:
            report = calibrate_pufferfish([pair], epsilon=eps, method=method)
            lines.append(f"{eps!r},{report.variance!r}")
        (outdir / filename).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return _EXIT_OK


_WORKED_EXAMPLES = {
    "example_1": (
        ([1, 2, 3, 4], [1 / 3, 1 / 6, 1 / 3, 1 / 6]),
        ([1, 2, 3, 4], [1 / 4, 1 / 4, 1 / 6, 1 / 3]),
    ),
    "example_2": (
        ([1, 2, 3, 4, 5], [0.2, 0.225, 0.5, 0.075, 0.0]),
        ([1, 2, 3, 4, 5], [0.0, 0.075, 0.5, 0.225, 0.2]),
    ),
}


def cmd_tables(cfg: RunConfig) -> int:
    payload = {}
    for name, ((p_sup, p_w), (q_sup, q_w)) in _WORKED_EXAMPLES.items():
        p = DiscreteDistribution.from_weights(p_sup, p_w)
        q = DiscreteDistribution.from_weights(q_sup, q_w)
        plan = optimal_plan(p, q)
        payload[name] = {
            "p": p.to_json_dict(),
            "q": q.to_json_dict(),
            "joint_cmf": joint_cdf_table(p, q).tolist(),
            "plan": plan.to_json_dict(),
            "sensitivity": plan_sensitivity(plan, L1),
        }
    _write_json(payload, cfg.out)
    return _EXIT_OK


_COMMANDS = {
    "plan": cmd_plan,
    "calibrate": cmd_calibrate,
    "release": cmd_release,
    "verify": cmd_verify,
    "scenario": cmd_scenario,
    "figure4": cmd_figure4,
    "tables": cmd_tables,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pufferot",
        description="Privatize correlated data: transport plans, noise calibration, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="optimal transport plan between two distribution files")
    plan.add_argument("--p", required=True, help="first distribution JSON")
    plan.add_argument("--q", required=True, help="second distribution JSON")

    calibrate = sub.add_parser(
        "calibrate", help="calibrate a noise scale over a pairs file or a raw table"
    )
    calibrate.add_argument("--pairs", default=None, help="pairs JSON file")
    calibrate.add_argument("--table", default=None, help="CSV to ingest instead of --pairs")
    calibrate.add_argument("--secret-col", default=None, help="secret column of --table")
    calibrate.add_argument("--data-col", default=None, help="public column of --table")
    calibrate.add_argument("--mapping", default=None, help="JSON array of labels in index order")
    calibrate.add_argument("--delimiter", default=",")
    calibrate.add_argument("--epsilon", type=float, required=True)
    calibrate.add_argument("--delta", type=float, default=None)
    calibrate.add_argument(
        "--method",
        choices=("theorem1", "theorem2", "gaussian-a", "gaussian-b"),
        default="theorem1",
    )

    rel = sub.add_parser("release", help="write a noised copy of one CSV column")
    rel.add_argument("--table", required=True, help="input CSV with a header row")
    rel.add_argument("--data-col", required=True, help="column to noise")
    rel.add_argument("--mapping", default=None, help="JSON array of labels in index order")
    rel.add_argument("--family", choices=("laplace", "gaussian"), default="laplace")
    rel.add_argument("--theta", type=float, required=True)
    rel.add_argument("--epsilon", type=float, default=1.0)
    rel.add_argument("--delimiter", default=",")

    ver = sub.add_parser("verify", help="certify the log-ratio bound for a pairs file")
    ver.add_argument("--pairs", required=True)
    ver.add_argument("--family", choices=("laplace", "gaussian"), default="laplace")
    ver.add_argument("--theta", type=float, required=True)
    ver.add_argument("--epsilon", type=float, required=True)
    ver.add_argument("--delta", type=float, default=None,
                     help="run the Gaussian delta-approximation check instead")

    scen = sub.add_parser("scenario", help="conditional output laws and pairs for a user system")
    scen.add_argument("--scenario", required=True, help="scenario JSON file")
    scen.add_argument("--user", type=int, default=0)
    scen.add_argument("--mode", choices=("values", "absence"), default="values")

    fig = sub.add_parser("figure4", help="noise-variance vs epsilon series for both calibrations")
    fig.add_argument("--epsilon-start", type=float, default=0.8)
    fig.add_argument("--epsilon-stop", type=float, default=5.8)
    fig.add_argument("--epsilon-step", type=float, default=0.5)

    sub.add_parser("tables", help="regenerate the worked-example coupling tables as JSON")

    for name, p in sub.choices.items():
        p.add_argument("--metric", choices=sorted(_METRICS), default="l1")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"random seed (default: {DEFAULT_SEED})")
        p.add_argument("--out", required=True, help="output path" + (" (directory)" if name == "figure4" else ""))
    return parser


def parse_config(argv=None) -> RunConfig:
    args = build_parser().parse_args(argv)
    inputs = {}
    options = {}
    for key in ("p", "q", "pairs", "table", "mapping", "scenario"):
        value = getattr(args, key, None)
        if value is not None:
            inputs[key] = value
    for key in ("family", "theta", "secret_col", "data_col", "delimiter", "user", "mode"):
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    for src, dst in (("epsilon_start", "eps_start"), ("epsilon_stop", "eps_stop"),
                     ("epsilon_step", "eps_step")):
        value = getattr(args, src, None)
        if value is not None:
            options[dst] = value
    return RunConfig(
        command=args.command,
        inputs=inputs,
        epsilon=getattr(args, "epsilon", None),
        delta=getattr(args, "delta", None),
        method=getattr(args, "method", None),
        metric=args.metric,
        seed=args.seed,
        out=args.out,
        options=options,
    )


def run(config: RunConfig) -> int:
    try:
        handler = _COMMANDS[config.command]
    except KeyError:
        raise ValidationError(f"unknown command {config.command!r}") from None
    return handler(config)


def _emit_error(exc: Exception) -> None:
    record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except SystemExit as exc:
        return _EXIT_VALIDATION if exc.code else _EXIT_OK
    try:
        return run(config)
    except NumericError as exc:
        _emit_error(exc)
        return _EXIT_NUMERIC
    except (ValidationError, ValueError, OSError) as exc:
        _emit_error(exc)
        return _EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
