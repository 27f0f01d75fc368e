"""Command-line front end for reproducible calibration and release runs.

Every command reads and writes machine-readable JSON/CSV only; plotting is
left to external tools. Exit codes: 0 on success, 2 on validation errors,
3 on numeric failures. Only ``release`` draws noise, from --seed (default
7); every other command is deterministic, so identical invocations produce
byte-identical artifacts. The CLI defaults OPENBLAS_NUM_THREADS to 1 before
numpy loads, since no command calls BLAS; a value already set is kept.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import suppress
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NoReturn, Sequence

# No command calls BLAS, and each thread OpenBLAS starts when numpy loads costs start-up time.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .distributions import DiscreteDistribution, number_list
from .errors import NumericError, ValidationError
from .mechanisms import FAMILIES, METHODS, MechanismSpec, calibrate_pufferfish
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
    table_blocks,
)
from .transport import joint_cdf_table, optimal_plan, plan_sensitivity, w1_distance

# ``verify`` and ``scenarios`` are imported by the commands that run them,
# so ``calibrate`` and ``release`` start without loading them.

#: Fixed default seed so repeated runs are reproducible by default.
DEFAULT_SEED = 7

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_NUMERIC = 3

#: The Figure-4 epsilon grid: 0.8 to 5.8 in steps of 0.5.
_FIGURE4_EPSILONS = [0.8 + k * 0.5 for k in range(11)]


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(payload, path: str) -> None:
    """Write ``payload`` as strict JSON; a non-finite number raises ``ValueError`` (exit 2)."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def _is_list_of_lists(value) -> bool:
    return isinstance(value, list) and all(isinstance(entry, list) for entry in value)


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
    if not _is_list_of_lists(listed):
        raise ValidationError(f'{path}: "pairs" must be "all" or a list of [a, b] lists')
    return enumerate_pairs(conditionals, pairs=listed, prior=prior)


def cmd_plan(args: argparse.Namespace) -> int:
    p = DiscreteDistribution.from_json_dict(_read_json(args.p))
    q = DiscreteDistribution.from_json_dict(_read_json(args.q))
    plan = optimal_plan(p, q)
    payload = plan.to_json_dict()
    with np.errstate(over="ignore"):  # a distance past the float range is rejected below
        payload["sensitivity"] = plan_sensitivity(plan)
        payload["w1_cost"] = w1_distance(p, q)
    for field in ("sensitivity", "w1_cost"):
        if not math.isfinite(payload[field]):
            raise ValidationError(
                f"{field} overflows a float: the plan moves mass further than {sys.float_info.max!r}"
            )
    _write_json(payload, args.out)
    return _EXIT_OK


def _delimiter(args: argparse.Namespace) -> str:
    """``--delimiter``, which the csv module takes only as a single character."""
    if len(args.delimiter) != 1:
        raise ValidationError(f"--delimiter must be one character, got {args.delimiter!r}")
    return args.delimiter


def _calibration_pairs(args: argparse.Namespace) -> list[DiscriminativePair]:
    if (args.pairs is None) == (args.table is None):
        raise ValidationError("calibrate takes exactly one of --pairs or --table")
    if args.pairs is not None:
        return _read_pairs_file(args.pairs)
    for flag, value in (("--secret-col", args.secret_col), ("--data-col", args.data_col),
                        ("--mapping", args.mapping)):
        if value is None:
            raise ValidationError(f"--table requires {flag}")
    delimiter = _delimiter(args)
    mapping = AttributeMapping.from_json_file(args.mapping)
    counts = load_table(args.table, args.secret_col, args.data_col, mapping, delimiter=delimiter)
    conditionals = empirical_conditionals(counts)
    return enumerate_pairs(conditionals, prior=Path(args.table).stem)


def cmd_calibrate(args: argparse.Namespace) -> int:
    report = calibrate_pufferfish(
        _calibration_pairs(args),
        epsilon=args.epsilon,
        method=args.method,
        delta=args.delta,
    )
    _write_json(report.to_json_dict(), args.out)
    return _EXIT_OK


def _raise_first_bad_row(
    table: str, rows: Iterable[Sequence[str]], rownum: int, col: int, column: str,
    mapping: AttributeMapping | None,
) -> NoReturn:
    """Raise for the first of the stripped ``rows`` whose cell ``col`` does not parse.

    The row is reported as too short, as an unmappable label or (without a
    mapping) as a cell that is not a finite number. Rows are numbered from
    ``rownum``, the header being row 1.
    """
    for rownum, row in enumerate(rows, start=rownum):
        if len(row) <= col:
            raise ValidationError(f"{table}: row {rownum} is too short")
        cell = row[col]
        if mapping is not None:
            try:
                mapping.index(cell)
            except ValidationError as exc:
                raise ValidationError(f"{table}: row {rownum} column {column!r}: {exc}") from None
            continue
        try:
            value = float(cell)
        except ValueError:
            raise ValidationError(
                f"{table}: row {rownum} column {column!r} is not numeric: {cell!r}"
            ) from None
        if not math.isfinite(value):
            raise ValidationError(
                f"{table}: row {rownum} column {column!r} is not finite: {cell!r}"
            )
    raise AssertionError(f"{table}: a block failed to parse, but none of its rows is bad")


def _rows(cells: list, width: int):
    """The rows of a ``table_blocks`` block: tuples of its flat cells, or its rows."""
    return zip(*[iter(cells)] * width) if width else cells


def _released_blocks(table: str, blocks, delimiter: str, col: int, column: str,
                     mapping: AttributeMapping | None, spec: MechanismSpec, rng):
    """The ``table_blocks`` blocks with cell ``col`` noised, each as ``(rows, plain)``.

    ``plain`` says that the block is plain and that ``csv.writer`` would
    quote no cell either, so each row joined with the delimiter gives the
    same bytes; it is false whatever the lines when the delimiter is a quote
    or can occur in a noised value's ``repr``.

    Mapped labels become their indices. A block's cells are parsed straight
    into an array; only when that fails, or a value is not finite, is the
    block walked row by row to name the first bad row. Every block draws
    its noise from ``rng``, so the draws are those of one call over the
    whole column.
    """
    if mapping is None:
        parse = float
    else:
        parse = {label: k for k, label in enumerate(mapping.labels, start=1)}.__getitem__
    joinable = delimiter not in '"+-.0123456789aefin'  # a quote, or a character of a float's repr
    rownum = 2
    for cells, width, plain in blocks:
        count = len(cells) // width if width else len(cells)
        try:  # rows without cell ``col`` raise IndexError: all of a narrower flat block, or some
            texts = cells[col::width] if col < width else map(itemgetter(col), _rows(cells, width))
            values = np.fromiter(map(parse, texts), float, count)
        except (IndexError, KeyError, ValueError):
            _raise_first_bad_row(table, _rows(cells, width), rownum, col, column, mapping)
        if not np.isfinite(values).all():
            _raise_first_bad_row(table, _rows(cells, width), rownum, col, column, mapping)
        texts = map(repr, release_values(values, spec, rng).tolist())
        if width:
            cells[col::width] = texts
        else:
            for row, text in zip(cells, texts):
                row[col] = text
        rownum += count
        yield _rows(cells, width), plain and joinable
        del cells  # so that no more than one block is held while the next is read


def _absent_dirs(directory: Path) -> list[Path]:
    """``directory`` and those of its ancestors that do not exist, deepest first."""
    absent = []
    while not directory.exists():
        absent.append(directory)
        directory = directory.parent
    return absent


def cmd_release(args: argparse.Namespace) -> int:
    """Noise one column of ``--table`` in one read of it, a block of rows at a time.

    The rows stream into a new file beside ``--out`` that replaces it only
    once every row is written, so ``--out`` may name ``--table`` and a
    failed run leaves ``--out`` as it was. No more than one block of rows is
    held, and the table is read once, so it may be a pipe. The flags are
    checked before the table is opened, the header before anything is
    written.
    """
    spec = MechanismSpec(args.family, args.theta, args.epsilon)
    if args.seed < 0:
        raise ValidationError(f"--seed must be >= 0, got {args.seed}")
    table, delimiter, column = args.table, _delimiter(args), args.data_col
    mapping = None
    if args.mapping:
        mapping = AttributeMapping.from_json_file(args.mapping)
    rng = np.random.default_rng(args.seed)
    out = Path(args.out)
    with open(table, newline="", encoding="utf-8") as src:
        blocks = table_blocks(table, src, delimiter)
        header = next(blocks)
        col = header_column(table, header, column)
        if col is None:
            raise ValidationError(f"{table}: an unnamed column cannot be released")
        created = _absent_dirs(out.parent)
        partial = out.with_name(f".{out.name}.{os.getpid()}.partial")
        dst = None
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            dst = open(partial, "x", newline="", encoding="utf-8")
            with dst:
                writer = csv.writer(dst, delimiter=delimiter)
                writer.writerow([name.strip() for name in header])
                for rows, plain in _released_blocks(table, blocks, delimiter, col, column,
                                                    mapping, spec, rng):
                    if plain:
                        dst.write("\r\n".join(map(delimiter.join, rows)) + "\r\n")
                    else:
                        writer.writerows(rows)
                    del rows  # so that no more than one block is held while the next is read
            os.replace(partial, out)
        except BaseException:
            if dst is not None:  # a partial file of this name that we did not make stays
                partial.unlink(missing_ok=True)
            for directory in created:
                with suppress(OSError):  # not made, or something else was put there meanwhile
                    directory.rmdir()
            raise
    return _EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import verify_delta_approx, verify_pufferfish

    pairs = _read_pairs_file(args.pairs)
    spec = MechanismSpec(args.family, args.theta, args.epsilon, delta=args.delta)
    if args.delta is not None:
        report = verify_delta_approx(pairs, spec, args.epsilon, args.delta)
    else:
        report = verify_pufferfish(pairs, spec, args.epsilon)
    _write_json(report.to_json_dict(), args.out)
    return _EXIT_OK


def _system_from_json(payload):
    """The scenario file's ``scenarios.UserSystem``."""
    from .scenarios import UserSystem

    if not isinstance(payload, dict):
        raise ValidationError("scenario file must hold a JSON object")
    priors_raw = payload.get("priors")
    if not priors_raw or not isinstance(priors_raw, list):
        raise ValidationError("scenario 'priors' must be a nonempty list of probability lists")
    declared = payload.get("V", len(priors_raw))
    if type(declared) is not int:
        raise ValidationError(f"scenario 'V' must be an integer, got {declared!r}")
    if declared != len(priors_raw):
        raise ValidationError(f"scenario declares V={declared} but lists {len(priors_raw)} priors")
    priors = []
    for i, probs in enumerate(priors_raw):
        support = np.arange(len(number_list(probs, f"priors[{i}]")), dtype=float)
        priors.append(DiscreteDistribution.from_weights(support, probs))
    query_raw = payload.get("query", "counting")
    if query_raw == "counting":
        outputs = [prior.support for prior in priors]
    elif isinstance(query_raw, list):
        outputs = [number_list(out, f"query[{i}]") for i, out in enumerate(query_raw)]
    else:
        raise ValidationError("scenario 'query' must be \"counting\" or a list of output lists")
    return UserSystem(priors=tuple(priors), outputs=tuple(outputs))


def cmd_scenario(args: argparse.Namespace) -> int:
    from .scenarios import discriminative_pairs, query_sensitivity

    system = _system_from_json(_read_json(args.scenario))
    pairs = discriminative_pairs(system, args.user, args.mode)
    payload = {
        "user": args.user,
        "mode": args.mode,
        "query_sensitivity": query_sensitivity(system, args.user),
        "pairs": [pair.to_json_dict() for pair in pairs],
    }
    _write_json(payload, args.out)
    return _EXIT_OK


def cmd_figure4(args: argparse.Namespace) -> int:
    pair = adult_education_pair()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for method, filename in (("theorem1", "theorem1.csv"), ("theorem2", "theorem2.csv")):
        lines = ["epsilon,variance"]
        for eps in _FIGURE4_EPSILONS:
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


def cmd_tables(args: argparse.Namespace) -> int:
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
            "sensitivity": plan_sensitivity(plan),
        }
    _write_json(payload, args.out)
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
    calibrate.add_argument("--method", choices=tuple(METHODS), default="theorem1")

    rel = sub.add_parser("release", help="write a noised copy of one CSV column")
    rel.add_argument("--table", required=True, help="input CSV with a header row")
    rel.add_argument("--data-col", required=True, help="column to noise")
    rel.add_argument("--mapping", default=None, help="JSON array of labels in index order")
    rel.add_argument("--family", choices=FAMILIES, default="laplace")
    rel.add_argument("--theta", type=float, required=True)
    rel.add_argument("--epsilon", type=float, default=1.0)
    rel.add_argument("--delimiter", default=",")
    rel.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help=f"noise seed (default: {DEFAULT_SEED})")

    ver = sub.add_parser("verify", help="certify the log-ratio bound for a pairs file")
    ver.add_argument("--pairs", required=True)
    ver.add_argument("--family", choices=FAMILIES, default="laplace")
    ver.add_argument("--theta", type=float, required=True)
    ver.add_argument("--epsilon", type=float, required=True)
    ver.add_argument("--delta", type=float, default=None,
                     help="run the Gaussian delta-approximation check instead")

    scen = sub.add_parser("scenario", help="conditional output laws and pairs for a user system")
    scen.add_argument("--scenario", required=True, help="scenario JSON file")
    scen.add_argument("--user", type=int, default=0)
    scen.add_argument("--mode", choices=("values", "absence"), default="values")

    sub.add_parser("figure4", help="noise-variance vs epsilon series for both calibrations")

    sub.add_parser("tables", help="regenerate the worked-example coupling tables as JSON")

    for name, p in sub.choices.items():
        p.add_argument("--out", required=True, help="output path" + (" (directory)" if name == "figure4" else ""))
    return parser


def _emit_error(exc: Exception) -> None:
    record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return _EXIT_VALIDATION if exc.code else _EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except NumericError as exc:
        _emit_error(exc)
        return _EXIT_NUMERIC
    except (ValidationError, ValueError, OSError, csv.Error) as exc:
        _emit_error(exc)
        return _EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
