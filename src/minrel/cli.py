"""Command-line front end: CSV in, coefficients / matrices / rankings out.

CSV dialect: comma-separated, UTF-8 (a leading byte-order mark is
ignored), first non-comment record is the header, records starting with
'#' (outside quotes) and blank or whitespace-only lines are skipped, quoted
fields keep their line breaks (a '#' at the start of a continued line is
data), decimal points only (no locale handling). Numbers are printed with
12 significant digits in CSV output and at full double precision in JSON.
Every run echoes its effective configuration in the output so results can
be reproduced from the artifact alone, with the rows behind the result:
``rows_read`` data rows, ``rows_dropped`` of them dropped, ``m`` kept.

Each command builds its config (:func:`_dataset_config` for the commands
that read a dataset) and hands it, with its JSON fields and CSV sections,
to :func:`_write`, the one writer. JSON is one sorted-key object with a
``config`` key; CSV is a ``# config: key=value ...`` line, then tables and
comment lines. A config value with a line break is written there as its
JSON string literal, so the config stays on one line.

The header goes through the record reader. A data body of plain numbers
is parsed in one ``np.loadtxt`` call; any other body (quoted cells, NA
tokens, comment records, whitespace-only lines, ragged rows, errors) goes
through the record loop from the same line. Both give the same values bit
for bit, or the same error (see :func:`_bulk_values`).

Exit codes: 0 success, 2 parse/validation failure, 3 degenerate result
under --strict, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import warnings
from dataclasses import asdict
from typing import Sequence

import numpy as np

from . import coeff
from .errors import InvalidInputError
from .experiments import EXPERIMENTS, run_experiment
from .matrix import MATRIX_METRICS, Dataset, pairwise_matrix
from .ranking import CRITERIA, average_position, rank_variables
from .synth import FAMILIES, GENERATORS

NA_TOKENS = frozenset({"", "na", "nan", "null"})

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(text: str, output: str | None) -> None:
    if output in (None, "-"):
        sys.stdout.write(text)
        return
    with open(output, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _is_blank(row: list[str]) -> bool:
    """True for the record of an empty or whitespace-only line."""
    return len(row) < 2 and not "".join(row).strip()


def _records(lines: list[str]):
    """(record, end) pairs, without comments: lines starting with '#' where a record starts.

    ``end`` indexes the line after the record: the reader reads no further
    than the record it yields.
    """
    end = 0
    at_record_start = True

    def uncommented():
        nonlocal end, at_record_start
        for end, line in enumerate(lines, start=1):
            # The reader asks for a quoted field's continued lines before it
            # yields the record, so they arrive with at_record_start False.
            if at_record_start and line.startswith("#"):
                continue
            at_record_start = False
            yield line

    for row in csv.reader(uncommented()):
        at_record_start = True
        yield row, end


def _bulk_values(lines: list[str], width: int) -> np.ndarray | None:
    """The data lines parsed in one call, or None where the record loop must parse them.

    ``np.loadtxt`` converts with the same correctly rounded parser as
    ``float()`` and accepts the same surrounding whitespace. Every token it
    reads differently (quoted cells, NA tokens, '#', '1_0', non-ASCII
    digits) makes it raise, so an array it returns equals the record loop's
    bit for bit.
    """
    try:
        with warnings.catch_warnings():
            # Input without data warns; the record loop reports it.
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(
                lines, delimiter=",", comments=None, quotechar=None, ndmin=2, dtype=float
            )
    except ValueError:
        return None
    if values.shape[1] != width or values.shape[0] < 2 or not np.isfinite(values).all():
        return None
    return values


def _record_values(rows, names: list[str], na_policy: str) -> tuple[list[list[float]], int]:
    """Parse data records one cell at a time: the kept rows and the count of rows read."""
    parsed: list[list[float]] = []
    rows_read = 0
    for row_number, row in enumerate(rows, start=1):
        if _is_blank(row):
            continue
        rows_read += 1
        if len(row) != len(names):
            raise InvalidInputError(
                f"data row {row_number}: expected {len(names)} cells, found {len(row)}"
            )
        values = []
        keep = True
        for name, cell in zip(names, row):
            token = cell.strip()
            try:
                value = float(token)
            except ValueError:
                if token.lower() in NA_TOKENS:
                    value = math.nan
                else:
                    raise InvalidInputError(
                        f"data row {row_number}, column {name!r}: "
                        f"cannot parse {cell!r} as a number"
                    ) from None
            if not math.isfinite(value):
                if na_policy == "drop-rows":
                    keep = False
                else:
                    raise InvalidInputError(
                        f"data row {row_number}, column {name!r}: missing or "
                        "non-finite value; rerun with --na drop-rows to drop "
                        "incomplete rows"
                    )
            values.append(value)
        if keep:
            parsed.append(values)
    return parsed, rows_read


def read_dataset(path: str, na_policy: str) -> Dataset:
    """Parse a CSV file (or '-' for stdin) into a validated Dataset."""
    text = _read_text(path).removeprefix("\ufeff")
    # Lines keep their endings, so a quoted field keeps its line breaks.
    lines = text.splitlines(True)
    records = _records(lines)
    header, body_start = next(
        ((row, end) for row, end in records if not _is_blank(row)), (None, 0)
    )
    if header is None:
        raise InvalidInputError("input is empty")
    names = [cell.strip() for cell in header]
    if any(not name for name in names):
        raise InvalidInputError("header contains an empty column name")
    values = _bulk_values(lines[body_start:], len(names))
    if values is not None:
        return Dataset(names=tuple(names), values=values)
    parsed, rows_read = _record_values((row for row, _ in records), names, na_policy)
    if len(parsed) < 2:
        raise InvalidInputError(f"need at least 2 usable data rows, got {len(parsed)}")
    return Dataset(
        names=tuple(names),
        values=np.asarray(parsed, dtype=float),
        rows_dropped=rows_read - len(parsed),
    )


def _dataset_config(args: argparse.Namespace, dataset: Dataset, **fields) -> dict:
    """The config keys of a command that reads a dataset, plus the command's own ``fields``."""
    return {
        "command": args.command,
        "input": args.input,
        "ties": "average",
        "na": args.na,
        "format": args.format,
        "m": dataset.m,
        "rows_read": dataset.m + dataset.rows_dropped,
        "rows_dropped": dataset.rows_dropped,
        **fields,
    }


#: The characters ``str.splitlines`` breaks a line on.
_LINE_BREAKS = frozenset("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def _config_value(value) -> str:
    text = str(value)
    # A line break would end the comment line; its JSON literal has none.
    return json.dumps(text) if _LINE_BREAKS.intersection(text) else text


def _config_line(config: dict) -> str:
    joined = " ".join(f"{key}={_config_value(config[key])}" for key in sorted(config))
    return f"# config: {joined}\n"


def _write(args: argparse.Namespace, config: dict, fields, sections) -> None:
    """Write a command's result in its ``--format``; the one place that branches on it.

    JSON is the object ``fields()`` plus ``config``. CSV is the ``# config:``
    line, then each of ``sections()``: a comment line, or a table of rows.
    Only the selected encoding is built.
    """
    if args.format == "json":
        text = json.dumps({**fields(), "config": config}, indent=2, sort_keys=True) + "\n"
    else:
        buffer = io.StringIO()
        buffer.write(_config_line(config))
        writer = csv.writer(buffer, lineterminator="\n")
        for section in sections():
            if isinstance(section, str):
                buffer.write(section)
            else:
                writer.writerows(section)
        text = buffer.getvalue()
    _emit(text, args.output)


def _bool(value) -> str:
    return "true" if value else "false"


def _status(passed: bool) -> str:
    return "pass" if passed else "fail"


def _parse_orientation(text: str) -> tuple[int, int]:
    if len(text) != 2 or any(ch not in "+-" for ch in text):
        raise InvalidInputError(f"orientation must be two signs like '+-', got {text!r}")
    return (1 if text[0] == "+" else -1, 1 if text[1] == "+" else -1)


def _cmd_coeff(args: argparse.Namespace) -> int:
    dataset = read_dataset(args.input, args.na)
    if not args.y and dataset.n < 2:
        raise InvalidInputError("input has a single column; pass --y explicitly")
    x_name = args.x or dataset.names[0]
    y_name = args.y or dataset.names[1]
    x = dataset.column(x_name)
    y = dataset.column(y_name)
    if args.orientation:
        if args.metric != "iota":
            raise InvalidInputError("--orientation only applies to --metric iota")
        result = coeff.iota_oriented(x, y, *_parse_orientation(args.orientation))
    else:
        result = coeff.evaluate_metric(x, y, args.metric)
    config = _dataset_config(
        args,
        dataset,
        x=x_name,
        y=y_name,
        metric=args.metric,
        orientation=args.orientation or "++",
        strict=args.strict,
    )
    header = ["metric", "value", "degenerate", "m"]
    values = [args.metric, result.value, result.degenerate, dataset.m]
    cells = [args.metric, _fmt(result.value), _bool(result.degenerate), str(dataset.m)]
    _write(args, config, lambda: dict(zip(header, values)), lambda: [[header, cells]])
    if args.strict and result.degenerate:
        return EXIT_DEGENERATE
    return EXIT_OK


def _cmd_matrix(args: argparse.Namespace) -> int:
    dataset = read_dataset(args.input, args.na)
    matrix = pairwise_matrix(dataset, args.metric, workers=args.workers)
    names = matrix.names

    def fields() -> dict:
        return {
            "metric": matrix.metric,
            "names": list(names),
            "values": {x: dict(zip(names, row)) for x, row in zip(names, matrix.values.tolist())},
            "degenerate": {
                x: dict(zip(names, row)) for x, row in zip(names, matrix.degenerate.tolist())
            },
        }

    def sections() -> list:
        header = [""] + list(names)
        values = [[name] + [_fmt(v) for v in row] for name, row in zip(names, matrix.values)]
        flags = [[name] + [_bool(v) for v in row] for name, row in zip(names, matrix.degenerate)]
        return [[header] + values, "# degenerate\n", [header] + flags]

    _write(args, _dataset_config(args, dataset, metric=args.metric), fields, sections)
    return EXIT_OK


def _cmd_rank(args: argparse.Namespace) -> int:
    dataset = read_dataset(args.input, args.na)
    ranking = rank_variables(dataset, args.target, args.criterion)
    ordered = list(enumerate(ranking.ordered, start=1))
    scalars = {}
    if args.relevant:
        try:  # one CSV record, quoted like the header, so a name may hold a comma
            fields = next(csv.reader([args.relevant]))
        except csv.Error:  # an unquoted line break ends a CSV record; read it as text
            fields = args.relevant.split(",")
        relevant = [name.strip() for name in fields if name.strip()]
        scalars["avg_position"] = average_position(ranking, relevant).avg_position
    config = _dataset_config(
        args, dataset, target=args.target, criterion=args.criterion, relevant=args.relevant or ""
    )
    _write(
        args,
        config,
        lambda: {
            "target": ranking.target,
            "criterion": ranking.criterion,
            "ranking": [
                {"position": i, "name": name, "score": score} for i, (name, score) in ordered
            ],
            **scalars,
        },
        lambda: [
            [["position", "name", "score"]]
            + [[str(i), name, _fmt(score)] for i, (name, score) in ordered],
            *(f"# {key}: {_fmt(value)}\n" for key, value in scalars.items()),
        ],
    )
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    result = run_experiment(args.name, args.reps, args.m, args.seed)
    config = {key: getattr(args, key) for key in ("command", "name", "reps", "m", "seed", "format")}
    cell_keys = ("mean", "stderr", "reference", "tolerance")

    def fields() -> dict:
        return {
            "experiment": result.name,
            "reps": result.reps,
            "m": result.m,
            "seed": result.seed,
            "cells": [{**asdict(cell), "status": _status(cell.passed)} for cell in result.cells],
            "checks": [
                {"label": check.label, "detail": check.detail, "status": _status(check.passed)}
                for check in result.checks
            ],
            "passed": result.passed,
        }

    def sections() -> list:
        cells = [["cell", *cell_keys, "status"]] + [
            [cell.label, *(_fmt(getattr(cell, key)) for key in cell_keys), _status(cell.passed)]
            for cell in result.cells
        ]
        if not result.checks:
            return [cells]
        checks = [["check", "detail", "status"]] + [
            [check.label, check.detail, _status(check.passed)] for check in result.checks
        ]
        return [cells, "# checks\n", checks]

    _write(args, config, fields, sections)
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    dataset = GENERATORS[args.family](args.m, args.seed).dataset
    config = {key: getattr(args, key) for key in ("command", "family", "m", "seed")}
    rows = [list(dataset.names)] + [[_fmt(v) for v in row] for row in dataset.values]
    # gen writes CSV only: it has no --format option and no JSON fields.
    _write(args, config, None, lambda: [rows])
    return EXIT_OK


def _add_io_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="CSV file with a header row, or '-' for stdin")
    parser.add_argument(
        "--na",
        choices=("error", "drop-rows"),
        default="error",
        help="how to treat missing/non-finite cells (default: error)",
    )
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output encoding"
    )
    parser.add_argument("--output", default=None, help="write to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minrel",
        description="Rank minrelation coefficients, pairwise matrices and variable ranking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeff = sub.add_parser("coeff", help="one coefficient for a column pair")
    _add_io_arguments(p_coeff)
    p_coeff.add_argument("--x", default=None, help="first column name (default: first column)")
    p_coeff.add_argument("--y", default=None, help="second column name (default: second column)")
    p_coeff.add_argument("--metric", choices=coeff.METRICS, default="iota")
    p_coeff.add_argument(
        "--orientation",
        default=None,
        help="two signs applied to (x, y) before ranking, e.g. '+-' (iota only)",
    )
    p_coeff.add_argument(
        "--strict",
        action="store_true",
        help="exit with status 3 when the result is degenerate",
    )
    p_coeff.set_defaults(handler=_cmd_coeff)

    p_matrix = sub.add_parser("matrix", help="pairwise coefficient matrix")
    _add_io_arguments(p_matrix)
    p_matrix.add_argument("--metric", choices=MATRIX_METRICS, default="iota")
    p_matrix.add_argument(
        "--workers", type=int, default=1, help="parallel workers (results are identical)"
    )
    p_matrix.set_defaults(handler=_cmd_matrix)

    p_rank = sub.add_parser("rank", help="rank columns by relevance to a target")
    _add_io_arguments(p_rank)
    p_rank.add_argument("--target", required=True, help="target column name")
    p_rank.add_argument("--criterion", choices=CRITERIA, default="max_iota_sq")
    p_rank.add_argument(
        "--relevant",
        default=None,
        help="comma-separated known-relevant columns, CSV-quoted; reports their average position",
    )
    p_rank.set_defaults(handler=_cmd_rank)

    p_exp = sub.add_parser("experiment", help="Monte-Carlo toy-table reproduction")
    p_exp.add_argument("name", choices=EXPERIMENTS)
    p_exp.add_argument("--reps", type=int, default=200)
    p_exp.add_argument("--m", type=int, default=1000)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--format", choices=("json", "csv"), default="json")
    p_exp.add_argument("--output", default=None)
    p_exp.set_defaults(handler=_cmd_experiment)

    p_gen = sub.add_parser("gen", help="emit a synthetic dataset as CSV")
    p_gen.add_argument("family", choices=FAMILIES)
    p_gen.add_argument("--m", type=int, default=1000)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", default=None)
    p_gen.set_defaults(handler=_cmd_gen, format="csv")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
