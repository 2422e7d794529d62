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
from typing import Sequence

import numpy as np

from . import coeff
from .errors import InvalidInputError
from .experiments import EXPERIMENTS, ExperimentResult, run_experiment
from .matrix import MATRIX_METRICS, CoefficientMatrix, Dataset, pairwise_matrix
from .ranking import CRITERIA, average_position, rank_variables
from .synth import FAMILIES, gen_combined, gen_linear, gen_multiplication, gen_triangle_pair

NA_TOKENS = frozenset({"", "na", "nan", "null"})

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4

GENERATORS = {
    "multiplication": gen_multiplication,
    "linear": gen_linear,
    "combined": gen_combined,
    "triangle": gen_triangle_pair,
}


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


def _rows_config(dataset: Dataset) -> dict:
    """The rows behind a result: m kept, of rows_read, after rows_dropped."""
    return {
        "m": dataset.m,
        "rows_read": dataset.m + dataset.rows_dropped,
        "rows_dropped": dataset.rows_dropped,
    }


def _config_line(config: dict) -> str:
    joined = " ".join(f"{key}={config[key]}" for key in sorted(config))
    return f"# config: {joined}\n"


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_rows(rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


def _parse_orientation(text: str) -> tuple[int, int]:
    if len(text) != 2 or any(ch not in "+-" for ch in text):
        raise InvalidInputError(
            f"orientation must be two signs like '+-', got {text!r}"
        )
    return (1 if text[0] == "+" else -1, 1 if text[1] == "+" else -1)


def _cmd_coeff(args: argparse.Namespace) -> int:
    dataset = read_dataset(args.input, args.na)
    x_name = args.x or dataset.names[0]
    if args.y:
        y_name = args.y
    elif dataset.n >= 2:
        y_name = dataset.names[1]
    else:
        raise InvalidInputError("input has a single column; pass --y explicitly")
    x = dataset.column(x_name)
    y = dataset.column(y_name)
    orientation = None
    if args.orientation:
        if args.metric != "iota":
            raise InvalidInputError("--orientation only applies to --metric iota")
        orientation = _parse_orientation(args.orientation)
        result = coeff.iota_oriented(x, y, orientation[0], orientation[1])
    else:
        result = coeff.evaluate_metric(x, y, args.metric)
    config = {
        "command": "coeff",
        "input": args.input,
        "x": x_name,
        "y": y_name,
        "metric": args.metric,
        "orientation": args.orientation or "++",
        "ties": "average",
        "na": args.na,
        "strict": args.strict,
        "format": args.format,
        **_rows_config(dataset),
    }
    if args.format == "json":
        text = _json_dump(
            {
                "metric": args.metric,
                "value": result.value,
                "degenerate": result.degenerate,
                "m": dataset.m,
                "config": config,
            }
        )
    else:
        text = _config_line(config) + _csv_rows(
            [
                ["metric", "value", "degenerate", "m"],
                [args.metric, _fmt(result.value), str(result.degenerate).lower(), str(dataset.m)],
            ]
        )
    _emit(text, args.output)
    if args.strict and result.degenerate:
        return EXIT_DEGENERATE
    return EXIT_OK


def _matrix_json(matrix: CoefficientMatrix, config: dict) -> str:
    values = {
        x: {y: float(matrix.values[i, j]) for j, y in enumerate(matrix.names)}
        for i, x in enumerate(matrix.names)
    }
    degenerate = {
        x: {y: bool(matrix.degenerate[i, j]) for j, y in enumerate(matrix.names)}
        for i, x in enumerate(matrix.names)
    }
    return _json_dump(
        {
            "metric": matrix.metric,
            "names": list(matrix.names),
            "values": values,
            "degenerate": degenerate,
            "config": config,
        }
    )


def _matrix_csv(matrix: CoefficientMatrix, config: dict) -> str:
    header = [""] + list(matrix.names)
    value_rows = [
        [name] + [_fmt(v) for v in matrix.values[i]]
        for i, name in enumerate(matrix.names)
    ]
    mask_rows = [
        [name] + [str(bool(v)).lower() for v in matrix.degenerate[i]]
        for i, name in enumerate(matrix.names)
    ]
    return (
        _config_line(config)
        + _csv_rows([header] + value_rows)
        + "# degenerate\n"
        + _csv_rows([header] + mask_rows)
    )


def _cmd_matrix(args: argparse.Namespace) -> int:
    dataset = read_dataset(args.input, args.na)
    matrix = pairwise_matrix(dataset, args.metric, workers=args.workers)
    config = {
        "command": "matrix",
        "input": args.input,
        "metric": args.metric,
        "ties": "average",
        "na": args.na,
        "format": args.format,
        **_rows_config(dataset),
    }
    if args.format == "json":
        text = _matrix_json(matrix, config)
    else:
        text = _matrix_csv(matrix, config)
    _emit(text, args.output)
    return EXIT_OK


def _cmd_rank(args: argparse.Namespace) -> int:
    dataset = read_dataset(args.input, args.na)
    ranking = rank_variables(dataset, args.target, args.criterion)
    relevant = None
    if args.relevant:
        relevant = [name.strip() for name in args.relevant.split(",") if name.strip()]
        evaluation = average_position(ranking, relevant)
    config = {
        "command": "rank",
        "input": args.input,
        "target": args.target,
        "criterion": args.criterion,
        "relevant": args.relevant or "",
        "ties": "average",
        "na": args.na,
        "format": args.format,
        **_rows_config(dataset),
    }
    if args.format == "json":
        payload = {
            "target": ranking.target,
            "criterion": ranking.criterion,
            "ranking": [
                {"position": i, "name": name, "score": score}
                for i, (name, score) in enumerate(ranking.ordered, start=1)
            ],
            "config": config,
        }
        if relevant is not None:
            payload["avg_position"] = evaluation.avg_position
        text = _json_dump(payload)
    else:
        rows = [["position", "name", "score"]]
        rows.extend(
            [str(i), name, _fmt(score)]
            for i, (name, score) in enumerate(ranking.ordered, start=1)
        )
        text = _config_line(config) + _csv_rows(rows)
        if relevant is not None:
            text += f"# avg_position: {_fmt(evaluation.avg_position)}\n"
    _emit(text, args.output)
    return EXIT_OK


def _experiment_json(result: ExperimentResult, config: dict) -> str:
    return _json_dump(
        {
            "experiment": result.name,
            "reps": result.reps,
            "m": result.m,
            "seed": result.seed,
            "cells": [
                {
                    "label": cell.label,
                    "mean": cell.mean,
                    "stderr": cell.stderr,
                    "reference": cell.reference,
                    "tolerance": cell.tolerance,
                    "status": "pass" if cell.passed else "fail",
                }
                for cell in result.cells
            ],
            "checks": [
                {
                    "label": check.label,
                    "detail": check.detail,
                    "status": "pass" if check.passed else "fail",
                }
                for check in result.checks
            ],
            "passed": result.passed,
            "config": config,
        }
    )


def _experiment_csv(result: ExperimentResult, config: dict) -> str:
    rows = [["cell", "mean", "stderr", "reference", "tolerance", "status"]]
    rows.extend(
        [
            cell.label,
            _fmt(cell.mean),
            _fmt(cell.stderr),
            _fmt(cell.reference),
            _fmt(cell.tolerance),
            "pass" if cell.passed else "fail",
        ]
        for cell in result.cells
    )
    text = _config_line(config) + _csv_rows(rows)
    if result.checks:
        check_rows = [["check", "detail", "status"]]
        check_rows.extend(
            [check.label, check.detail, "pass" if check.passed else "fail"]
            for check in result.checks
        )
        text += "# checks\n" + _csv_rows(check_rows)
    return text


def _cmd_experiment(args: argparse.Namespace) -> int:
    result = run_experiment(args.name, args.reps, args.m, args.seed)
    config = {
        "command": "experiment",
        "name": args.name,
        "reps": args.reps,
        "m": args.m,
        "seed": args.seed,
        "format": args.format,
    }
    if args.format == "json":
        text = _experiment_json(result, config)
    else:
        text = _experiment_csv(result, config)
    _emit(text, args.output)
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    generated = GENERATORS[args.family](args.m, args.seed)
    dataset = generated.dataset
    config = {
        "command": "gen",
        "family": args.family,
        "m": args.m,
        "seed": args.seed,
    }
    rows = [list(dataset.names)]
    rows.extend(
        [_fmt(v) for v in dataset.values[i]] for i in range(dataset.m)
    )
    _emit(_config_line(config) + _csv_rows(rows), args.output)
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
        help="comma-separated known-relevant columns; reports their average position",
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
    p_gen.set_defaults(handler=_cmd_gen)

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
