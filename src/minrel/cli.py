"""Command-line front end: CSV in, coefficients / matrices / rankings out.

CSV dialect: comma-separated, UTF-8 (a leading byte-order mark is ignored; a
file that is not UTF-8 fails, naming its first bad byte's line), lines end at
'\\n', '\\r\\n' or '\\r' only, first non-comment record is the header, one
filter drops records starting with '#' (outside quotes) and blank or
whitespace-only lines, so "data row N" counts data records as ``rows_read``
does, quoted fields keep their line breaks (a '#' at the start of a continued
line is data), decimal points only (no locale handling). Numbers are printed
with 12 significant digits in CSV output and at full double precision in JSON;
CSV writes a bool as ``true``/``false``.
Every run echoes its effective configuration in the output so results can
be reproduced from the artifact alone, with the rows behind the result:
``rows_read`` data rows, ``rows_dropped`` of them dropped, ``m`` kept.

Each command builds its config (:func:`_dataset_config` for the commands
that read a dataset) and hands it, with its JSON fields and CSV sections,
to :func:`_write`, the one writer, which builds the whole result before it
opens the output, so a failed command leaves no file, and encodes it into
one binary sink, so stdout and ``--output`` get the same bytes. JSON is the
bytes of ``json.dumps(indent=2, sort_keys=True)`` on one object with a
``config`` key; CSV is a ``# config: key=value ...`` line, then tables and
comment lines. A config value with a line break is written there as its JSON
string literal, so the config stays on one line. A matrix is two typed
grids, not n^2 Python floats: each row is spelled at once by its cell type,
and each name encoded once.

The header goes through the record reader. A data body of plain numbers
is parsed in one ``np.loadtxt`` call, and :class:`Dataset` decides whether
it is accepted; any other body (quoted cells, NA tokens, comment records,
whitespace-only lines, ragged rows, errors) goes through the record loop
from the same line. Both give the same values bit for bit, or the same
error (see :func:`_bulk_dataset`).

Exit codes: 0 success, 2 parse/validation failure, 3 degenerate result
under --strict, 4 I/O failure or out of memory (silent for a closed stdout).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, astuple
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import coeff
from .errors import InvalidInputError, require_choice
from .experiments import EXPERIMENTS, run_experiment
from .matrix import MATRIX_METRICS, Dataset, pairwise_matrix
from .ranking import CRITERIA, average_position, rank_variables
from .synth import FAMILIES, GENERATORS

NA_TOKENS = frozenset({"", "na", "nan", "null"})
NA_POLICIES = ("error", "drop-rows")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4


def _read_text(path: str) -> str:
    """The input's bytes decoded as UTF-8, with universal newlines; '-' is stdin."""
    if path == "-":
        if sys.stdin is None:  # as Python starts with fd 0 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF), "<stdin>")
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start]
        line = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        raise InvalidInputError(
            f"input is not UTF-8: byte 0x{data[exc.start]:02x} on line {line}"
        ) from None
    if "\r" in text:  # universal newlines, as a text-mode read translates them
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _records(lines: list[str]):
    """(record, end) pairs, less comments ('#' where a record starts) and whitespace-only lines.

    The one filter of the record stream. ``end`` indexes the line after the record: the
    reader reads no further than the record it yields. An unclosed quote raises, naming its line.
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
            yield line + "\n"  # a quoted field keeps its line breaks
        end += 1  # past the input: a record ends here only if a quoted field never closed

    for row in csv.reader(uncommented()):
        if end > len(lines):  # that field is the record's last; its text runs to the end
            opened = end - row[-1].count("\n")
            raise InvalidInputError(f"line {opened}: a quoted field opens here and never closes")
        at_record_start = True
        if len(row) > 1 or "".join(row).strip():
            yield row, end


def _bulk_dataset(lines: list[str], names: list[str]) -> Dataset | None:
    """The data lines parsed in one call, or None where the record loop must parse them.

    ``np.loadtxt`` converts with the same correctly rounded parser as
    ``float()`` and accepts the same surrounding whitespace. Every token it
    reads differently (quoted cells, NA tokens, '#', '1_0', non-ASCII
    digits) makes it raise, so an array it returns equals the record loop's
    bit for bit; :class:`Dataset` decides whether it is accepted. With
    ``quotechar='"'``, loadtxt would close a quote left open at the end.
    """
    try:
        with warnings.catch_warnings():
            # Input without data warns; the record loop reports it.
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(
                lines, delimiter=",", comments=None, quotechar=None, ndmin=2, dtype=float
            )
        return Dataset(names, values)
    except ValueError:  # InvalidInputError included
        return None


def _record_values(rows, names: list[str], na_policy: str) -> tuple[list[list[float]], int]:
    """The kept rows, parsed a cell at a time, and the records read; "data row N" is the N-th."""
    parsed: list[list[float]] = []
    row_number = 0
    for row_number, row in enumerate(rows, start=1):
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
    return parsed, row_number


def read_dataset(path: str, na_policy: str) -> Dataset:
    """Parse a CSV file (or '-' for stdin) into a validated Dataset."""
    require_choice(na_policy, NA_POLICIES, "NA policy")
    # Lines break at '\n' only, as csv and text-mode files break them.
    lines = _read_text(path).removeprefix("\ufeff").split("\n")
    records = _records(lines)
    header, body_start = next(records, (None, 0))
    if header is None:
        raise InvalidInputError("input is empty")
    names = [cell.strip() for cell in header]
    if any(not name for name in names):
        raise InvalidInputError("header contains an empty column name")
    dataset = _bulk_dataset(lines[body_start:], names)
    if dataset is not None:
        return dataset
    parsed, rows_read = _record_values((row for row, _ in records), names, na_policy)
    if len(parsed) < 2:
        raise InvalidInputError(f"need at least 2 usable data rows, got {len(parsed)}")
    return Dataset(names, parsed, rows_dropped=rows_read - len(parsed))


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


def _csv_spelling(kind: type):
    """How CSV spells a ``kind`` cell: bool as ``true``/``false``, float to 12 digits, else str."""
    if issubclass(kind, bool):
        return ("false", "true").__getitem__
    return "{:.12g}".format if issubclass(kind, float) else str


def _csv_cell(value) -> str:
    """One CSV cell, spelled for its own type (a grid spells each row for its cell type)."""
    return _csv_spelling(type(value))(value)


#: An n x n array of floats or bools whose rows and columns are both keyed by ``names``.
_Grid = NamedTuple("_Grid", [("names", tuple), ("cells", np.ndarray)])


def _words(cells: np.ndarray, spell) -> Iterator[list]:
    """Each row of a grid as its cells' words: ``spell`` of each distinct bit pattern, once."""
    bits = cells.view(np.int64 if cells.dtype == float else np.uint8).ravel()
    distinct, inverse = np.unique(bits, return_inverse=True)
    words = np.array(list(map(spell, distinct.view(cells.dtype).tolist())), dtype=object)
    return (words[row].tolist() for row in inverse.reshape(cells.shape))


def _json_parts(payload: dict):
    """``json.dumps(payload, indent=2, sort_keys=True)`` and a newline, in parts.

    A :data:`_Grid` is a dict of row dicts, written row by row: names encoded
    once, floats by ``float.__repr__`` (as ``json`` does), flags ``true``/``false``.
    """
    for k, (key, value) in enumerate(sorted(payload.items())):
        yield f"{',' if k else '{'}\n  {json.dumps(key)}: "
        if not isinstance(value, _Grid):
            yield json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
            continue
        order = sorted(range(len(value.names)), key=value.names.__getitem__)
        keys = [json.dumps(value.names[i]) for i in order]
        prefixes = [f"\n      {name}: " for name in keys]
        spell = float.__repr__ if value.cells.dtype == float else _csv_spelling(bool)
        for i, row in enumerate(_words(value.cells[np.ix_(order, order)], spell)):
            cells = ",".join(map(str.__add__, prefixes, row))
            yield f"{',' if i else '{'}\n    {keys[i]}: {{{cells}\n    }}"
        yield "\n  }"
    yield "\n}\n"


class _Parts(list):
    write = list.append  # a csv.writer target: each row it writes is one part


def _write(args: argparse.Namespace, config: dict, fields: dict | None, sections: list) -> None:
    """Write a command's result in its ``--format``; the one place that branches on it.

    JSON is the object ``fields`` plus ``config``. CSV is the ``# config:``
    line, then each of ``sections``: a comment line, a table of typed rows
    whose every cell :func:`_csv_cell` spells, or a :data:`_Grid`, spelled
    once per cell type under a header row of its names. All of it is built
    before its one binary sink, stdout's buffer or the ``--output`` file, opens.
    """
    if args.format == "json":
        parts = _Parts(_json_parts({**fields, "config": config}))
    else:
        parts = _Parts([_config_line(config)])
        writer = csv.writer(parts, lineterminator="\n")
        for part in sections:
            if isinstance(part, str):
                parts.append(part)
            elif isinstance(part, _Grid):
                spell = _csv_spelling(type(part.cells.item(0)))
                writer.writerow(["", *part.names])
                writer.writerows([x, *row] for x, row in zip(part.names, _words(part.cells, spell)))
            else:
                writer.writerows(map(_csv_cell, row) for row in part)
    # Many parts, not one string, as UTF-8 whatever the locale, to one binary sink.
    # A reader that closes early makes a write raise or take fewer bytes: both exit 4 quietly.
    if args.output in (None, "-"):
        sys.stdout.flush()  # sys.stdout is None when fd 1 is closed: touch it only here
        sink = contextlib.nullcontext(sys.stdout.buffer)
    else:
        sink = open(args.output, "wb")
    with sink as handle:
        for part in map(str.encode, parts):
            if handle.write(part) < len(part):
                raise BrokenPipeError("the output took a short write")
        handle.flush()


def _status(passed: bool) -> str:
    return "pass" if passed else "fail"


def _parse_orientation(text: str) -> tuple[int, int]:
    if len(text) != 2 or any(ch not in "+-" for ch in text):
        raise InvalidInputError(f"orientation must be two signs like '+-', got {text!r}")
    return (1 if text[0] == "+" else -1, 1 if text[1] == "+" else -1)


def _cmd_coeff(args: argparse.Namespace) -> int:
    dataset = read_dataset(args.input, args.na)
    if args.y is None and dataset.n < 2:
        raise InvalidInputError("input has a single column; pass --y explicitly")
    x_name = dataset.names[0] if args.x is None else args.x
    y_name = dataset.names[1] if args.y is None else args.y
    x = dataset.columns[dataset.index(x_name)]
    y = dataset.columns[dataset.index(y_name)]
    orientation = "--" if args.orientation == [] else args.orientation  # argparse drops "--"
    if orientation is not None:
        if args.metric != "iota":
            raise InvalidInputError("--orientation only applies to --metric iota")
        result = coeff.iota_oriented(x, y, *_parse_orientation(orientation))
    else:
        result = coeff.evaluate_metric(x, y, args.metric)
    fields = dict(x=x_name, y=y_name, metric=args.metric, orientation=orientation or "++")
    config = _dataset_config(args, dataset, **fields, strict=args.strict)
    header = ["metric", "value", "degenerate", "m"]
    values = [args.metric, result.value, result.degenerate, dataset.m]
    _write(args, config, dict(zip(header, values)), [[header, values]])
    if args.strict and result.degenerate:
        return EXIT_DEGENERATE
    return EXIT_OK


def _cmd_matrix(args: argparse.Namespace) -> int:
    dataset = read_dataset(args.input, args.na)
    try:
        matrix = pairwise_matrix(dataset, args.metric)
        values, flags = (_Grid(matrix.names, cells) for cells in (matrix.values, matrix.degenerate))
        fields = {"metric": matrix.metric, "names": list(matrix.names), "values": values}
        config = _dataset_config(args, dataset, metric=args.metric)
        _write(args, config, {**fields, "degenerate": flags}, [values, "# degenerate\n", flags])
    except MemoryError as exc:
        raise MemoryError(f"the dense {dataset.n} x {dataset.n} matrix: {exc}") from None
    return EXIT_OK


def _cmd_rank(args: argparse.Namespace) -> int:
    dataset = read_dataset(args.input, args.na)
    ranking = rank_variables(dataset, args.target, args.criterion)
    header = ("position", "name", "score")
    rows = [(i, name, score) for i, (name, score) in enumerate(ranking.ordered, start=1)]
    scalars = {}
    if args.relevant is not None:
        try:  # one CSV record, quoted like the header, so a name may hold a comma
            cells = next(csv.reader([args.relevant]))
        except csv.Error:  # an unquoted line break ends a CSV record; read it as text
            cells = args.relevant.split(",")
        relevant = [name.strip() for name in cells if name.strip()]
        scalars["avg_position"] = average_position(ranking, relevant).avg_position
    config = _dataset_config(
        args, dataset, target=args.target, criterion=args.criterion, relevant=args.relevant or ""
    )
    fields = {"target": ranking.target, "criterion": ranking.criterion}
    fields["ranking"] = [dict(zip(header, row)) for row in rows]
    comments = [f"# {key}: {_csv_cell(value)}\n" for key, value in scalars.items()]
    _write(args, config, {**fields, **scalars}, [[header, *rows], *comments])
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    result = run_experiment(args.name, args.reps, args.m, args.seed)
    config = {key: getattr(args, key) for key in ("command", "name", "reps", "m", "seed", "format")}
    fields = {
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
    sections = [
        [["cell", "mean", "stderr", "reference", "tolerance", "status"]]
        + [[*astuple(cell), _status(cell.passed)] for cell in result.cells]
    ]
    if result.checks:
        checks = [[check.label, check.detail, _status(check.passed)] for check in result.checks]
        sections += ["# checks\n", [["check", "detail", "status"], *checks]]
    _write(args, config, fields, sections)
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    dataset = GENERATORS[args.family](args.m, args.seed).dataset
    config = {key: getattr(args, key) for key in ("command", "family", "m", "seed")}
    # gen writes CSV only: it has no --format option and no JSON fields.
    _write(args, config, None, [[dataset.names, *dataset.values.tolist()]])
    return EXIT_OK


def _add_io_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="CSV file with a header row, or '-' for stdin")
    parser.add_argument(
        "--na",
        choices=NA_POLICIES,
        default="error",
        help="how to treat missing/non-finite cells (default: error)",
    )
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output encoding"
    )
    parser.add_argument("--output", default=None, help="write to this path instead of stdout")


@functools.cache
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
        help="two signs applied to (x, y) before ranking, e.g. --orientation=-+ (iota only)",
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
    except BrokenPipeError:
        # The output's reader went away (as under `| head`): stop quietly. A stdout with a
        # descriptor (not None) now writes to devnull, so the interpreter's final flush cannot fail.
        with contextlib.suppress(ValueError, AttributeError):
            os.dup2(devnull := os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        os.close(devnull)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
