import argparse
import csv
import io
import json
import os
import struct
import subprocess
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import minrel.matrix
import minrel.ranks
from minrel import cli, evaluate_metric, max_iota_sq, rank_minrelation, spearman
from minrel.cli import main, read_dataset
from minrel.coeff import METRICS
from minrel.errors import InvalidInputError
from minrel.experiments import EXPERIMENTS, run_experiment
from minrel.matrix import MATRIX_METRICS, Dataset, minrel_profile_matrix, pairwise_matrix
from minrel.ranking import CRITERIA, rank_variables


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _stdin(text):
    """A text stdin over the UTF-8 bytes of ``text``, with a ``buffer`` as sys.stdin has."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


def write_csv(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def linear_csv(tmp_path):
    return write_csv(tmp_path, "linear.csv", "x,y\n1,1\n2,2\n3,3\n")


def test_coeff_iota_json(capsys, linear_csv):
    code, out, _ = run_cli(capsys, "coeff", linear_csv, "--metric", "iota")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(0.9518, abs=1e-4)
    assert payload["m"] == 3
    assert payload["degenerate"] is False
    assert payload["config"]["metric"] == "iota"


def test_coeff_spearman_csv(capsys, linear_csv):
    code, out, _ = run_cli(
        capsys, "coeff", linear_csv, "--metric", "spearman", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "metric,value,degenerate,m"
    assert lines[2] == "spearman,1,false,3"


def test_coeff_parse_error_cites_cell(capsys, tmp_path):
    path = write_csv(tmp_path, "bad.csv", "x,y\n1,2\n2,abc\n")
    code, _, err = run_cli(capsys, "coeff", path)
    assert code == 2
    assert "row 2" in err and "'y'" in err and "abc" in err


def test_coeff_missing_value_policies(capsys, tmp_path):
    path = write_csv(tmp_path, "na.csv", "x,y\n1,2\n,3\n2,4\n5,6\n")
    code, _, err = run_cli(capsys, "coeff", path)
    assert code == 2 and "row 2" in err and "drop-rows" in err
    code, out, _ = run_cli(capsys, "coeff", path, "--na", "drop-rows")
    assert code == 0
    assert json.loads(out)["m"] == 3


def test_coeff_strict_degenerate_exit(capsys, tmp_path):
    path = write_csv(tmp_path, "flat.csv", "x,y\n1,5\n1,5\n1,5\n")
    code, out, _ = run_cli(capsys, "coeff", path, "--metric", "iota", "--strict")
    assert code == 3
    assert json.loads(out)["degenerate"] is True
    code, _, _ = run_cli(capsys, "coeff", path, "--metric", "iota")
    assert code == 0


def test_coeff_orientation(capsys, tmp_path):
    rng = np.random.default_rng(2)
    rows = "\n".join(f"{a},{b}" for a, b in rng.normal(size=(20, 2)))
    path = write_csv(tmp_path, "pair.csv", "x,y\n" + rows + "\n")
    _, out_plus, _ = run_cli(capsys, "coeff", path, "--metric", "iota")
    _, out_flip, _ = run_cli(capsys, "coeff", path, "--metric", "iota", "--orientation", "+-")
    assert json.loads(out_flip)["value"] == -json.loads(out_plus)["value"]
    code, _, err = run_cli(capsys, "coeff", path, "--metric", "iota", "--orientation", "+")
    assert code == 2 and "orientation" in err
    # argparse turns "--orientation=--" into [] and "--orientation=" into "": neither is "++".
    _, out_both, _ = run_cli(capsys, "coeff", path, "--metric", "iota", "--orientation=--")
    assert json.loads(out_both)["config"]["orientation"] == "--"
    code, _, err = run_cli(capsys, "coeff", path, "--metric", "iota", "--orientation=")
    assert code == 2 and "orientation" in err
    code, _, err = run_cli(capsys, "coeff", path, "--metric", "spearman", "--orientation", "+-")
    assert code == 2


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_coeff_iota_raw_squared_of_huge_values_is_valid_json(capsys, tmp_path):
    path = write_csv(tmp_path, "big.csv", "x,y\n1e300,1\n-1e300,2\n3,1e300\n")
    code, out, err = run_cli(capsys, "coeff", path, "--metric", "iota_raw_squared")
    assert code == 0 and err == ""
    payload = json.loads(out, parse_constant=_reject_constant)
    direct = evaluate_metric([1e300, -1e300, 3.0], [1.0, 2.0, 1e300], "iota_raw_squared")
    assert payload["value"] == direct.value and -1.0 <= direct.value <= 1.0
    assert payload["degenerate"] is False


def test_coeff_unknown_column(capsys, linear_csv):
    code, _, err = run_cli(capsys, "coeff", linear_csv, "--x", "zzz")
    assert code == 2 and "zzz" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("coeff", "--x", ""), "unknown column ''"),
        (("coeff", "--y", ""), "unknown column ''"),
        (("rank", "--target", "x", "--relevant", ""), "relevant set must not be empty"),
    ],
    ids=["x", "y", "relevant"],
)
def test_an_empty_column_argument_is_not_a_default(capsys, linear_csv, argv, message):
    # An empty value is a name that no column has, not the option left out.
    code, out, err = run_cli(capsys, argv[0], linear_csv, *argv[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_header_with_an_empty_name_is_rejected(capsys, tmp_path):
    path = write_csv(tmp_path, "gap.csv", "a,,b\n1,2,3\n2,3,1\n")
    code, out, err = run_cli(capsys, "coeff", path)
    assert (code, out, err) == (2, "", "error: header contains an empty column name\n")


def test_coeff_on_one_column_needs_y(capsys, tmp_path):
    path = write_csv(tmp_path, "one.csv", "a\n1\n2\n3\n")
    code, out, err = run_cli(capsys, "coeff", path)
    assert (code, out, err) == (2, "", "error: input has a single column; pass --y explicitly\n")


@pytest.mark.parametrize(
    "metric, rows",
    [("iota", 2), ("max_iota_sq", 2), ("spearman", 2), ("pearson", 0), ("p_leq_hat", 0)],
)
def test_coeff_sorts_only_the_two_columns_it_scores(capsys, tmp_path, sort_counter, metric, rows):
    values = np.random.default_rng(5).random((20, 5))
    path = tmp_path / "five.csv"
    np.savetxt(path, values, delimiter=",", header="a,b,c,d,e", comments="")
    code, _, _ = run_cli(capsys, "coeff", str(path), "--x", "b", "--y", "d", "--metric", metric)
    assert code == 0
    assert sum(sort_counter) == rows


def test_matrix_csv_round_trips_json_values(capsys, tmp_path):
    gen_path = str(tmp_path / "mult.csv")
    run_cli(capsys, "gen", "multiplication", "--m", "150", "--seed", "3",
            "--output", gen_path)
    code, out_json, _ = run_cli(capsys, "matrix", gen_path, "--metric", "iota")
    assert code == 0
    payload = json.loads(out_json)
    code, out_csv, _ = run_cli(
        capsys, "matrix", gen_path, "--metric", "iota", "--format", "csv"
    )
    assert code == 0
    body = [line for line in out_csv.splitlines() if not line.startswith("#")]
    value_rows = list(csv.reader(body[: len(body) // 2]))  # mask block mirrors it
    names = value_rows[0][1:]
    assert names == payload["names"]
    for row in value_rows[1:]:
        x = row[0]
        for y, cell in zip(names, row[1:]):
            assert float(cell) == pytest.approx(payload["values"][x][y], rel=1e-10, abs=1e-12)


def test_matrix_iota_asymmetric_and_spearman_symmetric(capsys, tmp_path):
    gen_path = str(tmp_path / "mult.csv")
    run_cli(capsys, "gen", "multiplication", "--m", "1000", "--seed", "11",
            "--output", gen_path)
    _, out, _ = run_cli(capsys, "matrix", gen_path, "--metric", "iota")
    values = json.loads(out)["values"]
    assert values["A"]["B"] > 0.95
    assert values["A"]["B"] - values["B"]["A"] > 0.1
    _, out, _ = run_cli(capsys, "matrix", gen_path, "--metric", "spearman")
    values = json.loads(out)["values"]
    for x in ("A", "B", "C"):
        assert values[x][x] == 1.0
        for y in ("A", "B", "C"):
            assert values[x][y] == values[y][x]


def test_matrix_unknown_metric_exits_2(capsys, linear_csv):
    with pytest.raises(SystemExit) as excinfo:
        main(["matrix", linear_csv, "--metric", "kendall"])
    assert excinfo.value.code == 2


def test_rank_combined_family(capsys, tmp_path):
    gen_path = str(tmp_path / "combined.csv")
    run_cli(capsys, "gen", "combined", "--m", "1000", "--seed", "5",
            "--output", gen_path)
    code, out, _ = run_cli(
        capsys, "rank", gen_path, "--target", "A", "--criterion", "rho2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ranking"][0]["name"] == "G"
    code, out, _ = run_cli(
        capsys, "rank", gen_path, "--target", "A", "--criterion", "rho2",
        "--relevant", "B,C,D",
    )
    assert code == 0
    assert json.loads(out)["avg_position"] > 1.0
    code, out, _ = run_cli(
        capsys, "rank", gen_path, "--target", "A", "--criterion", "rho2",
        "--relevant", "B,C,D", "--format", "csv",
    )
    assert "# avg_position:" in out


@pytest.mark.parametrize(
    "relevant, expected",
    [
        ('B,"Q, name"', ["B", "Q, name"]),
        ('"Q, name"', ["Q, name"]),
        ("B, T", ["B", "T"]),
        ('"B\nX",T', ["B\nX", "T"]),
        # An unquoted line break is not one CSV record; it is split on commas.
        ("B\nX,T", ["B\nX", "T"]),
    ],
)
def test_rank_relevant_takes_csv_quoting(capsys, tmp_path, relevant, expected):
    path = write_csv(
        tmp_path,
        "q.csv",
        'A,B,"Q, name","B\nX",T\n1,2,3,1,4\n2,1,5,4,3\n3,3,4,2,1\n4,5,1,3,2\n5,4,2,5,5\n',
    )
    code, out, err = run_cli(capsys, "rank", path, "--target", "A", "--relevant", relevant)
    assert code == 0, err
    payload = json.loads(out)
    positions = {row["name"]: row["position"] for row in payload["ranking"]}
    assert payload["avg_position"] == sum(positions[name] for name in expected) / len(expected)
    assert payload["config"]["relevant"] == relevant


def test_rank_validation_exits_2(capsys, linear_csv):
    code, _, err = run_cli(capsys, "rank", linear_csv, "--target", "nope")
    assert code == 2 and "nope" in err
    with pytest.raises(SystemExit) as excinfo:
        main(["rank", linear_csv, "--target", "x", "--criterion", "bogus"])
    assert excinfo.value.code == 2


def test_experiment_small_run(capsys):
    code, out, _ = run_cli(
        capsys, "experiment", "table2", "--reps", "3", "--m", "60", "--seed", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["experiment"] == "table2"
    assert len(payload["cells"]) == 15
    assert {cell["status"] for cell in payload["cells"]} <= {"pass", "fail"}
    code, out, _ = run_cli(
        capsys, "experiment", "table4", "--reps", "2", "--m", "50", "--seed", "1",
        "--format", "csv",
    )
    assert code == 0
    assert "# checks" in out
    with pytest.raises(SystemExit) as excinfo:
        main(["experiment", "table9"])
    assert excinfo.value.code == 2


def test_gen_deterministic_and_structured(capsys, tmp_path):
    first = str(tmp_path / "a.csv")
    second = str(tmp_path / "b.csv")
    run_cli(capsys, "gen", "multiplication", "--m", "50", "--seed", "7", "--output", first)
    run_cli(capsys, "gen", "multiplication", "--m", "50", "--seed", "7", "--output", second)
    first_bytes = open(first, "rb").read()
    assert first_bytes == open(second, "rb").read()
    rows = [r for r in open(first).read().splitlines() if not r.startswith("#")]
    parsed = list(csv.reader(rows))
    assert parsed[0] == ["A", "B", "C"]
    data = np.array([[float(v) for v in row] for row in parsed[1:]])
    np.testing.assert_allclose(data[:, 0], data[:, 1] * data[:, 2], rtol=1e-10, atol=1e-14)


def test_gen_round_trip_reproduces_in_memory_coefficient(capsys, tmp_path):
    from minrel import gen_multiplication, rank_minrelation

    gen_path = str(tmp_path / "mult.csv")
    run_cli(capsys, "gen", "multiplication", "--m", "400", "--seed", "31",
            "--output", gen_path)
    _, out, _ = run_cli(capsys, "coeff", gen_path, "--x", "A", "--y", "B",
                        "--metric", "iota")
    ds = gen_multiplication(400, seed=31).dataset
    in_memory = rank_minrelation(ds.column("A"), ds.column("B")).value
    assert json.loads(out)["value"] == pytest.approx(in_memory, abs=1e-10)


def test_gen_output_reingests(capsys, tmp_path):
    gen_path = str(tmp_path / "tri.csv")
    code, _, _ = run_cli(capsys, "gen", "triangle", "--m", "80", "--seed", "2",
                         "--output", gen_path)
    assert code == 0
    code, out, _ = run_cli(capsys, "matrix", gen_path, "--metric", "iota")
    assert code == 0
    assert json.loads(out)["values"]["X"]["Y"] > 0.9


def test_quoted_column_names_survive_matrix_csv(capsys, tmp_path):
    path = write_csv(
        tmp_path, "quoted.csv", '"a,1",b\n1,4\n2,6\n3,5\n'
    )
    code, out, _ = run_cli(capsys, "matrix", path, "--metric", "spearman",
                           "--format", "csv")
    assert code == 0
    body = [line for line in out.splitlines() if not line.startswith("#")]
    header = next(csv.reader([body[0]]))
    assert header == ["", "a,1", "b"]


def test_utf8_byte_order_mark_is_ignored(capsys, tmp_path, monkeypatch):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfA,B\n1,2\n2,1\n3,3\n")
    code, out, err = run_cli(capsys, "coeff", str(path), "--x", "A", "--y", "B")
    assert code == 0, err
    assert json.loads(out)["config"]["x"] == "A"
    monkeypatch.setattr(sys, "stdin", _stdin("\ufeffA,B\n1,2\n2,1\n3,3\n"))
    code, out, err = run_cli(capsys, "matrix", "-", "--metric", "spearman")
    assert code == 0, err
    assert json.loads(out)["names"] == ["A", "B"]


def test_whitespace_only_lines_are_skipped(capsys, tmp_path):
    path = write_csv(tmp_path, "blank.csv", "  \nx,y\n1,1\n \t\n2,2\n\n3,3\n   \n")
    code, out, err = run_cli(capsys, "coeff", path)
    assert code == 0, err
    assert json.loads(out)["m"] == 3
    code, out, err = run_cli(capsys, "matrix", path, "--metric", "iota")
    assert code == 0, err
    assert json.loads(out)["names"] == ["x", "y"]


def test_quoted_line_breaks_are_kept(capsys, tmp_path):
    header = write_csv(tmp_path, "header.csv", '"A\nX",B\n1,2\n2,1\n3,3\n')
    code, out, err = run_cli(capsys, "matrix", header, "--metric", "spearman")
    assert code == 0, err
    assert json.loads(out)["names"] == ["A\nX", "B"]
    cell = write_csv(tmp_path, "cell.csv", 'A,B\n1,"2\n5"\n2,1\n3,3\n')
    code, _, err = run_cli(capsys, "coeff", cell)
    assert code == 2
    assert "data row 1, column 'B'" in err


def test_unclosed_quote_names_the_line_where_it_opens(capsys, monkeypatch):
    cases = {
        '"a,b\n1,2\n3,4\n': 1,  # the header would swallow the whole file
        'a,b\n1,2\n3,"4\n5,6\n': 3,
        'a,b\n1,2\n3,"4\n': 3,  # np.loadtxt(quotechar='"') would read this as 4
        '"x\ny","z\n1,2\n': 2,  # a closed multi-line field before the open one
    }
    for text, line in cases.items():
        monkeypatch.setattr(sys, "stdin", _stdin(text))
        code, out, err = run_cli(capsys, "matrix", "-")
        assert code == 2 and out == ""
        assert err == f"error: line {line}: a quoted field opens here and never closes\n"
    # A quote after a closed quote is kept as data, as before.
    monkeypatch.setattr(sys, "stdin", _stdin('a,"b"c\n1,2\n3,4\n'))
    code, out, err = run_cli(capsys, "matrix", "-")
    assert code == 0, err
    assert json.loads(out)["names"] == ["a", "bc"]


def test_comment_marker_inside_a_quoted_field_is_data(capsys, tmp_path):
    path = write_csv(
        tmp_path,
        "comments.csv",
        '# leading comment\n"A\n#X",B\n1,2\n# a comment "with a quote\n2,1\n3,3\n',
    )
    code, out, err = run_cli(capsys, "matrix", path, "--metric", "spearman")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["names"] == ["A\n#X", "B"]
    assert payload["values"]["A\n#X"]["B"] == pytest.approx(0.5)


def test_each_column_is_validated_once_and_never_stacked(capsys, tmp_path, monkeypatch):
    path = write_csv(tmp_path, "four.csv", "a,b,c,d\n1,2,3,4\n2,1,4,3\n3,3,1,1\n5,4,2,6\n")
    scans = []
    original = minrel.ranks._finite_copy

    def counting(rows, names):
        scans.append(tuple(names))
        return original(rows, names)

    monkeypatch.setattr(minrel.ranks, "_finite_copy", counting)
    for argv in (
        ("coeff", path),
        ("coeff", path, "--x", "c", "--y", "a", "--metric", "pearson"),
        ("coeff", path, "--orientation", "+-"),
        ("matrix", path, "--metric", "spearman"),
        ("rank", path, "--target", "d"),
    ):
        scans.clear()
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        # One check per dataset: one scan of the batch covers every column.
        assert scans == [("a", "b", "c", "d")], argv
    # No matrix, ranking or experiment path copies the values a second time:
    # the (m, n) values are a view of the batch.
    ds = read_dataset(path, "error")
    pairwise_matrix(ds, "iota")
    minrel_profile_matrix(ds)
    for criterion in CRITERIA:
        rank_variables(ds, "a", criterion)
    assert np.shares_memory(ds.values, ds.batch.values)
    monkeypatch.setattr(Dataset, "values", property(lambda ds: pytest.fail("values was read")))
    for name in EXPERIMENTS:
        run_experiment(name, 2, 20, 0)


def test_output_io_failure_exits_4(capsys, linear_csv, tmp_path):
    target = str(tmp_path / "missing_dir" / "out.json")
    code, _, err = run_cli(capsys, "coeff", linear_csv, "--output", target)
    assert code == 4 and "i/o error" in err


class _NoMemory:
    """numpy as ``minrel.matrix`` sees it, except that ``empty`` fails as a huge allocation does."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, *args, **kwargs):
        raise MemoryError(f"Unable to allocate 7.45 GiB for an array with shape {shape}")


def test_out_of_memory_exits_4_with_one_line(capsys, tmp_path, monkeypatch):
    path = write_csv(tmp_path, "three.csv", "a,b,c\n1,2,3\n2,1,4\n3,3,1\n")
    output = tmp_path / "out.json"
    monkeypatch.setattr(minrel.matrix, "np", _NoMemory())
    for form in ("json", "csv"):
        code, out, err = run_cli(capsys, "matrix", path, "--format", form, "--output", str(output))
        assert (code, out) == (4, "") and not output.exists()
        assert err == (
            "error: out of memory: the dense 3 x 3 matrix: "
            "Unable to allocate 7.45 GiB for an array with shape (3, 3)\n"
        )
    # Any other command prints the allocation's own message, or says that one failed.
    def no_memory(*args):
        raise MemoryError()

    monkeypatch.setattr(cli, "rank_variables", no_memory)
    code, out, err = run_cli(capsys, "rank", path, "--target", "a")
    assert (code, out, err) == (4, "", "error: out of memory: an allocation failed\n")


def test_out_of_memory_on_a_walk_thread_exits_4_with_one_line(capsys, tmp_path, monkeypatch):
    # One row per rank block, dealt to two threads: the second block, column b,
    # ranks on the second thread, and its failed allocation ends the command.
    path = write_csv(tmp_path, "three.csv", "a,b,c\n1,20,3\n2,10,4\n3,30,1\n")
    monkeypatch.setattr(minrel.ranks, "_BLOCK_BYTES", 8)
    monkeypatch.setattr(minrel.ranks, "_THREAD_WORK", 1)
    monkeypatch.setattr(minrel.ranks, "_available_cpus", lambda: 2)
    original, failed_on = minrel.ranks.fractional_ranks, []

    def ranks(values):
        if values[0, 0] == 20:
            failed_on.append(threading.current_thread())
            raise MemoryError("Unable to allocate 7.45 GiB for an array with shape (1, 3)")
        return original(values)

    monkeypatch.setattr(minrel.ranks, "fractional_ranks", ranks)
    code, out, err = run_cli(capsys, "rank", path, "--target", "a")
    assert (code, out) == (4, "") and failed_on != [threading.main_thread()]
    assert err == "error: out of memory: Unable to allocate 7.45 GiB for an array with shape (1, 3)\n"


def test_closed_stdout_exits_4_without_a_message():
    # About 1 MB of output, far above a pipe's buffer: the writer meets the
    # closed pipe whatever the timing.
    package_root = os.path.dirname(os.path.dirname(minrel.__file__))
    env = {**os.environ, "PYTHONPATH": package_root}
    argv = [sys.executable, "-m", "minrel.cli", "gen", "combined", "--m", "20000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().startswith(b"# config: ")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 4
    assert err == b""


class _ShortWrites(io.BytesIO):
    """A stdout buffer that takes at most 5 bytes per write, as a pipe closed mid-write does."""

    def write(self, data):
        return super().write(bytes(data)[:5])


def test_short_write_to_stdout_exits_4_without_a_message(capsys, linear_csv, monkeypatch):
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(_ShortWrites(), encoding="utf-8"))
    assert main(["coeff", linear_csv]) == 4
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("encoding", ["ascii", "latin-1", "utf-16"])
def test_stdout_gets_the_utf8_bytes_of_output_files(capsys, tmp_path, monkeypatch, encoding):
    path = tmp_path / "names.csv"
    path.write_bytes("\u00e9,\u2603\n1,2\n2,1\n3,3\n".encode())
    for command in (["matrix"], ["rank", "--target", "\u00e9"], ["coeff", "--format", "csv"]):
        out = tmp_path / "out"
        assert main([command[0], str(path), *command[1:], "--output", str(out)]) == 0
        stdout = io.TextIOWrapper(io.BytesIO(), encoding=encoding)
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stdout)
            assert main([command[0], str(path), *command[1:]]) == 0
        assert stdout.buffer.getvalue() == out.read_bytes()


@pytest.mark.parametrize("form", ["json", "csv"])
def test_output_file_needs_no_stdout(capsys, linear_csv, tmp_path, monkeypatch, form):
    expected = tmp_path / "expected"
    assert main(["matrix", linear_csv, "--format", form, "--output", str(expected)]) == 0
    monkeypatch.setattr(sys, "stdout", None)  # as Python starts with fd 1 closed
    out = tmp_path / "out"
    assert main(["matrix", linear_csv, "--format", form, "--output", str(out)]) == 0
    assert out.read_bytes() == expected.read_bytes()
    assert capsys.readouterr().err == ""


class _ClosedPipe(io.BytesIO):
    """An output file whose reader has gone, as a FIFO's does."""

    def write(self, data):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_output_pipe_exits_4_with_no_stdout(capsys, linear_csv, monkeypatch):
    def fifo_open(path, mode):
        return _ClosedPipe() if mode == "wb" else open(path, mode)

    monkeypatch.setattr(cli, "open", fifo_open, raising=False)
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["matrix", linear_csv, "--output", "fifo"]) == 4
    assert capsys.readouterr().err == ""


def test_missing_input_exits_4(capsys, tmp_path):
    code, _, err = run_cli(capsys, "coeff", str(tmp_path / "absent.csv"))
    assert code == 4


def test_closed_stdin_exits_4_with_one_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", None)  # as Python starts with fd 0 closed
    code, out, err = run_cli(capsys, "matrix", "-")
    assert code == 4 and out == ""
    assert err == "i/o error: [Errno 9] Bad file descriptor: '<stdin>'\n"


def test_config_records_rows_read_and_dropped(capsys, tmp_path):
    path = write_csv(tmp_path, "na.csv", "x,y\n1,2\n2,NA\n3,1\n4,4\n")
    commands = (
        ("coeff",),
        ("matrix", "--metric", "spearman"),
        ("rank", "--target", "x", "--criterion", "rho2"),
    )
    expected = {"m": 3, "rows_read": 4, "rows_dropped": 1}
    for command in commands:
        argv = [command[0], path, *command[1:], "--na", "drop-rows"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        config = json.loads(out)["config"]
        assert {key: config[key] for key in expected} == expected
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0, err
        assert out.startswith("# config: ")
        assert " m=3 " in out.splitlines()[0]
        assert " rows_dropped=1 rows_read=4 " in out.splitlines()[0]
        code, _, err = run_cli(capsys, command[0], path, *command[1:])
        assert code == 2 and "data row 2, column 'y'" in err


@pytest.mark.parametrize(
    "skipped", ["", " \t ", "# a note"], ids=["blank", "whitespace", "comment"]
)
def test_data_row_n_is_the_nth_data_record(capsys, tmp_path, skipped):
    # A skipped line is no data row: whatever it is, the row after it is data row 2.
    for bad, message in (
        ("3,x", "data row 2, column 'y': cannot parse 'x' as a number"),
        ("3,4,5", "data row 2: expected 2 cells, found 3"),
    ):
        path = write_csv(tmp_path, "bad.csv", f"x,y\n1,2\n{skipped}\n{bad}\n4,1\n")
        code, out, err = run_cli(capsys, "coeff", path)
        assert (code, out, err) == (2, "", f"error: {message}\n")
    # The last row's number is the rows_read of a run that drops it.
    path = write_csv(tmp_path, "na.csv", f"x,y\n1,2\n{skipped}\n3,1\n{skipped}\n4,2\n5,NA\n")
    code, _, err = run_cli(capsys, "coeff", path)
    assert code == 2 and err.startswith("error: data row 4, column 'y': missing")
    code, out, err = run_cli(capsys, "coeff", path, "--na", "drop-rows")
    assert code == 0, err
    assert json.loads(out)["config"]["rows_read"] == 4


# Cells the bulk parse reads exactly as float() does, and cells it must
# leave to the record loop: NA tokens, non-finite values, quoted cells,
# digit separators, full-width digits, text.
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: format(v, ".25g")),
    st.sampled_from(
        ["5e-324", "2.2250738585072014e-308", "1e308", "1.7976931348623157e308",
         "1e-400", "-0", "0.0", "+1", "1.", ".5", "1E5", "7"]
    ),
)
ODD_CELLS = st.sampled_from(
    ["", "NA", "nan", "null", " NaN ", "inf", "-inf", "1e999", '"1.5"', '"1\n2"', '"1',
     "1_0", "\uff11", "1#5", "abc"]
)
PADDING = st.sampled_from(["", " ", "\t", "\xa0", "\u2003"])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x1c", "\x85", "\u2028"])
NAMES = ["a", "b", "c", '"q,1"', '"x\ny"', '"#h"', " d "]


@st.composite
def csv_texts(draw):
    """CSV text with dialect noise: a clean numeric body or a noisy one."""
    clean = draw(st.booleans())
    n = draw(st.integers(1, 3))
    header = draw(st.lists(st.sampled_from(NAMES), min_size=n, max_size=n, unique=True))
    lines = [",".join(header)]
    body_width = n if clean else draw(st.sampled_from([n, n, n + 1]))
    cells = NUMBERS if clean else st.one_of(NUMBERS, NUMBERS, NUMBERS, ODD_CELLS)
    widths = [n] if clean else [body_width] * 4 + [n - 1, n + 1]
    for _ in range(draw(st.integers(0, 6))):
        width = draw(st.sampled_from(widths))
        row = [draw(PADDING) + draw(cells) + draw(PADDING) for _ in range(width)]
        lines.append(",".join(row))
    for _ in range(draw(st.integers(0, 2))):
        noise = st.sampled_from(["", " \t"] if clean else ["", " \t", "# note", "# a,b"])
        lines.insert(draw(st.integers(0, len(lines))), draw(noise))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + "".join(line + draw(LINE_ENDS) for line in lines)


def _read(text, na_policy):
    """read_dataset on ``text`` as stdin, as comparable bytes or the error message."""
    with mock.patch.object(sys, "stdin", _stdin(text)):
        try:
            dataset = read_dataset("-", na_policy)
        except InvalidInputError as exc:
            return str(exc)
    return dataset.names, dataset.values.shape, dataset.values.tobytes(), dataset.rows_dropped


@settings(max_examples=400, deadline=None)
@given(csv_texts(), st.sampled_from(["error", "drop-rows"]))
@example("x\n1#5\n2\n3\n", "error")
@example("x\n1,2\n3,4\n", "drop-rows")
@example("x,y\n1,inf\n2,3\n3,4\n", "drop-rows")
@example('x,y\n1,2\n3,"4\n', "error")
def test_bulk_parse_equals_the_record_loop(text, na_policy):
    read = _read(text, na_policy)
    with mock.patch.object(cli, "_bulk_dataset", lambda *args: None):
        assert read == _read(text, na_policy)


def test_plain_numeric_body_never_reaches_the_record_loop(capsys, tmp_path, monkeypatch):
    path = write_csv(
        tmp_path, "plain.csv", "# made by hand\nx,y,z\n1,2e-3,-0\n\n2.5,1E5,7\n-3,0.1,5e-324\n"
    )

    def record_loop(*args):
        raise AssertionError("the record loop parsed a plain numeric body")

    monkeypatch.setattr(cli, "_record_values", record_loop)
    dataset = read_dataset(path, "error")
    assert dataset.names == ("x", "y", "z")
    assert dataset.values.tobytes() == np.array(
        [[1, 2e-3, -0.0], [2.5, 1e5, 7], [-3, 0.1, 5e-324]]
    ).tobytes()
    code, out, err = run_cli(capsys, "rank", path, "--target", "x")
    assert code == 0, err
    assert json.loads(out)["config"]["rows_read"] == 3


@pytest.mark.parametrize(
    "command",
    [("coeff", "--x", "A\nX"), ("rank", "--target", "A\nX", "--relevant", "B")],
    ids=["coeff", "rank"],
)
def test_config_line_keeps_a_line_break_in_a_value(capsys, tmp_path, command):
    path = write_csv(tmp_path, "nl.csv", '"A\nX",B,C\n1,2,3\n2,1,5\n3,3,4\n4,5,1\n')
    code, out, err = run_cli(capsys, command[0], path, *command[1:], "--format", "csv")
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0].startswith("# config: ")
    assert not lines[1].startswith("#")
    assert lines[1] in ("metric,value,degenerate,m", "position,name,score")
    assert '="A\\nX" ' in lines[0]


def test_config_line_writes_line_breaks_as_json_literals():
    breaks = {ch for ch in map(chr, range(0x110000)) if len(f"a{ch}b".splitlines()) > 1}
    assert breaks == cli._LINE_BREAKS
    for ch in breaks:
        line = cli._config_line({"x": f"a{ch}b"})
        assert line.splitlines() == [line[:-1]]
        assert json.loads(line[len("# config: x=") : -1]) == f"a{ch}b"
    plain = {"a": 'q"u o\tt,e', "b": "", "c": False, "d": 3, "e": "A\\nX"}
    assert cli._config_line(plain) == '# config: a=q"u o\tt,e b= c=False d=3 e=A\\nX\n'


def test_duplicate_column_name_is_named(capsys, tmp_path):
    path = write_csv(tmp_path, "dup.csv", "x,y,z,y,x\n1,2,3,4,5\n2,3,4,5,6\n")
    code, out, err = run_cli(capsys, "matrix", path)
    assert code == 2 and out == ""
    assert "unique" in err and "'y'" in err and "'x'" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "triangle", "--m", "5", "--seed", "-1"),
        ("experiment", "table2", "--reps", "2", "--m", "10", "--seed", "-1"),
        ("experiment", "table3", "--reps", "2", "--m", "10", "--seed", "-1", "--format", "csv"),
    ],
    ids=["gen", "experiment", "experiment-csv"],
)
def test_negative_seed_exits_2(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "seed must be an integer >= 0, got -1" in err
    output = tmp_path / "out"
    assert run_cli(capsys, *argv, "--output", str(output))[0] == 2
    assert not output.exists()


def test_input_that_is_not_utf8_exits_2_naming_the_line(capsys, tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"A,B\n1,2\n3,\xe94\n5,6\n")
    for command in (("coeff",), ("matrix",), ("rank", "--target", "A")):
        code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
        assert code == 2 and out == ""
        assert "input is not UTF-8: byte 0xe9 on line 3" in err
    # Lines are counted in the whole file, past a decoder's first chunk, at
    # every line ending a text-mode read accepts.
    path.write_bytes(b"A,B\r\n" + b"1,2\r\n" * 3000 + b"3,4\r5,\xff\n")
    code, _, err = run_cli(capsys, "coeff", str(path))
    assert code == 2 and "byte 0xff on line 3003" in err


def test_stdin_that_is_not_utf8_exits_2_naming_the_line(capsys, tmp_path, monkeypatch):
    # Stdin bytes go through the file decoder: no garbled name on stdout and
    # no encoding traceback when the output is a file.
    output = tmp_path / "out.csv"
    for extra in ((), ("--output", str(output))):
        stdin = io.TextIOWrapper(io.BytesIO(b"A\xe9,B\n1,2\n2,1\n3,3\n"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run_cli(capsys, "matrix", "-", "--format", "csv", *extra)
        assert code == 2 and out == ""
        assert "input is not UTF-8: byte 0xe9 on line 1" in err
    assert not output.exists()


def test_file_input_decodes_as_text_mode_does(tmp_path):
    path = tmp_path / "endings.csv"
    path.write_bytes('\ufeffA,"B\r\nx\u00e9"\r\n1,2\r3,4\n5,6\r\n'.encode())
    dataset = read_dataset(str(path), "error")
    assert dataset.names == ("A", "B\nx\u00e9")
    assert dataset.values.tolist() == [[1, 2], [3, 4], [5, 6]]


#: The characters that ``str.splitlines`` breaks a line on and csv does not.
SPLITLINES_ONLY = sorted(cli._LINE_BREAKS - {"\n", "\r"})


@pytest.mark.parametrize("char", SPLITLINES_ONLY, ids=[f"U+{ord(c):04X}" for c in SPLITLINES_ONLY])
def test_only_newlines_end_a_line(tmp_path, char):
    # As csv and a text-mode file read it: in a header name, and in a quoted cell.
    path = tmp_path / "input.csv"
    path.write_bytes(f"a{char}b,c\n1,2\n3,4\n2,5\n".encode())
    assert read_dataset(str(path), "error").names == (f"a{char}b", "c")
    path.write_bytes(f'a,b\n"1{char}",2\n3,"{char}4"\n'.encode())
    assert read_dataset(str(path), "error").values.tolist() == [[1, 2], [3, 4]]


def _bits(value):
    return struct.pack("<d", value)


def _criterion_score(criterion, candidate, target):
    """Each criterion's definition, from the public two-column calls."""
    if criterion == "max_iota_sq":
        return max_iota_sq(candidate, target)
    if criterion == "rho2":
        value = spearman(candidate, target).value
    else:
        value = rank_minrelation(target, candidate).value
    return value * value


@st.composite
def tied_datasets(draw):
    """A small tie-heavy CSV with dialect noise, and the Dataset its cells define.

    The noise (a BOM, LF or CRLF endings, blank, whitespace-only and '#'
    comment lines, quoted numeric cells and NA rows to drop) sends some
    files through the reader's bulk parse and the rest through its record
    loop. The expected Dataset is built from the drawn cells, not read back.
    """
    names = draw(
        st.lists(
            st.sampled_from(["A", "b,c", 'd"e', '"f"', 'g, "h"', "i j", "k\fl", "m\u2028n"]),
            min_size=2, max_size=4, unique=True,
        )
    )
    cells = st.sampled_from(["-2", "-1", "-0.5", "-0.0", "0", "0.5", "1", "2", "1e-300", "3.25"])
    row_cells = st.lists(cells, min_size=len(names), max_size=len(names))
    rows = draw(st.lists(row_cells, min_size=2, max_size=8))
    expected = Dataset(
        names=tuple(names), values=np.array([[float(cell) for cell in row] for row in rows])
    )
    dropped = draw(st.integers(0, 2))
    for _ in range(dropped):
        row = draw(row_cells)
        row[draw(st.integers(0, len(names) - 1))] = "NA"
        rows.insert(draw(st.integers(0, len(rows))), row)
    quoted = draw(st.booleans())
    header = io.StringIO()
    csv.writer(header, lineterminator="").writerow(names)
    lines = [header.getvalue()]
    for row in rows:
        lines.append(",".join(f'"{c}"' if quoted and draw(st.booleans()) else c for c in row))
    for _ in range(draw(st.integers(0, 2))):
        noise = draw(st.sampled_from(["", " \t", "# note", "# a,b"]))
        lines.insert(draw(st.integers(0, len(lines))), noise)
    bom = "\ufeff" if draw(st.booleans()) else ""
    text = bom + "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    return text, expected, dropped


@settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    tied_datasets(),
    st.sampled_from(METRICS),
    st.sampled_from(MATRIX_METRICS),
    st.sampled_from(CRITERIA),
    st.data(),
)
def test_cli_output_equals_the_direct_calls(
    tmp_path, dataset_csv, metric, matrix_metric, criterion, data
):
    text, dataset, dropped = dataset_csv
    m = dataset.m
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    names = dataset.names
    read = read_dataset(str(path), "drop-rows")
    assert read.names == names and read.values.tobytes() == dataset.values.tobytes()
    x, y = (data.draw(st.sampled_from(names)) for _ in range(2))
    target = data.draw(st.sampled_from(names))

    def run(*argv):
        out = tmp_path / "out.json"
        command, *options = argv
        assert main([command, str(path), *options, "--na", "drop-rows", "--output", str(out)]) == 0
        written = out.read_bytes()
        payload = json.loads(written)
        counts = [payload["config"][key] for key in ("m", "rows_read", "rows_dropped")]
        assert counts == [m, m + dropped, dropped]
        return payload, written

    def run_csv(*argv):
        """The records of the CSV result, without its comment lines."""
        out = tmp_path / "out.csv"
        command, *options = argv
        argv = [command, str(path), *options, "--na", "drop-rows", "--format", "csv"]
        assert main([*argv, "--output", str(out)]) == 0
        lines = io.StringIO(out.read_bytes().decode("utf-8"), newline="")  # lines as csv reads them
        return list(csv.reader(line for line in lines if not line.startswith("#")))

    payload, _ = run("coeff", "--x", x, "--y", y, "--metric", metric)
    direct = evaluate_metric(dataset.column(x), dataset.column(y), metric)
    assert _bits(payload["value"]) == _bits(direct.value)
    assert payload["degenerate"] == direct.degenerate and payload["m"] == m

    payload, serial = run("matrix", "--metric", matrix_metric)
    cpus = data.draw(st.integers(2, 4))  # threads however small the matrix
    with mock.patch.multiple(minrel.ranks, _THREAD_WORK=1, _available_cpus=lambda: cpus):
        assert run("matrix", "--metric", matrix_metric)[1] == serial
    # CSV: the value table, then the degenerate table, each headed by the names.
    records = run_csv("matrix", "--metric", matrix_metric)
    n = len(names)
    assert records[0] == records[n + 1] == ["", *names]
    for i, a in enumerate(names):
        value_row, flag_row = records[1 + i], records[n + 2 + i]
        assert value_row[0] == flag_row[0] == a
        for j, b in enumerate(names):
            direct = evaluate_metric(dataset.column(a), dataset.column(b), matrix_metric)
            assert _bits(payload["values"][a][b]) == _bits(direct.value)
            assert payload["degenerate"][a][b] == direct.degenerate
            assert value_row[1 + j] == format(direct.value, ".12g")
            assert flag_row[1 + j] == ("true" if direct.degenerate else "false")

    payload, _ = run("rank", "--target", target, "--criterion", criterion)
    scores = {
        name: _criterion_score(criterion, dataset.column(name), dataset.column(target))
        for name in names
        if name != target
    }
    expected = sorted(scores, key=lambda name: (-scores[name], names.index(name)))
    assert [entry["name"] for entry in payload["ranking"]] == expected
    for entry in payload["ranking"]:
        assert _bits(entry["score"]) == _bits(scores[entry["name"]])
    records = run_csv("rank", "--target", target, "--criterion", criterion)
    assert records == [["position", "name", "score"]] + [
        [str(position), name, format(scores[name], ".12g")]
        for position, name in enumerate(expected, start=1)
    ]


def _per_cell(value):
    """The CSV spelling of one cell, type by type, as the writer spelled every cell before grids."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return format(value, ".12g") if isinstance(value, float) else str(value)


_HOSTILE = st.text(st.sampled_from(['"', "\\", ",", "\n", "\r", " ", "é", "Z", "a", " "]))


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    names=st.lists(_HOSTILE | st.text(), min_size=1, max_size=6, unique=True),
    data=st.data(),
)
@example(names=["b,1", "Z", 'a"q', "é", "back\\slash", "line\nbreak"], data=None)
def test_grid_writer_equals_the_dict_of_dicts_and_per_cell_writers(tmp_path, names, data):
    n = len(names)
    special = st.sampled_from([-0.0, 0.0, 5e-324, 0.1 + 0.2, 1.0, -1.0])
    cells = special | st.floats(allow_nan=False, allow_infinity=False)
    if data is None:  # the explicit example: every special value, in turn
        values = np.resize([-0.0, 5e-324, 0.1 + 0.2, 1.0, -1.0], (n, n))
        flags = np.arange(n * n).reshape(n, n) % 3 == 0
    else:
        values = np.array(data.draw(st.lists(cells, min_size=n * n, max_size=n * n)))
        values = values.reshape(n, n)
        flags = np.array(data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
        flags = flags.reshape(n, n)
    _assert_grids_written_per_cell(tmp_path, names, values, flags)


def test_a_grid_of_repeats_spells_every_cell_as_the_per_cell_writer_does(tmp_path):
    # The grid spells each distinct bit pattern once: -0.0 and 0.0 stay apart,
    # and a value repeated across rows and columns keeps its one spelling.
    names = ["a", "b", "c", "d"]
    values = np.array([0.0, -0.0, 0.1 + 0.2, 0.3, 1 / 3, 0.0, -0.0, 0.3, 1 / 3, 5e-324] * 2)[:16]
    flags = np.array([True, True, False, True] * 4)
    _assert_grids_written_per_cell(tmp_path, names, values.reshape(4, 4), flags.reshape(4, 4))
    symmetric = values.reshape(4, 4) + values.reshape(4, 4).T  # a symmetric matrix's repeats
    _assert_grids_written_per_cell(tmp_path, names, symmetric, flags.reshape(4, 4).T)


def _assert_grids_written_per_cell(tmp_path, names, values, flags):
    """Both writers of a values grid and a flags grid give the per-cell writers' bytes."""
    grids = [cli._Grid(tuple(names), values), cli._Grid(tuple(names), flags)]
    config = {"command": "matrix", "input": names[0], "m": 7}
    fields = {"metric": "iota", "names": names, "values": grids[0], "degenerate": grids[1]}
    path = tmp_path / "out"

    def written(fmt):
        cli._write(argparse.Namespace(format=fmt, output=str(path)), config, fields, sections)
        return path.read_bytes().decode("utf-8")

    sections = [grids[0], "# degenerate\n", grids[1]]
    as_dicts = {
        key: {x: dict(zip(names, row)) for x, row in zip(names, grid.cells.tolist())}
        for key, grid in (("values", grids[0]), ("degenerate", grids[1]))
    }
    expected = json.dumps({**fields, **as_dicts, "config": config}, indent=2, sort_keys=True)
    assert written("json") == expected + "\n"

    buffer = io.StringIO()
    buffer.write(cli._config_line(config))
    writer = csv.writer(buffer, lineterminator="\n")
    for part in (values, "# degenerate\n", flags):
        if isinstance(part, str):
            buffer.write(part)
            continue
        table = [["", *names], *([x, *row] for x, row in zip(names, part.tolist()))]
        writer.writerows(map(_per_cell, row) for row in table)
    assert written("csv") == buffer.getvalue()


def test_the_parser_is_built_once_and_keeps_no_state_between_calls(capsys, linear_csv):
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run_cli(capsys, "coeff", linear_csv, "--metric", "spearman", "--format", "csv")
    assert code == 0 and "metric=spearman" in out
    with pytest.raises(SystemExit) as exit_info:
        main(["matrix", linear_csv, "--metric", "no-such-metric"])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_info:  # the thread count is not an option
        main(["matrix", linear_csv, "--workers", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    # The defaults of the first call's subcommand are as they were.
    code, out, _ = run_cli(capsys, "coeff", linear_csv)
    assert code == 0 and json.loads(out)["config"]["metric"] == "iota"
    assert json.loads(out)["config"]["format"] == "json"
