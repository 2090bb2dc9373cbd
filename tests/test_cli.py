"""Command-line behaviour: formats, exit codes, golden output."""

import random
import sys

import pytest

from todasnf import DenseMatrix, ExactDivisionError, PolyModP, ZZ
from todasnf.cli import (
    EXIT_CAP,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VERIFY,
    MAX_ITERS_ENV,
    MatrixParseError,
    build_parser,
    main,
    parse_matrix_text,
    render_matrix_text,
)

EXAMPLE_TEXT = """\
ring: int
rows: 3
cols: 3
2 0 0
4 6 0
0 3 9
"""

TRACE_LINES = [
    "q: 2 6 9 | e: 4 3",
    "q: 2 3 18 | e: 12 9",
    "q: 2 3 18 | e: 18 54",
    "q: 2 3 18 | e: 27 324",
    "q: 1 6 18 | e: 81 972",
]


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.txt"
    path.write_text(EXAMPLE_TEXT)
    return str(path)


def _write(tmp_path, text):
    path = tmp_path / "matrix.txt"
    path.write_text(text)
    return str(path)


def test_parse_matrix_round_trip():
    matrix = parse_matrix_text(EXAMPLE_TEXT)
    assert matrix == DenseMatrix(ZZ, [[2, 0, 0], [4, 6, 0], [0, 3, 9]])
    assert render_matrix_text(matrix) == EXAMPLE_TEXT
    assert parse_matrix_text(render_matrix_text(matrix)) == matrix


def test_parse_skips_comments_and_blanks():
    text = "# header\n\nring: int\n rows: 2 \ncols: 1\n# body\n3\n-4\n\n"
    matrix = parse_matrix_text(text)
    assert matrix == DenseMatrix(ZZ, [[3], [-4]])


def test_parse_poly_matrix():
    text = "ring: polymod 5\nrows: 1\ncols: 2\n[1,0,3] [0]\n"
    matrix = parse_matrix_text(text)
    assert matrix.ring == PolyModP(5)
    assert matrix[0, 0].payload == (1, 0, 3)
    assert render_matrix_text(matrix) == text


def test_parse_random_render_round_trip():
    rng = random.Random(61)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        matrix = DenseMatrix(ZZ, [
            [rng.randint(-99, 99) for _ in range(n)] for _ in range(m)
        ])
        assert parse_matrix_text(render_matrix_text(matrix)) == matrix
    ring = PolyModP(3)
    for _ in range(40):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        matrix = DenseMatrix(ring, [
            [[rng.randrange(3) for _ in range(rng.randint(0, 3))]
             for _ in range(n)]
            for _ in range(m)
        ])
        assert parse_matrix_text(render_matrix_text(matrix)) == matrix


def test_parse_errors_carry_line_numbers():
    bad = [
        ("rows: 2\ncols: 2\n1 0\n0 1\n", 1),
        ("ring: gaussian\nrows: 1\ncols: 1\n1\n", 1),
        ("ring: polymod 4\nrows: 1\ncols: 1\n[1]\n", 1),
        ("ring: int\nrows: 0\ncols: 1\n", 2),
        ("ring: int\nrows: 1\ncols: two\n1\n", 3),
        ("ring: int\nrows: 1\ncols: 2\n1\n", 4),
        ("ring: int\nrows: 1\ncols: 1\nx\n", 4),
        ("ring: int\nrows: 1\ncols: 1\n1\n2\n", 5),
        ("ring: int\nrows: 2\ncols: 1\n1\n", 5),
    ]
    for text, lineno in bad:
        with pytest.raises(MatrixParseError) as info:
            parse_matrix_text(text)
        assert info.value.lineno == lineno, f"{text!r}: {info.value}"


def test_snf_command_golden(example_file, capsys):
    assert main(["snf", example_file]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == ["1", "6", "18"]


def test_snf_trace_output(example_file, capsys):
    assert main(["snf", example_file, "--trace"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == TRACE_LINES + ["1", "6", "18"]


def test_snf_classical_matches(example_file, capsys):
    assert main(["snf", example_file, "--method", "classical"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["1", "6", "18"]


def test_snf_verify_ok(example_file, capsys):
    assert main(["snf", example_file, "--verify"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "verify: ok" in captured.err


def test_snf_verify_failure_exit_code(example_file, capsys, monkeypatch):
    import todasnf.cli as cli_module

    monkeypatch.setattr(cli_module, "verify", lambda *_: False)
    assert main(["snf", example_file, "--verify"]) == EXIT_VERIFY
    assert "verify: FAILED" in capsys.readouterr().err


def test_snf_zero_factor_trimming(tmp_path, capsys):
    path = _write(tmp_path, "ring: int\nrows: 2\ncols: 2\n1 2\n2 4\n")
    assert main(["snf", path]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["1"]
    assert "trimmed 1 zero factor" in captured.err
    assert main(["snf", path, "--keep-zeros"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["1", "0"]


def test_snf_poly_output(tmp_path, capsys):
    path = _write(
        tmp_path,
        "ring: polymod 2\nrows: 2\ncols: 2\n[0,1] [0]\n[1] [1,1]\n",
    )
    assert main(["snf", path, "--verify"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["[1]", "[0,1,1]"]
    assert "verify: ok" in captured.err


def test_snf_cap_exceeded(example_file, capsys):
    assert main(["snf", example_file, "--max-iters", "2"]) == EXIT_CAP
    assert "error:" in capsys.readouterr().err


def test_env_cap_override(example_file, capsys, monkeypatch):
    monkeypatch.setenv(MAX_ITERS_ENV, "2")
    assert main(["snf", example_file]) == EXIT_CAP
    capsys.readouterr()
    # An explicit flag wins over the environment.
    assert main(["snf", example_file, "--max-iters", "8"]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setenv(MAX_ITERS_ENV, "eight")
    assert main(["snf", example_file]) == EXIT_PARSE
    assert MAX_ITERS_ENV in capsys.readouterr().err
    # The parser is built once, but the variable is read on every call.
    monkeypatch.delenv(MAX_ITERS_ENV)
    assert main(["snf", example_file]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["1", "6", "18"]


def test_missing_file_is_parse_error(capsys):
    assert main(["snf", "/nonexistent/matrix.txt"]) == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_malformed_file_reports_line(tmp_path, capsys):
    path = _write(tmp_path, "ring: int\nrows: 1\ncols: 2\n1\n")
    assert main(["snf", path]) == EXIT_PARSE
    assert "line 4" in capsys.readouterr().err


def test_error_texts(tmp_path, capsys):
    # Every error is one "error: ..." line from main; --verify refuses an
    # oversized matrix before any factor prints.
    seven = "\n".join(" ".join("1" if i == j else "0" for j in range(7))
                      for i in range(7))
    cases = [
        (["toda-trace"], "ring: int\nrows: 1\ncols: 2\n1 2\n", "",
         "error: toda-trace needs a square lower bidiagonal matrix\n"),
        (["toda-trace"], "ring: int\nrows: 2\ncols: 2\n0 0\n3 4\n", "",
         "error: interior diagonal entries must be nonzero\n"),
        (["snf", "--verify"], f"ring: int\nrows: 7\ncols: 7\n{seven}\n", "",
         "error: --verify enumerates minors and needs min(rows, cols) <= 6\n"),
        (["snf"], "ring: int\nrows: 1\ncols: 2\n1\n", "",
         "error: line 4: expected 2 entries, got 1\n"),
    ]
    for argv, text, out, err in cases:
        path = _write(tmp_path, text)
        assert main([argv[0], path, *argv[1:]]) == EXIT_PARSE, argv
        assert capsys.readouterr() == (out, err), argv


def test_inexact_division_is_an_internal_error(example_file, capsys,
                                               monkeypatch):
    import todasnf.cli as cli_module

    def failing(*_):
        raise ExactDivisionError("4 does not divide 6")

    monkeypatch.setattr(cli_module, "smith_normal_form", failing)
    assert main(["snf", example_file]) == EXIT_INTERNAL == 4
    assert capsys.readouterr() == ("", "error: 4 does not divide 6\n")


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_usage_errors_exit_one(capsys):
    assert main([]) == EXIT_PARSE
    capsys.readouterr()
    assert main(["snf"]) == EXIT_PARSE
    capsys.readouterr()
    assert main(["snf", "x", "--method", "magic"]) == EXIT_PARSE
    capsys.readouterr()
    assert main(["--help"]) == EXIT_OK
    assert "usage" in capsys.readouterr().out.lower()


def test_bbs_golden(capsys):
    assert main([
        "bbs", "Q:4,3,1;E:3,2", "--steps", "4", "--pad-left", "1",
        "--pad-right", "1",
    ]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "011110001110010000000000000000",
        "000001110001101110000000000000",
        "000000001110010001111000000000",
        "000000000001101100000111100000",
        "000000000000010011100000011110",
        "conserved: 1 4 8",
    ]


def test_bbs_single_ball(capsys):
    assert main(["bbs", "Q:1;E:", "--steps", "2"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == ["100", "010", "001", "conserved: 1"]


def test_bbs_bad_literal(capsys):
    assert main(["bbs", "Q:1,2"]) == EXIT_PARSE
    capsys.readouterr()
    assert main(["bbs", "Q:0,2;E:1"]) == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_toda_trace_steps(example_file, capsys):
    assert main(["toda-trace", example_file, "--steps", "4"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 5
    for line, expected in zip(out, TRACE_LINES):
        assert line == f"{expected} | d: 1 6 108"


def test_toda_trace_zero_steps_echoes_seed(example_file, capsys):
    assert main(["toda-trace", example_file, "--steps", "0"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == ["q: 2 6 9 | e: 4 3 | d: 1 6 108"]


def test_toda_trace_rejects_non_bidiagonal(tmp_path, capsys):
    path = _write(tmp_path, "ring: int\nrows: 2\ncols: 2\n1 2\n3 4\n")
    assert main(["toda-trace", path]) == EXIT_PARSE
    capsys.readouterr()
    path = _write(tmp_path, "ring: int\nrows: 1\ncols: 2\n1 2\n")
    assert main(["toda-trace", path]) == EXIT_PARSE
    capsys.readouterr()
    path = _write(tmp_path, "ring: int\nrows: 2\ncols: 2\n0 0\n3 4\n")
    assert main(["toda-trace", path]) == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_entries_above_the_int_digit_limit(tmp_path, capsys):
    # Python refuses int <-> str conversions past 4300 digits by default.
    digits = "7" * 5000
    path = _write(tmp_path, f"ring: int\nrows: 1\ncols: 1\n{digits}\n")
    limit = sys.get_int_max_str_digits()
    assert main(["snf", path]) == EXIT_OK
    assert capsys.readouterr().out == digits + "\n"
    assert main(["snf", path, "--trace"]) == EXIT_OK
    trace = [f"q: {digits} | e:"] * 2
    assert capsys.readouterr().out.splitlines() == trace + [digits]
    assert sys.get_int_max_str_digits() == limit
