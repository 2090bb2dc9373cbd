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


def test_files_accept_only_ascii_signed_decimals():
    # int(text, 10) would read each of these: digit-group underscores and
    # non-ASCII decimal digits (here ARABIC-INDIC DIGIT THREE).
    bad = [
        ("ring: int\nrows: 1\ncols: 2\n1_000 1\n", 4),
        ("ring: int\nrows: 1\ncols: 2\n1 \u0663\n", 4),
        ("ring: polymod 5\nrows: 1\ncols: 1\n[1_0,2]\n", 4),
        ("ring: polymod 0_5\nrows: 1\ncols: 1\n[1]\n", 1),
        ("ring: int\nrows: 0_1\ncols: 1\n1\n", 2),
    ]
    for text, lineno in bad:
        with pytest.raises(MatrixParseError) as info:
            parse_matrix_text(text)
        assert info.value.lineno == lineno, f"{text!r}: {info.value}"
    matrix = parse_matrix_text("ring: int\nrows: +1\ncols: 2\n+3 -04\n")
    assert matrix == DenseMatrix(ZZ, [[3, -4]])


def test_cli_integers_accept_only_ascii_signed_decimals(example_file, capsys,
                                                       monkeypatch):
    # Flags, the cap variable and state-literal counts follow the matrix
    # file rule; int(text, 10) reads each of these (FULLWIDTH DIGIT TWO,
    # ARABIC-INDIC DIGIT FOUR, a digit-group underscore).
    bad = ("\uff12", "\u0664", "1_0")
    flags = [("bbs", "Q:4,3,1;E:3,2", "--steps"),
             ("bbs", "Q:1;E:", "--pad-left"), ("bbs", "Q:1;E:", "--pad-right"),
             ("snf", example_file, "--max-iters")]
    for argv in flags:
        for raw in bad:
            assert main([*argv, raw]) == EXIT_PARSE, (argv, raw)
            err = capsys.readouterr().err
            assert f"argument {argv[-1]}: not an integer: {raw!r}" in err
    for literal in ("Q:\u0664,3;E:1", "Q:4,3;E:1_0", "Q:4,\uff12;E:1"):
        assert main(["bbs", literal]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: bad count in state literal: {literal!r}\n")
    for raw in bad:
        monkeypatch.setenv(MAX_ITERS_ENV, raw)
        assert main(["snf", example_file]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: {MAX_ITERS_ENV} must be a positive integer, got {raw!r}\n")
    # Signs and the spaces around commas still read as before.
    monkeypatch.setenv(MAX_ITERS_ENV, "+8")
    assert main(["snf", example_file]) == EXIT_OK
    capsys.readouterr()
    assert main(["bbs", "Q: 1 , +1 ;E: 1", "--steps", "+0"]) == EXIT_OK
    assert capsys.readouterr().out == "101\nconserved: 1 2\n"


def test_snf_command_golden(example_file, capsys):
    assert main(["snf", example_file]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == ["1", "6", "18"]


def test_snf_trace_output(example_file, capsys):
    assert main(["snf", example_file, "--trace"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == TRACE_LINES + ["1", "6", "18"]


# Frozen `snf FILE --trace --keep-zeros` output on inputs that are not yet
# bidiagonal, so a reordered or re-signed elimination sweep shows up.
ELIMINATION_GOLDENS = {
    "dense": (
        "ring: int\nrows: 3\ncols: 3\n4 -6 2\n3 5 -7\n-2 8 9\n",
        ["q: 2 1 275 | e: 1 36",
         "q: 1 2 275 | e: 1 4950",
         "q: 1 2 275 | e: 2 680625",
         "q: 1 1 550 | e: 4 187171875",
         "1", "1", "550"],
    ),
    # Rank 2 with a 4x3 shape: the seed gains a zero level under a corner,
    # and both sweeps of the first level meet two nonzero entries.
    "rectangular-corner": (
        "ring: int\nrows: 4\ncols: 3\n8 -8 -4\n-7 7 6\n4 -4 -4\n9 -9 -6\n",
        ["q: 4 3 0 | e: 2 2",
         "q: 2 2 0 | e: 3 0",
         "q: 1 4 0 | e: 6 0",
         "1", "4", "0"],
    ),
    "gf5": (
        "ring: polymod 5\nrows: 3\ncols: 3\n"
        "[1,2] [0,0,1] [3]\n[4,0,1] [2,1] [0,3]\n[1] [1,1,1] [2,0,4]\n",
        ["q: [1] [1,1] [0,1,4,3,4,1] | e: [1] [3,0,1,0,1]",
         "q: [1] [1,1] [0,1,4,3,4,1] | e: [1,1] [0,3,4,1,0,2,1,3,1]",
         "q: [1] [1] [0,1,0,2,2,0,1] | e: [1,2,1] "
         "[0,0,3,1,1,3,4,2,4,4,4,1,2,1]",
         "[1]", "[1]", "[0,1,0,2,2,0,1]"],
    ),
}


@pytest.mark.parametrize("name", sorted(ELIMINATION_GOLDENS))
def test_snf_trace_golden_through_elimination(name, tmp_path, capsys):
    text, expected = ELIMINATION_GOLDENS[name]
    path = _write(tmp_path, text)
    assert main(["snf", path, "--trace", "--keep-zeros"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == expected


def test_snf_classical_matches(example_file, capsys):
    assert main(["snf", example_file, "--method", "classical"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["1", "6", "18"]
    argv = ["snf", example_file, "--method", "classical", "--trace"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr() == ("1\n6\n18\n",
                                   "note: no lattice trace for this run\n")


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
    for raw in ("0", "-3"):
        monkeypatch.setenv(MAX_ITERS_ENV, raw)
        assert main(["snf", example_file]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: {MAX_ITERS_ENV} must be a positive integer, got '{raw}'\n"
        )
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
         "error: --verify enumerates square minors and refuses more than "
         "the 923 of a 6 x 6 matrix\n"),
        (["snf"], "ring: int\nrows: 1\ncols: 2\n1\n", "",
         "error: line 4: expected 2 entries, got 1\n"),
    ]
    for argv, text, out, err in cases:
        path = _write(tmp_path, text)
        assert main([argv[0], path, *argv[1:]]) == EXIT_PARSE, argv
        assert capsys.readouterr() == (out, err), argv


def test_verify_counts_minors_not_the_short_side(tmp_path, capsys):
    # An m x n input has C(m + n, m) - 1 square minors: a 6 x 16 one has
    # 74 612 and is refused before any factor prints, while a 2 x 40 one
    # has 860, fewer than the 923 of a 6 x 6 input, and is checked.
    rng = random.Random(5)

    def text(m, n):
        rows = "\n".join(" ".join(str(rng.randint(-9, 9)) for _ in range(n))
                         for _ in range(m))
        return f"ring: int\nrows: {m}\ncols: {n}\n{rows}\n"

    path = _write(tmp_path, text(6, 16))
    assert main(["snf", path, "--verify"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --verify enumerates")
    path = _write(tmp_path, text(2, 40))
    assert main(["snf", path, "--verify"]) == EXIT_OK
    assert "verify: ok" in capsys.readouterr().err


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
