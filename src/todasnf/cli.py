"""Command-line front end: matrix ingestion, the SNF pipeline, lattice
traces and box-and-ball demonstrations.

Matrix files are plain text.  Header lines declare the ring and shape,
then each matrix row is one line of whitespace-separated entries:

    ring: int
    rows: 3
    cols: 3
    2 0 0
    4 6 0
    0 3 9

``ring: polymod 7`` selects polynomials over Z/7Z, written as bracketed
ascending coefficient lists without inner spaces, e.g. ``[1,0,3]`` for
1 + 3x^2.  Blank lines and lines starting with ``#`` are skipped.

Exit codes: 0 success, 1 parse, input or usage error, 2 iteration cap
exceeded, 3 verification failure, 4 internal error (an inexact division,
which no valid input reaches); main alone maps exceptions onto them.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import islice
from math import comb

from .gcd_toda import (
    GcdTodaState,
    IterationLimitError,
    determinantal_divisors,
    iterate,
)
from .matrix import DenseMatrix
from .ring import ExactDivisionError, PolyModP, Ring, ZZ
from .snf import classical_snf, smith_normal_form, verify
from .ud_toda import (
    bbs_step,
    conserved_quantities,
    parse_state_literal,
    render_bbs,
    to_bbs,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CAP = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4

#: What main reports as ``error: ...``, with its exit code; first match wins.
ERROR_EXITS = {IterationLimitError: EXIT_CAP, ExactDivisionError: EXIT_INTERNAL,
               ValueError: EXIT_PARSE, OSError: EXIT_PARSE}

#: Overrides the default iteration cap when set to a positive integer.
MAX_ITERS_ENV = "TODASNF_MAX_ITERS"

#: --verify refuses an m x n input with more square minors, C(m + n, m) - 1,
#: than a square one of this size has.
VERIFY_SIZE_LIMIT = 6


class MatrixParseError(ValueError):
    """A malformed matrix file, pointing at the offending line."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _parse_ring(lineno: int, selector: str) -> Ring:
    parts = selector.split()
    if parts == ["int"]:
        return ZZ
    if len(parts) == 2 and parts[0] == "polymod":
        try:
            modulus = ZZ.parse(parts[1])
        except ValueError:
            raise MatrixParseError(
                lineno, f"bad modulus {parts[1]!r}"
            ) from None
        try:
            return PolyModP(modulus)
        except ValueError as exc:
            raise MatrixParseError(lineno, str(exc)) from None
    raise MatrixParseError(
        lineno, f"unknown ring {selector!r} (expected 'int' or 'polymod <p>')"
    )


def parse_matrix_text(text: str) -> DenseMatrix:
    """Parse the matrix file format; MatrixParseError carries the line."""
    lines = iter([
        (lineno, body)
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (body := raw.strip()) and not body.startswith("#")
    ])
    eof = (len(text.splitlines()) + 1, None)

    def take() -> tuple[int, str]:
        lineno, body = next(lines, eof)
        if body is None:
            raise MatrixParseError(lineno, "unexpected end of file")
        return lineno, body

    def header(name: str) -> tuple[int, str]:
        lineno, body = take()
        key, sep, value = body.partition(":")
        if key.strip() != name or not sep:
            raise MatrixParseError(lineno, f"expected '{name}:' header")
        return lineno, value.strip()

    lineno, ring_selector = header("ring")
    ring = _parse_ring(lineno, ring_selector)

    shape = {}
    for name in ("rows", "cols"):
        lineno, value = header(name)
        try:
            count = ZZ.parse(value)
        except ValueError:
            raise MatrixParseError(lineno, f"bad {name} count {value!r}") from None
        if count < 1:
            raise MatrixParseError(lineno, f"{name} must be at least 1")
        shape[name] = count

    grid = []
    for _ in range(shape["rows"]):
        lineno, body = take()
        tokens = body.split()
        if len(tokens) != shape["cols"]:
            raise MatrixParseError(
                lineno,
                f"expected {shape['cols']} entries, got {len(tokens)}",
            )
        try:
            grid.append([ring.parse(token) for token in tokens])
        except ValueError as exc:
            raise MatrixParseError(lineno, str(exc)) from None
    lineno, body = next(lines, eof)
    if body is not None:
        raise MatrixParseError(lineno, "unexpected trailing content")
    return DenseMatrix.from_payloads(ring, grid)


def render_matrix_text(matrix: DenseMatrix) -> str:
    """The canonical file text for a matrix; parse inverts this exactly."""
    ring = matrix.ring
    if isinstance(ring, PolyModP):
        head = f"ring: polymod {ring.p}"
    else:
        head = "ring: int"
    out = [head, f"rows: {matrix.nrows}", f"cols: {matrix.ncols}"]
    for i in range(matrix.nrows):
        out.append(" ".join(str(v) for v in matrix.row(i)))
    return "\n".join(out) + "\n"


def render_trace_line(state: GcdTodaState) -> str:
    q = " ".join(map(state.ring.render, state.q))
    e = " ".join(map(state.ring.render, state.e))
    return f"q: {q} | e: {e}".rstrip()


def _load_matrix(path: str) -> DenseMatrix:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_matrix_text(handle.read())


def _resolve_max_iters(flag: int | None) -> int | None:
    raw = os.environ.get(MAX_ITERS_ENV)
    if flag is not None or raw is None:
        return flag
    try:
        return _positive(raw)
    except argparse.ArgumentTypeError:
        raise ValueError(f"{MAX_ITERS_ENV} must be a positive integer, "
                         f"got {raw!r}") from None


def cmd_snf(args: argparse.Namespace) -> int:
    matrix = _load_matrix(args.file)
    most = comb(2 * VERIFY_SIZE_LIMIT, VERIFY_SIZE_LIMIT)
    if args.verify and comb(matrix.nrows + matrix.ncols, matrix.nrows) > most:
        raise ValueError(
            "--verify enumerates square minors and refuses more than the "
            f"{most - 1} of a {VERIFY_SIZE_LIMIT} x {VERIFY_SIZE_LIMIT} matrix"
        )
    if args.method == "classical":
        result = classical_snf(matrix)
    else:
        result = smith_normal_form(matrix, _resolve_max_iters(args.max_iters))
    if args.trace:
        if result.trace is None:
            print("note: no lattice trace for this run", file=sys.stderr)
        else:
            for state in result.trace:
                print(render_trace_line(state))
    shown = [f for f in result.factors if args.keep_zeros or f]
    if trimmed := len(result.factors) - len(shown):
        print(f"note: trimmed {trimmed} zero factor(s)", file=sys.stderr)
    for factor in shown:
        print(factor)
    if args.verify:
        if not verify(matrix, result):
            print("verify: FAILED", file=sys.stderr)
            return EXIT_VERIFY
        print("verify: ok", file=sys.stderr)
    return EXIT_OK


def cmd_bbs(args: argparse.Namespace) -> int:
    state = parse_state_literal(args.state)
    configs = [to_bbs(state)]
    for _ in range(args.steps):
        configs.append(bbs_step(configs[-1]))
    start = min(c.offset for c in configs) - args.pad_left
    stop = max(c.offset + len(c.cells) for c in configs) + args.pad_right
    for config in configs:
        print(render_bbs(config, start, stop))
    footer = " ".join(str(v) for v in conserved_quantities(state))
    print(f"conserved: {footer}")
    return EXIT_OK


def cmd_toda_trace(args: argparse.Namespace) -> int:
    matrix = _load_matrix(args.file)
    if matrix.nrows != matrix.ncols or not matrix.is_lower_bidiagonal():
        raise ValueError("toda-trace needs a square lower bidiagonal matrix")
    q, e = matrix.bands()
    if not all(q[:-1]):  # zero payloads are the falsy ones
        raise ValueError("interior diagonal entries must be nonzero")
    seed = GcdTodaState.from_payloads(matrix.ring, q, e)
    for state in islice(iterate(seed), args.steps + 1):
        divisors = " ".join(str(v) for v in determinantal_divisors(state))
        print(f"{render_trace_line(state)} | d: {divisors}")
    return EXIT_OK


def _nonnegative(text: str) -> int:
    try:
        value = ZZ.parse(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive(text: str) -> int:
    value = _nonnegative(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once on first use."""
    parser = argparse.ArgumentParser(
        prog="todasnf",
        description="Smith normal form via the gcd-Toda lattice, plus "
                    "box-and-ball demonstrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_snf = sub.add_parser(
        "snf", help="invariant factors of a matrix file"
    )
    p_snf.add_argument("file", help="matrix file path")
    p_snf.add_argument(
        "--method", choices=("toda", "classical"), default="toda",
        help="lattice pipeline (default) or textbook elimination",
    )
    p_snf.add_argument(
        "--max-iters", type=_positive, default=None, metavar="N",
        help=f"lattice step cap (default scales with the seed; "
             f"{MAX_ITERS_ENV} overrides)",
    )
    p_snf.add_argument(
        "--trace", action="store_true",
        help="print every lattice state before the factors",
    )
    p_snf.add_argument(
        "--verify", action="store_true",
        help="cross-check the factors against all minor gcds",
    )
    p_snf.add_argument(
        "--keep-zeros", action="store_true",
        help="report zero factors instead of trimming them",
    )
    p_snf.set_defaults(func=cmd_snf)

    p_bbs = sub.add_parser(
        "bbs", help="evolve a box-and-ball configuration"
    )
    p_bbs.add_argument("state", help="state literal like 'Q:4,3,1;E:3,2'")
    p_bbs.add_argument("--steps", type=_nonnegative, default=4, metavar="K")
    p_bbs.add_argument("--pad-left", type=_nonnegative, default=0, metavar="N")
    p_bbs.add_argument("--pad-right", type=_nonnegative, default=0, metavar="N")
    p_bbs.set_defaults(func=cmd_bbs)

    p_trace = sub.add_parser(
        "toda-trace",
        help="iterate the raw lattice step on a bidiagonal matrix file",
    )
    p_trace.add_argument("file", help="matrix file path")
    p_trace.add_argument("--steps", type=_nonnegative, default=4, metavar="K")
    p_trace.set_defaults(func=cmd_toda_trace)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, which collides with the
        # cap-exceeded code; fold usage problems into the parse-error code.
        return EXIT_OK if not exc.code else EXIT_PARSE
    # Exact decimals of any length: lift the int <-> str digit limit
    # (CPython 3.10.7 and later) while the command runs.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except tuple(ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in ERROR_EXITS.items()
                    if isinstance(exc, kind))
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
