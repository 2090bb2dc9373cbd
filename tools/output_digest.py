"""Print one sha256 over what the package computes on the benchmark corpora.

    python3 tools/output_digest.py

A change that claims to leave every output byte-identical should print
the same digest before and after it.  The inputs are the perfbench
corpora dense_zz, lattice_smooth and poly_gfp of seeds 11, 12 and 13,
built by perfbench/corpus.py (imported only; no bytecode is written
next to it).  Per input the digest covers:

- the bidiagonal form with its block size k and corner flag, and its P
  and Q when the padded size is at most 12;
- the lattice factors and iteration count of smith_normal_form;
- the factors of classical_snf;
- the rendered --trace lines on dense_zz and poly_gfp;
- the first 8 rendered states of iterate(seed_state(form)) on
  lattice_smooth, and every q and e entry of run(seed_state(form)).final
  in hexadecimal (its e entries run past the 4300 digits str renders);
  there too, for a run capped at half its steps, the IterationLimitError
  message and every q and e entry of its capped.final in hexadecimal;
- on dense_zz and poly_gfp inputs that take at least 2 steps, the message
  and rendered trace of the IterationLimitError of a run capped at half
  its steps, and on the bidiagonal poly_gfp ones also every q and e
  entry of its capped.final in hexadecimal (each coefficient of a
  polynomial).

It also covers the CLI on short operands: the exit code, stdout and
stderr of cli.main on every cli_small call of the same seeds (snf
--verify, snf --method classical, toda-trace and bbs), and of toda-trace
on a few fixed bidiagonal inputs with a zero subdiagonal, a zero last
diagonal entry or a zero interior diagonal entry.

Last, it covers scale-ladder draws of tests/test_snf.py: the dense ZZ
ones whose sweeps run modulo D for many levels (the five Random(1)
20 x 20 draws and the Random(2) 32 x 32 one), and the Random(3)
GF(2)[x] 12 x 12 and GF(5)[x] 14 x 14 ones, the GF(p)[x] sweeps of the
highest degrees in the suite.  Per draw it hashes the form
smith_normal_form's sweeps leave, and its factors and iteration count,
and the P and Q of the same sweep bordered by identities
(_reduced_form with transforms), whose border lines the modulus reduces
once it is live.

And it covers the small random lattice seeds of tests/test_gcd_toda.py
(60 of 2 to 12 blocks, entries 1 to 30), whose runs often break and
re-freeze their settled tail: per seed, the message and every q and e
entry, in hexadecimal, of the capped.final of a run capped at half its
steps.

Last, it covers construction: for DenseMatrix(ring, rows) on rows that
mix native data and RingValues (over ZZ ints, RingValues and an int
subclass; over GF(p)[x] ints, lists, tuples, RingValues and negative
coefficients), the payload grid, the type names of its payloads and the
repr; and for each kind of invalid entry or shape, the type and text of
the exception the constructor raises.

And two kernels on their own, each payload in hexadecimal: RingValue
powers over ZZ and GF(2), GF(5) and GF(65521)[x] of random bases, to
the exponents 0 to 40 and 2^k + 1 for k in 6, 8 and 10; and chains of
12 toda_step calls over the min-plus, ZZ and GF(p)[x] semirings on
seeded states of 1 to 10 blocks.
"""

from __future__ import annotations

import hashlib
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus  # noqa: E402
from todasnf import (  # noqa: E402
    DenseMatrix,
    GcdTodaState,
    IterationLimitError,
    PolyModP,
    ZZ,
    bidiagonalize,
    classical_snf,
    iterate,
    run,
    seed_state,
    smith_normal_form,
)
from todasnf.cli import main as cli_main, render_trace_line  # noqa: E402
from todasnf.elimination import _Modulus, _reduced_form  # noqa: E402
from todasnf.ud_toda import MIN_PLUS, toda_step  # noqa: E402

SEEDS = (11, 12, 13)
WORKLOADS = ("dense_zz", "lattice_smooth", "poly_gfp")
TRANSFORMS_UP_TO = 12
TRACED = ("dense_zz", "poly_gfp")
LATTICE_PREFIX = 8
#: toda-trace inputs with a zero subdiagonal or a zero diagonal entry,
#: run for 4 steps.
FIXED_TRACES = tuple(
    corpus.MatrixInput(f"fixed{k}", None, rows) for k, rows in enumerate((
        ((2, 0, 0), (0, 3, 0), (0, 0, 0)),
        ((2, 0), (0, 0)),
        ((4, 0, 0), (6, 9, 0), (0, 0, 0)),
        ((0, 0), (3, 5)),
    ))
)


def ladder_draws():
    """(ring, row-major grid) of the ladder draws: the Random(1) 20 x 20
    draws (after the 4 to 16 ones) and the Random(2) 32 x 32 draw, each
    randint(-20, 20); then of the Random(3) draws, three per n in 8, 10,
    12, 14 for p = 2 then 5 with entries of degree < 3, the GF(2)[x]
    12 x 12 and the GF(5)[x] 14 x 14 ones."""
    rng = random.Random(1)
    draws = [[[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
             for n in (4, 8, 12, 16, 20) for _ in range(5)][-5:]
    rng = random.Random(2)
    draws.append([[rng.randint(-20, 20) for _ in range(32)]
                  for _ in range(32)])
    rng = random.Random(3)
    poly = {(p, n): [[[[rng.randrange(p) for _ in range(3)] for _ in range(n)]
                      for _ in range(n)] for _ in range(3)]
            for p in (2, 5) for n in (8, 10, 12, 14)}
    return ([(ZZ, grid) for grid in draws]
            + [(PolyModP(2), grid) for grid in poly[2, 12]]
            + [(PolyModP(5), grid) for grid in poly[5, 14]])


def small_seeds():
    """The 60 random ZZ lattice seeds of tests/test_gcd_toda.py: 2 to 12
    blocks, entries 1 to 30, drawn from Random(27)."""
    rng = random.Random(27)
    sizes = [rng.randint(2, 12) for _ in range(60)]
    return [GcdTodaState.from_payloads(
        ZZ, tuple(rng.randint(1, 30) for _ in range(n)),
        tuple(rng.randint(1, 30) for _ in range(n - 1))) for n in sizes]


class _Int(int):
    """An int subclass, which ZZ keeps as the object given."""


def built_rows():
    """(ring, rows) of mixed native and RingValue entries, Random(29)."""
    rng = random.Random(29)
    zz_forms = (int, ZZ, _Int)
    out = [(ZZ, [[rng.choice(zz_forms)(rng.randint(-2**70, 2**70))
                  for _ in range(n)] for _ in range(m)])
           for m, n in ((1, 1), (3, 5), (6, 4))]
    out.append((ZZ, [[0, -1, 2**80], [ZZ(0), _Int(-1), 2**80]]))
    for p in (2, 5, 7):
        ring = PolyModP(p)

        def entry():
            coeffs = [rng.randint(-3 * p, 3 * p) for _ in range(rng.randint(0, 4))]
            return rng.choice((coeffs, tuple(coeffs), ring(coeffs),
                               coeffs[0] if coeffs else 0))

        out += [(ring, [[entry() for _ in range(4)] for _ in range(3)])]
    return out


def invalid_rows():
    """(ring, rows) the constructor refuses, one per kind of fault."""
    gf5, gf7 = PolyModP(5), PolyModP(7)
    bad = [(ZZ, [[1, v]]) for v in (True, False, 1.5, "1", None, gf5(1), ())]
    bad += [(gf5, [[[1, 2], v]])
            for v in (True, [1, False], 1.5, "x", None, ZZ(1), gf7(1), [[1]])]
    bad += [(ZZ, [[1, 2], [1.5, True]]), (ZZ, [[1, 2], [3]]),
            (ZZ, [[1], [ZZ(2), 3]]), (ZZ, []), (ZZ, [[]]), (gf5, [[]]),
            (ZZ, [1, 2]), (gf5, [1, 2]), (ZZ, None)]
    return bad


def construction_lines():
    """Payloads, payload types and repr of built matrices, then the
    exception type and text of each refused input."""
    for ring, rows in built_rows():
        matrix = DenseMatrix(ring, rows)
        grid = matrix.payload_grid()
        yield repr(grid)
        yield " ".join(type(v).__name__ for row in grid for v in row)
        yield repr(matrix)
    for ring, rows in invalid_rows():
        try:
            DenseMatrix(ring, rows)
        except (TypeError, ValueError) as error:
            yield f"{type(error).__name__}: {error}"
        else:
            yield "accepted"


def power_lines():
    """Each power of random bases over ZZ and three GF(p)[x], Random(31)."""
    rng = random.Random(31)
    exponents = list(range(41)) + [2**k + 1 for k in (6, 8, 10)]
    bases = [ZZ(v) for v in (-1, 0, 1, 2)]
    bases += [ZZ(rng.randint(-2**40, 2**40)) for _ in range(4)]
    for p in (2, 5, 65521):
        ring = PolyModP(p)
        bases += [ring([rng.randrange(p) for _ in range(rng.randint(0, 4))])
                  for _ in range(4)]
    for base in bases:
        for k in exponents:
            yield f"{base!r}^{k}: {hex_payloads([(base ** k).payload])}"


def step_lines():
    """12 chained toda_step states from each of 8 seeded states per
    semiring: min-plus on ints 0 to 30, and gcd-product on ZZ entries 1
    to 2**20 and on monic GF(3)[x] and GF(65521)[x] cubics, Random(32)."""
    rng = random.Random(32)
    zz = ZZ.gcd, ZZ.mul, ZZ.exact_div
    semirings = [(MIN_PLUS, lambda: rng.randint(0, 30)),
                 (zz, lambda: rng.randint(1, 2**20))]
    for ring in (PolyModP(3), PolyModP(65521)):
        def cubic(ring=ring):
            return ring.coerce([rng.randrange(ring.p) for _ in range(3)] + [1])

        semirings.append(((ring.gcd, ring.mul, ring.exact_div), cubic))
    for ops, draw in semirings:
        for _ in range(8):
            n = rng.randint(1, 10)
            q, e = [draw() for _ in range(n)], [draw() for _ in range(n - 1)]
            for _ in range(12):
                q, e = toda_step(q, e, *ops)
                yield hex_payloads(q + e)


def capped_lines(state, steps: int):
    """The message and hexadecimal capped.final of run(state) capped at
    half its steps, if it takes at least 2."""
    if steps >= 2:
        try:
            run(state, steps // 2)
        except IterationLimitError as capped:
            yield str(capped)
            yield hex_line(capped.capped.final)


def factor_line(result) -> str:
    return f"toda {result.iterations}: {' '.join(map(str, result.factors))}"


def hex_payloads(payloads) -> str:
    """Payloads in hexadecimal, a polynomial's coefficients joined by
    commas."""
    return " ".join(f"{v:x}" if isinstance(v, int)
                    else ",".join(f"{c:x}" for c in v) for v in payloads)


def hex_line(state) -> str:
    """Every q and e entry of a state in hexadecimal."""
    return hex_payloads(state.q + state.e)


def lines(workload: str, matrix: DenseMatrix):
    """The outputs of one input, one string each."""
    form = bidiagonalize(matrix)
    yield repr(form)
    if max(matrix.nrows, matrix.ncols) <= TRANSFORMS_UP_TO:
        yield from map(repr, bidiagonalize(matrix, transforms=True))
    result = smith_normal_form(matrix)
    yield factor_line(result)
    factors = classical_snf(matrix).factors
    yield f"classical: {' '.join(map(str, factors))}"
    if workload in TRACED and result.trace is not None:
        yield from map(render_trace_line, result.trace)
    if workload == "lattice_smooth" and form.k:
        state = seed_state(form)
        prefix = islice(iterate(state), LATTICE_PREFIX)
        yield from map(render_trace_line, prefix)
        outcome = run(state)
        yield hex_line(outcome.final)
        yield from capped_lines(state, outcome.iterations)
    if workload in TRACED and result.iterations >= 2:
        try:
            run(seed_state(form), result.iterations // 2)
        except IterationLimitError as capped:
            yield str(capped)
            yield from map(render_trace_line, capped.trace)
            if workload == "poly_gfp" and matrix.is_lower_bidiagonal():
                yield hex_line(capped.capped.final)


def cli_call(argv, matrix: corpus.MatrixInput | None, workdir: str):
    """Exit code, stdout and stderr of cli.main, FILE the written matrix."""
    path = Path(workdir) / "input.txt"
    if matrix is not None:
        path.write_text(corpus.render_matrix_file(matrix), encoding="utf-8")
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main([str(path) if arg == "FILE" else arg for arg in argv])
    yield f"exit {code}"
    yield out.getvalue()
    yield err.getvalue()


def main() -> None:
    digest = hashlib.sha256()
    for seed in SEEDS:
        for workload in WORKLOADS:
            for raw in corpus.BUILDERS[workload](seed):
                ring = ZZ if raw.p is None else PolyModP(raw.p)
                digest.update(f"{seed}/{workload}/{raw.label}\n".encode())
                for line in lines(workload, DenseMatrix(ring, raw.rows)):
                    digest.update(f"{line}\n".encode())
    calls = [(f"{seed}/cli_small/{call.label}", call.argv, call.matrix)
             for seed in SEEDS for call in corpus.cli_small(seed)]
    calls += [(f"fixed/{m.label}", ("toda-trace", "FILE", "--steps", "4"), m)
              for m in FIXED_TRACES]
    with tempfile.TemporaryDirectory() as workdir:
        for label, argv, matrix in calls:
            digest.update(f"{label}\n".encode())
            for line in cli_call(argv, matrix, workdir):
                digest.update(f"{line}\n".encode())
    for k, (ring, rows) in enumerate(ladder_draws()):
        matrix = DenseMatrix(ring, rows)
        digest.update(f"ladder/{k}\n".encode())
        _, p, q = _reduced_form(matrix, _Modulus(ring, matrix), True)
        for line in (repr(_reduced_form(matrix, _Modulus(ring, matrix))),
                     factor_line(smith_normal_form(matrix)),
                     repr(p), repr(q)):
            digest.update(f"{line}\n".encode())
    for k, state in enumerate(small_seeds()):
        digest.update(f"small/{k}\n".encode())
        for line in capped_lines(state, run(state).iterations):
            digest.update(f"{line}\n".encode())
    for line in construction_lines():
        digest.update(f"{line}\n".encode())
    for line in power_lines():
        digest.update(f"{line}\n".encode())
    for line in step_lines():
        digest.update(f"{line}\n".encode())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
