"""Seeded benchmark inputs, as plain Python data.

Nothing here imports todasnf: a corpus is lists of ints and coefficient
tuples that the benchmark later turns into package objects (the timed
set-up) and hands to the sympy oracle (untimed).  The same seed always
gives the same corpus.

Where per-input cost is heavy-tailed (dense integer matrices at n >= 17,
GF(2)[x] matrices at n = 10) a handful of "growth probes" is drawn from a
fixed stream that ignores --seed: they are the first draws of that stream,
not picked by cost, and keep the growth defect in every run while one
unlucky seed cannot move the whole-corpus time by more than any bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Poly = tuple[int, ...]


@dataclass(frozen=True)
class MatrixInput:
    """One matrix; p is None over ZZ, else entries are GF(p)[x] coefficients."""

    label: str
    p: int | None
    rows: tuple[tuple, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0])


@dataclass(frozen=True)
class CliCall:
    """One in-process CLI call; FILE in argv stands for the written matrix."""

    label: str
    argv: tuple[str, ...]
    matrix: MatrixInput | None = None
    state: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    steps: int = 4


# -- helpers ----------------------------------------------------------------


def _trim(coeffs) -> Poly:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_mul(a: Poly, b: Poly, p: int) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _int_grid(rng, m, n, lo=-20, hi=20):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(m))


def _low_rank_int(rng, n, rank):
    """L @ R with L n x rank in [-3, 3] and R rank x n in [-2, 2]; |entries| <= 18."""
    left = _int_grid(rng, n, rank, -3, 3)
    right = _int_grid(rng, rank, n, -2, 2)
    return tuple(
        tuple(sum(left[i][k] * right[k][j] for k in range(rank)) for j in range(n))
        for i in range(n)
    )


def _poly_grid(rng, m, n, p, degree=2):
    return tuple(
        tuple(_trim(rng.randrange(p) for _ in range(degree + 1)) for _ in range(n))
        for _ in range(m)
    )


def _bidiagonal(n, diag, sub, zero):
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = diag[i]
        if i:
            rows[i][i - 1] = sub[i - 1]
    return tuple(tuple(r) for r in rows)


# -- workloads --------------------------------------------------------------

#: Dense ZZ inputs drawn from the fixed stream, as (n, rank or None for
#: full): from padded size 14 up one draw costs anywhere from 0.02 to 12 s.
#: The 20x20 stall draw (32 s) is left out.
DENSE_GROWTH = ((14, None), (14, None), (15, None), (16, None), (17, None),
                (18, None), (16, 8), (18, 9))


def dense_zz(seed: int, tiny: bool = False) -> list[MatrixInput]:
    rng = random.Random(f"dense_zz/{seed}")
    out = []
    # Counts per class are fixed; only the entries come from the seed.
    full = ((4, 1), (5, 1)) if tiny else ((8, 8), (10, 8), (12, 6))
    for n, count in full:
        for k in range(count):
            out.append(MatrixInput(f"full{n}.{k}", None, _int_grid(rng, n, n)))
    rect = ((3, 4),) if tiny else ((8, 10), (10, 8), (10, 12), (12, 10))
    for shape in rect:
        out.append(MatrixInput(f"rect{shape[0]}x{shape[1]}", None, _int_grid(rng, *shape)))
    for n in ((5,) if tiny else (8, 10, 12, 14)):
        out.append(MatrixInput(f"lowrank{n}", None, _low_rank_int(rng, n, n // 2)))
    if not tiny:
        growth = random.Random("dense_zz/growth")
        for n, rank in DENSE_GROWTH:
            rows = _int_grid(growth, n, n) if rank is None else _low_rank_int(growth, n, rank)
            out.append(MatrixInput(f"growth{n}.{rank or 'full'}", None, rows))
    rng.shuffle(out)
    return out


def _smooth(rng) -> int:
    return 2 ** rng.randint(0, 6) * 3 ** rng.randint(0, 6) * 5 ** rng.randint(0, 6)


def lattice_smooth(seed: int, tiny: bool = False) -> list[MatrixInput]:
    rng = random.Random(f"lattice_smooth/{seed}")
    out = []
    # Seven small and eleven large inputs: the median and the 90th percentile
    # then both fall inside the n = 64 class, never between two classes.
    for n, count in (((6, 2), (8, 2)) if tiny else ((32, 7), (64, 11))):
        for k in range(count):
            diag = [_smooth(rng) for _ in range(n)]
            sub = [_smooth(rng) for _ in range(n - 1)]
            if k == 0:
                diag[-1] = 0  # padded-corner path: the seed gains a zero level
            out.append(MatrixInput(f"smooth{n}.{k}", None, _bidiagonal(n, diag, sub, 0)))
    rng.shuffle(out)
    return out


#: Low-degree factors the bidiagonal polynomial inputs are built from.
POLY_FACTORS = {
    2: ((1, 1), (0, 1), (1, 1, 1)),
    5: ((1, 1), (2, 1), (0, 1), (2, 0, 1)),
    7: ((1, 1), (3, 1), (0, 1), (1, 0, 1)),
}


#: Dense GF(p)[x] (p, n) drawn from the fixed stream: from n = 8 up degree
#: growth makes one draw cost anywhere from 0.01 to 7 s.
POLY_GROWTH = ((2, 8), (2, 8), (5, 8), (5, 8), (7, 8), (7, 8),
               (2, 10), (5, 10), (5, 10), (7, 10), (7, 10))


def _poly_smooth(rng, p) -> Poly:
    out: Poly = (rng.randrange(1, p),)
    for _ in range(rng.randint(0, 3)):
        out = poly_mul(out, rng.choice(POLY_FACTORS[p]), p)
    return out


def poly_gfp(seed: int, tiny: bool = False) -> list[MatrixInput]:
    rng = random.Random(f"poly_gfp/{seed}")
    out = []
    dense = ((3, 1), (4, 1)) if tiny else ((6, 3),)
    bidiag = ((4, 1),) if tiny else ((8, 4), (16, 1))
    for p in (2, 5, 7):
        for n, count in dense:
            for k in range(count):
                out.append(MatrixInput(f"gf{p}.dense{n}.{k}", p, _poly_grid(rng, n, n, p)))
        for n, count in bidiag:
            for k in range(count):
                diag = [_poly_smooth(rng, p) for _ in range(n)]
                sub = [_poly_smooth(rng, p) for _ in range(n - 1)]
                out.append(MatrixInput(f"gf{p}.bidiag{n}.{k}", p, _bidiagonal(n, diag, sub, ())))
    if not tiny:
        growth = random.Random("poly_gfp/growth")
        for k, (p, n) in enumerate(POLY_GROWTH):
            out.append(MatrixInput(f"gf{p}.growth{n}.{k}", p, _poly_grid(growth, n, n, p)))
    rng.shuffle(out)
    return out


#: Shapes of the cli_small matrix files, cycled so that every seed runs
#: the same mix; --verify cost grows steeply with the size.
CLI_SHAPES = ((2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (3, 5), (5, 3), (4, 6), (6, 4),
              (3, 3), (4, 4), (5, 5))


def cli_small(seed: int, tiny: bool = False) -> list[CliCall]:
    rng = random.Random(f"cli_small/{seed}")
    out: list[CliCall] = []
    # Shapes, rings, sizes and step counts are fixed per call; only the
    # entries come from the seed.
    for k in range(4 if tiny else 4 * len(CLI_SHAPES)):
        m, n = CLI_SHAPES[k % len(CLI_SHAPES)]
        p = (None, 3, None, 5, None, 7)[k % 6]
        rows = _int_grid(rng, m, n, -9, 9) if p is None else _poly_grid(rng, m, n, p, degree=1)
        if k % 4 == 1:  # singular: the last row repeats the first
            rows = rows[:-1] + (rows[0],)
        matrix = MatrixInput(f"file{k}", p, rows)
        out.append(CliCall(f"snf-verify.{k}", ("snf", "FILE", "--verify"), matrix))
        out.append(CliCall(f"snf-classical.{k}", ("snf", "FILE", "--method", "classical"), matrix))
    for k in range(2 if tiny else 24):
        n, steps, p = 3 + k % 4, 2 + k % 5, (None, 5)[k % 2]
        if p is None:
            diag = [rng.randint(1, 30) for _ in range(n)]
            sub = [rng.randint(1, 30) for _ in range(n - 1)]
            matrix = MatrixInput(f"bidiag{k}", None, _bidiagonal(n, diag, sub, 0))
        else:
            diag = [_poly_smooth(rng, p) for _ in range(n)]
            sub = [_poly_smooth(rng, p) for _ in range(n - 1)]
            matrix = MatrixInput(f"bidiag{k}", p, _bidiagonal(n, diag, sub, ()))
        out.append(CliCall(f"toda-trace.{k}", ("toda-trace", "FILE", "--steps", str(steps)),
                           matrix, steps=steps))
    for k in range(2 if tiny else 24):
        count, steps = 1 + k % 4, 2 + k % 7
        blocks = tuple(rng.randint(1, 5) for _ in range(count))
        gaps = tuple(rng.randint(1, 5) for _ in range(count - 1))
        literal = f"Q:{','.join(map(str, blocks))};E:{','.join(map(str, gaps))}"
        out.append(CliCall(f"bbs.{k}", ("bbs", literal, "--steps", str(steps)),
                           state=(blocks, gaps), steps=steps))
    rng.shuffle(out)
    return out


BUILDERS = {
    "dense_zz": dense_zz,
    "lattice_smooth": lattice_smooth,
    "poly_gfp": poly_gfp,
    "cli_small": cli_small,
}


def render_matrix_file(matrix: MatrixInput) -> str:
    """The CLI's matrix file format, written independently of the package."""
    m, n = matrix.shape
    ring = "int" if matrix.p is None else f"polymod {matrix.p}"
    lines = [f"ring: {ring}", f"rows: {m}", f"cols: {n}"]
    for row in matrix.rows:
        if matrix.p is None:
            lines.append(" ".join(str(v) for v in row))
        else:
            lines.append(" ".join("[" + ",".join(map(str, v or (0,))) + "]" for v in row))
    return "\n".join(lines) + "\n"
