"""Both SNF routes against sympy's invariant factors, above n = 5.

The inputs are seeded dense matrices: +-20 integers with n = 6-12
(square, rectangular, and rank-deficient products L @ R), and GF(2),
GF(5), GF(7)[x] matrices with n <= 6.  Larger draws cover the shapes
where a rotation-based elimination stalls: 16 x 16 lower-bidiagonal
GF(2)[x] and GF(5)[x] matrices whose entries are products of low-degree
factors, and dense +-20 integer matrices with n = 16 and 20.  sympy's
factors are brought to the package's canonical form (absolute value,
monic) and padded with zeros to min(m, n).  Skipped when sympy is not
installed.
"""

import random
import time

import pytest

from conftest import padd, pmul, ptrim
from todasnf import DenseMatrix, PolyModP, ZZ, classical_snf, smith_normal_form

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.matrices.normalforms import invariant_factors  # noqa: E402


def _int_product(left, right):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
            for row in left]


def _poly_product(left, right, p):
    out = []
    for row in left:
        out.append([])
        for col in zip(*right):
            acc = ()
            for a, b in zip(row, col):
                acc = padd(acc, pmul(a, b, p), p)
            out[-1].append(acc)
    return out


def _int_grid(rng, m, n, bound):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def _poly_grid(rng, m, n, p):
    return [[ptrim([rng.randrange(p) for _ in range(rng.randint(0, 3))])
             for _ in range(n)]
            for _ in range(m)]


def _int_corpus():
    rng = random.Random(61)
    cases = [_int_grid(rng, n, n, 20) for n in (6, 8, 10, 12)]
    cases += [_int_grid(rng, m, n, 20) for m, n in ((6, 9), (11, 7), (12, 8))]
    # L @ D @ R with a divisor chain on D, so the factors are not all 1.
    chain = (1, 2, 6, 12, 60, 120, 360, 720, 2520)
    for m, n, rank in ((8, 8, 5), (10, 7, 4), (6, 11, 3), (12, 12, 9)):
        middle = [[chain[i] if i == j else 0 for j in range(rank)]
                  for i in range(rank)]
        left = _int_product(_int_grid(rng, m, rank, 5), middle)
        cases.append(_int_product(left, _int_grid(rng, rank, n, 5)))
    return cases


def _poly_corpus():
    rng = random.Random(62)
    middle = [[(1,), ()], [(), (0, 1)]]  # diag(1, x)
    cases = []
    for p in (2, 5, 7):
        cases.append((p, _poly_grid(rng, 6, 6, p)))
        cases.append((p, _poly_grid(rng, 4, 6, p)))
        left = _poly_product(_poly_grid(rng, 5, 2, p), middle, p)
        cases.append((p, _poly_product(left, _poly_grid(rng, 2, 6, p), p)))
    return cases


def _sympy_int_factors(rows):
    domain = sympy.ZZ
    m, n = len(rows), len(rows[0])
    dm = DomainMatrix([[domain(v) for v in row] for row in rows], (m, n), domain)
    got = [abs(int(v)) for v in invariant_factors(dm)]
    return got + [0] * (min(m, n) - len(got))


def _sympy_poly_factors(rows, p):
    domain = sympy.GF(p)[sympy.symbols("x")]
    ring = domain.ring
    m, n = len(rows), len(rows[0])
    dm = DomainMatrix(
        [[ring.from_list(list(reversed(v))) for v in row] for row in rows],
        (m, n), domain,
    )
    got = []
    for f in invariant_factors(dm):
        monic = f.monic() if f else f
        got.append(ptrim([int(c) % p for c in reversed(monic.to_dense())]))
    return got + [()] * (min(m, n) - len(got))


@pytest.mark.parametrize("route", [smith_normal_form, classical_snf])
def test_integer_factors_match_sympy(route):
    for rows in _int_corpus():
        expected = _sympy_int_factors(rows)
        got = [v.payload for v in route(DenseMatrix(ZZ, rows)).factors]
        assert got == expected, f"{route.__name__} on {rows}"


@pytest.mark.parametrize("route", [smith_normal_form, classical_snf])
def test_poly_factors_match_sympy(route):
    for p, rows in _poly_corpus():
        expected = _sympy_poly_factors(rows, p)
        got = [v.payload for v in route(DenseMatrix(PolyModP(p), rows)).factors]
        assert got == expected, f"{route.__name__} over GF({p})[x] on {rows}"


#: Low-degree factors of the bidiagonal polynomial entries, per prime.
_LOW_DEGREE = {2: ((1, 1), (0, 1), (1, 1, 1)),
               5: ((1, 1), (2, 1), (0, 1), (2, 0, 1))}


def _poly_bidiagonal(rng, n, p):
    """Lower bidiagonal; each entry a unit times up to three factors."""
    rows = [[() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(max(i - 1, 0), i + 1):
            entry = (rng.randrange(1, p),)
            for _ in range(rng.randint(0, 3)):
                entry = pmul(entry, rng.choice(_LOW_DEGREE[p]), p)
            rows[i][j] = entry
    return rows


def _timed_classical(matrix):
    start = time.perf_counter()
    result = classical_snf(matrix)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"classical_snf took {elapsed:.2f} s"
    return [v.payload for v in result.factors]


def test_poly_bidiagonal_16_match_sympy():
    # Seed 73 draws, among others, the GF(5)[x] matrix on which a
    # rotation-and-refill elimination runs for seconds.
    rng = random.Random(73)
    for p in (2, 5):
        rows = _poly_bidiagonal(rng, 16, p)
        matrix = DenseMatrix(PolyModP(p), rows)
        expected = _sympy_poly_factors(rows, p)
        assert _timed_classical(matrix) == expected, f"GF({p})[x]"
        got = [v.payload for v in smith_normal_form(matrix).factors]
        assert got == expected, f"smith_normal_form over GF({p})[x]"


def test_dense_integer_16_and_20_classical():
    rng = random.Random(74)
    for n in (16, 20):
        rows = _int_grid(rng, n, n, 20)
        got = _timed_classical(DenseMatrix(ZZ, rows))
        assert got == _sympy_int_factors(rows), f"{n} x {n}"
