"""Shared helpers for the test suite.

The oracle functions here are deliberately independent of the package:
they work on plain ints and coefficient tuples, use enumeration where
the package uses algebra, and exist so expected values are computed by a
second route.  Builder helpers at the bottom construct package objects
for convenience and are not oracles.
"""

from __future__ import annotations

import itertools
import math

from hypothesis import settings

from todasnf import DenseMatrix, GcdTodaState, RingValue, ZZ

# Property tests replay the same examples on every run and keep no
# example database, so the suite stays deterministic and bounded in time.
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None, max_examples=50)
settings.load_profile("deterministic")


# -- integer oracles --------------------------------------------------------


def int_gcd_brute(a: int, b: int) -> int:
    """Largest common divisor by divisor enumeration."""
    a, b = abs(a), abs(b)
    if a == 0:
        return b
    if b == 0:
        return a
    return max(
        d for d in range(1, min(a, b) + 1) if a % d == 0 and b % d == 0
    )


def _perm_sign(perm) -> int:
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def det_int_brute(grid) -> int:
    """Determinant by summing over all permutations."""
    n = len(grid)
    total = 0
    for perm in itertools.permutations(range(n)):
        prod = _perm_sign(perm)
        for i in range(n):
            prod *= grid[i][perm[i]]
        total += prod
    return total


def minors_gcd_int_brute(grid, k: int) -> int:
    """Gcd of all k by k minors of an integer grid, by enumeration."""
    m, n = len(grid), len(grid[0])
    out = 0
    for rows in itertools.combinations(range(m), k):
        for cols in itertools.combinations(range(n), k):
            sub = [[grid[i][j] for j in cols] for i in rows]
            out = math.gcd(out, det_int_brute(sub))
    return out


# -- non-adjacent subset oracles -------------------------------------------


def _spread_subsets(length: int, count: int):
    for combo in itertools.combinations(range(length), count):
        if all(b - a >= 2 for a, b in zip(combo, combo[1:])):
            yield combo


def non_adjacent_min_brute(word, count: int) -> int:
    """Minimum sum over non-adjacent index subsets of the given size."""
    return min(
        sum(word[i] for i in combo)
        for combo in _spread_subsets(len(word), count)
    )


def non_adjacent_gcd_brute(word, count: int) -> int:
    """Gcd of products over non-adjacent integer subsets of the given size."""
    out = 0
    for combo in _spread_subsets(len(word), count):
        prod = 1
        for i in combo:
            prod *= word[i]
        out = math.gcd(out, prod)
    return out


# -- polynomial oracles (coefficient tuples over Z/pZ, ascending) ----------


def ptrim(coeffs) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def padd(a, b, p: int) -> tuple[int, ...]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = (out[i] + c) % p
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return ptrim(out)


def pneg(a, p: int) -> tuple[int, ...]:
    return tuple((p - c) % p for c in a)


def pmul(a, b, p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return ptrim(out)


def pdivmod(a, b, p: int):
    assert b, "division by zero polynomial"
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p)
    for shift in range(len(rem) - len(b), -1, -1):
        f = (rem[shift + len(b) - 1] * inv) % p
        quo[shift] = f
        for j, cb in enumerate(b):
            rem[shift + j] = (rem[shift + j] - f * cb) % p
    return ptrim(quo), ptrim(rem)


def pmonic(a, p: int) -> tuple[int, ...]:
    if not a:
        return ()
    inv = pow(a[-1], -1, p)
    return tuple((c * inv) % p for c in a)


def pdivides(a, b, p: int) -> bool:
    if not b:
        return True
    if not a:
        return False
    return not pdivmod(b, a, p)[1]


def _monic_polys(degree: int, p: int):
    for lower in itertools.product(range(p), repeat=degree):
        yield ptrim(lower + (1,))


def pgcd_brute(a, b, p: int) -> tuple[int, ...]:
    """Highest-degree monic common divisor, by enumerating candidates."""
    if not a:
        return pmonic(b, p)
    if not b:
        return pmonic(a, p)
    top = min(len(a), len(b)) - 1
    for degree in range(top, 0, -1):
        for cand in _monic_polys(degree, p):
            if pdivides(cand, a, p) and pdivides(cand, b, p):
                return cand
    return (1,)


def det_poly_brute(grid, p: int) -> tuple[int, ...]:
    """Determinant of a grid of coefficient tuples, over permutations."""
    n = len(grid)
    total: tuple[int, ...] = ()
    for perm in itertools.permutations(range(n)):
        prod: tuple[int, ...] = (1,)
        for i in range(n):
            prod = pmul(prod, grid[i][perm[i]], p)
        if _perm_sign(perm) < 0:
            prod = pneg(prod, p)
        total = padd(total, prod, p)
    return total


# -- builders (package objects, not oracles) --------------------------------


def bidiagonal_matrix(state: GcdTodaState) -> DenseMatrix:
    """The lower bidiagonal matrix a lattice state reads off."""
    ring = state.ring
    n = state.n
    grid = [[ring.zero for _ in range(n)] for _ in range(n)]
    for i, v in enumerate(state.diagonal):
        grid[i][i] = v
    for i, v in enumerate(state.subdiagonal):
        grid[i + 1][i] = v
    return DenseMatrix(ring, grid)


def int_values(*payloads: int) -> tuple[RingValue, ...]:
    return tuple(ZZ(v) for v in payloads)


def int_grid(matrix: DenseMatrix) -> list[list[int]]:
    assert matrix.ring == ZZ
    return [
        [matrix[i, j].payload for j in range(matrix.ncols)]
        for i in range(matrix.nrows)
    ]
