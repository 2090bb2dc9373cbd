"""Shared helpers for the test suite.

The oracle functions here are deliberately independent of the package:
they work on plain ints and coefficient tuples, use enumeration where
the package uses algebra, and exist so expected values are computed by a
second route.  Builder helpers at the bottom construct package objects
for convenience and are not oracles; with the call counter after them they
are also the seeds and the instrument of tools/lattice_counts.py and
tools/output_digest.py.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

from hypothesis import settings

from todasnf import DenseMatrix, GcdTodaState, PolyModP, RingValue, ZZ

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


def planted_int_grid(rng, n: int, rank: int, ops: int):
    """An n x n integer grid whose Smith normal form is known, with it.

    The chain s_1 | s_2 | ... | s_rank grows by a factor drawn from
    (1, 1, 1, 2, 3, 5, 7) at each step, from s_0 = 1, and zeros follow
    the rank.  Its diagonal matrix is mixed by ops random elementary
    additions of one row, or one column, times c in [-2, 2] to another;
    each has determinant one, so the chain stays the answer.  Returns
    (grid, chain).
    """
    chain, s = [], 1
    for _ in range(rank):
        s *= rng.choice((1, 1, 1, 2, 3, 5, 7))
        chain.append(s)
    chain += [0] * (n - rank)
    grid = [[chain[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        if rng.random() < 0.5:
            grid[i] = [a + c * b for a, b in zip(grid[i], grid[j])]
        else:
            for row in grid:
                row[i] += c * row[j]
    return grid, chain


def bareiss_rank_minor(grid) -> tuple[int, int]:
    """(r, |D|) of an integer grid by one full-pivot Bareiss pass: each
    pivot is the first nonzero entry, row by row, of the block left to
    eliminate, swapped into place, and every remaining row is rescaled
    at every step.  D is the minor on the pivot rows and columns (1 when
    r is 0).  Leaves grid as it was.

    Not an independent oracle: the eager pass elimination._rank_minor
    ran before any lazier one, kept as the reference it must match.
    """
    grid = [list(row) for row in grid]
    m, n = len(grid), len(grid[0])
    prev, r = 1, 0
    for t in range(min(m, n)):
        at = next(((i, j) for i in range(t, m) for j in range(t, n)
                   if grid[i][j]), None)
        if at is None:
            break
        swap, col = at
        for row in grid:
            row[t], row[col] = row[col], row[t]
        grid[t], grid[swap] = grid[swap], grid[t]
        pivot, tail = grid[t][t], grid[t][t + 1:]
        for row in grid[t + 1:]:
            lead = row[t]
            row[t + 1:] = [(pivot * x - lead * y) // prev
                           for x, y in zip(row[t + 1:], tail)]
        prev, r = pivot, t + 1
    return r, abs(prev)


# -- boundary matrices of simplicial complexes ------------------------------


def boundary_grid(triangles):
    """The boundary map d2 (edges x triangles) of a 2-complex, an int grid.

    Each triangle [a < b < c] is oriented as [b, c] - [a, c] + [a, b]
    and numbered as given; edges are numbered in order of first
    appearance.  Asserts that the triangles are distinct vertex sets, so
    the complex is simplicial, and that d1 d2 = 0, with d1 sending each
    edge [u < v] to v - u.
    """
    cols = [tuple(sorted(t)) for t in triangles]
    assert len(set(cols)) == len(cols)
    edges = {}
    grid_cols = []
    for a, b, c in cols:
        assert a < b < c
        grid_cols.append([(edges.setdefault(edge, len(edges)), sign)
                          for edge, sign in (((b, c), 1), ((a, c), -1),
                                             ((a, b), 1))])
    ends = list(edges)
    for col in grid_cols:
        d1d2 = {}
        for i, sign in col:
            u, v = ends[i]
            d1d2[u] = d1d2.get(u, 0) - sign
            d1d2[v] = d1d2.get(v, 0) + sign
        assert not any(d1d2.values())
    grid = [[0] * len(cols) for _ in ends]
    for j, col in enumerate(grid_cols):
        for i, sign in col:
            grid[i][j] = sign
    return grid


def random_complex(n: int, c: float, rng):
    """d2 of a Linial-Meshulam random 2-complex Y(n, c / n): the full
    1-skeleton on n vertices, and each triangle kept with probability
    c / n, drawn from rng in lexicographic order.

    One row per edge of K_n, C(n, 2) in all: the edges of kept triangles
    as boundary_grid numbers them, then a zero row for each edge that
    bounds no triangle.  With no triangle kept the rows are empty.
    """
    triangles = [t for t in itertools.combinations(range(n), 3)
                 if rng.random() < c / n]
    grid = boundary_grid(triangles) if triangles else []
    return grid + [[0] * len(triangles)
                   for _ in range(math.comb(n, 2) - len(grid))]


def surface_grid(n: int, twist: bool):
    """d2 of an n x n grid of squares, each cut along a diagonal, glued
    into a torus, or into a Klein bottle when twist is set: 3 n^2 edges
    by 2 n^2 triangles, n >= 3.

    Grid point (i, j) is glued to (i, j + n) and to (i + n, j), or with
    the twist to (i + n, -j).  H_1 is Z^2 on the torus and Z + Z/2 on
    the Klein bottle; H_2 is Z and 0.  So the factors are 2 n^2 - 1 ones
    and a 0, or 2 n^2 - 1 ones and a 2.
    """
    def vertex(i, j):
        if i == n:
            i, j = 0, -j if twist else j
        return i * n + j % n

    triangles = []
    for i in range(n):
        for j in range(n):
            a, b = vertex(i, j), vertex(i + 1, j + 1)
            triangles += [(a, vertex(i + 1, j), b), (a, vertex(i, j + 1), b)]
    return boundary_grid(triangles)


def moore_wedge(ks, m: int, rings: int):
    """d2 of a wedge of Moore spaces M(Z/k, 1), one per k in ks, m >= 3
    and rings >= 1: m + k m (3 rings + 1) edges and k m (2 rings + 1)
    triangles per k.

    Each piece is a disk of rings concentric rings of k m vertices around
    a centre.  Its boundary winds k times around a circle of m vertices,
    and the circles of all pieces share vertex 0.  So H_1 is the direct
    sum of the Z/k and H_2 is 0: the factors are ones and then the
    invariant factors of that sum (see invariant_chain).
    """
    triangles, top = [], 1
    for k in ks:
        circle = [0] + list(range(top, top + m - 1))
        top += m - 1
        outer, size = [circle[t % m] for t in range(k * m)], k * m
        for _ in range(rings):
            inner = list(range(top, top + size))
            top += size
            for t in range(size):
                u = (t + 1) % size
                triangles += [(outer[t], outer[u], inner[t]),
                              (outer[u], inner[t], inner[u])]
            outer = inner
        triangles += [(top, outer[t], outer[(t + 1) % size])
                      for t in range(size)]
        top += 1
    return boundary_grid(triangles)


def invariant_chain(ks) -> list[int]:
    """The invariant factors above 1 of the direct sum of the Z/k.

    Replacing each pair (a, b) by (gcd, lcm), over all pairs in order,
    leaves a divisibility chain with the same product and the same
    group.
    """
    chain = list(ks)
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = math.gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] * chain[j] // g
    return [k for k in chain if k > 1]


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


# -- the Euclidean loop of the Ring contract ---------------------------------


def euclid_xgcd(ring, a, b):
    """Bezout data (d, p, q, s, t) of two payloads by the Ring contract's
    loop, written once on the ring's add, neg, mul and divmod.

    Not an independent oracle: the spec that every ring's own xgcd must
    match tuple for tuple, since the sweeps' forms, P, Q and traces rest
    on these cofactors, not merely on some Bezout tuple.
    """
    if not a and not b:
        raise ValueError("extended gcd of (0, 0) is undefined")
    add, neg, mul, quorem = ring.add, ring.neg, ring.mul, ring.divmod
    one, zero = ring.coerce(1), ring.coerce(0)
    r0, x0, y0 = a, one, zero
    r1, x1, y1 = b, zero, one
    while r1:
        quot, rem = quorem(r0, r1)
        r0, r1 = r1, rem
        x0, x1 = x1, add(x0, neg(mul(quot, x1)))
        y0, y1 = y1, add(y0, neg(mul(quot, y1)))
    u = ring.canonicalizing_unit(r0)
    d = mul(u, r0)
    return (d, mul(u, x0), mul(u, y0), quorem(a, d)[0],
            neg(quorem(b, d)[0]))


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


def int_state(diag, sub) -> GcdTodaState:
    return GcdTodaState(int_values(*diag), int_values(*sub))


def random_int_matrix(rng, m, n, bound=20, zero_prob=0.2) -> DenseMatrix:
    return DenseMatrix(ZZ, [
        [0 if rng.random() < zero_prob else rng.randint(-bound, bound)
         for _ in range(n)]
        for _ in range(m)
    ])


def smooth_seed(n=32):
    """The n = 32 lattice seed of 2^a 3^b 5^c entries, a, b, c <= 6,
    drawn from Random(60), or one of n."""
    rng = random.Random(60)

    def smooth():
        return 2 ** rng.randint(0, 6) * 3 ** rng.randint(0, 6) * 5 ** rng.randint(0, 6)

    return int_state([smooth() for _ in range(n)],
                     [smooth() for _ in range(n - 1)])


def poly_seed():
    """A 16-level GF(5)[x] seed of products x**i (x + 1)**j, i, j < 4."""
    ring = PolyModP(5)
    x, x1 = ring([0, 1]), ring([1, 1])
    powers = [x ** i * x1 ** j for i in range(4) for j in range(4)]
    rng = random.Random(23)
    return GcdTodaState([rng.choice(powers) for _ in range(16)],
                        [rng.choice(powers) for _ in range(15)])


def small_seeds():
    """60 random ZZ seeds of 2 to 12 blocks, entries 1 to 30."""
    rng = random.Random(27)
    sizes = [rng.randint(2, 12) for _ in range(60)]
    return [int_state([rng.randint(1, 30) for _ in range(n)],
                      [rng.randint(1, 30) for _ in range(n - 1)])
            for n in sizes]


def ladder_draws():
    """The dense draws the scale measurements use, as (ring, grids, budget).

    ZZ: Random(1), five randint(-20, 20) n x n grids per n in 4, 8, 12,
    16, 20; the rungs are n = 16 and n = 20.  Random(2), one such grid at
    n = 32 and the next one at n = 48, the largest rung.  GF(p)[x]:
    Random(3), three grids of degree < 3 entries per n in 8, 10, 12, 14,
    for p = 2 then 5; the rungs are GF(2)[x] at 12 and GF(5)[x] at 14.
    Without the mod-D sweeps of smith_normal_form the ZZ 20 x 20 draws
    took 0.7-5.2 s each in coefficient growth; with them they take about
    10 ms.  The GF(2)[x] 14 x 14 draws still stall (over 30 s for one),
    so they are not a rung yet.  Each budget is about five times the
    rung's measured wall time, both routes included.
    """
    rng = random.Random(1)
    zz = {n: [[[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
              for _ in range(5)] for n in (4, 8, 12, 16, 20)}
    rng = random.Random(2)
    for n in (32, 48):
        zz[n] = [[[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]]
    rng = random.Random(3)
    gf = {(p, n): [[[[rng.randrange(p) for _ in range(3)] for _ in range(n)]
                    for _ in range(n)] for _ in range(3)]
          for p in (2, 5) for n in (8, 10, 12, 14)}
    return [(ZZ, zz[16], 5.0), (ZZ, zz[20], 0.5), (ZZ, zz[32], 0.4),
            (ZZ, zz[48], 1.5),
            (PolyModP(2), gf[2, 12], 3.0), (PolyModP(5), gf[5, 14], 3.0)]


# -- the call counter --------------------------------------------------------


def call_counter(monkeypatch, owner, names) -> Counter:
    """A Counter of the calls to owner's named methods, patched through
    monkeypatch (a pytest.MonkeyPatch) until it is undone.

    owner is a class, whose methods are counted on every instance, or a
    ring, whose class gets static methods that call the ring's own.
    """
    calls = Counter()

    def counted(name, original):
        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    for name in names:
        call = counted(name, getattr(owner, name))
        if isinstance(owner, type):
            monkeypatch.setattr(owner, name, call)
        else:
            monkeypatch.setattr(type(owner), name, staticmethod(call))
    return calls
