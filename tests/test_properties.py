"""Metamorphic properties of both SNF routes, checked with hypothesis.

Over ZZ (n <= 6) and GF(5)[x] (n <= 4) the invariant factors must not
move under a change of basis P A Q by products of elementary matrices,
under transposition, or under zero padding (which appends zero factors
only where min(rows, cols) grows), and scaling A by c must scale the
factors to the canonical forms of c times them.

Over ZZ the rank profile of the Bareiss elimination must give the rank
and a nonzero minor of that order, found here by enumeration, and the
lattice route run modulo D from its first kernel must agree with the
exact route for D and for every multiple c D.  On a planted input, a
known chain mixed by elementary additions (conftest.planted_int_grid),
smith_normal_form must return the chain itself, full rank or not, for
n <= 24.  On the boundary map of a wedge of Moore spaces M(Z/k, 1)
(conftest.moore_wedge) it must return ones and then the invariant
factors of the direct sum of the Z/k, the torsion topology plants.

On bidiagonal seeds over both rings, run, whose steps share one
divisibility memo, must take as many steps to the same final state as
chained gcd_step calls, which keep none.  The example budget and
derandomised search come from the profile in conftest.py.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    det_int_brute,
    invariant_chain,
    moore_wedge,
    planted_int_grid,
)
from todasnf import (
    DenseMatrix,
    GcdTodaState,
    PolyModP,
    ZZ,
    canonical,
    classical_snf,
    gcd_step,
    run,
    smith_normal_form,
    terminated,
)
from todasnf.elimination import _Modulus, _rank_minor
from todasnf.snf import _lattice_snf

GF5 = PolyModP(5)
#: Ring, largest side, and a strategy for one entry as native data.
RINGS = {
    "ZZ": (ZZ, 6, st.integers(-9, 9)),
    "GF5": (GF5, 4, st.lists(st.integers(0, 4), max_size=3)),
}
ROUTES = pytest.mark.parametrize("route", [smith_normal_form, classical_snf])
RING_NAMES = pytest.mark.parametrize("name", sorted(RINGS))


@st.composite
def matrices(draw, name):
    ring, top, entry = RINGS[name]
    m, n = draw(st.integers(1, top)), draw(st.integers(1, top))
    row = st.lists(entry, min_size=n, max_size=n)
    return DenseMatrix(ring, draw(st.lists(row, min_size=m, max_size=m)))


@st.composite
def elementary_product(draw, name, n):
    """A product of row swaps, sign or unit scalings and row additions."""
    ring, _, entry = RINGS[name]
    unit = ring(-1 if ring is ZZ else 2)
    grid = [list(row) for row in DenseMatrix.identity(ring, n).rows()]
    ops = st.tuples(st.integers(0, 2), st.integers(0, n - 1),
                    st.integers(0, n - 1), entry)
    for kind, i, j, c in draw(st.lists(ops, max_size=8)):
        if kind == 0:
            grid[i], grid[j] = grid[j], grid[i]
        elif kind == 1:
            grid[i] = [unit * v for v in grid[i]]
        elif i != j:
            grid[i] = [a + ring(c) * b for a, b in zip(grid[i], grid[j])]
    return DenseMatrix(ring, grid)


@ROUTES
@RING_NAMES
@given(data=st.data())
def test_invariant_under_elementary_change_of_basis(route, name, data):
    a = data.draw(matrices(name))
    p = data.draw(elementary_product(name, a.nrows))
    q = data.draw(elementary_product(name, a.ncols))
    assert route(p @ a @ q).factors == route(a).factors


@ROUTES
@RING_NAMES
@given(data=st.data())
def test_invariant_under_transposition(route, name, data):
    a = data.draw(matrices(name))
    transposed = DenseMatrix(a.ring, list(zip(*a.rows())))
    assert route(transposed).factors == route(a).factors


@ROUTES
@RING_NAMES
@given(data=st.data())
def test_zero_padding_appends_zero_factors(route, name, data):
    a = data.draw(matrices(name))
    extra_rows, extra_cols = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    zero = a.ring.zero
    rows = [list(row) + [zero] * extra_cols for row in a.rows()]
    rows += [[zero] * (a.ncols + extra_cols)] * extra_rows
    grown = min(a.nrows + extra_rows, a.ncols + extra_cols) - min(a.nrows, a.ncols)
    expected = route(a).factors + (zero,) * grown
    assert route(DenseMatrix(a.ring, rows)).factors == expected


@ROUTES
@RING_NAMES
@given(data=st.data())
def test_scaling_scales_the_factors(route, name, data):
    a = data.draw(matrices(name))
    c = a.ring(data.draw(RINGS[name][2]))
    scaled = DenseMatrix(a.ring, [[c * v for v in row] for row in a.rows()])
    expected = tuple(canonical(c * f) for f in route(a).factors)
    assert route(scaled).factors == expected


@st.composite
def low_rank_grids(draw, top=5):
    """Integer L @ R, m x k times k x n, so the rank is at most k."""
    m, n = draw(st.integers(1, top)), draw(st.integers(1, top))
    k = draw(st.integers(1, min(m, n)))
    small = st.integers(-3, 3)
    left = draw(st.lists(st.lists(small, min_size=k, max_size=k),
                         min_size=m, max_size=m))
    right = draw(st.lists(st.lists(small, min_size=n, max_size=n),
                          min_size=k, max_size=k))
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
            for row in left]


def _minors(grid, k):
    """Every k x k minor of a grid, by permutation sums."""
    return {det_int_brute([[grid[i][j] for j in cols] for i in rows])
            for rows in combinations(range(len(grid)), k)
            for cols in combinations(range(len(grid[0])), k)}


@given(grid=low_rank_grids())
def test_rank_profile_matches_enumeration(grid):
    rank, d = _rank_minor([row[:] for row in grid])
    by_minors = max((k for k in range(1, min(len(grid), len(grid[0])) + 1)
                     if any(_minors(grid, k))), default=0)
    assert rank == by_minors
    assert d > 0 and (rank == 0 or d in map(abs, _minors(grid, rank)))


def _mod_route(a, multiple=1):
    """The lattice route, reduced modulo multiple * D from its first kernel."""
    rank, d = _rank_minor(a.payload_grid())
    return _lattice_snf(a, None, _Modulus(ZZ, a, rank, multiple * d)).factors


@given(data=st.data())
def test_exact_and_mod_d_routes_agree(data):
    a = data.draw(st.one_of(matrices("ZZ"), low_rank_grids(6).map(
        lambda grid: DenseMatrix(ZZ, grid))))
    assert _mod_route(a) == _lattice_snf(a, None, _Modulus(ZZ)).factors


@given(data=st.data())
def test_any_multiple_of_d_gives_the_same_factors(data):
    a = data.draw(st.one_of(matrices("ZZ"), low_rank_grids(6).map(
        lambda grid: DenseMatrix(ZZ, grid))))
    c = data.draw(st.integers(-50, 50).filter(bool))
    assert _mod_route(a, c) == _mod_route(a)


@given(data=st.data())
def test_planted_chain_comes_back(data):
    n = data.draw(st.integers(1, 24))
    rank = data.draw(st.one_of(st.just(n), st.integers(0, n)))
    seed = data.draw(st.integers(0, 2**32))
    grid, chain = planted_int_grid(random.Random(seed), n, rank, 12 * n)
    factors = smith_normal_form(DenseMatrix(ZZ, grid)).factors
    assert [v.payload for v in factors] == chain


@settings(max_examples=20)
@given(ks=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       m=st.integers(3, 4))
def test_moore_wedge_torsion_comes_back(ks, m):
    grid = moore_wedge(ks, m, 1)
    factors = [v.payload for v in smith_normal_form(DenseMatrix(ZZ, grid)).factors]
    chain = invariant_chain(ks)
    assert factors == [1] * (len(grid[0]) - len(chain)) + chain


@st.composite
def lattice_seeds(draw):
    """A seed run accepts: only the last diagonal entry may be zero."""
    ring, _, entry = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    n = draw(st.integers(1, 10))
    nonzero = entry.map(ring).filter(lambda v: not v.is_zero())
    diag = draw(st.lists(nonzero, min_size=n - 1, max_size=n - 1))
    sub = draw(st.lists(nonzero, min_size=n - 1, max_size=n - 1))
    return GcdTodaState(diag + [draw(entry.map(ring))], sub)


@given(seed=lattice_seeds())
def test_run_steps_as_chained_gcd_steps(seed):
    outcome = run(seed)
    state, steps = gcd_step(seed), 1
    while not terminated(state):
        state, steps = gcd_step(state), steps + 1
    assert outcome.iterations == steps
    assert outcome.final == state == outcome.trace[-1]
