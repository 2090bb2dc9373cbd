"""Metamorphic properties of both SNF routes, checked with hypothesis.

Over ZZ (n <= 6) and GF(5)[x] (n <= 4) the invariant factors must not
move under a change of basis P A Q by products of elementary matrices,
under transposition, or under zero padding (which appends zero factors
only where min(rows, cols) grows), and scaling A by c must scale the
factors to the canonical forms of c times them.  The example budget and
derandomised search come from the profile in conftest.py.
"""

import pytest
from hypothesis import given, strategies as st

from todasnf import (
    DenseMatrix,
    PolyModP,
    ZZ,
    canonical,
    classical_snf,
    smith_normal_form,
)

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
