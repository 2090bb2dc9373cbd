"""Dense matrix container."""

import random
import time

import pytest

from conftest import call_counter, det_int_brute, det_poly_brute
from todasnf import (
    DenseMatrix,
    PolyModP,
    RingMismatchError,
    RingValue,
    ZZ,
    determinant,
)


def test_construction_and_shape():
    m = DenseMatrix(ZZ, [[1, 2, 3], [4, 5, 6]])
    assert (m.nrows, m.ncols) == (2, 3)
    assert m[1, 2] == ZZ(6)
    assert m.row(0) == (ZZ(1), ZZ(2), ZZ(3))
    assert repr(m) == "DenseMatrix(ZZ, 2x3: 1 2 3; 4 5 6)"
    with pytest.raises(ValueError):
        DenseMatrix(ZZ, [])
    with pytest.raises(ValueError):
        DenseMatrix(ZZ, [[]])
    with pytest.raises(ValueError):
        DenseMatrix(ZZ, [[1, 2], [3]])
    with pytest.raises(TypeError):
        DenseMatrix(ZZ, [[1.5]])


def test_construction_builds_no_ring_values(monkeypatch):
    rng = random.Random(33)
    grid = [[rng.randint(-99, 99) for _ in range(64)] for _ in range(64)]
    poly = [[[rng.randint(-9, 9) for _ in range(3)] for _ in range(8)]
            for _ in range(8)]
    wraps = call_counter(monkeypatch, RingValue, ("__init__",))
    DenseMatrix(ZZ, grid)
    DenseMatrix(PolyModP(5), poly)
    assert wraps["__init__"] == 0


class _Int(int):
    pass


def test_construction_keeps_payloads_and_errors():
    gf5 = PolyModP(5)
    plain = DenseMatrix(ZZ, [[1, 2], [3, -4]])
    mixed = DenseMatrix(ZZ, [[1, ZZ(2)], (ZZ(3), -4)])
    assert mixed == plain
    assert all(type(v) is int for row in mixed.payload_grid() for v in row)
    odd = _Int(7)
    kept = DenseMatrix(ZZ, [[odd, 1]])[0, 0].payload
    assert kept is ZZ.coerce(odd) and type(kept) is _Int
    assert (DenseMatrix(gf5, [[[1, 1], gf5([1, 1])], [-1, (0, 5)]])
            == DenseMatrix(gf5, [[(1, 1), [6, 1]], [4, 0]]))
    for ring, entry, error, text in (
            (ZZ, True, TypeError, "cannot coerce True into ZZ"),
            (ZZ, 1.5, TypeError, "cannot coerce 1.5 into ZZ"),
            (gf5, [1, True], TypeError, "cannot coerce [1, True] into GF(5)[x]"),
            (ZZ, gf5([1, 1]), RingMismatchError,
             "value from GF(5)[x] passed to ZZ"),
            (gf5, ZZ(1), RingMismatchError,
             "value from ZZ passed to GF(5)[x]")):
        for row in ([entry, 1], [1, 2, entry]):
            with pytest.raises(error) as info:
                DenseMatrix(ring, [[1, 2, 3], row])
            assert str(info.value) == text
    for rows, text in (([], "matrix needs at least one row and one column"),
                       ([[]], "matrix needs at least one row and one column"),
                       ([[1, 2], [3]], "rows must all have the same length"),
                       ([[1], [ZZ(2), 3]], "rows must all have the same length")):
        with pytest.raises(ValueError) as info:
            DenseMatrix(ZZ, rows)
        assert str(info.value) == text


def test_identity_and_matmul():
    rng = random.Random(31)
    for _ in range(50):
        m, k, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = DenseMatrix(ZZ, [[rng.randint(-9, 9) for _ in range(k)]
                             for _ in range(m)])
        b = DenseMatrix(ZZ, [[rng.randint(-9, 9) for _ in range(n)]
                             for _ in range(k)])
        prod = a @ b
        for i in range(m):
            for j in range(n):
                expected = sum(
                    a[i, t].payload * b[t, j].payload for t in range(k)
                )
                assert prod[i, j] == ZZ(expected)
        eye = DenseMatrix.identity(ZZ, m)
        assert eye @ a == a
    with pytest.raises(ValueError):
        DenseMatrix(ZZ, [[1, 2]]) @ DenseMatrix(ZZ, [[1, 2]])
    with pytest.raises(ValueError, match="different rings"):
        DenseMatrix(ZZ, [[1]]) @ DenseMatrix(PolyModP(5), [[1]])


def test_padded_square():
    wide = DenseMatrix(ZZ, [[1, 2, 3]])
    square = wide.padded_square()
    assert (square.nrows, square.ncols) == (3, 3)
    assert square.payload_grid() == [[1, 2, 3], [0, 0, 0], [0, 0, 0]]
    tall = DenseMatrix(ZZ, [[1], [2]])
    assert tall.padded_square().payload_grid() == [[1, 0], [2, 0]]
    assert tall.padded_square().padded_square() == tall.padded_square()


def test_is_lower_bidiagonal():
    assert DenseMatrix(ZZ, [[2, 0], [4, 6]]).is_lower_bidiagonal()
    assert DenseMatrix(ZZ, [[2, 0], [0, 0]]).is_lower_bidiagonal()
    assert not DenseMatrix(ZZ, [[2, 1], [4, 6]]).is_lower_bidiagonal()
    assert not DenseMatrix(ZZ, [[2, 0, 0], [4, 6, 0], [5, 3, 9]]
                           ).is_lower_bidiagonal()
    assert DenseMatrix(ZZ, [[1, 0, 0], [1, 1, 0]]).is_lower_bidiagonal()


def test_determinant_matches_permutation_expansion():
    rng = random.Random(32)
    for _ in range(80):
        n = rng.randint(1, 5)
        m = DenseMatrix(ZZ, [[rng.randint(-9, 9) for _ in range(n)]
                             for _ in range(n)])
        assert determinant(m) == ZZ(det_int_brute(m.payload_grid()))
    with pytest.raises(ValueError):
        determinant(DenseMatrix(ZZ, [[1, 2]]))


def _sparse_entries(rng, ring, n, zero_prob):
    """An n by n grid of small entries, some zero, for pivot swaps."""
    def entry():
        if rng.random() < zero_prob:
            return 0
        if ring is ZZ:
            return rng.randint(-9, 9)
        return [rng.randrange(ring.p) for _ in range(rng.randint(1, 3))]
    grid = [[entry() for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.2:
        grid[-1] = list(grid[0])  # singular
    return grid


def test_determinant_matches_brute_force_over_both_rings():
    rng = random.Random(35)
    for n in range(1, 8):
        for _ in range(12 if n < 6 else 3):
            grid = _sparse_entries(rng, ZZ, n, rng.choice([0, 0.3, 0.6]))
            expected = ZZ(det_int_brute(grid))
            assert determinant(DenseMatrix(ZZ, grid)) == expected
    for p in (2, 5, 7):
        ring = PolyModP(p)
        for n in range(1, 7):
            for _ in range(4 if n < 6 else 1):
                m = DenseMatrix(ring, _sparse_entries(
                    rng, ring, n, rng.choice([0, 0.3, 0.6])))
                grid = m.payload_grid()
                assert determinant(m).payload == det_poly_brute(grid, p)


def test_determinant_of_large_unimodular_products_is_fast():
    rng = random.Random(36)
    n = 30
    for ring in (ZZ, PolyModP(5)):
        # Elementary row operations on the identity, tracking the
        # determinant they multiply in: -1 per swap, u per scaling by u.
        grid = DenseMatrix.identity(ring, n).payload_grid()
        expected = ring.one
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2)
            kind = rng.random()
            if kind < 0.1:
                grid[i], grid[j] = grid[j], grid[i]
                expected = -expected
            elif kind < 0.2:
                unit = ring(-1 if ring is ZZ else rng.randint(1, 4))
                grid[i] = [ring.mul(unit.payload, v) for v in grid[i]]
                expected = expected * unit
            else:
                c = ring.coerce(rng.choice([-2, -1, 1, 2]) if ring is ZZ else
                                [rng.randrange(5) for _ in range(2)])
                grid[i] = [ring.add(x, ring.mul(c, y))
                           for x, y in zip(grid[i], grid[j])]
        m = DenseMatrix.from_payloads(ring, grid)
        start = time.perf_counter()
        det = determinant(m)
        elapsed = time.perf_counter() - start
        assert det.is_unit() and det == expected
        assert elapsed < 1.0, f"{n}x{n} determinant took {elapsed:.2f} s"


def test_poly_matrix_entries():
    ring = PolyModP(3)
    m = DenseMatrix(ring, [[[1, 1], 2], [0, [0, 0, 1]]])
    assert m[0, 0] == ring([1, 1])
    assert not m[1, 0]
    assert str(m[1, 1]) == "[0,0,1]"
    assert repr(m) == "DenseMatrix(GF(3)[x], 2x2: [1,1] [2]; [0] [0,0,1])"


def _random_entries(rng, ring, m, n):
    if ring is ZZ:
        return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    return [[[rng.randrange(ring.p) for _ in range(rng.randint(0, 3))]
             for _ in range(n)] for _ in range(m)]


def test_payload_storage():
    rng = random.Random(34)
    for ring in (ZZ, PolyModP(2), PolyModP(5), PolyModP(7)):
        for _ in range(10):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            a = DenseMatrix(ring, _random_entries(rng, ring, m, n))
            copy = DenseMatrix.from_payloads(ring, a.payload_grid())
            assert copy == a and hash(copy) == hash(a)
            # The grid is a copy: mutating it leaves the matrix alone.
            grid = a.payload_grid()
            before = a.rows()
            grid[0][0] = ring.coerce(1 if not grid[0][0] else 0)
            grid.append(list(grid[0]))
            assert a.rows() == before and a == copy
            square = DenseMatrix(ring, _random_entries(rng, ring, m, m))
            assert square.padded_square() == square
            eye = DenseMatrix(ring, [[1 if i == j else 0 for j in range(m)]
                                     for i in range(m)])
            assert DenseMatrix.identity(ring, m) == eye
            assert hash(DenseMatrix.identity(ring, m)) == hash(eye)


def test_bands_are_the_diagonal_and_subdiagonal():
    rng = random.Random(37)
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        grid = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        q, e = DenseMatrix(ZZ, grid).bands()
        assert q == tuple(grid[i][i] for i in range(min(m, n)))
        assert e == tuple(grid[i + 1][i] for i in range(min(m - 1, n)))
    ring = PolyModP(5)
    assert DenseMatrix(ring, [[[1, 2], 0], [3, 0]]).bands() == (((1, 2), ()),
                                                               ((3,),))
