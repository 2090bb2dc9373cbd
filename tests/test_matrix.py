"""Dense matrix container and the 2x2 block update kernels."""

import random
import time

import pytest

from conftest import det_int_brute, det_poly_brute, int_grid
from todasnf import DenseMatrix, PolyModP, ZZ, determinant
from todasnf.matrix import mix_cols, mix_rows, transpose_block


def test_construction_and_shape():
    m = DenseMatrix(ZZ, [[1, 2, 3], [4, 5, 6]])
    assert (m.nrows, m.ncols) == (2, 3)
    assert m[1, 2] == ZZ(6)
    assert m.row(0) == (ZZ(1), ZZ(2), ZZ(3))
    with pytest.raises(ValueError):
        DenseMatrix(ZZ, [])
    with pytest.raises(ValueError):
        DenseMatrix(ZZ, [[]])
    with pytest.raises(ValueError):
        DenseMatrix(ZZ, [[1, 2], [3]])
    with pytest.raises(TypeError):
        DenseMatrix(ZZ, [[1.5]])


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


def test_padded_square():
    wide = DenseMatrix(ZZ, [[1, 2, 3]])
    square = wide.padded_square()
    assert (square.nrows, square.ncols) == (3, 3)
    assert int_grid(square) == [[1, 2, 3], [0, 0, 0], [0, 0, 0]]
    tall = DenseMatrix(ZZ, [[1], [2]])
    assert int_grid(tall.padded_square()) == [[1, 0], [2, 0]]
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
        assert determinant(m) == ZZ(det_int_brute(int_grid(m)))
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


def test_block_updates_match_matrix_products():
    rng = random.Random(33)
    ring = ZZ
    for _ in range(50):
        n = rng.randint(2, 4)
        a = DenseMatrix(ring, [[rng.randint(-9, 9) for _ in range(n)]
                               for _ in range(n)])
        i1, i2 = rng.sample(range(n), 2)
        block = tuple(
            tuple(rng.randint(-3, 3) for _ in range(2))
            for _ in range(2)
        )
        # Embed the block into an identity; rows left-multiply by it and
        # columns right-multiply by it.
        embed = DenseMatrix.identity(ring, n).payload_grid()
        embed[i1][i1], embed[i1][i2] = block[0]
        embed[i2][i1], embed[i2][i2] = block[1]
        embedded = DenseMatrix(ring, embed)
        grid = a.payload_grid()
        mix_rows(ring, grid, i1, i2, block)
        assert DenseMatrix(ring, grid) == embedded @ a
        grid = a.payload_grid()
        mix_cols(ring, grid, i1, i2, block)
        assert DenseMatrix(ring, grid) == a @ embedded


def test_transpose_block():
    b = ((ZZ(1), ZZ(2)), (ZZ(3), ZZ(4)))
    assert transpose_block(b) == ((ZZ(1), ZZ(3)), (ZZ(2), ZZ(4)))
    assert transpose_block(transpose_block(b)) == b


def test_poly_matrix_entries():
    ring = PolyModP(3)
    m = DenseMatrix(ring, [[[1, 1], 2], [0, [0, 0, 1]]])
    assert m[0, 0] == ring([1, 1])
    assert m[1, 0].is_zero()
    assert str(m[1, 1]) == "[0,0,1]"


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
            grid[0][0] = ring.coerce(1 if ring.is_zero(grid[0][0]) else 0)
            grid.append(list(grid[0]))
            assert a.rows() == before and a == copy
            square = DenseMatrix(ring, _random_entries(rng, ring, m, m))
            assert square.padded_square() == square
            eye = DenseMatrix(ring, [[1 if i == j else 0 for j in range(m)]
                                     for i in range(m)])
            assert DenseMatrix.identity(ring, m) == eye
            assert hash(DenseMatrix.identity(ring, m)) == hash(eye)
