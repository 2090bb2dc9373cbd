"""Dense matrix container and the 2x2 block update kernels."""

import random

import pytest

from conftest import det_int_brute, int_grid
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
            before = a.to_grid()
            grid[0][0] = ring.coerce(1 if ring.is_zero(grid[0][0]) else 0)
            grid.append(list(grid[0]))
            assert a.to_grid() == before and a == copy
            square = DenseMatrix(ring, _random_entries(rng, ring, m, m))
            assert square.padded_square() == square
            eye = DenseMatrix(ring, [[1 if i == j else 0 for j in range(m)]
                                     for i in range(m)])
            assert DenseMatrix.identity(ring, m) == eye
            assert hash(DenseMatrix.identity(ring, m)) == hash(eye)
