"""Reduction to lower bidiagonal form, its sweep kernels, lattice seeding."""

import importlib
import pkgutil
import random

import pytest

import todasnf
from conftest import int_grid
from todasnf import (
    BidiagonalForm,
    DenseMatrix,
    GcdTodaState,
    PolyModP,
    RingValue,
    ZZ,
    bidiagonalize,
    determinant,
    gcd,
    run,
    seed_state,
)
from todasnf.elimination import mix_cols, mix_rows


def _random_int_matrix(rng, m, n, bound=20, zero_prob=0.2) -> DenseMatrix:
    return DenseMatrix(ZZ, [
        [0 if rng.random() < zero_prob else rng.randint(-bound, bound)
         for _ in range(n)]
        for _ in range(m)
    ])


def cofactors(a, b):
    """The sweep cofactors xgcd(a, b)[1:] = (p, q, s, t), as ring values."""
    ring = a.ring
    return tuple(RingValue(ring, v)
                 for v in ring.xgcd(a.payload, b.payload)[1:])


def test_gcd_rotation_contract():
    rng = random.Random(41)
    cases = [(ZZ(0), ZZ(-6)), (ZZ(6), ZZ(0)), (ZZ(-1), ZZ(1))]
    cases += [
        (ZZ(rng.randint(-50, 50)), ZZ(rng.randint(-50, 50)))
        for _ in range(200)
    ]
    for a, b in cases:
        if a.is_zero() and b.is_zero():
            continue
        p, q, s, t = cofactors(a, b)
        det = p * s - t * q
        assert det == ZZ(1), f"cofactors of ({a}, {b}) have det {det}"
        combined = (a * p + b * q, a * t + b * s)
        assert combined[1].is_zero(), f"cofactors of ({a}, {b}) left {combined}"
        assert combined[0] == gcd(a, b)


def test_gcd_rotation_poly():
    ring = PolyModP(5)
    rng = random.Random(42)
    for _ in range(80):
        a = ring(tuple(rng.randrange(5) for _ in range(rng.randint(0, 4))))
        b = ring(tuple(rng.randrange(5) for _ in range(rng.randint(0, 4))))
        if a.is_zero() and b.is_zero():
            continue
        p, q, s, t = cofactors(a, b)
        assert p * s - t * q == ring(1)
        assert (a * t + b * s).is_zero()


def test_block_updates_match_matrix_products():
    rng = random.Random(33)
    ring = ZZ
    for _ in range(50):
        n = rng.randint(2, 4)
        a = DenseMatrix(ring, [[rng.randint(-9, 9) for _ in range(n)]
                               for _ in range(n)])
        i1, i2 = rng.sample(range(n), 2)
        p, q, s, t = cof = tuple(rng.randint(-3, 3) for _ in range(4))

        def embed(block):
            """The identity with a 2x2 block at rows and columns (i1, i2)."""
            grid = DenseMatrix.identity(ring, n).payload_grid()
            grid[i1][i1], grid[i1][i2] = block[0]
            grid[i2][i1], grid[i2][i2] = block[1]
            return DenseMatrix(ring, grid)

        # Both kernels map (x, y) to (p x + q y, t x + s y): rows
        # left-multiply by ((p, q), (t, s)), columns right-multiply by
        # its transpose.
        grid = a.payload_grid()
        mix_rows(ring, grid, i1, i2, cof)
        assert DenseMatrix(ring, grid) == embed(((p, q), (t, s))) @ a
        grid = a.payload_grid()
        mix_cols(ring, grid, i1, i2, cof)
        assert DenseMatrix(ring, grid) == a @ embed(((p, t), (q, s)))


def test_submodules_are_reachable_by_attribute():
    # No package export may shadow the submodule of the same name.
    for info in pkgutil.iter_modules(todasnf.__path__):
        module = importlib.import_module(f"todasnf.{info.name}")
        assert getattr(todasnf, info.name) is module, info.name


def test_form_validation():
    form = BidiagonalForm(DenseMatrix(ZZ, [[2, 0], [4, 6]]))
    assert (form.k, form.corner) == (2, False)
    with pytest.raises(ValueError):
        BidiagonalForm(DenseMatrix(ZZ, [[1, 2], [0, 1]]))
    with pytest.raises(ValueError):
        BidiagonalForm(DenseMatrix(ZZ, [[1, 0, 0]]))
    corner = BidiagonalForm(DenseMatrix(ZZ, [[3, 0], [3, 0]]))
    assert (corner.k, corner.corner) == (1, True)
    # The trailing block past the leading nonzero diagonal must vanish.
    with pytest.raises(ValueError):
        BidiagonalForm(DenseMatrix(ZZ, [[0, 0], [0, 1]]))
    with pytest.raises(ValueError):
        BidiagonalForm(DenseMatrix(ZZ, [[1, 0, 0], [0, 0, 0], [0, 1, 0]]))


def test_reduction_shape_and_transforms():
    rng = random.Random(43)
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = _random_int_matrix(rng, m, n)
        form, p, q = bidiagonalize(a, transforms=True)
        padded = a.padded_square()
        assert p @ padded @ q == form.matrix, f"transforms broken for {a!r}"
        assert determinant(p) == ZZ(1)
        assert determinant(q) == ZZ(1)
        assert bidiagonalize(a) == form


def test_poly_reduction():
    ring = PolyModP(3)
    rng = random.Random(44)
    for _ in range(60):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = DenseMatrix(ring, [
            [[rng.randrange(3) for _ in range(rng.randint(0, 3))]
             for _ in range(n)]
            for _ in range(m)
        ])
        form, p, q = bidiagonalize(a, transforms=True)
        assert p @ a.padded_square() @ q == form.matrix


def _random_poly_matrix(rng, ring, m, n) -> DenseMatrix:
    return DenseMatrix(ring, [
        [[rng.randrange(ring.p) for _ in range(rng.randint(0, 3))]
         for _ in range(n)]
        for _ in range(m)
    ])


def test_transforms_at_pipeline_sizes():
    rng = random.Random(45)
    cases = []
    for n in range(6, 11):
        cases.append(_random_int_matrix(rng, n, n))
        cases.append(_random_int_matrix(rng, n, rng.randint(6, 10)))
        rank = rng.randint(2, n - 2)
        cases.append(_random_int_matrix(rng, n, rank, bound=5, zero_prob=0)
                     @ _random_int_matrix(rng, rank, n, bound=5, zero_prob=0))
    for p in (2, 5, 7):
        ring = PolyModP(p)
        for n in (6, 8, 10):
            cases.append(_random_poly_matrix(rng, ring, n, n))
            cases.append(_random_poly_matrix(rng, ring, n, n - 3))
            cases.append(_random_poly_matrix(rng, ring, n, 2)
                         @ _random_poly_matrix(rng, ring, 2, n + 1))
    for a in cases:
        form, p, q = bidiagonalize(a, transforms=True)
        assert p @ a.padded_square() @ q == form.matrix, f"broken for {a!r}"
        assert bidiagonalize(a) == form


def test_subdiagonal_forced_when_mass_remains():
    form = bidiagonalize(DenseMatrix(ZZ, [[2, 0], [0, 3]]))
    assert form.k == 2 and not form.corner
    assert not form.matrix[1, 0].is_zero(), "decoupled pivot freezes the lattice"
    outcome = run(seed_state(form))
    assert outcome.factors == (ZZ(1), ZZ(6))


def test_zero_matrix_has_no_seed():
    form = bidiagonalize(DenseMatrix(ZZ, [[0, 0], [0, 0]]))
    assert form.k == 0 and not form.corner
    assert int_grid(form.matrix) == [[0, 0], [0, 0]]
    with pytest.raises(ValueError):
        seed_state(form)


def test_corner_detection():
    form = bidiagonalize(DenseMatrix(ZZ, [[0, 0], [3, 4]]))
    assert form.k == 1 and form.corner
    seed = seed_state(form)
    assert seed.n == 2
    assert seed.diagonal[1].is_zero()
    assert not seed.subdiagonal[0].is_zero()
    outcome = run(seed)
    assert outcome.factors == (ZZ(1), ZZ(0))


def test_tall_rank_one_column():
    form = bidiagonalize(DenseMatrix(ZZ, [[0], [3]]))
    assert form.k == 1 and form.corner
    seed = seed_state(form)
    assert run(seed).factors == (ZZ(3), ZZ(0))


def test_already_bidiagonal_is_untouched():
    a = DenseMatrix(ZZ, [[2, 0, 0], [4, 6, 0], [0, 3, 9]])
    form = bidiagonalize(a)
    assert form.matrix == a
    assert form.k == 3 and not form.corner
    assert seed_state(form) == GcdTodaState(
        (ZZ(2), ZZ(6), ZZ(9)), (ZZ(4), ZZ(3))
    )


def test_seed_shapes():
    rng = random.Random(45)
    for _ in range(100):
        a = _random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        form = bidiagonalize(a)
        if form.k == 0:
            continue
        seed = seed_state(form)
        expected = form.k + 1 if form.corner else form.k
        assert seed.n == expected
        assert all(not v.is_zero() for v in seed.diagonal[:form.k])
        if form.corner:
            assert seed.diagonal[-1].is_zero()


def test_golden_transforms_of_a_dense_input():
    # Frozen output: any reordered or re-signed sweep changes B, P or Q.
    a = DenseMatrix(ZZ, [[4, -6, 2], [3, 5, -7], [-2, 8, 9]])
    form, p, q = bidiagonalize(a, transforms=True)
    assert int_grid(form.matrix) == [[2, 0, 0], [1, 1, 0], [0, 36, 275]]
    assert int_grid(p) == [[1, 0, 0], [0, -4, -3], [0, -9, -7]]
    assert int_grid(q) == [[0, 5, 41], [0, -1, -8], [1, -13, -106]]
