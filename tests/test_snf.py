"""Smith normal form: lattice route against classical route and minors."""

import random

import pytest

from conftest import int_grid, minors_gcd_int_brute
from todasnf import (
    DenseMatrix,
    PolyModP,
    RingValue,
    SnfResult,
    ZZ,
    bidiagonalize,
    classical_snf,
    minors_gcd,
    smith_normal_form,
    verify,
)


def _random_int_matrix(rng, m, n, bound=20, zero_prob=0.2) -> DenseMatrix:
    return DenseMatrix(ZZ, [
        [0 if rng.random() < zero_prob else rng.randint(-bound, bound)
         for _ in range(n)]
        for _ in range(m)
    ])


def test_frozen_small_cases():
    cases = [
        ([[5]], (5,)),
        ([[0]], (0,)),
        ([[2, 0], [0, 3]], (1, 6)),
        ([[4, 0], [0, 6]], (2, 12)),
        ([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], (2, 2, 156)),
        ([[0], [3]], (3,)),
        ([[1, 2, 3]], (1,)),
        ([[2, 4], [6, 8]], (2, 4)),
        ([[0, 0], [0, 0]], (0, 0)),
        ([[3, 0], [0, 0]], (3, 0)),
    ]
    for grid, expected in cases:
        matrix = DenseMatrix(ZZ, grid)
        for result in (smith_normal_form(matrix), classical_snf(matrix)):
            got = tuple(v.payload for v in result.factors)
            assert got == expected, f"{grid}: got {got}, expected {expected}"
            assert verify(matrix, result)


def test_identity_and_diagonal():
    eye = DenseMatrix.identity(ZZ, 4)
    assert [v.payload for v in smith_normal_form(eye).factors] == [1, 1, 1, 1]
    diag = DenseMatrix(ZZ, [[6, 0, 0], [0, 10, 0], [0, 0, 15]])
    assert [v.payload for v in smith_normal_form(diag).factors] == [1, 30, 30]


def test_method_tags_and_iterations():
    matrix = DenseMatrix(ZZ, [[2, 0, 0], [4, 6, 0], [0, 3, 9]])
    toda = smith_normal_form(matrix)
    classical = classical_snf(matrix)
    assert toda.method == "toda" and classical.method == "classical"
    assert toda.iterations == 4 and classical.iterations == 0
    assert toda.factors == classical.factors
    assert toda.trace is None
    traced = smith_normal_form(matrix, keep_trace=True)
    assert traced.trace is not None and len(traced.trace) == 5
    assert traced == toda, "trace must not affect result equality"


def test_routes_agree_on_random_dense():
    rng = random.Random(51)
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        matrix = _random_int_matrix(rng, m, n)
        a = smith_normal_form(matrix)
        b = classical_snf(matrix)
        assert a.factors == b.factors, (
            f"routes disagree on {int_grid(matrix)}: "
            f"{[str(v) for v in a.factors]} vs {[str(v) for v in b.factors]}"
        )


def test_factor_products_match_brute_minors():
    rng = random.Random(52)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        matrix = _random_int_matrix(rng, m, n, bound=9)
        factors = smith_normal_form(matrix).factors
        product = 1
        for k in range(1, min(m, n) + 1):
            product *= factors[k - 1].payload
            assert product == minors_gcd_int_brute(int_grid(matrix), k)


def test_minors_gcd_matches_enumeration():
    rng = random.Random(53)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        matrix = _random_int_matrix(rng, m, n, bound=9)
        for k in range(1, min(m, n) + 1):
            expected = minors_gcd_int_brute(int_grid(matrix), k)
            assert minors_gcd(matrix, k) == ZZ(expected)
    with pytest.raises(ValueError):
        minors_gcd(DenseMatrix(ZZ, [[1]]), 2)
    with pytest.raises(ValueError):
        minors_gcd(DenseMatrix(ZZ, [[1]]), 0)


def test_poly_routes_agree():
    rng = random.Random(54)
    for p in (2, 3, 5):
        ring = PolyModP(p)
        for _ in range(40):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            matrix = DenseMatrix(ring, [
                [[rng.randrange(p) for _ in range(rng.randint(0, 3))]
                 for _ in range(n)]
                for _ in range(m)
            ])
            a = smith_normal_form(matrix)
            b = classical_snf(matrix)
            assert a.factors == b.factors
            assert verify(matrix, a)


def test_rank_deficient_factors_trail_with_zeros():
    matrix = DenseMatrix(ZZ, [[1, 2], [2, 4], [3, 6]])
    result = smith_normal_form(matrix)
    assert [v.payload for v in result.factors] == [1, 0]
    assert verify(matrix, result)


def test_result_validation():
    with pytest.raises(ValueError):
        SnfResult((), 0, "classical")
    with pytest.raises(ValueError):
        SnfResult((ZZ(-2),), 0, "classical")
    with pytest.raises(ValueError):
        SnfResult((ZZ(4), ZZ(6)), 0, "classical")
    with pytest.raises(ValueError):
        SnfResult((ZZ(0), ZZ(2)), 0, "classical")
    with pytest.raises(ValueError):
        SnfResult((ZZ(2), ZZ(4)), -1, "classical")
    SnfResult((ZZ(2), ZZ(4), ZZ(0)), 0, "classical")


def test_verify_rejects_wrong_results():
    matrix = DenseMatrix(ZZ, [[2, 0], [0, 4]])
    good = smith_normal_form(matrix)
    assert verify(matrix, good)
    assert not verify(matrix, SnfResult((ZZ(1), ZZ(8)), 0, "classical"))
    assert not verify(matrix, SnfResult((ZZ(2),), 0, "classical"))
    assert not verify(matrix, SnfResult((ZZ(1), ZZ(1)), 0, "classical"))
    other = DenseMatrix(PolyModP(3), [[1, 0], [0, 1]])
    assert not verify(other, good)


def test_max_iters_is_honored():
    from todasnf import IterationLimitError

    matrix = DenseMatrix(ZZ, [[2, 0, 0], [4, 6, 0], [0, 3, 9]])
    with pytest.raises(IterationLimitError):
        smith_normal_form(matrix, max_iters=2)
    assert smith_normal_form(matrix, max_iters=4).iterations == 4


def _wraps(call) -> int:
    """How many RingValues a call builds."""
    count = 0
    original = RingValue.__init__

    def counting(self, ring, payload):
        nonlocal count
        count += 1
        original(self, ring, payload)

    RingValue.__init__ = counting
    try:
        call()
    finally:
        RingValue.__init__ = original
    return count


def test_elimination_wraps_values_only_at_the_boundary():
    # The sweeps run on payloads; a RingValue per 2x2 update would build
    # thousands of wrappers here instead of about one per entry.
    n = 12
    a = _random_int_matrix(random.Random(58), n, n, zero_prob=0)
    assert _wraps(lambda: bidiagonalize(a)) <= 2 * n * n
    assert _wraps(lambda: bidiagonalize(a, transforms=True)) <= 4 * n * n
    assert _wraps(lambda: classical_snf(a)) <= 2 * n * n
