"""Smith normal form: lattice route against classical route and minors."""

import importlib
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
    determinant,
    gcd_step,
    minors_gcd,
    seed_state,
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
    chain = [seed_state(bidiagonalize(matrix))]
    for _ in range(toda.iterations):
        chain.append(gcd_step(chain[-1]))
    assert len(toda.trace) == toda.iterations + 1
    assert toda.trace == tuple(chain)
    assert classical.trace is None
    untraced = SnfResult(toda.factors, toda.iterations, "toda")
    assert untraced == toda, "the lattice run must not affect equality"


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


def test_classical_route_stands_alone(monkeypatch):
    # The classical route cross-checks the lattice route, so it must not
    # share the Bezout data or the 2x2 kernels that bidiagonalize sweeps with.
    from todasnf.ring import Ring

    # The package exports a function named bidiagonalize over its module.
    elimination = importlib.import_module("todasnf.bidiagonalize")
    kernels = importlib.import_module("todasnf.matrix")

    def shared(*_):
        raise AssertionError("classical_snf reached a lattice-route kernel")

    monkeypatch.setattr(Ring, "xgcd", shared)
    monkeypatch.setattr(kernels, "mix_rows", shared)
    monkeypatch.setattr(kernels, "mix_cols", shared)
    monkeypatch.setattr(elimination, "rotation", shared)
    gf5 = PolyModP(5)
    x, x1 = [0, 1], [1, 1]
    cases = [
        (ZZ, [[2, 0], [0, 3]], [1, 6]),
        (ZZ, [[2, 3, 0], [4, 5, 6]], [1, 2]),  # 2 does not divide its row
        (ZZ, [[2, 4], [3, 6], [5, 10]], [1, 0]),
        (gf5, [[x, 0], [0, x1]], [(1,), (0, 1, 1)]),
        (gf5, [[x, [1, 0, 1], 0]], [(1,)]),
        (gf5, [[x, [0, 0, 1]], [1, x], [0, 0]], [(1,), ()]),
    ]
    for ring, grid, expected in cases:
        result = classical_snf(DenseMatrix(ring, grid))
        assert [v.payload for v in result.factors] == expected, grid


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


def test_verify_wraps_values_only_at_the_boundary():
    # No minor gcd is a unit, so verify visits all 923 minors; each is a
    # payload sub-grid, not a matrix of RingValues.
    n = 6
    rng = random.Random(59)
    a = DenseMatrix(ZZ, [[6 * rng.randint(-9, 9) for _ in range(n)]
                         for _ in range(n)])
    result = smith_normal_form(a)
    verdicts = []
    assert _wraps(lambda: verdicts.append(verify(a, result))) <= 8 * n
    assert verdicts == [True]


def test_bareiss_never_divides_by_one(monkeypatch):
    # Bareiss divides by the previous pivot, which is one before the first
    # step; that division is the identity and is skipped.
    rng = random.Random(60)
    for ring in (ZZ, PolyModP(5)):
        divisors = []
        original = type(ring).exact_div

        def counting(self, a, b):
            divisors.append(b)
            return original(self, a, b)

        monkeypatch.setattr(type(ring), "exact_div", counting)
        one = ring.coerce(1)
        for n in range(1, 7):
            for _ in range(20):
                grid = [[rng.randint(-9, 9) if ring is ZZ
                         else [rng.randrange(5) for _ in range(2)]
                         for _ in range(n)] for _ in range(n)]
                before = len(divisors)
                determinant(DenseMatrix(ring, grid))
                if n <= 2:
                    assert len(divisors) == before, f"{n}x{n} grid divided"
        assert divisors, "the counter never saw a division"
        assert one not in divisors
        monkeypatch.undo()
