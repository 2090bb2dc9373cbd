"""Ring arithmetic, gcds and the Bezout contract."""

import copy
import pickle
import random

import pytest

from conftest import int_gcd_brute, pgcd_brute, pmul
from todasnf import (
    ExactDivisionError,
    IntegerRing,
    PolyModP,
    RingMismatchError,
    RingValue,
    ZZ,
    canonical,
    divides,
    exact_div,
    gcd,
)


def test_integer_canonical_is_nonnegative():
    assert canonical(ZZ(-7)) == ZZ(7)
    assert canonical(ZZ(7)) == ZZ(7)
    assert canonical(ZZ(0)) == ZZ(0)


def test_poly_canonical_is_monic():
    ring = PolyModP(5)
    assert canonical(ring([2, 4])) == ring([3, 1])
    assert canonical(ring([3])) == ring([1])
    assert canonical(ring([])) == ring(0)


def test_gcd_conventions_at_zero():
    assert gcd(ZZ(0), ZZ(0)) == ZZ(0)
    assert gcd(ZZ(0), ZZ(-6)) == ZZ(6)
    assert gcd(ZZ(6), ZZ(0)) == ZZ(6)
    ring = PolyModP(3)
    assert gcd(ring(0), ring(0)) == ring(0)
    assert gcd(ring(0), ring([0, 2])) == ring([0, 1])


def test_divides_conventions():
    assert divides(ZZ(0), ZZ(0))
    assert divides(ZZ(5), ZZ(0))
    assert not divides(ZZ(0), ZZ(5))
    assert divides(ZZ(-3), ZZ(9))
    assert not divides(ZZ(4), ZZ(9))


def test_integer_gcd_matches_divisor_enumeration():
    rng = random.Random(101)
    for _ in range(300):
        a = rng.randint(-60, 60)
        b = rng.randint(-60, 60)
        expected = int_gcd_brute(a, b)
        got = gcd(ZZ(a), ZZ(b))
        assert got == ZZ(expected), f"gcd({a}, {b}) = {got}, expected {expected}"


def test_poly_gcd_matches_enumeration():
    rng = random.Random(202)
    for p in (2, 3, 5):
        ring = PolyModP(p)
        for _ in range(60):
            a = tuple(rng.randrange(p) for _ in range(rng.randint(0, 5)))
            b = tuple(rng.randrange(p) for _ in range(rng.randint(0, 5)))
            expected = pgcd_brute(ring.coerce(a), ring.coerce(b), p)
            got = gcd(ring(a), ring(b))
            assert got.payload == expected, (
                f"gcd of {a} and {b} mod {p}: {got.payload}, "
                f"expected {expected}"
            )


def test_poly_product_matches_convolution_oracle():
    rng = random.Random(303)
    ring = PolyModP(7)
    for _ in range(100):
        a = tuple(rng.randrange(7) for _ in range(rng.randint(0, 4)))
        b = tuple(rng.randrange(7) for _ in range(rng.randint(0, 4)))
        got = ring(a) * ring(b)
        assert got.payload == pmul(ring.coerce(a), ring.coerce(b), 7)


def _check_bezout(ring, a, b):
    d, p, q, s, t = (
        RingValue(ring, v) for v in ring.xgcd(a.payload, b.payload)
    )
    assert a * p + b * q == d, f"Bezout identity broken for {a}, {b}"
    assert s * d == a, f"first cofactor broken for {a}, {b}"
    assert -(t * d) == b, f"second cofactor broken for {a}, {b}"
    assert d == canonical(d), f"gcd not canonical for {a}, {b}"
    assert d == gcd(a, b)


def test_extended_gcd_integer_contract():
    rng = random.Random(404)
    for _ in range(300):
        a, b = ZZ(rng.randint(-80, 80)), ZZ(rng.randint(-80, 80))
        if a.is_zero() and b.is_zero():
            continue
        _check_bezout(ZZ, a, b)


def test_extended_gcd_poly_contract():
    rng = random.Random(505)
    ring = PolyModP(5)
    for _ in range(150):
        a = ring(tuple(rng.randrange(5) for _ in range(rng.randint(0, 4))))
        b = ring(tuple(rng.randrange(5) for _ in range(rng.randint(0, 4))))
        if a.is_zero() and b.is_zero():
            continue
        _check_bezout(ring, a, b)


def test_extended_gcd_one_sided_zero():
    assert ZZ.xgcd(-4, 0) == (4, -1, 0, -1, 0)
    assert ZZ.xgcd(0, -4) == (4, 0, -1, 0, 1)


def test_extended_gcd_rejects_double_zero():
    with pytest.raises(ValueError):
        ZZ.xgcd(0, 0)


def test_exact_div():
    assert exact_div(ZZ(-12), ZZ(4)) == ZZ(-3)
    assert exact_div(ZZ(12), ZZ(-4)) == ZZ(-3)
    with pytest.raises(ExactDivisionError):
        exact_div(ZZ(7), ZZ(2))
    with pytest.raises(ExactDivisionError):
        exact_div(ZZ(7), ZZ(0))
    ring = PolyModP(3)
    x_plus_1 = ring([1, 1])
    assert exact_div(x_plus_1 * x_plus_1, x_plus_1) == x_plus_1
    with pytest.raises(ExactDivisionError):
        exact_div(ring([1, 1, 1]), ring([1, 1]))


def test_ring_mismatch_is_rejected():
    with pytest.raises(RingMismatchError):
        ZZ(1) + PolyModP(3)(1)
    with pytest.raises(RingMismatchError):
        gcd(ZZ(2), PolyModP(3)(2))
    with pytest.raises(RingMismatchError):
        PolyModP(3)(ZZ(2))
    assert ZZ(2) != PolyModP(3)(2)
    assert PolyModP(3)(2) != PolyModP(5)(2)


def test_poly_modulus_validation():
    with pytest.raises(ValueError):
        PolyModP(1)
    with pytest.raises(ValueError):
        PolyModP(4)
    with pytest.raises(ValueError):
        PolyModP(65537)
    with pytest.raises(TypeError):
        PolyModP("3")
    assert PolyModP(2) == PolyModP(2)
    assert PolyModP(65521).p == 65521


def test_rings_are_interned():
    assert IntegerRing() is ZZ
    assert PolyModP(7) is PolyModP(7)
    assert PolyModP(5) is not PolyModP(7)
    for _ in range(3):
        with pytest.raises(ValueError):
            PolyModP(4)
        with pytest.raises(TypeError):
            PolyModP(7.0)
    for ring in (ZZ, PolyModP(7)):
        assert copy.deepcopy(ring) is ring
        assert pickle.loads(pickle.dumps(ring)) is ring
        value = ring(3)
        assert copy.deepcopy(value) + value == ring(6)


def test_poly_payload_normalization():
    ring = PolyModP(3)
    assert ring([4, 7, 3]).payload == (1, 1)
    assert ring([0, 0, 0]).payload == ()
    assert ring(-1).payload == (2,)
    assert ring(3).is_zero()


def test_parse_and_render_round_trip():
    for text in ("0", "-17", "42"):
        assert ZZ.render(ZZ.parse(text)) == text
    with pytest.raises(ValueError):
        ZZ.parse("3.5")
    ring = PolyModP(5)
    for text in ("[0]", "[1,0,3]", "[4]"):
        assert ring.render(ring.parse(text)) == text
    assert ring.parse("[]") == ()
    assert ring.parse("[6,-1]") == (1, 4)
    with pytest.raises(ValueError):
        ring.parse("1,2")
    with pytest.raises(ValueError):
        ring.parse("[1,x]")


def test_value_arithmetic_and_hashing():
    a, b = ZZ(6), ZZ(-4)
    assert a - b == ZZ(10)
    assert -b == ZZ(4)
    assert a * b == ZZ(-24)
    assert b ** 3 == ZZ(-64)
    assert b ** 0 == ZZ(1)
    assert bool(ZZ(0)) is False and bool(ZZ(2)) is True
    assert len({ZZ(1), ZZ(1), ZZ(2)}) == 2
    with pytest.raises(ValueError):
        a ** -1


def test_power_matches_repeated_multiplication():
    rng = random.Random(19)
    bases = [ZZ(0), ZZ(1), ZZ(-1), ZZ(-3), ZZ(rng.randint(10**8, 10**9))]
    for p in (2, 5, 7):
        ring = PolyModP(p)
        bases += [ring(0), ring(1), ring([0, 1])]
        bases += [ring([rng.randrange(p) for _ in range(4)]) for _ in range(3)]
    for base in bases:
        ring = base.ring
        expected = ring.coerce(1)
        for exponent in range(41):
            assert base ** exponent == RingValue(ring, expected), (base, exponent)
            expected = ring.mul(expected, base.payload)


def test_unit_detection():
    assert ZZ(-1).is_unit() and ZZ(1).is_unit()
    assert not ZZ(2).is_unit() and not ZZ(0).is_unit()
    ring = PolyModP(7)
    assert ring([3]).is_unit()
    assert not ring([0, 1]).is_unit()
    assert not ring(0).is_unit()


def test_coercion_rejects_junk():
    with pytest.raises(TypeError):
        ZZ(2.5)
    with pytest.raises(TypeError):
        ZZ(True)
    with pytest.raises(TypeError):
        PolyModP(3)(2.5)
