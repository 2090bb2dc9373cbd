"""Ring arithmetic, gcds and the Bezout contract."""

import copy
import pickle
import random
import sys

import pytest

from conftest import (euclid_xgcd, int_gcd_brute, padd, pdivmod,
                      pgcd_brute, pmul, pneg)
from todasnf import (
    BidiagonalForm,
    DenseMatrix,
    ExactDivisionError,
    GcdTodaState,
    IntegerRing,
    IterationLimitError,
    PolyModP,
    Ring,
    RingMismatchError,
    RingValue,
    SnfResult,
    ZZ,
    bidiagonalize,
    canonical,
    divides,
    exact_div,
    exponent_lift,
    gcd,
    run,
    seed_state,
    smith_normal_form,
)
from todasnf.elimination import _Modulus, _reduced_form
from todasnf.ring import _pack


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


#: The primes of the payload tests, up to the largest below 2**16.
_PRIMES = (2, 3, 7, 65521)
_LENGTHS = (0, 1, 2, 3, 5, 8, 31, 64, 150, 300)


def _poly(rng, p, length):
    """A payload of exactly the given length (nonzero top coefficient)."""
    if not length:
        return ()
    return tuple(rng.randrange(p) for _ in range(length - 1)) + (
        rng.randrange(1, p),)


def test_poly_payload_arithmetic_matches_schoolbook_oracles():
    # Operand lengths 0-300 at every prime, against the schoolbook oracles
    # of conftest, which reduce after every update.  Length 1 is a scalar
    # operand, taken on either side.
    rng = random.Random(1303)
    for p in _PRIMES:
        ring = PolyModP(p)
        for la in _LENGTHS:
            for lb in _LENGTHS:
                a, b = _poly(rng, p, la), _poly(rng, p, lb)
                assert ring.mul(a, b) == pmul(a, b, p), (p, la, lb)
                assert ring.mul(b, a) == ring.mul(a, b), (p, la, lb)
                assert ring.add(a, b) == padd(a, b, p), (p, la, lb)
                if b:
                    assert ring.divmod(a, b) == pdivmod(a, b, p), (p, la, lb)
            a = _poly(rng, p, la)
            assert ring.neg(a) == pneg(a, p), (p, la)


def test_poly_product_at_the_slot_bound():
    # All-(p - 1) operands of length 300 at the largest prime make every
    # packed product slot as large as a slot of these lengths can get:
    # coefficient k sums min(k, 598 - k) + 1 terms of (p - 1)**2 = 1 mod p.
    p = 65521
    ring = PolyModP(p)
    top = (p - 1,) * 300
    expected = tuple((min(k, 598 - k) + 1) % p for k in range(599))
    assert ring.mul(top, top) == expected == pmul(top, top, p)
    assert ring.mul(top, top[:1]) == ring.mul(top[:1], top) == (1,) * 300


def test_poly_add_cancels_at_the_top_and_neg_keeps_zeros():
    p = 7
    ring = PolyModP(p)
    a = (3, 0, 5, 2)
    assert ring.add(a, ring.neg(a)) == ()
    assert ring.add(a, (1, 4, 2, 5)) == (4, 4)
    assert ring.add(a, (4, 0, 2, 5)) == ()
    assert ring.add((1,), (6,)) == ()
    assert ring.add(a, ()) == ring.add((), a) == a
    assert ring.add(a, (4, 1)) == ring.add((4, 1), a) == (0, 1, 5, 2)
    assert ring.neg((0, 3, 0, 1)) == (0, 4, 0, 6)
    assert ring.neg(()) == ()
    big = PolyModP(65521)
    assert big.add((65520, 1, 65520), (1, 0, 1)) == (0, 1)


def test_poly_divmod_contract():
    # a == q*b + r and deg r < deg b, for monic, non-monic and constant
    # divisors and for dividends shorter than the divisor.
    rng = random.Random(1305)
    for p in _PRIMES:
        ring = PolyModP(p)
        for la in _LENGTHS:
            for lb in _LENGTHS[1:]:
                b = _poly(rng, p, lb)
                for divisor in (b, b[:-1] + (1,)):
                    a = _poly(rng, p, la)
                    q, r = ring.divmod(a, divisor)
                    assert padd(pmul(q, divisor, p), r, p) == a, (p, la, lb)
                    assert len(r) < len(divisor), (p, la, lb)
                    if la < lb:
                        assert (q, r) == ((), a)
        with pytest.raises(ZeroDivisionError):
            ring.divmod(_poly(rng, p, 5), ())
        with pytest.raises(ZeroDivisionError):
            ring.divmod((), ())


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
    with pytest.raises(ValueError):
        PolyModP(5).xgcd((), ())


def test_integer_xgcd_is_the_generic_one(int_digit_limit):
    # IntegerRing.xgcd runs the Ring contract's loop on int operators.
    # The sweeps' forms, P, Q and traces rest on its cofactors, so they
    # must be the generic ones, tuple for tuple, not merely another
    # Bezout tuple.
    big = 10**4400 + 7  # past the 4300-digit int <-> str limit
    small = (0, 1, -1, 2, -2, 6, -6, 21, -35)
    pairs = [(a, b) for a in small for b in small if a or b]
    pairs += [(12, 12), (-12, -12), (7, 21), (-21, 7), (42, -7), (-7, -42),
              (big, 0), (0, -big), (big, big), (-big, big), (big, 1),
              (-1, big), (3 * big, -big), (6 * big, -4 * big),
              (big, big + 1), (3**9000, -(2**14000))]
    rng = random.Random(18)
    pairs += [(rng.randint(-10**k, 10**k), rng.randint(-10**k, 10**k))
              for k in (1, 3, 30, 300) for _ in range(150)]
    for k, (a, b) in enumerate(pairs):
        if a or b:
            assert ZZ.xgcd(a, b) == euclid_xgcd(ZZ, a, b), f"pair {k}"


def test_poly_xgcd_is_the_generic_one(monkeypatch):
    # PolyModP.xgcd runs the same loop with its cofactor rows packed and
    # reads s and t off the last row; tuple for tuple the generic one.
    # Zero and unit operands, equal and associate ones, a shorter than b,
    # a constant a against b of degree >= 1 (the closed form), and random
    # pairs of degree 0 to 300 at every prime.
    rng = random.Random(2404)
    for p in (2, 3, 5, 7, 65521):
        ring = PolyModP(p)
        c = ring.coerce(p - 1)
        pairs = []
        for la in _LENGTHS:
            a = _poly(rng, p, la)
            pairs += [(a, ()), ((), a), (a, (1,)), ((1,), a), (a, c),
                      (a, a), (a, ring.mul(c, a)), (ring.mul(c, a), a),
                      (c, a), ((rng.randrange(1, p),), a)]
            for lb in _LENGTHS:
                b = _poly(rng, p, lb)
                common = _poly(rng, p, rng.randint(1, 4))
                pairs += [(a, b), (ring.mul(common, a), ring.mul(common, b))]
        for k, (a, b) in enumerate(pairs):
            if a or b:
                assert ring.xgcd(a, b) == euclid_xgcd(ring, a, b), (p, k)
        if p not in (2, 65521):
            continue
        # The packed rows stay unreduced while their slot bound fits in 64
        # bits: a loop that never reduces them mid-way unpacks at most 8
        # times (the 4 cofactors, after reducing the 4 rows once), and one
        # that reduced them every step would unpack 2 per step more.  Long
        # sequences at p = 2, and short ones at p = 65521, reduce mid-way.
        unpack, quorem = ring._unpack, ring.divmod
        sizes = ((300, 299), (300, 150)) if p == 2 else ((31, 30), (8, 7))
        for la, lb in sizes:
            a, b = _poly(rng, p, la), _poly(rng, p, lb)
            expected = euclid_xgcd(ring, a, b)
            seen, steps = [], []
            with monkeypatch.context() as patch:
                patch.setattr(ring, "_unpack",
                              lambda v: seen.append(v) or unpack(v))
                patch.setattr(ring, "divmod",
                              lambda a, b: steps.append(b) or quorem(a, b))
                assert ring.xgcd(a, b) == expected, (p, la, lb)
            assert 8 < len(seen) < 2 * len(steps) + 4, (p, la, lb)


def test_poly_mix_is_the_ring_call_kernel():
    # The packed sweep kernel equals the comprehension of ring calls it
    # replaced, on random rows at every prime, with long operands at the
    # largest prime (the slot bound), zero x or y, and rows that cancel.
    # Elimination blocks (1, 0, s, t) keep x: that line comes back as the
    # row itself, not recomputed.  The addition (1, 1, 1, 0) keeps none.
    rng = random.Random(2405)

    def by_ring_calls(ring, cof, xs, ys):
        add, mul = ring.add, ring.mul
        p, q, s, t = cof
        return ([add(mul(p, x), mul(q, y)) for x, y in zip(xs, ys)],
                [add(mul(t, x), mul(s, y)) for x, y in zip(xs, ys)])

    for p in _PRIMES:
        ring = PolyModP(p)
        for _ in range(40):
            width = rng.randint(0, 6)
            cof = tuple(_poly(rng, p, rng.choice(_LENGTHS[:5]))
                        for _ in range(4))
            xs, ys = ([_poly(rng, p, rng.choice(_LENGTHS)) for _ in range(width)]
                      for _ in range(2))
            xs.append(())
            ys.insert(0, ())
            elimination = ((1,), (), cof[2], cof[3])
            addition = ((1,), (1,), (1,), ())
            for rows in ((xs, ys), (ys, xs), (xs, xs)):
                assert ring.mix(cof, *rows) == by_ring_calls(ring, cof, *rows)
                for block in (elimination, addition):
                    mixed = ring.mix(block, *rows)
                    assert mixed == by_ring_calls(ring, block, *rows)
                assert ring.mix(elimination, *rows)[0] is rows[0]
        # p x + q y cancels to zero where (x, y) = (q, -p), and at the top
        # only where the leading terms of p x and q y cancel.
        x, y = _poly(rng, p, 7), _poly(rng, p, 5)
        cof = ((1,), (1,), (1,), (0, 1))
        cancel = ((x, ring.neg(x), ring.add(x, (1,)), ()),
                  (ring.neg(x), x, ring.neg(x), y))
        assert ring.mix(cof, *cancel) == by_ring_calls(ring, cof, *cancel)
        assert ring.mix(cof, *cancel)[0][:2] == [(), ()]
    p = 65521
    ring = PolyModP(p)
    top = (p - 1,) * 300
    for cof in ((top, top, top, top), (top[:1], top, top[:7], top)):
        rows = ([top, top[:150], ()], [top, top, top[:3]])
        assert ring.mix(cof, *rows) == by_ring_calls(ring, cof, *rows)


def test_packed_payloads_are_little_endian_slots():
    # On every host a payload packs to its value at x = 2**64, so sums of
    # products of unequal lengths line up from the constant term.
    ring = PolyModP(5)
    assert _pack(()) == 0 and ring._unpack(0) == ()
    assert _pack((3, 0, 4)) == 3 + 4 * 2**128
    assert ring._unpack(7 + 10 * 2**64 + 5 * 2**128) == (2,)
    assert ring._unpack(2**64 * 9) == (0, 4)


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


def test_division_by_zero_is_decided_in_exact_div():
    # divmod raises Python's own error; exact_div alone converts it.
    with pytest.raises(ZeroDivisionError):
        ZZ.divmod(7, 0)
    ring = PolyModP(5)
    with pytest.raises(ZeroDivisionError):
        ring.divmod((1,), ())
    for r, a, zero in ((ZZ, 7, 0), (ring, (1,), ())):
        with pytest.raises(ExactDivisionError) as info:
            r.exact_div(a, zero)
        assert str(info.value) == "division by zero"


def test_integer_payload_arithmetic_enters_no_ring_frame():
    # Over ZZ the payload operations are builtins, so the elimination and
    # the lattice enter no Python frame for them; the lattice's quotients
    # are by their own gcd, so floor division stands in for exact_div.
    # The mod-D route (D, its rank and the residue kernels) is held to the
    # same rule.
    rng = random.Random(11)
    matrix = DenseMatrix(ZZ, [[rng.randint(-20, 20) for _ in range(8)]
                              for _ in range(8)])
    mod = _Modulus(ZZ, matrix)
    entered = set()

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith("ring.py"):
            entered.add(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        for form in (bidiagonalize(matrix), _reduced_form(matrix, mod)):
            run(seed_state(form))
    finally:
        sys.setprofile(previous)
    assert mod.d is not None
    assert "xgcd" in entered
    assert not entered & {"add", "neg", "mul", "divmod", "is_zero", "gcd",
                          "exact_div"}


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
    with pytest.raises(ValueError, match="not prime"):
        PolyModP(9)
    with pytest.raises(ValueError):
        PolyModP(65537)
    with pytest.raises(TypeError):
        PolyModP("3")
    assert PolyModP(2) == PolyModP(2)
    assert PolyModP(65521).p == 65521


def test_modulus_check_agrees_with_a_sieve():
    limit = 2**16
    sieve = [False, False] + [True] * (limit - 1)
    for f in range(2, 257):
        if sieve[f]:
            sieve[f * f::f] = [False] * len(range(f * f, limit + 1, f))
    assert sum(sieve) == 6542  # the primes below 2**16
    for p in range(-1, limit + 1):
        if p >= 0 and sieve[p]:
            assert PolyModP(p).p == p
        else:
            with pytest.raises(ValueError):
                PolyModP(p)


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


def test_integer_literals_are_ascii_signed_decimals():
    assert ZZ.parse("+7") == 7 and ZZ.parse("-007") == -7
    for text in ("1_000", "\u0663", "+-1", "", "1.0", " 1"):
        with pytest.raises(ValueError):
            ZZ.parse(text)


def test_value_arithmetic_and_hashing():
    a, b = ZZ(6), ZZ(-4)
    assert a - b == ZZ(10)
    assert -b == ZZ(4)
    assert a * b == ZZ(-24)
    assert b ** 3 == ZZ(-64)
    assert b ** 0 == ZZ(1)
    assert bool(ZZ(0)) is False and bool(ZZ(2)) is True
    assert len({ZZ(1), ZZ(1), ZZ(2)}) == 2
    assert repr(b) == "ZZ(-4)"
    assert repr(PolyModP(5)([1, 0, 2])) == "GF(5)[x]([1,0,2])"
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


def test_power_takes_huge_exponents_of_units_and_zero():
    # Square-and-multiply runs a loop over the exponent's bits, not a
    # recursion as deep as its bit length (5001 here).
    huge = 2**5000
    assert ZZ(-1) ** (huge + 1) == ZZ(-1)
    assert ZZ(-1) ** huge == ZZ(1)
    assert ZZ(0) ** huge == ZZ(0)
    ring = PolyModP(5)
    assert ring([2]) ** 2**4000 == ring(pow(2, 2**4000, 5))
    assert ring([4]) ** (huge + 1) == ring([4])
    assert ring(0) ** huge == ring(0)
    assert ZZ(7) ** 0 == ZZ(1) and ring(0) ** 0 == ring(1)


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


def test_poly_coefficients_follow_the_scalar_rule():
    # Every coefficient must be an int that is not a bool, like a scalar.
    ring = PolyModP(5)
    for junk in ([1.5, 2], [True, 1], ["3"], ([1],)):
        with pytest.raises(TypeError):
            ring(junk)
    with pytest.raises(TypeError):
        DenseMatrix(ring, [[[1.5, 2]]])
    assert ring([7, -1, 0]).payload == (2, 4)


#: The payload operations that the Ring docstring asks a subclass for.
RING_CONTRACT = ("add", "neg", "mul", "divmod", "is_unit",
                 "canonicalizing_unit", "size", "coerce", "render", "parse",
                 "xgcd")


@pytest.mark.parametrize("ring", [ZZ, PolyModP(2), PolyModP(5),
                                  PolyModP(65521)], ids=repr)
def test_ring_contract_is_provided_by_each_ring(ring):
    assert "name" not in vars(Ring) and isinstance(ring.name, str)
    for op in RING_CONTRACT:
        assert f"``{op}(" in Ring.__doc__, op
        assert op not in vars(Ring), op
        assert callable(getattr(ring, op)), op
    # The facts the contract states beyond the signatures.
    zero, x = ring.coerce(0), ring.coerce(-3 if ring is ZZ else [2, 1, 1])
    with pytest.raises(ZeroDivisionError):
        ring.divmod(x, zero)
    assert ring.mul(ring.canonicalizing_unit(zero), x) == x
    assert ring.is_unit(ring.canonicalizing_unit(x))
    assert ring.size(zero) == 0 < ring.size(x)
    assert ring.parse(ring.render(x)) == x
    assert not zero and x


@pytest.fixture
def int_digit_limit():
    """Python's default 4300-digit limit on int <-> str, in force."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


def test_error_types_hold_past_the_int_digit_limit(int_digit_limit):
    big = 10**5000
    grid = [[2 * big, 0, 0], [4 * big, 6 * big, 0], [0, 3 * big, 9 * big]]
    with pytest.raises(IterationLimitError, match="within 1 steps"):
        smith_normal_form(DenseMatrix(ZZ, grid), max_iters=1)
    with pytest.raises(ExactDivisionError, match="^3 does not divide <"):
        ZZ.exact_div(big + 1, 3)
    with pytest.raises(TypeError, match="ring values"):
        GcdTodaState((big,), ())
    with pytest.raises(TypeError, match="into ZZ$"):
        ZZ.coerce([big])
    with pytest.raises(TypeError, match="into GF"):
        PolyModP(5).coerce([big, 1.5])


def test_error_texts_of_printable_values(int_digit_limit):
    a = DenseMatrix(ZZ, [[2, 0, 0], [4, 6, 0], [0, 3, 9]])
    with pytest.raises(IterationLimitError) as info:
        smith_normal_form(a, max_iters=1)
    assert str(info.value) == ("no termination within 1 steps; "
                               "last diagonal ['2', '3', '18']")
    texts = {"2 does not divide 7": lambda: ZZ.exact_div(7, 2),
             "[1,1] does not divide [1,1,1]":
                 lambda: PolyModP(3).exact_div((1, 1, 1), (1, 1)),
             "entries must be ring values, got 5":
                 lambda: GcdTodaState((5,), ()),
             "cannot coerce [2.5] into ZZ": lambda: ZZ.coerce([2.5]),
             "cannot coerce [7, 1.5] into GF(5)[x]":
                 lambda: PolyModP(5).coerce([7, 1.5])}
    for text, call in texts.items():
        with pytest.raises((ExactDivisionError, TypeError)) as info:
            call()
        assert str(info.value) == text


def test_diagnostic_texts_past_the_int_digit_limit(int_digit_limit):
    # Result checks, exponent_lift and the matrix reprs render payloads
    # through _printable: past the digit limit each text shows its
    # placeholder instead of a ValueError about the limit, and below it
    # each reads as it always has.
    big, odd = 2**20000, 3**10000
    wide = "<too many digits to print>"
    texts = {
        f"factor {wide} is not canonical":
            lambda: SnfResult((ZZ(-odd),), 0, "toda"),
        "factor -3 is not canonical": lambda: SnfResult((ZZ(-3),), 0, "toda"),
        f"factor chain broken: {wide} does not divide 3":
            lambda: SnfResult((ZZ(big), ZZ(3)), 0, "toda"),
        "factor chain broken: 2 does not divide 3":
            lambda: SnfResult((ZZ(2), ZZ(3)), 0, "toda"),
        f"entry {wide} is not a unit multiple of a power of 2":
            lambda: exponent_lift(GcdTodaState((ZZ(odd),), ()), ZZ(2)),
        "entry 3 is not a unit multiple of a power of 2":
            lambda: exponent_lift(GcdTodaState((ZZ(3),), ()), ZZ(2)),
    }
    for text, call in texts.items():
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == text
    for entry, body in ((odd, wide), (3, "3 0; 1 2")):
        matrix = DenseMatrix(ZZ, [[entry, 0], [1, 2]])
        assert repr(matrix) == f"DenseMatrix(ZZ, 2x2: {body})"
        assert repr(BidiagonalForm(matrix)) == (
            f"BidiagonalForm(matrix={matrix!r}, k=2, corner=False)")
