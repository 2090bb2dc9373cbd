"""Exact arithmetic over two principal ideal domains.

Supported rings:

  * the rational integers, backed by Python's arbitrary-precision ``int``;
  * ``PolyModP(p)``, univariate polynomials over the prime field Z/pZ,
    backed by tuples of residues in ascending degree order.

PolyModP's hot loops run on packed ints (Kronecker substitution): _pack
puts each coefficient in a 64-bit slot, little-endian on every host, and
_unpack reduces each slot mod p and trims, since a sum of products can
cancel at the top or everywhere.  That one pair serves mul, the sweep
kernel mix and xgcd.  A slot of a kernel sum P X + Q Y adds
min(len P, len X) + min(len Q, len Y) products below p**2 < 2**32, as
p < 2**16, so no slot carries while each min is below 2**31.  xgcd's
rows go unreduced for several steps, under a bound it tracks (below).

Every element is carried as a :class:`RingValue`, a thin wrapper that tags
an opaque payload with the ring it lives in.  Mixing values from different
rings raises :class:`RingMismatchError` instead of producing garbage.

Rings are interned: ``IntegerRing()`` is ``ZZ`` and ``PolyModP(p)`` returns
one instance per prime, so ring equality is identity (``is``).  Hot loops
skip the wrapper and call the ring's payload operations directly; what a
ring provides is written once, in :class:`Ring`.
"""

from __future__ import annotations

__all__ = [
    "ExactDivisionError",
    "IntegerRing",
    "PolyModP",
    "Ring",
    "RingMismatchError",
    "RingValue",
    "ZZ",
    "canonical",
    "divides",
    "exact_div",
    "gcd",
]

import math
import operator
import re
import sys
from array import array
from typing import Sequence


class RingMismatchError(TypeError):
    """Raised when an operation mixes values from different rings."""


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


def _printable(show, value) -> str:
    """show(value) for an error text; a placeholder past Python's digit limit."""
    try:
        return show(value)
    except ValueError:
        return "<too many digits to print>"


class RingValue:
    """An immutable element of one of the supported rings.

    Supports ``+``, ``-``, ``*``, unary ``-`` and ``**`` with a nonnegative
    integer exponent.  Equality and hashing compare the ring and the payload,
    so values are usable as dict keys and in sets.
    """

    __slots__ = ("ring", "payload")

    def __init__(self, ring: "Ring", payload):
        self.ring = ring
        self.payload = payload

    def is_unit(self) -> bool:
        return self.ring.is_unit(self.payload)

    def __bool__(self) -> bool:
        return bool(self.payload)

    def __add__(self, other: "RingValue") -> "RingValue":
        ring = _common_ring(self, other)
        return RingValue(ring, ring.add(self.payload, other.payload))

    def __sub__(self, other: "RingValue") -> "RingValue":
        ring = _common_ring(self, other)
        return RingValue(ring, ring.add(self.payload, ring.neg(other.payload)))

    def __mul__(self, other: "RingValue") -> "RingValue":
        ring = _common_ring(self, other)
        return RingValue(ring, ring.mul(self.payload, other.payload))

    def __neg__(self) -> "RingValue":
        return RingValue(self.ring, self.ring.neg(self.payload))

    def __pow__(self, exponent: int) -> "RingValue":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        ring = self.ring
        return RingValue(ring, _power(self.payload, exponent, ring.mul)
                         if exponent else ring.coerce(1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingValue):
            return NotImplemented
        return self.ring is other.ring and self.payload == other.payload

    def __hash__(self) -> int:
        return hash((self.ring, self.payload))

    def __str__(self) -> str:
        return self.ring.render(self.payload)

    def __repr__(self) -> str:
        return f"{self.ring.name}({self.ring.render(self.payload)})"


def _power(x, k, mul):
    """x to the k-th power under mul, k >= 1, by a loop over k's bits
    from the top down."""
    out, i = x, k.bit_length() - 1
    while i:
        i -= 1
        out = mul(out, out)
        if k >> i & 1:
            out = mul(out, x)
    return out


def _common_ring(a: RingValue, b: RingValue) -> "Ring":
    if a.ring is not b.ring:
        raise RingMismatchError(
            f"cannot combine values from {a.ring.name} and {b.ring.name}"
        )
    return a.ring


class Ring:
    """Interface shared by the supported PIDs.

    A subclass sets ``name`` and provides, on raw payloads, ``add(a, b)``,
    ``neg(a)``, ``mul(a, b)``, ``is_unit(a)``, ``coerce(value)`` (native
    Python data to a payload), ``render(a)`` and ``parse(text)`` (a payload
    to text and back), and:

    * ``divmod(a, b)``, the Euclidean (quotient, remainder).  It raises
      ZeroDivisionError when b is zero; only exact_div makes that an
      ExactDivisionError;
    * ``canonicalizing_unit(a)``, a unit u with u*a canonical (nonnegative,
      monic); the identity on zero;
    * ``size(a)``, bit length or degree, the measure the step caps use;
    * ``xgcd(a, b)``, the Bezout data (d, p, q, s, t) with d the canonical
      gcd and a*p + b*q == d, a == s*d, b == -t*d; ValueError when both
      are zero.  Both rings run one Euclidean loop: from the rows
      (a, 1, 0) and (b, 0, 1), while the second remainder is nonzero,
      take (quot, rem) = divmod(r0, r1) and replace the rows by
      (r1, x1, y1) and (rem, x0 - quot*x1, y0 - quot*y1); then scale the
      first row by canonicalizing_unit(r0).  The sweeps' forms, P, Q
      and traces rest on these cofactors, not merely on some Bezout
      tuple.

    Zero payloads are the falsy ones, and truthiness is the only payload
    zero test.  Ring derives the rest, among it ``coerce_row(values)``,
    the tuple of payloads of one row of native data or RingValues: a
    RingValue passes the ring check of ``ring(v)`` and gives its payload,
    any other entry goes to ``coerce``, and no RingValue is built.  An
    override may skip per-entry calls only where it returns the same
    payloads and raises the same errors.  Gcds are canonical associates;
    ``gcd(0, 0) == 0`` and everything divides zero.
    """

    def canonical(self, a):
        return self.mul(self.canonicalizing_unit(a), a)

    def gcd(self, a, b):
        """Canonical gcd of two payloads, by the Euclidean algorithm."""
        quorem = self.divmod
        while b:
            a, b = b, quorem(a, b)[1]
        return self.canonical(a)

    def exact_div(self, a, b):
        """a / b when b divides a exactly; ExactDivisionError otherwise."""
        try:
            quot, rem = self.divmod(a, b)
        except ZeroDivisionError:
            raise ExactDivisionError("division by zero") from None
        if rem:
            raise ExactDivisionError(
                f"{_printable(self.render, b)} does not divide "
                f"{_printable(self.render, a)}"
            )
        return quot

    def divides(self, a, b) -> bool:
        """Whether a divides b; everything divides 0, only 0 is divided by 0."""
        if not b:
            return True
        if not a:
            return False
        return not self.divmod(b, a)[1]

    # -- RingValue construction -----------------------------------------

    def __call__(self, value) -> RingValue:
        if isinstance(value, RingValue):
            if value.ring is not self:
                raise RingMismatchError(
                    f"value from {value.ring.name} passed to {self.name}"
                )
            return value
        return RingValue(self, self.coerce(value))

    def coerce_row(self, values) -> tuple:
        coerce = self.coerce
        return tuple([self(v).payload if isinstance(v, RingValue) else coerce(v)
                      for v in values])

    @property
    def zero(self) -> RingValue:
        return RingValue(self, self.coerce(0))

    @property
    def one(self) -> RingValue:
        return RingValue(self, self.coerce(1))

    def __repr__(self) -> str:
        return self.name


#: Optional sign, then ASCII digits; int() also takes "_" and Unicode digits.
_DECIMAL = re.compile("[+-]?[0-9]+").fullmatch


class IntegerRing(Ring):
    """The integers, nonnegative when canonical; Python's own arithmetic."""

    name = "ZZ"

    def __new__(cls):
        return ZZ

    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    divmod = staticmethod(divmod)
    size = staticmethod(int.bit_length)
    gcd = staticmethod(math.gcd)
    render = staticmethod(str)

    def xgcd(self, a: int, b: int):
        """The Euclidean loop of the Ring contract on int operators."""
        if not a and not b:
            raise ValueError("extended gcd of (0, 0) is undefined")
        r0, x0, y0 = a, 1, 0
        r1, x1, y1 = b, 0, 1
        while r1:
            quot, rem = divmod(r0, r1)
            r0, r1 = r1, rem
            x0, x1 = x1, x0 - quot * x1
            y0, y1 = y1, y0 - quot * y1
        if r0 < 0:
            r0, x0, y0 = -r0, -x0, -y0
        return r0, x0, y0, a // r0, -(b // r0)

    def is_unit(self, a: int) -> bool:
        return a == 1 or a == -1

    def canonicalizing_unit(self, a: int) -> int:
        return -1 if a < 0 else 1

    def coerce(self, value) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"cannot coerce {_printable(repr, value)} "
                            f"into {self.name}")
        return value

    def coerce_row(self, values) -> tuple:
        """A row of exact ints as it is, with no call per entry."""
        row = tuple(values)
        if set(map(type, row)) <= {int}:
            return row
        return super().coerce_row(row)

    def parse(self, text: str) -> int:
        if _DECIMAL(text) is None:
            raise ValueError(f"not an integer literal: {text!r}")
        return int(text)


#: The ring of rational integers, the only instance of IntegerRing.
ZZ = object.__new__(IntegerRing)

#: Packed payloads are little-endian on every host, so that the slots of
#: a sum of products of unequal lengths line up from the constant term.
_SWAP = sys.byteorder == "big"


def _pack(coeffs) -> int:
    """One int with a 64-bit slot per coefficient, lowest first."""
    slots = array("Q", coeffs)
    if _SWAP:
        slots.byteswap()
    return int.from_bytes(slots, "little")


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))


class PolyModP(Ring):
    """Univariate polynomials over Z/pZ for a prime p < 2**16.

    Payloads are tuples of coefficients in [0, p), lowest degree first,
    with no trailing zeros; the empty tuple is the zero polynomial.
    Canonical associates are monic.
    """

    # One instance per prime; at most 6542 primes lie below 2**16.
    _interned: dict[int, "PolyModP"] = {}

    def __new__(cls, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise TypeError("modulus must be an int")
        if not 2 <= p < 2**16:
            raise ValueError(f"modulus out of range: {p}")
        if not _is_prime(p):
            raise ValueError(f"modulus is not prime: {p}")
        ring = cls._interned.get(p)
        if ring is None:
            ring = cls._interned[p] = super().__new__(cls)
            ring.p = p
        return ring

    def __reduce__(self):
        return PolyModP, (self.p,)

    @property
    def name(self) -> str:
        return f"GF({self.p})[x]"

    def _trim(self, coeffs: Sequence[int]) -> tuple[int, ...]:
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        return tuple(coeffs[:n])

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return a
        p, out = self.p, list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        # Only operands of equal length can cancel at the top.
        return tuple(out) if len(a) > len(b) else self._trim(out)

    def neg(self, a):
        p = self.p
        return tuple([p - c if c else 0 for c in a]) if a else a

    def mul(self, a, b):
        """Product by Kronecker substitution: one big-int product in C."""
        if not a or not b:
            return ()
        if len(a) == 1 or len(b) == 1:
            p = self.p
            c, b = (a[0], b) if len(a) == 1 else (b[0], a)
            return tuple([c * x % p for x in b])
        return self._unpack(_pack(a) * _pack(b))

    def mix(self, cof, xs, ys):
        """The sweep kernel: (p x + q y, t x + s y) for cof = (p, q, s, t),
        as the lists us and vs over the pairs of xs and ys.

        Each cofactor, x and y is packed once, and each u and v is two
        big-int products and a sum, unpacked once.  Where (p, q) = (1, 0),
        us is not recomputed: it is xs itself.
        """
        pack, unpack = _pack, self._unpack
        pp, pq, ps, pt = map(pack, cof)
        packed = [(pack(x), pack(y)) for x, y in zip(xs, ys)]
        return (xs if pp == 1 and not pq else
                [unpack(pp * x + pq * y) for x, y in packed],
                [unpack(pt * x + ps * y) for x, y in packed])

    def xgcd(self, a, b):
        """The Euclidean loop of the Ring contract, its cofactors packed.

        For the loop's rows x_k, y_k, the packed X_k = (-1)**k x_k and
        Y_k = (-1)**(k + 1) y_k follow X_{k+1} = X_{k-1} + quot X_k, and
        so for Y: sums of nonnegative slots.  They are reduced mod p only
        when needed: b_k bounds every slot of X_k and Y_k (b_0 = b_1 = 1),
        a slot of quot X_k adds at most len(quot) products of a
        coefficient below p and a slot, so

            b_{k+1} <= b_{k-1} + len(quot) (p - 1) b_k,

        and the step first reduces both rows (their bounds drop to p - 1,
        and the step's to below 2**64 while len(quot) < 2**31) when that
        bound reaches 2**64.  As len(quot) >= 1 after the first step, b_k
        never falls, so the last bound covers both rows.
        After k steps, with c = lead(r0), u = 1 / c and sign = (-1)**k,
        the first row gives the Bezout pair (u sign X0, -u sign Y0), and
        the last row, in place of two long divisions, the quotients
        a / d = c Y1 and -b / d = -c X1.  Each of these closing products
        has a scalar below p (u sign and u (p - sign) are taken mod p
        first), so its slots are at most (p - 1) b_k, and the rows are
        reduced first when that reaches 2**64.

        A constant a = (c,) against b of degree >= 1 takes two steps,
        quot () and then quot b / c, and the loop's answer is ((1,),
        (1 / c,), (), a, -b), which is returned in closed form.
        """
        if not a and not b:
            raise ValueError("extended gcd of (0, 0) is undefined")
        p, quorem, pack, unpack = self.p, self.divmod, _pack, self._unpack
        if len(a) == 1 and len(b) > 1:
            return (1,), (pow(a[0], -1, p),), (), a, self.neg(b)
        r0, x0, y0 = a, 1, 0
        r1, x1, y1 = b, 0, 1
        sign, b0, b1 = 1, 1, 1
        while r1:
            quot, rem = quorem(r0, r1)
            r0, r1, bound = r1, rem, b0 + len(quot) * (p - 1) * b1
            if bound >> 64:
                x0, x1, y0, y1 = (pack(unpack(v)) for v in (x0, x1, y0, y1))
                b1 = p - 1
                bound = b1 + len(quot) * b1 * b1
            quot = pack(quot)
            x0, x1 = x1, x0 + quot * x1
            y0, y1 = y1, y0 + quot * y1
            b0, b1, sign = b1, bound, p - sign
        if (p - 1) * b1 >> 64:
            x0, x1, y0, y1 = (pack(unpack(v)) for v in (x0, x1, y0, y1))
        c = r0[-1]
        u = pow(c, -1, p)
        return (tuple([v * u % p for v in r0]), unpack(sign * u % p * x0),
                unpack((p - sign) * u % p * y0), unpack(c * y1),
                unpack((p - c) * x1))

    def _unpack(self, packed: int):
        """The payload of a packed int: each slot reduced mod p, trimmed."""
        slots = array("Q", packed.to_bytes((packed.bit_length() + 63) // 64
                                           * 8, "little"))
        if _SWAP:
            slots.byteswap()
        p = self.p
        coeffs = [c % p for c in slots]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return tuple(coeffs)

    def divmod(self, a, b):
        """Long division, reducing mod p only the coefficients it reads."""
        if not b:
            raise ZeroDivisionError("division by zero polynomial")
        p, deg = self.p, len(b) - 1
        inv = pow(b[-1], -1, p)
        if not deg:
            return tuple([c * inv % p for c in a]), ()
        rem, quo, low = list(a), [0] * max(len(a) - deg, 0), b[:-1]
        for shift in range(len(quo) - 1, -1, -1):
            factor = rem[shift + deg] * inv % p
            if factor:
                quo[shift] = factor
                for j, cb in enumerate(low, shift):
                    rem[j] -= factor * cb
        # Each shift's top cancels unread; quo's top is lead(a) / lead(b).
        return tuple(quo), self._trim([c % p for c in rem[:deg]])

    def is_unit(self, a) -> bool:
        return len(a) == 1

    def canonicalizing_unit(self, a):
        if not a:
            return (1,)
        return (pow(a[-1], -1, self.p),)

    def size(self, a) -> int:
        return len(a) - 1 if a else 0

    def coerce(self, value):
        """An int, or a list or tuple of int coefficients, lowest first."""
        coeffs = value if isinstance(value, (list, tuple)) else (value,)
        for c in coeffs:
            if isinstance(c, bool) or not isinstance(c, int):
                raise TypeError(f"cannot coerce {_printable(repr, value)} "
                                f"into {self.name}")
        return self._trim([c % self.p for c in coeffs])

    def render(self, a) -> str:
        if not a:
            return "[0]"
        return "[" + ",".join(str(c) for c in a) + "]"

    def parse(self, text: str):
        body = text.strip()
        if not body.startswith("[") or not body.endswith("]"):
            raise ValueError(f"not a polynomial literal: {text!r}")
        inner = body[1:-1].strip()
        if not inner:
            return ()
        coeffs = []
        for part in inner.split(","):
            part = part.strip()
            try:
                coeffs.append(ZZ.parse(part))
            except ValueError:
                raise ValueError(
                    f"bad coefficient {part!r} in polynomial literal {text!r}"
                ) from None
        return self.coerce(coeffs)


# -- module-level operations on RingValue ----------------------------------


def canonical(a: RingValue) -> RingValue:
    """The canonical associate of a (nonnegative / monic)."""
    return RingValue(a.ring, a.ring.canonical(a.payload))


def gcd(a: RingValue, b: RingValue) -> RingValue:
    """Canonical gcd; gcd(0, b) is canonical(b) and gcd(0, 0) is 0."""
    ring = _common_ring(a, b)
    return RingValue(ring, ring.gcd(a.payload, b.payload))


def exact_div(a: RingValue, b: RingValue) -> RingValue:
    """a / b when b divides a exactly; ExactDivisionError otherwise."""
    ring = _common_ring(a, b)
    return RingValue(ring, ring.exact_div(a.payload, b.payload))


def divides(a: RingValue, b: RingValue) -> bool:
    """Whether a divides b; everything divides 0, only 0 is divided by 0."""
    return _common_ring(a, b).divides(a.payload, b.payload)
