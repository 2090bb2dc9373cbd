"""Exact arithmetic over two principal ideal domains.

Supported rings:

  * the rational integers, backed by Python's arbitrary-precision ``int``;
  * ``PolyModP(p)``, univariate polynomials over the prime field Z/pZ,
    backed by tuples of residues in ascending degree order.

Every element is carried as a :class:`RingValue`, a thin wrapper that tags
an opaque payload with the ring it lives in.  Mixing values from different
rings raises :class:`RingMismatchError` instead of producing garbage.

Rings are interned: ``IntegerRing()`` is ``ZZ`` and ``PolyModP(p)`` returns
one instance per prime, so ring equality is identity (``is``).  Hot loops
skip the wrapper and call the ring's payload methods directly.

Gcds are always returned as *canonical associates*: nonnegative integers,
monic polynomials.  By convention ``gcd(0, 0) == 0`` and every element
divides zero, so a gcd accumulated over an empty or all-zero collection
degrades gracefully instead of raising.
"""

from __future__ import annotations

import math
from typing import Sequence


class RingMismatchError(TypeError):
    """Raised when an operation mixes values from different rings."""


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


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

    def is_zero(self) -> bool:
        return self.ring.is_zero(self.payload)

    def is_unit(self) -> bool:
        return self.ring.is_unit(self.payload)

    def __bool__(self) -> bool:
        return not self.is_zero()

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
        out, base = ring.coerce(1), self.payload
        while exponent:
            if exponent & 1:
                out = ring.mul(out, base)
            exponent >>= 1
            if exponent:
                base = ring.mul(base, base)
        return RingValue(ring, out)

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


def _common_ring(a: RingValue, b: RingValue) -> "Ring":
    if a.ring is not b.ring:
        raise RingMismatchError(
            f"cannot combine values from {a.ring.name} and {b.ring.name}"
        )
    return a.ring


class Ring:
    """Interface shared by the supported PIDs.

    Subclasses implement arithmetic on raw payloads; calling the ring
    coerces native Python data into a :class:`RingValue`.
    """

    name: str = "ring"

    # -- payload arithmetic, provided by subclasses --------------------

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def divmod(self, a, b):
        """Euclidean (quotient, remainder); ExactDivisionError if b is 0."""
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def canonicalizing_unit(self, a):
        """A unit u with u*a canonical; the identity when a == 0."""
        raise NotImplementedError

    def size(self, a) -> int:
        """A nonnegative measure of a (bit length or degree), used for caps."""
        raise NotImplementedError

    def coerce(self, value):
        """Convert native Python data into a payload."""
        raise NotImplementedError

    def render(self, a) -> str:
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    # -- derived operations ---------------------------------------------

    def canonical(self, a):
        return self.mul(self.canonicalizing_unit(a), a)

    def gcd(self, a, b):
        """Canonical gcd of two payloads, by the Euclidean algorithm."""
        while not self.is_zero(b):
            a, b = b, self.divmod(a, b)[1]
        return self.canonical(a)

    def xgcd(self, a, b):
        """Bezout data (d, p, q, s, t) of two payloads.

        d is the canonical gcd of (a, b) and

            a*p + b*q == d,    a == s*d,    b == -t*d.

        Undefined (raises ValueError) when both inputs are zero.
        """
        if self.is_zero(a) and self.is_zero(b):
            raise ValueError("extended gcd of (0, 0) is undefined")
        one, zero = self.coerce(1), self.coerce(0)
        r0, x0, y0 = a, one, zero
        r1, x1, y1 = b, zero, one
        while not self.is_zero(r1):
            quot, rem = self.divmod(r0, r1)
            r0, r1 = r1, rem
            x0, x1 = x1, self.add(x0, self.neg(self.mul(quot, x1)))
            y0, y1 = y1, self.add(y0, self.neg(self.mul(quot, y1)))
        u = self.canonicalizing_unit(r0)
        d = self.mul(u, r0)
        p = self.mul(u, x0)
        q = self.mul(u, y0)
        s = self.divmod(a, d)[0]
        t = self.neg(self.divmod(b, d)[0])
        return d, p, q, s, t

    def exact_div(self, a, b):
        """a / b when b divides a exactly; ExactDivisionError otherwise."""
        quot, rem = self.divmod(a, b)
        if not self.is_zero(rem):
            raise ExactDivisionError(
                f"{self.render(b)} does not divide {self.render(a)}"
            )
        return quot

    def divides(self, a, b) -> bool:
        """Whether a divides b; everything divides 0, only 0 is divided by 0."""
        if self.is_zero(b):
            return True
        if self.is_zero(a):
            return False
        return self.is_zero(self.divmod(b, a)[1])

    # -- RingValue construction -----------------------------------------

    def __call__(self, value) -> RingValue:
        if isinstance(value, RingValue):
            if value.ring is not self:
                raise RingMismatchError(
                    f"value from {value.ring.name} passed to {self.name}"
                )
            return value
        return RingValue(self, self.coerce(value))

    @property
    def zero(self) -> RingValue:
        return RingValue(self, self.coerce(0))

    @property
    def one(self) -> RingValue:
        return RingValue(self, self.coerce(1))

    def __repr__(self) -> str:
        return self.name


class IntegerRing(Ring):
    """The rational integers; canonical associates are nonnegative."""

    name = "ZZ"

    def __new__(cls):
        return ZZ

    def add(self, a: int, b: int) -> int:
        return a + b

    def neg(self, a: int) -> int:
        return -a

    def mul(self, a: int, b: int) -> int:
        return a * b

    def divmod(self, a: int, b: int):
        if b == 0:
            raise ExactDivisionError("division by zero")
        return divmod(a, b)

    def is_zero(self, a: int) -> bool:
        return a == 0

    def is_unit(self, a: int) -> bool:
        return a == 1 or a == -1

    def canonicalizing_unit(self, a: int) -> int:
        return -1 if a < 0 else 1

    def size(self, a: int) -> int:
        return a.bit_length()

    def gcd(self, a: int, b: int) -> int:
        return math.gcd(a, b)

    def coerce(self, value) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"cannot coerce {value!r} into {self.name}")
        return value

    def render(self, a: int) -> str:
        return str(a)

    def parse(self, text: str) -> int:
        try:
            return int(text, 10)
        except ValueError:
            raise ValueError(f"not an integer literal: {text!r}") from None


#: The ring of rational integers, the only instance of IntegerRing.
ZZ = object.__new__(IntegerRing)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PolyModP(Ring):
    """Univariate polynomials over Z/pZ for a prime p < 2**16.

    Payloads are tuples of coefficients in [0, p), lowest degree first,
    with no trailing zeros; the empty tuple is the zero polynomial.
    Canonical associates are monic.
    """

    __slots__ = ("p",)
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
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return self._trim(out)

    def neg(self, a):
        return tuple((self.p - c) % self.p for c in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] = (out[i + j] + ca * cb) % self.p
        return self._trim(out)

    def divmod(self, a, b):
        if not b:
            raise ExactDivisionError("division by zero polynomial")
        p = self.p
        rem = list(a)
        quo = [0] * max(len(a) - len(b) + 1, 0)
        inv_lead = pow(b[-1], -1, p)
        for shift in range(len(rem) - len(b), -1, -1):
            factor = (rem[shift + len(b) - 1] * inv_lead) % p
            if factor == 0:
                continue
            quo[shift] = factor
            for j, cb in enumerate(b):
                rem[shift + j] = (rem[shift + j] - factor * cb) % p
        return self._trim(quo), self._trim(rem)

    def is_zero(self, a) -> bool:
        return not a

    def is_unit(self, a) -> bool:
        return len(a) == 1

    def canonicalizing_unit(self, a):
        if not a:
            return (1,)
        return (pow(a[-1], -1, self.p),)

    def size(self, a) -> int:
        return len(a) - 1 if a else 0

    def coerce(self, value):
        if isinstance(value, bool):
            raise TypeError(f"cannot coerce {value!r} into {self.name}")
        if isinstance(value, int):
            return self._trim((value % self.p,))
        if isinstance(value, (list, tuple)):
            return self._trim([int(c) % self.p for c in value])
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

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
                coeffs.append(int(part, 10))
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
