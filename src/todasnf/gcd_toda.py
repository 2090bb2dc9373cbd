"""The gcd analogue of the discrete Toda lattice.

A state holds the diagonal q and subdiagonal e of a lower bidiagonal
matrix over a PID.  One time step replaces min by gcd and addition by
multiplication in the ultradiscrete Toda recurrence:

    a_0 = q_0,   a_n = a_{n-1} * q_n / q'_{n-1}        (exact division)
    q'_n = gcd(e_n, a_n)  for n < N-1,   q'_{N-1} = canonical(a_{N-1})
    e'_n = e_n * q_{n+1} / q'_n

All divisions are exact for states reachable from a bidiagonal matrix,
and every output entry is a canonical associate.  Iterating the step
sorts the diagonal into the invariant factors of the matrix: evolution
stops once consecutive diagonal entries divide each other and each
diagonal entry divides the subdiagonal entry next to it.

The map also conserves N quantities: the gcd over products of l pairwise
non-adjacent entries of the interleaved word (q_0, e_0, q_1, ..., q_{N-1}),
which are exactly the determinantal divisors of the bidiagonal matrix.

The step, the divisor program, the termination test and the word are the
semiring kernels of ud_toda.py, run on raw payloads with the bound methods
ring.gcd and ring.mul.  The step divides with floor division over ZZ,
where each quotient is by a gcd of its dividend and so exact, and with
ring.exact_div over GF(p)[x], where the stepper's memo tests divisibility
with ring.divides, one remainder where a gcd is a Euclidean loop; over ZZ
the memo keeps its inline gcd test, which enters no Python frame.  Like a
DenseMatrix, a GcdTodaState stores payloads and wraps them into
RingValues only when read.

_evolve is the one loop over the step: it makes the seed canonical once,
which keeps every kernel result canonical, and steps one ud_toda stepper,
whose memo and deferred rescalings (lags) ud_toda.py describes.  iterate
pays every lag before each state it yields, so gcd_step and every trace
see plain states, yet steps as run does: paying moves no memo flag.
run builds no state.  It keeps a witness, the first pair (q_w, q_{w+1})
in which q_w did not divide q_{w+1} at the last full test, and tests that
pair alone after each step; while it still fails, nothing else is read.
The lattice sorts like the box-and-ball system, one collision at a time,
so a pair out of order usually stays so for many steps.  Once no pair
fails, run tests q_i | e_i only where the memo flag is false, so it reads
no lagging e_i.  The witness can only reject: every stop is the
full test's, so steps and states are those of terminated at every step.
run's TodaRun keeps the stepper and pays its lags at the first read of
final, which smith_normal_form never makes.
"""

from __future__ import annotations

__all__ = [
    "GcdTodaState",
    "IterationLimitError",
    "TodaRun",
    "default_max_iters",
    "determinantal_divisors",
    "exponent_lift",
    "gcd_step",
    "iterate",
    "run",
    "terminated",
]

import operator
from dataclasses import dataclass
from itertools import chain, compress, islice, starmap
from typing import Iterator, Sequence

from .ring import (
    ExactDivisionError,
    Ring,
    RingValue,
    ZZ,
    _printable,
    divides,
    exact_div,
)
from .ud_toda import (
    UdTodaState,
    _Stepper,
    interleave,
    non_adjacent_totals,
    settled,
)


class IterationLimitError(RuntimeError):
    """The step cap was reached before the termination test fired.

    capped is the run cut off at the cap, limit steps from the seed to the
    last state; trace replays its states, seed included, for diagnostics.
    """

    def __init__(self, capped: TodaRun):
        super().__init__(
            f"no termination within {capped.iterations} steps; last diagonal "
            f"{[_printable(str, v) for v in capped.factors]}"
        )
        self.limit = capped.iterations
        self.capped = capped

    def __reduce__(self):
        return IterationLimitError, (self.capped,)

    @property
    def trace(self) -> tuple[GcdTodaState, ...]:
        return self.capped.trace


@dataclass(frozen=True, slots=True)
class GcdTodaState:
    """Diagonal q and subdiagonal e of a lower bidiagonal matrix.

    Like DenseMatrix, a state stores the ring's payloads and wraps them
    into RingValues only when diagonal or subdiagonal is read.
    """

    ring: Ring
    q: tuple
    e: tuple

    def __init__(self, diagonal: Sequence, subdiagonal: Sequence):
        diagonal, subdiagonal = tuple(diagonal), tuple(subdiagonal)
        if not diagonal:
            raise ValueError("a state needs at least one diagonal entry")
        if len(subdiagonal) != len(diagonal) - 1:
            raise ValueError(f"{len(diagonal)} diagonal entries need "
                             f"{len(diagonal) - 1} subdiagonal ones, "
                             f"got {len(subdiagonal)}")
        for v in diagonal + subdiagonal:
            if not isinstance(v, RingValue):
                raise TypeError("entries must be ring values, "
                                f"got {_printable(repr, v)}")
        ring = diagonal[0].ring
        for v in diagonal + subdiagonal:
            if v.ring is not ring:
                raise ValueError("entries must all live in the same ring")
        self._fill(ring, tuple(v.payload for v in diagonal),
                   tuple(v.payload for v in subdiagonal))

    @classmethod
    def from_payloads(cls, ring: Ring, q: tuple, e: tuple) -> GcdTodaState:
        """Trusted: q and e are payload tuples of ring, e one entry shorter."""
        return object.__new__(cls)._fill(ring, q, e)

    def _fill(self, ring: Ring, q: tuple, e: tuple) -> GcdTodaState:
        """Set the fields of a new state past its frozen __setattr__."""
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "e", e)
        return self

    def __repr__(self) -> str:
        """The dataclass's text, a tuple past the digit limit shown as
        _printable's placeholder."""
        return (f"GcdTodaState(ring={self.ring!r}, "
                f"q={_printable(repr, self.q)}, e={_printable(repr, self.e)})")

    @property
    def n(self) -> int:
        return len(self.q)

    @property
    def diagonal(self) -> tuple[RingValue, ...]:
        return tuple(RingValue(self.ring, v) for v in self.q)

    @property
    def subdiagonal(self) -> tuple[RingValue, ...]:
        return tuple(RingValue(self.ring, v) for v in self.e)


@dataclass(frozen=True, slots=True)
class TodaRun:
    """Outcome of iterating gcd_step to termination; trace is replayed.

    run stores the stepper it stopped on in final's slot.  final pays the
    stepper's lags on its first read and keeps the paid state in its place
    (_read_final); factors reads only the stepper's q, which never lags.
    Equality, hashing, repr and pickling read final, so each sees the
    paid state.
    """

    seed: GcdTodaState
    iterations: int
    final: GcdTodaState

    @property
    def factors(self) -> tuple[RingValue, ...]:
        ring = self.seed.ring
        return tuple(RingValue(ring, v) for v in _final_slot.__get__(self).q)

    @property
    def trace(self) -> tuple[GcdTodaState, ...]:
        return tuple(islice(iterate(self.seed), self.iterations + 1))


_final_slot = TodaRun.final


def _read_final(outcome: TodaRun) -> GcdTodaState:
    """TodaRun.final: the state in its slot, where a _Stepper stored
    there is first paid and replaced by the state it pays."""
    final = _final_slot.__get__(outcome)
    if isinstance(final, _Stepper):
        final = GcdTodaState.from_payloads(outcome.seed.ring, *final.pay())
        _final_slot.__set__(outcome, final)
    return final


# The dataclass's own __init__, __eq__, __hash__, __repr__ and pickling
# all read and write the field by name, so they pass through here too.
TodaRun.final = property(_read_final, _final_slot.__set__)


def _evolve(state: GcdTodaState) -> Iterator[_Stepper]:
    """One stepper on the canonical payloads of state, stepped once before
    each time it is yielded, without end."""
    ring = state.ring
    div, below = ((operator.floordiv, None) if ring is ZZ
                  else (ring.exact_div, ring.divides))
    lattice = _Stepper(map(ring.canonical, state.q),
                       map(ring.canonical, state.e), ring.gcd, ring.mul,
                       div, below=below)
    while True:
        try:
            lattice.step()
        except ZeroDivisionError:
            raise ExactDivisionError("division by zero") from None
        yield lattice


def iterate(state: GcdTodaState) -> Iterator[GcdTodaState]:
    """The state, then each gcd_step after it, without end."""
    yield state
    for lattice in _evolve(state):
        yield GcdTodaState.from_payloads(state.ring, *lattice.pay())


def gcd_step(state: GcdTodaState) -> GcdTodaState:
    """Advance one time step.

    Raises ExactDivisionError only when a step's gcd is zero.
    """
    return next(islice(iterate(state), 1, None))


def terminated(state: GcdTodaState) -> bool:
    """Whether the diagonal divides along itself and into the subdiagonal."""
    return settled(state.q, state.e, state.ring.divides)


def default_max_iters(state: GcdTodaState) -> int:
    """Step cap scaling with the seed: N times the total entry size."""
    total = sum(map(state.ring.size, state.q + state.e))
    return max(64, state.n * total)


def _check_cap(max_iters: int | None) -> None:
    if max_iters is None:
        return
    if isinstance(max_iters, bool) or not isinstance(max_iters, int):
        raise TypeError(f"max_iters must be an int or None, not {max_iters!r}")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")


def run(state: GcdTodaState, max_iters: int | None = None) -> TodaRun:
    """Iterate gcd_step until the termination test fires.

    At least one step is always taken, so the returned diagonal is made of
    canonical associates even when the seed already passes the test.
    Only the seed and the last state are kept; the trace is replayed, and
    the last state's deferred rescalings are paid when final is first
    read.  The test starts from the pair that failed it last; once no
    pair of the diagonal fails, it tests q_i | e_i only where the
    stepper's memo flag is false (module docstring).

    A zero subdiagonal entry splits the lattice into blocks that no factor
    can cross, so such a seed could only spin to the cap; run refuses it,
    even one whose blocks already sit in divisor order (q = (2, 6),
    e = (0,)).  iterate and gcd_step still step split seeds.
    """
    if not all(state.q[:-1]):  # zero payloads are the falsy ones
        raise ValueError("interior diagonal entries must be nonzero; "
                         "only the last may vanish")
    if not all(state.e):
        raise ValueError("a zero subdiagonal entry splits the lattice")
    _check_cap(max_iters)
    if max_iters is None:
        max_iters = default_max_iters(state)
    below, last, w = state.ring.divides, state.n - 1, 0
    for steps, lattice in enumerate(islice(_evolve(state), max_iters), 1):
        q = lattice.q
        if w < last and not below(q[w], q[w + 1]):
            continue
        pairs = chain(map(below, q, islice(q, 1, None)), (False,))
        w = operator.indexOf(pairs, False)
        if w == last and all(starmap(below, compress(
                zip(q, lattice.e), map(operator.not_, lattice.known)))):
            return TodaRun(state, steps, lattice)
    raise IterationLimitError(TodaRun(state, max_iters, lattice))


def interleaved(state: GcdTodaState) -> tuple[RingValue, ...]:
    """The word (q_0, e_0, q_1, e_1, ..., q_{N-1})."""
    return interleave(state.diagonal, state.subdiagonal)


def determinantal_divisors(state: GcdTodaState) -> tuple[RingValue, ...]:
    """Gcd over products of l pairwise non-adjacent word entries, l=1..N.

    This is the gcd/product analogue of the min-plus conserved quantities,
    computed by the same program, and is invariant under gcd_step; entry
    l-1 equals the gcd of all l by l minors of the bidiagonal matrix.
    """
    ring = state.ring
    totals = non_adjacent_totals(state.q, state.e, ring.gcd, ring.mul,
                                 ring.coerce(1))
    return tuple(RingValue(ring, ring.canonical(v)) for v in totals)


def exponent_lift(state: GcdTodaState, base: RingValue) -> UdTodaState:
    """Valuations of all entries at a prime base, as a min-plus state.

    Every entry must be a unit times a power of base; taking valuations
    turns gcd into min and multiplication into addition, so gcd_step on
    the state commutes with ud_step on the lift.
    """
    if base.is_zero() or base.is_unit():
        raise ValueError("base must be a nonzero non-unit")

    def lift(v: RingValue) -> int:
        if v.is_zero():
            raise ValueError("zero entry has no finite valuation")
        k = 0
        while divides(base, v):
            v = exact_div(v, base)
            k += 1
        if not v.is_unit():
            raise ValueError(
                f"entry {_printable(str, v)} is not a unit multiple of a "
                f"power of {_printable(str, base)}")
        return k

    return UdTodaState(
        tuple(lift(v) for v in state.diagonal),
        tuple(lift(v) for v in state.subdiagonal),
    )
