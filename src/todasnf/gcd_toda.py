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
semiring kernels of ud_toda.py, run here on raw payloads with the bound
methods (ring.gcd, ring.mul, ring.exact_div); RingValues are unwrapped
into canonical associates on entry, which keeps every kernel result
canonical (see ud_toda.py), and only the results are wrapped.  run keeps
just the seed and the final state; the trace of a TodaRun or of an
IterationLimitError replays the deterministic map with iterate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .ring import Ring, RingValue, divides, exact_div
from .ud_toda import (
    UdTodaState,
    interleave,
    non_adjacent_totals,
    settled,
    toda_step,
)


class IterationLimitError(RuntimeError):
    """The step cap was reached before the termination test fired.

    trace replays the states walked, seed included, for diagnostics.
    """

    def __init__(self, limit: int, seed: GcdTodaState, last: GcdTodaState):
        super().__init__(
            f"no termination within {limit} steps; "
            f"last diagonal {[str(v) for v in last.diagonal]}"
        )
        self.limit = limit
        self.seed = seed

    @property
    def trace(self) -> tuple[GcdTodaState, ...]:
        return tuple(islice(iterate(self.seed), self.limit + 1))


@dataclass(frozen=True, slots=True)
class GcdTodaState:
    """Diagonal and subdiagonal of a lower bidiagonal matrix."""

    diagonal: tuple[RingValue, ...]
    subdiagonal: tuple[RingValue, ...]

    def __post_init__(self):
        object.__setattr__(self, "diagonal", tuple(self.diagonal))
        object.__setattr__(self, "subdiagonal", tuple(self.subdiagonal))
        if not self.diagonal:
            raise ValueError("a state needs at least one diagonal entry")
        if len(self.subdiagonal) != len(self.diagonal) - 1:
            raise ValueError(
                f"{len(self.diagonal)} diagonal entries need "
                f"{len(self.diagonal) - 1} subdiagonal ones, "
                f"got {len(self.subdiagonal)}"
            )
        for v in self.diagonal + self.subdiagonal:
            if not isinstance(v, RingValue):
                raise TypeError(f"entries must be ring values, got {v!r}")
        ring = self.diagonal[0].ring
        for v in self.diagonal + self.subdiagonal:
            if v.ring is not ring:
                raise ValueError("entries must all live in the same ring")

    @property
    def n(self) -> int:
        return len(self.diagonal)

    @property
    def ring(self) -> Ring:
        return self.diagonal[0].ring


@dataclass(frozen=True, slots=True)
class TodaRun:
    """Outcome of iterating gcd_step to termination; trace is replayed."""

    seed: GcdTodaState
    iterations: int
    final: GcdTodaState

    @property
    def factors(self) -> tuple[RingValue, ...]:
        return self.final.diagonal

    @property
    def trace(self) -> tuple[GcdTodaState, ...]:
        return tuple(islice(iterate(self.seed), self.iterations + 1))


def _unwrap(state: GcdTodaState) -> tuple[tuple, tuple]:
    """The canonical diagonal and subdiagonal payloads."""
    canon = state.ring.canonical
    return (tuple(canon(v.payload) for v in state.diagonal),
            tuple(canon(v.payload) for v in state.subdiagonal))


def _wrap(ring: Ring, payloads) -> tuple[RingValue, ...]:
    return tuple(RingValue(ring, v) for v in payloads)


def _state(ring: Ring, q, e) -> GcdTodaState:
    """The state of diagonal payloads q and subdiagonal payloads e."""
    return GcdTodaState(_wrap(ring, q), _wrap(ring, e))


def gcd_step(state: GcdTodaState) -> GcdTodaState:
    """Advance one time step; raises ExactDivisionError off the reachable set."""
    ring = state.ring
    return _state(ring, *toda_step(*_unwrap(state), ring.gcd, ring.mul,
                                   ring.exact_div))


def terminated(state: GcdTodaState) -> bool:
    """Whether the diagonal divides along itself and into the subdiagonal."""
    return settled(*_unwrap(state), state.ring.divides)


def default_max_iters(state: GcdTodaState) -> int:
    """Step cap scaling with the seed: N times the total entry size."""
    ring = state.ring
    total = sum(
        ring.size(v.payload) for v in state.diagonal + state.subdiagonal
    )
    return max(64, state.n * total)


def iterate(state: GcdTodaState) -> Iterator[GcdTodaState]:
    """The state, then each gcd_step after it, without end."""
    while True:
        yield state
        state = gcd_step(state)


def run(state: GcdTodaState, max_iters: int | None = None) -> TodaRun:
    """Iterate gcd_step until the termination test fires.

    At least one step is always taken, so the returned diagonal is made of
    canonical associates even when the seed already passes the test.  The
    steps run on payloads; only the final state is wrapped, and the trace
    is replayed on request.
    """
    ring = state.ring
    q, e = _unwrap(state)
    if any(ring.is_zero(v) for v in q[:-1]):
        raise ValueError(
            "interior diagonal entries must be nonzero; only the last "
            "may vanish"
        )
    if max_iters is None:
        max_iters = default_max_iters(state)
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    gcd, mul, div = ring.gcd, ring.mul, ring.exact_div
    for steps in range(1, max_iters + 1):
        q, e = toda_step(q, e, gcd, mul, div)
        if settled(q, e, ring.divides):
            return TodaRun(state, steps, _state(ring, q, e))
    raise IterationLimitError(max_iters, state, _state(ring, q, e))


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
    return _wrap(ring, non_adjacent_totals(
        *_unwrap(state), ring.gcd, ring.mul, ring.coerce(1)
    ))


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
                f"entry {v} is not a unit multiple of a power of {base}"
            )
        return k

    return UdTodaState(
        tuple(lift(v) for v in state.diagonal),
        tuple(lift(v) for v in state.subdiagonal),
    )
