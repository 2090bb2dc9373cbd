"""Ultradiscrete Toda lattice and the box-and-ball system.

A state is a finite list of soliton block lengths Q interleaved with the
gap lengths E between consecutive blocks.  One time step rewrites the
state by a min-plus recurrence; the same dynamics can be realised as the
classical box-and-ball automaton on a 01 configuration, where each block
is a run of occupied boxes and each gap a run of empty ones.

The interleaved word (Q_0, E_0, Q_1, E_1, ..., Q_{N-1}) carries N
conserved quantities: the l-th is the minimum total weight of l entries
no two of which are adjacent in the word.  Once the state is sorted
(blocks weakly increasing and each block no longer than the gap to its
right) the blocks themselves are frozen by further evolution, and
consecutive differences of the conserved quantities recover them.

The step, the non-adjacent-subset program, the sortedness test and the
word are written once, as kernels over an exact-division semiring given
as callables (add, mul, div): (min, +, -) on ints here, (gcd, *, exact /)
on ring payloads in gcd_toda.py.

The kernels never normalise.  gcd_toda hands them canonical associates
(nonnegative integers, monic polynomials, zero), and gcds, products and
exact quotients of those are canonical again, so every result is too.
Normalising the input loses nothing: scaling entries by units scales
each a_i and new e_i by a unit and leaves every gcd q'_i alone, so the
step is the same up to units and comes out canonical either way.

The step divides before it multiplies, in one pass: q'_i = gcd(e_i, a_i)
(or min) divides both (is at most both), so (a_i / q'_i) q_{i+1} equals
a_i q_{i+1} / q'_i, and so for e'_i; only e_i = a_i = 0 fails to divide.

A _Stepper owns a divisibility memo, which spares settled entries their
gcd and division from its second step on; toda_step steps a fresh one.
Write below(x, y) for add(x, y) == x: x divides y (is at most y).  Its
flag known[i] is always current: proved (True) is below(q_i, e_i) and
below(q_i, q_{i+1}), stale (the truthy _STALE) is below(q_i, e_i) alone,
and False proves nothing.  A full arm at i sets stale if below(q'_i,
q_{i+1}) on the old q_{i+1}, as e'_i = (e_i / q'_i) q_{i+1}, else False;
one at i + 1 that changes q_{i+1} after a memo arm at i sets known[i]
stale; q_{N-1} changes only after a full arm at N - 2.  At the next
step, if a_i == q_i, a stale flag is tested once and keeps the result;
if known[i] is then true, q'_i = add(e_i, q_i) is the canonical q_i,
e'_i = e_i (q_{i+1} / q_i), a_{i+1} = q_{i+1}, and the flag stays
proved.  Every other entry takes the full step.  These are the full
step's canonical values, so states are the same entry for entry, and a
read changes no later step.  Over a ring a zero q_i never carries a
truthy flag: the full arm that made it divided by zero and raised.  The
memo pays because the lattice sorts like the box-and-ball system, the
large factors settling at the tail first, whose e_i each step then only
rescales by q_{i+1} / q_i, so they grow without bound (past 38 000 bits
on 64 x 64 benchmark inputs whose q_i stay under 200 bits).

So the memo arm does no arithmetic: it hands on a = q_{i+1} and leaves
e_i to lag.  A _Stepper keeps one step clock, now, and per entry the
step since[i] after which e[i] was true, so that e[i] owes r_i^(now -
since[i]), r_i = q_{i+1} / q_i.  The ratio holds still while the lag
grows: the memo arm keeps q_i, and a full arm at i + 1 that changes
q_{i+1} first pays e[i] with the old ratio, which rescaled e_i on every
lagged step through the current one.  A full arm at i first pays e[i]'s
own lag through the last step, on the q_i and q_{i+1} the current step
has not yet touched, and then steps the true e_i.  mul is associative
and commutative in all three semirings, and products of canonical
payloads are canonical, so e_i times r_i^k formed by squaring is the
very payload that the k steps would have made one factor at a time.
Only the memo arm lags an entry, and only with known[i] proved, so e[i]
is current wherever the flag is stale or false.

The lag also ends the walk early.  Call [s, N) frozen when every entry
j >= s took the memo arm on the last step.  If the next step's carrier
reaches s equal to q_s, known[s] is still proved, so entry s and every
later one take the memo arm again, which changes nothing but the lags
the clock already counts: the step ends at s.  A _Stepper pays the lags
only when a caller reads the state, and paying changes no flag.
"""

from __future__ import annotations

__all__ = [
    "BbsState",
    "UdTodaState",
    "bbs_step",
    "conserved_quantities",
    "from_bbs",
    "is_sorted",
    "parse_state_literal",
    "render_bbs",
    "render_state_literal",
    "to_bbs",
    "ud_step",
]

import operator
from dataclasses import dataclass
from itertools import groupby

from .ring import ZZ, _power

#: (add, mul, div) of the min-plus semiring.
MIN_PLUS = (min, operator.add, operator.sub)
#: A _Stepper's stale known[i], which proves below(q_i, e_i) alone.
_STALE = object()


@dataclass(frozen=True, slots=True)
class UdTodaState:
    """Block lengths and the gaps between them; gaps has one entry fewer."""

    blocks: tuple[int, ...]
    gaps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "gaps", tuple(self.gaps))
        if not self.blocks:
            raise ValueError("a state needs at least one block")
        if len(self.gaps) != len(self.blocks) - 1:
            raise ValueError(
                f"{len(self.blocks)} blocks need {len(self.blocks) - 1} gaps, "
                f"got {len(self.gaps)}"
            )
        for v in self.blocks + self.gaps:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"entries must be nonnegative ints, got {v!r}")

    @property
    def n(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True, slots=True)
class BbsState:
    """A 01 configuration on the line: cells[i] sits at site offset + i.

    The cell tuple is trimmed, so it is empty or starts and ends with 1.
    """

    offset: int
    cells: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        for c in self.cells:
            if c not in (0, 1):
                raise ValueError(f"cells must be 0 or 1, got {c!r}")
        if self.cells and (self.cells[0] != 1 or self.cells[-1] != 1):
            raise ValueError("cell window must be trimmed to the occupied span")

    @property
    def ball_count(self) -> int:
        return sum(self.cells)

    def positions(self) -> tuple[int, ...]:
        """Absolute sites of the occupied cells, ascending."""
        return tuple(self.offset + i for i, c in enumerate(self.cells) if c)


def interleave(q, e) -> tuple:
    """The word (q_0, e_0, q_1, e_1, ..., q_{N-1})."""
    return (q[0],) + tuple(v for pair in zip(e, q[1:]) for v in pair)


def toda_step(q, e, add, mul, div) -> tuple[tuple, tuple]:
    """One time step over a semiring, returning the new (q, e).

    a_0 = q_0, a_{i+1} = (a_i / q'_i) q_{i+1};  q'_i = add(e_i, a_i) but
    q'_{N-1} = a_{N-1};  e'_i = (e_i / q'_i) q_{i+1}.  Each quotient is
    exact: its divisor add(e_i, a_i) is a gcd of both dividends, and over
    min-plus div = sub is total.  A fresh stepper's memo is all false, so
    its first step takes the full arm everywhere and leaves no lag.
    """
    lattice = _Stepper(q, e, add, mul, div)
    lattice.step()
    return tuple(lattice.q), tuple(lattice.e)


class _Stepper:
    """An evolution under toda_step's recurrence, stepped in place on
    lists q and e.  It owns the memo known, defers each memo-arm entry's
    rescaling and ends a step at its frozen suffix (module docstring);
    below, if given, is a memo test cheaper than add(x, y) == x.

    now counts the steps taken.  e[j] is the true e_j after step since[j]
    and owes (q[j+1] / q[j]) ** (now - since[j]); q and known are always
    current, and so is e[j] unless known[j] is proved.  Entries j >= frozen
    took the memo arm on the last step.  pay() clears every lag, keeps known.
    """

    __slots__ = ("q", "e", "known", "since", "frozen", "now", "ops")

    def __init__(self, q, e, add, mul, div, below=None):
        self.q, self.e, self.ops = list(q), list(e), (add, mul, div, below)
        n = self.frozen = len(self.e)
        self.known, self.since, self.now = [False] * n, [0] * n, 0

    def step(self) -> None:
        """Advance one time step, ending it at the frozen suffix if the
        carrier reaches it unchanged."""
        q, e, known, since = self.q, self.e, self.known, self.since
        add, mul, div, below = self.ops
        prev, stale = self.now, _STALE
        self.now = now = prev + 1
        s, a, last = self.frozen, q[0], -1
        for i in range(len(e)):
            qi, qn = q[i], q[i + 1]
            if a == qi:
                if known[i] is stale:
                    known[i] = below(qi, qn) if below else add(qi, qn) == qi
                if known[i]:
                    if i == s:
                        break
                    a = qn
                    continue
            if since[i] < prev:
                e[i] = mul(e[i], _power(div(qn, qi), prev - since[i], mul))
            q[i] = new = add(e[i], a)
            e[i], a = mul(div(e[i], new), qn), mul(div(a, new), qn)
            held = below(new, qn) if below else add(new, qn) == new
            known[i] = held and stale
            if new != qi and last < i - 1:
                e[i - 1] = mul(e[i - 1], _power(div(qi, q[i - 1]),
                                                now - since[i - 1], mul))
                since[i - 1], known[i - 1] = now, stale
            since[i], last = now, i
        else:
            q[-1] = a
        self.frozen = last + 1

    def pay(self) -> tuple[tuple, tuple]:
        """Rescale each lagging e[j] by q[j+1] / q[j] to the power of its
        lag; the state as (q, e) tuples."""
        q, e, since, now = self.q, self.e, self.since, self.now
        mul, div = self.ops[1:3]
        for j in range(len(e)):
            if since[j] != now:
                e[j] = mul(e[j], _power(div(q[j + 1], q[j]), now - since[j],
                                        mul))
                since[j] = now
        return tuple(q), tuple(e)


def non_adjacent_totals(q, e, add, mul, one) -> tuple:
    """For l = 1..N, add over every l pairwise non-adjacent entries of the
    word interleave(q, e) of their mul-product, by a two-back program.

    After k word entries prev[l] covers the l-subsets of that prefix; the
    list is only as long as such subsets exist; one is the empty product.
    """
    prev2 = prev = [one]
    for w in interleave(q, e):
        cur = [one] + [mul(v, w) for v in prev2]
        for l in range(1, len(prev)):
            cur[l] = add(prev[l], cur[l])
        prev2, prev = prev, cur
    return tuple(prev[1:])


def settled(q, e, below) -> bool:
    """Whether below(q_i, q_{i+1}) and below(q_i, e_i) hold for every i.

    terminated and is_sorted call it on plain states.  gcd_toda.run tests
    a _Stepper itself: there a truthy known[i] stands for below(q_i, e_i),
    whose e_i may lag, and its witness has already tested the chain of q.
    """
    return all(map(below, q, q[1:])) and all(map(below, q, e))


def ud_step(state: UdTodaState) -> UdTodaState:
    """Advance one time step.

    Each new block takes min(gap, mass) where mass is the matter carried
    so far; the last block absorbs everything left (the boundary gap is
    infinite).  New gaps keep the total balance: E' = E + Q_next - Q'.
    """
    return UdTodaState(*toda_step(state.blocks, state.gaps, *MIN_PLUS))


def conserved_quantities(state: UdTodaState) -> tuple[int, ...]:
    """Minimum weight of l pairwise non-adjacent entries of the word, l=1..N.

    Computed by non_adjacent_totals; the result is invariant under ud_step.
    """
    return non_adjacent_totals(state.blocks, state.gaps, *MIN_PLUS[:2], 0)


def is_sorted(state: UdTodaState) -> bool:
    """Blocks weakly increasing and each block at most the gap after it."""
    return settled(state.blocks, state.gaps, operator.le)


def to_bbs(state: UdTodaState) -> BbsState:
    """The 01 configuration with the leftmost ball at site 0.

    Requires strictly positive blocks and gaps, otherwise the runs would
    merge and the state would not round-trip.
    """
    if any(q <= 0 for q in state.blocks):
        raise ValueError("blocks must be positive to build a configuration")
    if any(e <= 0 for e in state.gaps):
        raise ValueError("gaps must be positive to build a configuration")
    cells = [1] * state.blocks[0]
    for gap, block in zip(state.gaps, state.blocks[1:]):
        cells += [0] * gap + [1] * block
    return BbsState(0, tuple(cells))


def from_bbs(state: BbsState) -> UdTodaState:
    """Run lengths of the configuration as a block/gap state."""
    if not state.cells:
        raise ValueError("empty configuration has no block structure")
    # Trimmed cells start and end with a ball, so runs alternate block, gap.
    lengths = [len(list(run)) for _, run in groupby(state.cells)]
    return UdTodaState(lengths[::2], lengths[1::2])


def bbs_step(state: BbsState) -> BbsState:
    """One pass of the box-and-ball automaton, left to right.

    The carrier picks up every ball it meets and drops one into each empty
    box while loaded; whatever is still held past the window spills into
    the boxes just to the right.
    """
    if not state.cells:
        return state
    cells: list[int] = []
    load = 0
    for u in state.cells:
        if u:
            load += 1
            cells.append(0)
        elif load:
            load -= 1
            cells.append(1)
        else:
            cells.append(0)
    cells += [1] * load
    start = cells.index(1)
    return BbsState(state.offset + start, tuple(cells[start:]))


def render_bbs(state: BbsState, start: int | None = None,
               stop: int | None = None) -> str:
    """The configuration as a 01 string over sites [start, stop)."""
    if start is None:
        start = state.offset
    if stop is None:
        stop = state.offset + len(state.cells)
    out = []
    for site in range(start, stop):
        i = site - state.offset
        out.append("1" if 0 <= i < len(state.cells) and state.cells[i] else "0")
    return "".join(out)


def parse_state_literal(text: str) -> UdTodaState:
    """Parse 'Q:4,3,1;E:3,2' into a state; E may be empty for one block."""
    parts = text.strip().split(";")
    if len(parts) != 2:
        raise ValueError(f"state literal needs one ';': {text!r}")
    q_part, e_part = parts[0].strip(), parts[1].strip()
    if not q_part.upper().startswith("Q:"):
        raise ValueError(f"state literal must start with 'Q:': {text!r}")
    if not e_part.upper().startswith("E:"):
        raise ValueError(f"second half must start with 'E:': {text!r}")

    def ints(body: str) -> tuple[int, ...]:
        body = body.strip()
        if not body:
            return ()
        try:
            return tuple(ZZ.parse(tok.strip()) for tok in body.split(","))
        except ValueError:
            raise ValueError(f"bad count in state literal: {text!r}") from None

    return UdTodaState(ints(q_part[2:]), ints(e_part[2:]))


def render_state_literal(state: UdTodaState) -> str:
    q = ",".join(str(v) for v in state.blocks)
    e = ",".join(str(v) for v in state.gaps)
    return f"Q:{q};E:{e}"
