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
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

#: (add, mul, div) of the min-plus semiring.
MIN_PLUS = (min, operator.add, operator.sub)


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

    a_0 = q_0, a_i = a_{i-1} q_i / q'_{i-1};  q'_i = add(e_i, a_i) but
    q'_{N-1} = a_{N-1};  e'_i = e_i q_{i+1} / q'_i.
    """
    n = len(q)
    new_q = []
    a = q[0]
    for i in range(n):
        if i:
            a = div(mul(a, q[i]), new_q[i - 1])
        new_q.append(add(e[i], a) if i < n - 1 else a)
    new_e = tuple(div(mul(e[i], q[i + 1]), new_q[i]) for i in range(n - 1))
    return tuple(new_q), new_e


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
    """Whether below(q_i, q_{i+1}) and below(q_i, e_i) hold for every i."""
    return all(
        below(q[i], q[i + 1]) and below(q[i], e[i]) for i in range(len(e))
    )


def interleaved(state: UdTodaState) -> tuple[int, ...]:
    """The word (Q_0, E_0, Q_1, E_1, ..., Q_{N-1})."""
    return interleave(state.blocks, state.gaps)


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
    cells: list[int] = []
    for i, q in enumerate(state.blocks):
        if i:
            cells.extend([0] * state.gaps[i - 1])
        cells.extend([1] * q)
    return BbsState(0, tuple(cells))


def from_bbs(state: BbsState) -> UdTodaState:
    """Run lengths of the configuration as a block/gap state."""
    if not state.cells:
        raise ValueError("empty configuration has no block structure")
    blocks: list[int] = []
    gaps: list[int] = []
    value, length = state.cells[0], 0
    for c in state.cells + (None,):
        if c == value:
            length += 1
            continue
        (blocks if value == 1 else gaps).append(length)
        value, length = c, 1
    return UdTodaState(tuple(blocks), tuple(gaps))


def bbs_step(state: BbsState) -> BbsState:
    """One pass of the box-and-ball automaton, left to right.

    The carrier picks up every ball it meets and drops one into each empty
    box while loaded; whatever is still held past the window spills into
    the boxes just to the right.
    """
    if not state.cells:
        return state
    moved: list[int] = []
    load = 0
    pos = state.offset
    for u in state.cells:
        if u == 1:
            load += 1
        elif load:
            moved.append(pos)
            load -= 1
        pos += 1
    while load:
        moved.append(pos)
        pos += 1
        load -= 1
    cells = [0] * (moved[-1] - moved[0] + 1)
    for site in moved:
        cells[site - moved[0]] = 1
    return BbsState(moved[0], tuple(cells))


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
            return tuple(int(tok.strip(), 10) for tok in body.split(","))
        except ValueError:
            raise ValueError(f"bad count in state literal: {text!r}") from None

    return UdTodaState(ints(q_part[2:]), ints(e_part[2:]))


def render_state_literal(state: UdTodaState) -> str:
    q = ",".join(str(v) for v in state.blocks)
    e = ",".join(str(v) for v in state.gaps)
    return f"Q:{q};E:{e}"
