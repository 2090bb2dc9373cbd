"""Smith normal form over a PID, two independent ways.

smith_normal_form runs the lattice pipeline: pad, bidiagonalize, seed the
gcd-Toda lattice and iterate it to termination; the sorted diagonal is
the chain of invariant factors.  classical_snf is a self-contained
textbook elimination kept as a cross-check, and verify confirms a result
against the gcds of all k by k minors of the original matrix, each by
one fraction-free (Bareiss) elimination on raw payloads, _det.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .bidiagonalize import bidiagonalize, rotation, seed_state
from .gcd_toda import GcdTodaState, TodaRun, run
from .matrix import DenseMatrix, mix_cols, mix_rows, transpose_block
from .ring import RingValue, canonical, divides


@dataclass(frozen=True, slots=True)
class SnfResult:
    """Invariant factors plus how they were obtained.

    factors has exactly min(nrows, ncols) entries, each canonical, each
    dividing the next; zeros can only trail.  iterations counts lattice
    steps (zero for the classical route).  lattice is the TodaRun behind a
    lattice result, which trace replays.
    """

    factors: tuple[RingValue, ...]
    iterations: int
    method: str
    lattice: TodaRun | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("a result needs at least one factor")
        for v in self.factors:
            if v != canonical(v):
                raise ValueError(f"factor {v} is not canonical")
        for a, b in zip(self.factors, self.factors[1:]):
            if not divides(a, b):
                raise ValueError(f"factor chain broken: {a} does not divide {b}")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")

    @property
    def trace(self) -> tuple[GcdTodaState, ...] | None:
        """The visited lattice states, seed first; None without a lattice."""
        return None if self.lattice is None else self.lattice.trace


def smith_normal_form(matrix: DenseMatrix,
                      max_iters: int | None = None) -> SnfResult:
    """Invariant factors of a matrix via the gcd-Toda lattice.

    Raises IterationLimitError if the lattice does not settle within the
    step cap (the default cap scales with the seed size).  The result
    keeps the lattice run; its trace replays every state, seed first.
    """
    ring = matrix.ring
    size = min(matrix.nrows, matrix.ncols)
    form = bidiagonalize(matrix)
    if form.k == 0:
        return SnfResult((ring.zero,) * size, 0, "toda")
    outcome = run(seed_state(form), max_iters)
    assert form.k <= size
    factors = tuple(outcome.factors[:form.k])
    factors += (ring.zero,) * (size - form.k)
    return SnfResult(factors, outcome.iterations, "toda", outcome)


def classical_snf(matrix: DenseMatrix) -> SnfResult:
    """Invariant factors by plain row and column elimination.

    Independent of the lattice machinery: pivots are shrunk to gcds by
    rotations, cleared by division steps, and grown to divide the rest of
    the block before moving on.  The elimination runs on raw payloads;
    only the factors are wrapped.
    """
    ring = matrix.ring
    add, mul, neg = ring.add, ring.mul, ring.neg
    is_zero, ring_divides = ring.is_zero, ring.divides
    grid = matrix.payload_grid()
    m, n = matrix.nrows, matrix.ncols
    size = min(m, n)
    factors: list = []

    for t in range(size):
        pivot_pos = next(
            ((i, j) for i in range(t, m) for j in range(t, n)
             if not is_zero(grid[i][j])),
            None,
        )
        if pivot_pos is None:
            factors.extend([ring.coerce(0)] * (size - t))
            break
        i0, j0 = pivot_pos
        grid[t], grid[i0] = grid[i0], grid[t]
        if j0 != t:
            for row in grid:
                row[t], row[j0] = row[j0], row[t]

        while True:
            # Shrink the pivot to the gcd of its row and column.
            changed = True
            while changed:
                changed = False
                for i in range(t + 1, m):
                    v = grid[i][t]
                    if not is_zero(v) and not ring_divides(grid[t][t], v):
                        block = transpose_block(rotation(ring, grid[t][t], v))
                        mix_rows(ring, grid, t, i, block)
                        changed = True
                for j in range(t + 1, n):
                    v = grid[t][j]
                    if not is_zero(v) and not ring_divides(grid[t][t], v):
                        block = rotation(ring, grid[t][t], v)
                        mix_cols(ring, grid, t, j, block)
                        changed = True
            # Division steps clear the row and column without refills.
            pivot = grid[t][t]
            for i in range(t + 1, m):
                if not is_zero(grid[i][t]):
                    q = ring.exact_div(grid[i][t], pivot)
                    grid[i] = [add(a, neg(mul(q, b)))
                               for a, b in zip(grid[i], grid[t])]
            for j in range(t + 1, n):
                if not is_zero(grid[t][j]):
                    q = ring.exact_div(grid[t][j], pivot)
                    for row in grid:
                        row[j] = add(row[j], neg(mul(q, row[t])))
            # The pivot must divide the rest of the block; pull up a
            # witness row and start over when it does not.
            witness = next(
                (i for i in range(t + 1, m)
                 if any(not ring_divides(pivot, grid[i][j])
                        for j in range(t + 1, n))),
                None,
            )
            if witness is None:
                break
            grid[t] = [add(a, b) for a, b in zip(grid[t], grid[witness])]
        factors.append(ring.canonical(grid[t][t]))

    return SnfResult(tuple(RingValue(ring, v) for v in factors), 0, "classical")


def _det(ring, grid):
    """Determinant of a square payload grid by Bareiss elimination.

    After step t every entry below and right of the pivot is a minor of
    order t + 2, so the division by the previous pivot is exact (and
    skipped when that pivot is one, as before the first step).  A zero
    pivot is swapped with a lower row, flipping the sign.  Consumes grid.
    """
    add, mul, neg, div = ring.add, ring.mul, ring.neg, ring.exact_div
    one = ring.coerce(1)
    n, sign, prev = len(grid), one, one
    for t in range(n - 1):
        swap = next((i for i in range(t, n) if not ring.is_zero(grid[i][t])),
                    None)
        if swap is None:
            return ring.coerce(0)
        if swap != t:
            grid[t], grid[swap], sign = grid[swap], grid[t], neg(sign)
        top, pivot = grid[t], grid[t][t]
        for row in grid[t + 1:]:
            lead = row[t]
            new = [add(mul(pivot, x), neg(mul(lead, y)))
                   for x, y in zip(row[t + 1:], top[t + 1:])]
            row[t + 1:] = new if prev == one else [div(v, prev) for v in new]
        prev = pivot
    return mul(sign, grid[-1][-1])


def determinant(matrix: DenseMatrix) -> RingValue:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if matrix.nrows != matrix.ncols:
        raise ValueError("determinant needs a square matrix")
    return RingValue(matrix.ring, _det(matrix.ring, matrix.payload_grid()))


def minors_gcd(matrix: DenseMatrix, k: int) -> RingValue:
    """Canonical gcd of all k by k minors; zero when every minor vanishes."""
    if not 1 <= k <= min(matrix.nrows, matrix.ncols):
        raise ValueError(f"minor order {k} out of range")
    ring = matrix.ring
    grid = matrix.payload_grid()
    best = ring.coerce(0)
    for row_sel in combinations(range(matrix.nrows), k):
        chosen = [grid[i] for i in row_sel]
        for col_sel in combinations(range(matrix.ncols), k):
            sub = [[r[j] for j in col_sel] for r in chosen]
            best = ring.gcd(best, _det(ring, sub))
            if ring.is_unit(best):
                return RingValue(ring, best)
    return RingValue(ring, best)


def verify(matrix: DenseMatrix, result: SnfResult) -> bool:
    """Check a result against the minor gcds of the matrix.

    Confirms the factor count, canonical form, the divisibility chain and
    that the running products of the factors match the gcds of the k by k
    minors for every k.  Exponential in the matrix size; meant for small
    matrices.
    """
    size = min(matrix.nrows, matrix.ncols)
    if len(result.factors) != size:
        return False
    for v in result.factors:
        if v.ring is not matrix.ring or v != canonical(v):
            return False
    for a, b in zip(result.factors, result.factors[1:]):
        if not divides(a, b):
            return False
    product = matrix.ring.one
    for k in range(1, size + 1):
        product = product * result.factors[k - 1]
        if product != minors_gcd(matrix, k):
            return False
    return True
