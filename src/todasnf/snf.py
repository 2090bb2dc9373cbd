"""Smith normal form over a PID, two independent ways.

smith_normal_form runs the lattice pipeline: pad, bidiagonalize, seed the
gcd-Toda lattice and iterate it to termination; the sorted diagonal is
the chain of invariant factors.  classical_snf is a self-contained
textbook elimination kept as a cross-check, and verify confirms a result
against the gcds of all k by k minors of the original matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .bidiagonalize import bidiagonalize, rotation, seed_state
from .gcd_toda import GcdTodaState, run
from .matrix import DenseMatrix, mix_cols, mix_rows, transpose_block
from .ring import RingValue, canonical, divides, gcd


@dataclass(frozen=True, slots=True)
class SnfResult:
    """Invariant factors plus how they were obtained.

    factors has exactly min(nrows, ncols) entries, each canonical, each
    dividing the next; zeros can only trail.  iterations counts lattice
    steps (zero for the classical route).  trace, when kept, holds the
    visited lattice states.
    """

    factors: tuple[RingValue, ...]
    iterations: int
    method: str
    trace: tuple[GcdTodaState, ...] | None = field(default=None, compare=False)

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


def smith_normal_form(matrix: DenseMatrix, max_iters: int | None = None,
                      keep_trace: bool = False) -> SnfResult:
    """Invariant factors of a matrix via the gcd-Toda lattice.

    Raises IterationLimitError if the lattice does not settle within the
    step cap (the default cap scales with the seed size).
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
    return SnfResult(
        factors,
        outcome.iterations,
        "toda",
        trace=outcome.trace if keep_trace else None,
    )


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


def determinant(matrix: DenseMatrix) -> RingValue:
    """Exact determinant by cofactor expansion with column-mask memoing."""
    if matrix.nrows != matrix.ncols:
        raise ValueError("determinant needs a square matrix")
    ring = matrix.ring
    rows = matrix.rows()
    n = matrix.nrows
    memo: dict[tuple[int, int], RingValue] = {}

    def expand(i: int, mask: int) -> RingValue:
        if i == n:
            return ring.one
        key = (i, mask)
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = ring.zero
        positive = True
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            entry = rows[i][bit.bit_length() - 1]
            if not entry.is_zero():
                term = entry * expand(i + 1, mask ^ bit)
                total = total + term if positive else total - term
            positive = not positive
        memo[key] = total
        return total

    return expand(0, (1 << n) - 1)


def minors_gcd(matrix: DenseMatrix, k: int) -> RingValue:
    """Canonical gcd of all k by k minors; zero when every minor vanishes."""
    if not 1 <= k <= min(matrix.nrows, matrix.ncols):
        raise ValueError(f"minor order {k} out of range")
    ring = matrix.ring
    best = ring.zero
    for row_sel in combinations(range(matrix.nrows), k):
        chosen = [matrix.row(i) for i in row_sel]
        for col_sel in combinations(range(matrix.ncols), k):
            sub = DenseMatrix(
                ring, [[r[j] for j in col_sel] for r in chosen]
            )
            best = gcd(best, determinant(sub))
            if best.is_unit():
                return best
    return best


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
