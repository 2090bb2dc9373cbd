"""Smith normal form over a PID, two independent ways.

smith_normal_form runs the lattice pipeline: pad, bidiagonalize, seed the
gcd-Toda lattice and iterate it to termination; the sorted diagonal is
the chain of invariant factors.  classical_snf is a cross-check by
Euclidean elimination that shares no kernel with that pipeline: division
with remainder only, no Bezout rotations.  verify confirms a result
against the gcds of all k by k minors of the original matrix, each by
one fraction-free (Bareiss) elimination on raw payloads, _det.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .bidiagonalize import bidiagonalize, seed_state
from .gcd_toda import GcdTodaState, TodaRun, run
from .matrix import DenseMatrix
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
    """Invariant factors by Euclidean row and column elimination.

    Independent of the lattice machinery: it calls only the ring's
    payload arithmetic, with no Bezout data and no 2x2 kernels.  Each
    level moves the nonzero trailing-block entry of least ring.size to
    the corner, then loops.  Row operations leave only remainders modulo
    the pivot in its column; once that column is clear, the column
    operations that clear the row touch only the pivot row and leave
    remainders there too.  The smallest nonzero remainder becomes the
    next pivot.  With none left, a witness row, one holding an entry the
    pivot does not divide, is added to the pivot row; with no witness
    the level is done.

    Termination rests on the Euclidean measure (|v| over ZZ, the degree
    over GF(p)[x]), a nonnegative integer.  A remainder measures strictly
    less than the pivot it was divided by, and an added witness row puts
    a non-multiple of the pivot into the pivot row, so every restart
    strictly lowers the pivot's measure.  ring.size only chooses which
    entry becomes the pivot; it could not carry the argument, since over
    ZZ distinct values share a bit length.
    """
    ring = matrix.ring
    add, mul, neg, size = ring.add, ring.mul, ring.neg, ring.size
    is_zero, divmod_ = ring.is_zero, ring.divmod
    grid = matrix.payload_grid()
    m, n = matrix.nrows, matrix.ncols
    factors = [ring.coerce(0)] * min(m, n)

    def to_corner(t, cells) -> bool:
        """Swap the nonzero cell of least size to (t, t); False if none."""
        best = min(((size(grid[i][j]), i, j) for i, j in cells
                    if not is_zero(grid[i][j])), default=None)
        if best is None:
            return False
        _, i, j = best
        grid[t], grid[i] = grid[i], grid[t]
        for row in grid[t:]:
            row[t], row[j] = row[j], row[t]
        return True

    for t in range(min(m, n)):
        if not to_corner(t, [(i, j) for i in range(t, m) for j in range(t, n)]):
            break
        while True:
            top, pivot = grid[t], grid[t][t]
            for row in grid[t + 1:]:
                if not is_zero(row[t]):
                    q = divmod_(row[t], pivot)[0]
                    row[t:] = [add(a, neg(mul(q, b)))
                               for a, b in zip(row[t:], top[t:])]
            if to_corner(t, [(i, t) for i in range(t + 1, m)]):
                continue
            top[t + 1:] = [divmod_(v, pivot)[1] for v in top[t + 1:]]
            if to_corner(t, [(t, j) for j in range(t + 1, n)]):
                continue
            witness = next((row for row in grid[t + 1:]
                            if not all(ring.divides(pivot, v)
                                       for v in row[t + 1:])), None)
            if witness is None:
                break
            top[t + 1:] = witness[t + 1:]  # adding it to the clear pivot row
        factors[t] = ring.canonical(pivot)

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

    Confirms the factor count and ring, and that the running products of
    the factors match the gcds of the k by k minors for every k; an
    SnfResult already guarantees canonical factors and the divisor chain.
    Exponential in the matrix size; meant for small matrices.
    """
    size = min(matrix.nrows, matrix.ncols)
    if len(result.factors) != size:
        return False
    if any(v.ring is not matrix.ring for v in result.factors):
        return False
    product = matrix.ring.one
    for k in range(1, size + 1):
        product = product * result.factors[k - 1]
        if product != minors_gcd(matrix, k):
            return False
    return True
