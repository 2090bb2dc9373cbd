"""Dense matrices over a ring, stored as raw payloads.

A DenseMatrix keeps its entries as the ring's payloads and wraps them
into RingValues only when they are read through [i, j], row or rows.
Construction builds none: each row goes through the ring's coerce_row,
which coerces native entries and only checks a RingValue entry's ring.
Elimination code reads a mutable copy with payload_grid, updates it in
place on payloads (see elimination.py and classical_snf), and turns the
result back into a matrix with the trusted from_payloads; no RingValue
is built on the way.  Readers of a bidiagonal matrix call bands instead.
"""

from __future__ import annotations

__all__ = [
    "DenseMatrix",
]

from functools import reduce
from typing import Sequence

from .ring import Ring, RingValue, _printable


class DenseMatrix:
    """An immutable rectangular matrix over one of the supported rings.

    DenseMatrix(ring, rows) takes native data (ints, or coefficient lists
    for GF(p)[x]) or RingValues of ring, and builds no RingValue.
    """

    __slots__ = ("ring", "_rows")

    def __init__(self, ring: Ring, rows: Sequence[Sequence]):
        grid = tuple(map(ring.coerce_row, rows))
        if not grid or not grid[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("rows must all have the same length")
        self.ring = ring
        self._rows = grid

    @classmethod
    def from_payloads(cls, ring: Ring, grid: Sequence[Sequence]) -> "DenseMatrix":
        """A matrix holding the payloads of grid, the inverse of payload_grid.

        Skips the constructor's coercion and checks, so grid must be a
        nonempty rectangle of valid payloads of ring, as the payload
        kernels leave it.
        """
        out = object.__new__(cls)
        out.ring = ring
        out._rows = tuple(tuple(row) for row in grid)
        return out

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "DenseMatrix":
        one, zero = ring.coerce(1), ring.coerce(0)
        return cls.from_payloads(
            ring, [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return len(self._rows[0])

    def __getitem__(self, key: tuple[int, int]) -> RingValue:
        i, j = key
        return RingValue(self.ring, self._rows[i][j])

    def row(self, i: int) -> tuple[RingValue, ...]:
        ring = self.ring
        return tuple(RingValue(ring, v) for v in self._rows[i])

    def rows(self) -> tuple[tuple[RingValue, ...], ...]:
        return tuple(self.row(i) for i in range(self.nrows))

    def payload_grid(self) -> list[list]:
        """A mutable copy of the raw payloads, for the payload kernels."""
        return [list(row) for row in self._rows]

    def bands(self) -> tuple[tuple, tuple]:
        """The payloads at (i, i) and at (i + 1, i), the lower bands."""
        rows = self._rows
        return (tuple(row[i] for i, row in enumerate(rows[:self.ncols])),
                tuple(row[i] for i, row in enumerate(rows[1:self.ncols + 1])))

    def padded_square(self) -> "DenseMatrix":
        """The matrix extended with zero rows or columns until square."""
        if self.nrows == self.ncols:
            return self
        n = max(self.nrows, self.ncols)
        zero = self.ring.coerce(0)
        grid = [row + (zero,) * (n - self.ncols) for row in self._rows]
        grid += [(zero,) * n] * (n - self.nrows)
        return DenseMatrix.from_payloads(self.ring, grid)

    def __matmul__(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.ring is not other.ring:
            raise ValueError("matrix product across different rings")
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} times "
                f"{other.nrows}x{other.ncols}"
            )
        add, mul, zero = self.ring.add, self.ring.mul, self.ring.coerce(0)
        cols = tuple(zip(*other._rows))
        return DenseMatrix.from_payloads(self.ring, [
            [reduce(add, map(mul, row, col), zero) for col in cols]
            for row in self._rows
        ])

    def is_lower_bidiagonal(self) -> bool:
        """Only the diagonal and the first subdiagonal may be nonzero."""
        return not any(any(row[:max(i - 1, 0)]) or any(row[i + 1:])
                       for i, row in enumerate(self._rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.ring is other.ring and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.ring, self._rows))

    def __repr__(self) -> str:
        render = self.ring.render
        body = _printable(lambda rows: "; ".join(
            " ".join(render(v) for v in row) for row in rows), self._rows)
        return f"DenseMatrix({self.ring.name}, {self.nrows}x{self.ncols}: {body})"
