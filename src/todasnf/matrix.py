"""Dense matrices over a ring, stored as raw payloads, plus 2x2 block updates.

A DenseMatrix keeps its entries as the ring's payloads and wraps them
into RingValues only when they are read through [i, j], row or rows.
The elimination code reads a mutable copy with payload_grid, updates it
in place with the payload kernels mix_rows and mix_cols, and turns the
result back into a matrix with the trusted from_payloads; no RingValue
is built on the way.
"""

from __future__ import annotations

from typing import Sequence

from .ring import Ring, RingValue


class DenseMatrix:
    """An immutable rectangular matrix over one of the supported rings."""

    __slots__ = ("ring", "_rows")

    def __init__(self, ring: Ring, rows: Sequence[Sequence]):
        grid = tuple(tuple(ring(v).payload for v in row) for row in rows)
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
        out = []
        for a_row in self._rows:
            row = []
            for j in range(other.ncols):
                acc = zero
                for k, a in enumerate(a_row):
                    acc = add(acc, mul(a, other._rows[k][j]))
                row.append(acc)
            out.append(row)
        return DenseMatrix.from_payloads(self.ring, out)

    def is_lower_bidiagonal(self) -> bool:
        """Only the diagonal and the first subdiagonal may be nonzero."""
        is_zero = self.ring.is_zero
        for i, row in enumerate(self._rows):
            for j, v in enumerate(row):
                if j != i and j != i - 1 and not is_zero(v):
                    return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.ring is other.ring and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.ring, self._rows))

    def __repr__(self) -> str:
        render = self.ring.render
        body = "; ".join(
            " ".join(render(v) for v in row) for row in self._rows
        )
        return f"DenseMatrix({self.ring.name}, {self.nrows}x{self.ncols}: {body})"


def mix_cols(ring: Ring, grid: list[list], j1: int, j2: int, block) -> None:
    """Right-multiply columns (j1, j2) of a payload grid by a payload block.

    new col_j1 = col_j1*b00 + col_j2*b10, new col_j2 = col_j1*b01 + col_j2*b11.
    """
    (b00, b01), (b10, b11) = block
    add, mul = ring.add, ring.mul
    for row in grid:
        x, y = row[j1], row[j2]
        row[j1] = add(mul(x, b00), mul(y, b10))
        row[j2] = add(mul(x, b01), mul(y, b11))


def mix_rows(ring: Ring, grid: list[list], i1: int, i2: int, block) -> None:
    """Left-multiply rows (i1, i2) of a payload grid by a payload block.

    new row_i1 = b00*row_i1 + b01*row_i2, new row_i2 = b10*row_i1 + b11*row_i2.
    """
    (b00, b01), (b10, b11) = block
    add, mul = ring.add, ring.mul
    r1, r2 = grid[i1], grid[i2]
    grid[i1] = [add(mul(b00, x), mul(b01, y)) for x, y in zip(r1, r2)]
    grid[i2] = [add(mul(b10, x), mul(b11, y)) for x, y in zip(r1, r2)]


def transpose_block(block):
    """The transposed 2x2 block."""
    (b00, b01), (b10, b11) = block
    return ((b00, b10), (b01, b11))
