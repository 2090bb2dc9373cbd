"""Dense matrices of ring values, plus 2x2 block row/column updates.

The updates are payload kernels: mix_rows and mix_cols take the ring and
work on a mutable grid of raw payloads with the ring's bound methods, so
the elimination sweeps in bidiagonalize and classical_snf never build a
RingValue.  combine_rows and combine_cols are their RingValue wrappers,
unwrapping the touched entries on entry and wrapping them on exit.
"""

from __future__ import annotations

from typing import Sequence

from .ring import Ring, RingValue

Block = tuple[tuple[RingValue, RingValue], tuple[RingValue, RingValue]]


class DenseMatrix:
    """An immutable rectangular matrix over one of the supported rings."""

    __slots__ = ("ring", "_rows")

    def __init__(self, ring: Ring, rows: Sequence[Sequence]):
        grid = tuple(tuple(ring(v) for v in row) for row in rows)
        if not grid or not grid[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("rows must all have the same length")
        self.ring = ring
        self._rows = grid

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "DenseMatrix":
        one, zero = ring.one, ring.zero
        return cls(ring, [[one if i == j else zero for j in range(n)]
                          for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return len(self._rows[0])

    def __getitem__(self, key: tuple[int, int]) -> RingValue:
        i, j = key
        return self._rows[i][j]

    def row(self, i: int) -> tuple[RingValue, ...]:
        return self._rows[i]

    def rows(self) -> tuple[tuple[RingValue, ...], ...]:
        return self._rows

    def to_grid(self) -> list[list[RingValue]]:
        """A mutable copy of the entries as ring values."""
        return [list(row) for row in self._rows]

    def payload_grid(self) -> list[list]:
        """A mutable copy of the raw payloads, for the payload kernels."""
        return [[v.payload for v in row] for row in self._rows]

    def with_payloads(self, grid: list[list]) -> "DenseMatrix":
        """A matrix of this ring and shape holding the payloads of grid.

        The inverse of payload_grid after an in-place elimination.  Skips
        the constructor's coercion and checks, so grid must hold valid
        payloads in this shape, as the payload kernels leave them.  An
        entry whose payload object is unchanged keeps its wrapper: on
        inputs that are nearly bidiagonal already, fresh wrappers for all
        n*n entries made bidiagonalize about a fifth slower, through the
        garbage collections they trigger.
        """
        ring = self.ring
        out = object.__new__(DenseMatrix)
        out.ring = ring
        out._rows = tuple(
            tuple(v if v.payload is x else RingValue(ring, x)
                  for v, x in zip(old, new))
            for old, new in zip(self._rows, grid)
        )
        return out

    def padded_square(self) -> "DenseMatrix":
        """The matrix extended with zero rows or columns until square."""
        n = max(self.nrows, self.ncols)
        zero = self.ring.zero
        grid = [list(row) + [zero] * (n - self.ncols) for row in self._rows]
        for _ in range(n - self.nrows):
            grid.append([zero] * n)
        return DenseMatrix(self.ring, grid)

    def __matmul__(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.ring is not other.ring:
            raise ValueError("matrix product across different rings")
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} times "
                f"{other.nrows}x{other.ncols}"
            )
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = self.ring.zero
                for k in range(self.ncols):
                    acc = acc + self._rows[i][k] * other._rows[k][j]
                row.append(acc)
            out.append(row)
        return DenseMatrix(self.ring, out)

    def is_lower_bidiagonal(self) -> bool:
        """Only the diagonal and the first subdiagonal may be nonzero."""
        for i in range(self.nrows):
            for j in range(self.ncols):
                if j != i and j != i - 1 and not self._rows[i][j].is_zero():
                    return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.ring is other.ring and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.ring, self._rows))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(v) for v in row) for row in self._rows
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


def _unwrap_block(block: Block):
    """The block's ring and payloads; RingMismatchError on mixed rings."""
    ring = block[0][0].ring
    return ring, tuple(tuple(ring(v).payload for v in row) for row in block)


def combine_cols(grid: list[list[RingValue]], j1: int, j2: int,
                 block: Block) -> None:
    """mix_cols on a mutable grid of ring values."""
    ring, raw = _unwrap_block(block)
    pairs = [[ring(row[j1]).payload, ring(row[j2]).payload] for row in grid]
    mix_cols(ring, pairs, 0, 1, raw)
    for row, (x, y) in zip(grid, pairs):
        row[j1], row[j2] = RingValue(ring, x), RingValue(ring, y)


def combine_rows(grid: list[list[RingValue]], i1: int, i2: int,
                 block: Block) -> None:
    """mix_rows on a mutable grid of ring values."""
    ring, raw = _unwrap_block(block)
    pair = [[ring(v).payload for v in grid[i]] for i in (i1, i2)]
    mix_rows(ring, pair, 0, 1, raw)
    grid[i1], grid[i2] = ([RingValue(ring, v) for v in row] for row in pair)


def transpose_block(block):
    """The transposed 2x2 block, of ring values or of payloads alike."""
    (b00, b01), (b10, b11) = block
    return ((b00, b10), (b01, b11))
