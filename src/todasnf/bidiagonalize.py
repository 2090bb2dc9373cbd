"""Reduction of a dense matrix to lower bidiagonal form.

The reduction uses only 2x2 elementary blocks of determinant one (gcd
rotations and additions of a row or column), so the result is exactly
unimodularly equivalent to the input.  Rectangular inputs are first padded
with zero rows or columns into a square.

The output separates a leading block with nonzero diagonal from an all
zero trailing block.  When the subdiagonal entry between the two blocks
is nonzero the form has a dangling "corner" below the leading block; the
flag is kept so the lattice seed can carry that entry along.

One wrinkle matters for what comes after: whenever anything nonzero is
left strictly below and to the right of a freshly finished pivot, the
subdiagonal entry under that pivot is forced to be nonzero (by adding a
column that still has mass).  A decoupled zero subdiagonal would freeze
the lattice evolution before the factors are sorted.

The sweeps run on raw payloads: the padded matrix is copied out with
payload_grid (bordered by identities that collect the transforms P and
Q when they are asked for), every rotation comes from Ring.xgcd and is
applied with the payload kernels mix_rows / mix_cols, and the grids
become matrices again through DenseMatrix.from_payloads.  BidiagonalForm
reads its block size and corner flag off the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .matrix import DenseMatrix, mix_cols, mix_rows, transpose_block
from .ring import Ring
from .gcd_toda import GcdTodaState


def rotation(ring: Ring, a, b):
    """A determinant-one payload block G with (a, b) G == (gcd(a, b), 0).

    Built from the Bezout cofactors: G = ((p, t), (q, s)) where
    a p + b q = d, s = a / d, t = -b / d, so det G = p s - t q = 1.
    """
    d, p, q, s, t = ring.xgcd(a, b)
    return ((p, t), (q, s))


@dataclass(frozen=True, slots=True)
class BidiagonalForm:
    """A square lower bidiagonal matrix with its block structure.

    k, read off the matrix, counts its leading nonzero diagonal entries.
    Everything at or past row and column k must vanish, except possibly
    the entry at (k, k-1); corner says whether that entry is present.
    """

    matrix: DenseMatrix
    k: int = field(init=False)
    corner: bool = field(init=False)

    def __post_init__(self):
        m = self.matrix
        n = m.nrows
        if m.ncols != n:
            raise ValueError("bidiagonal form must be square")
        if not m.is_lower_bidiagonal():
            raise ValueError("matrix is not lower bidiagonal")
        is_zero, grid = m.ring.is_zero, m.payload_grid()
        k = next((j for j in range(n) if is_zero(grid[j][j])), n)
        trailing = [grid[j][j] for j in range(k, n)]
        trailing += [grid[j + 1][j] for j in range(k, n - 1)]
        if not all(map(is_zero, trailing)):
            raise ValueError("trailing block must be zero")
        object.__setattr__(self, "k", k)
        object.__setattr__(
            self, "corner", 0 < k < n and not is_zero(grid[k][k - 1])
        )


def _level(ring: Ring, grid: list[list], t: int, n: int) -> bool:
    """Process pivot level t of the leading n by n block of a payload grid.

    Works in place and returns False when nothing nonzero is left.  Rows
    and columns past n only ride along with the updates.
    """
    is_zero = ring.is_zero
    one, zero = ring.coerce(1), ring.coerce(0)
    # Pivot row fix: steal mass from a lower row when row t is empty.
    if all(is_zero(grid[t][j]) for j in range(t, n)):
        donor = next(
            (i for i in range(t + 1, n)
             if any(not is_zero(grid[i][j]) for j in range(t, n))),
            None,
        )
        if donor is None:
            return False
        mix_rows(ring, grid, t, donor, ((one, one), (zero, one)))

    # Column sweep: collect the row gcd at (t, t), zeros to its right.
    for j in range(t + 1, n):
        if not is_zero(grid[t][j]):
            block = rotation(ring, grid[t][t], grid[t][j])
            mix_cols(ring, grid, t, j, block)

    # Keep the subdiagonal alive while mass remains below the pivot.
    if all(is_zero(grid[i][t]) for i in range(t + 1, n)):
        donor_col = next(
            (j for j in range(t + 1, n)
             if any(not is_zero(grid[i][j]) for i in range(t + 1, n))),
            None,
        )
        if donor_col is not None:
            mix_cols(ring, grid, t, donor_col, ((one, zero), (one, one)))

    # Row sweep: concentrate the column gcd at (t+1, t).
    for i in range(t + 2, n):
        if not is_zero(grid[i][t]):
            block = transpose_block(rotation(ring, grid[t + 1][t], grid[i][t]))
            mix_rows(ring, grid, t + 1, i, block)
    return True


def bidiagonalize(matrix: DenseMatrix, transforms: bool = False):
    """Lower bidiagonal form of a matrix under unimodular equivalence.

    Returns the BidiagonalForm, or (form, p, q) with p @ padded @ q equal
    to the form's matrix when transforms is requested; p and q are square
    with determinant one over the padded shape.
    """
    ring = matrix.ring
    padded = matrix.padded_square()
    n = padded.nrows
    grid = padded.payload_grid()
    if transforms:
        # Border the grid with identities: P as extra columns, which the
        # row updates carry along, and Q as extra rows for the column ones.
        eye = DenseMatrix.identity(ring, n).payload_grid()
        grid = [row + e for row, e in zip(grid, eye)] + eye

    for t in range(n):
        if not _level(ring, grid, t, n):
            break

    if not transforms:
        return BidiagonalForm(DenseMatrix.from_payloads(ring, grid))
    form, p, q = (DenseMatrix.from_payloads(ring, g) for g in (
        [row[:n] for row in grid[:n]], [row[n:] for row in grid[:n]], grid[n:]
    ))
    return BidiagonalForm(form), p, q


def seed_state(form: BidiagonalForm) -> GcdTodaState:
    """The lattice seed reading off the leading block of the form.

    With a corner present the seed gains one extra level: a zero diagonal
    entry under the corner, so the dangling mass still feeds the gcds.
    """
    if form.k == 0:
        raise ValueError("zero matrix has no lattice seed")
    m = form.matrix
    diag = [m[i, i] for i in range(form.k)]
    sub = [m[i + 1, i] for i in range(form.k - 1)]
    if form.corner:
        diag.append(m.ring.zero)
        sub.append(m[form.k, form.k - 1])
    return GcdTodaState(tuple(diag), tuple(sub))
