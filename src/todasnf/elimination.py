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
Q when they are asked for), every step is a kernel mix_rows / mix_cols
fed the cofactors of ring.xgcd or the addition (1, 1, 1, 0), and the
grids become matrices again through DenseMatrix.from_payloads.
BidiagonalForm reads its block size and corner flag off the bands.
Over ZZ the kernels (_IntKernels) and ZZ.xgcd run on Python's int
operators; GF(p)[x] goes through the ring's payload calls.  The kernels
touch only the live block: at level t the rows and columns before t are
finished, so each call rewrites rows from column t on and walks columns
from row t on.  The P and Q borders sit past n and still ride along.

smith_normal_form over ZZ hands the sweeps a private modulus.  Before
each level the modulus sees the pivot row; once an entry there outgrows
the input's Hadamard bound, which no minor of the input exceeds, the
modulus fixes D, a nonzero r x r minor of the input M (r its rank).
From then on the kernels do their work on the modulus, which stores
each written entry of more bits than |D| as its residue in (0, |D|].
A residue is a column operation on [M | D I], whose Smith form is
diag(gcd(s_i(M), D)), and s_i | D for i <= r; so the factors up to r
are the gcds of the reduced form's factors with D (snf.py has the full
argument), and SnfResult.trace and snf --trace replay the lattice on
the reduced form's seed.  The residue is nonzero exactly where the
unreduced entry is, so _level takes its branches on the same zero
pattern as it would on the unreduced values, and the result is still a
valid BidiagonalForm.  bidiagonalize itself never reduces: its form, P
and Q are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .matrix import DenseMatrix
from .ring import ZZ, Ring
from .gcd_toda import GcdTodaState


def mix_rows(ring: Ring, grid: list[list], i1: int, i2: int, cof,
             mod=None, start: int = 0) -> None:
    """Map rows x = grid[i1], y = grid[i2] to (p x + q y, t x + s y).

    cof = (p, q, s, t) has determinant p s - q t; ring.xgcd(x[k], y[k])[1:]
    leaves the gcd in x[k] and zero in y[k], and (1, 1, 1, 0) adds y to x.
    Only the entries from column start on are rewritten.  Over ZZ the
    work runs on Python's int operators, in mod's arithmetic when a live
    modulus is given.
    """
    if ring is ZZ:
        return (_EXACT if mod is None else mod).mix_rows(grid, i1, i2, cof,
                                                         start)
    p, q, s, t = cof
    add, mul = ring.add, ring.mul
    r1, r2 = grid[i1], grid[i2]
    xs, ys = r1[start:], r2[start:]
    r1[start:] = [add(mul(p, x), mul(q, y)) for x, y in zip(xs, ys)]
    r2[start:] = [add(mul(t, x), mul(s, y)) for x, y in zip(xs, ys)]


def mix_cols(ring: Ring, grid: list[list], j1: int, j2: int, cof,
             mod=None, start: int = 0) -> None:
    """The map of mix_rows on columns (j1, j2), in rows start on."""
    if ring is ZZ:
        return (_EXACT if mod is None else mod).mix_cols(grid, j1, j2, cof,
                                                         start)
    p, q, s, t = cof
    add, mul = ring.add, ring.mul
    for row in grid[start:]:
        x, y = row[j1], row[j2]
        row[j1] = add(mul(x, p), mul(y, q))
        row[j2] = add(mul(x, t), mul(y, s))


class _IntKernels:
    """mix_rows and mix_cols over ZZ, on Python's int operators.

    Exact while d is None.  Once d is set (snf._Modulus sets it when its
    rule goes live) each written entry of more than bits bits is stored
    as its residue in (0, d], so a zero stays zero and a nonzero entry
    stays nonzero.
    """

    __slots__ = ("bits", "d")

    def __init__(self, d: int | None = None):
        self.d = None if d is None else abs(d)
        self.bits = None if d is None else self.d.bit_length()

    def mix_rows(self, grid: list[list[int]], i1: int, i2: int, cof,
                 start: int = 0) -> None:
        p, q, s, t = cof
        r1, r2 = grid[i1], grid[i2]
        xs, ys = r1[start:], r2[start:]
        d = self.d
        if d is None:
            r1[start:] = [p * x + q * y for x, y in zip(xs, ys)]
            r2[start:] = [t * x + s * y for x, y in zip(xs, ys)]
            return
        top = (1 << self.bits) - 1
        r1[start:] = [v if -top <= (v := p * x + q * y) <= top else v % d or d
                      for x, y in zip(xs, ys)]
        r2[start:] = [v if -top <= (v := t * x + s * y) <= top else v % d or d
                      for x, y in zip(xs, ys)]

    def mix_cols(self, grid: list[list[int]], j1: int, j2: int, cof,
                 start: int = 0) -> None:
        p, q, s, t = cof
        d = self.d
        if d is None:
            for row in grid[start:]:
                x, y = row[j1], row[j2]
                row[j1], row[j2] = x * p + y * q, x * t + y * s
            return
        top = (1 << self.bits) - 1
        for row in grid[start:]:
            x, y = row[j1], row[j2]
            u, v = x * p + y * q, x * t + y * s
            row[j1] = u if -top <= u <= top else u % d or d
            row[j2] = v if -top <= v <= top else v % d or d


#: The exact ZZ kernels, those of every sweep without a live modulus.
_EXACT = _IntKernels()


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
        q, e = m.bands()
        k = next((j for j, v in enumerate(q) if not v), n)
        if any(q[k:]) or any(e[k:]):
            raise ValueError("trailing block must be zero")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "corner", 0 < k < n and bool(e[k - 1]))


def _level(ring: Ring, grid: list[list], t: int, n: int, mod=None) -> bool:
    """Process pivot level t of the leading n by n block of a payload grid.

    Works in place and returns False when nothing nonzero is left.  The
    rows before t vanish from column t on and the columns before t below
    row t, so every kernel call starts at t.  Rows and columns past n
    only ride along with the updates; a live modulus reaches every
    kernel call.
    """
    one, zero = ring.coerce(1), ring.coerce(0)
    addition = (one, one, one, zero)  # x += y
    # Pivot row fix: steal mass from a lower row when row t is empty.
    if not any(grid[t][t:n]):
        donor = next((i for i in range(t + 1, n) if any(grid[i][t:n])), None)
        if donor is None:
            return False
        mix_rows(ring, grid, t, donor, addition, mod, t)

    # Column sweep: collect the row gcd at (t, t), zeros to its right.
    for j in range(t + 1, n):
        if grid[t][j]:
            cof = ring.xgcd(grid[t][t], grid[t][j])[1:]
            mix_cols(ring, grid, t, j, cof, mod, t)

    # Keep the subdiagonal alive while mass remains below the pivot.
    below = grid[t + 1:n]
    if not any(row[t] for row in below):
        donor_col = next((j for j in range(t + 1, n)
                          if any(row[j] for row in below)), None)
        if donor_col is not None:
            mix_cols(ring, grid, t, donor_col, addition, mod, t)

    # Row sweep: concentrate the column gcd at (t+1, t).
    for i in range(t + 2, n):
        if grid[i][t]:
            cof = ring.xgcd(grid[t + 1][t], grid[i][t])[1:]
            mix_rows(ring, grid, t + 1, i, cof, mod, t)
    return True


def _sweep(ring: Ring, grid: list[list], n: int, mod=None) -> None:
    """Run the pivot levels of the leading n by n block until none is left.

    mod, when given, watches each pivot row first and, once it returns
    itself, reaches every later kernel call.
    """
    live = None
    for t in range(n):
        if mod is not None and live is None:
            live = mod.watch(grid[t], t)
        if not _level(ring, grid, t, n, live):
            break


def _reduced_form(matrix: DenseMatrix, mod) -> BidiagonalForm:
    """The form of bidiagonalize(matrix), with mod (or None) in its sweeps."""
    grid = matrix.padded_square().payload_grid()
    _sweep(matrix.ring, grid, len(grid), mod)
    return BidiagonalForm(DenseMatrix.from_payloads(matrix.ring, grid))


def bidiagonalize(matrix: DenseMatrix, transforms: bool = False):
    """Lower bidiagonal form of a matrix under unimodular equivalence.

    Returns the BidiagonalForm, or (form, p, q) with p @ padded @ q equal
    to the form's matrix when transforms is requested; p and q are square
    with determinant one over the padded shape.
    """
    if not transforms:
        return _reduced_form(matrix, None)
    ring = matrix.ring
    padded = matrix.padded_square()
    n = padded.nrows
    # Border the grid with identities: P as extra columns, which the row
    # updates carry along, and Q as extra rows for the column ones.
    eye = DenseMatrix.identity(ring, n).payload_grid()
    grid = [row + e for row, e in zip(padded.payload_grid(), eye)] + eye
    _sweep(ring, grid, n)
    form, p, q = (DenseMatrix.from_payloads(ring, g) for g in (
        [row[:n] for row in grid[:n]], [row[n:] for row in grid[:n]], grid[n:]
    ))
    return BidiagonalForm(form), p, q


def seed_state(form: BidiagonalForm) -> GcdTodaState:
    """The bands of the form's leading k levels, the lattice seed.

    A corner adds one level, whose diagonal entry is the block's zero, so
    the dangling mass still feeds the gcds.
    """
    if form.k == 0:
        raise ValueError("zero matrix has no lattice seed")
    q, e = form.matrix.bands()
    m = form.k + form.corner
    return GcdTodaState.from_payloads(form.matrix.ring, q[:m], e[:m - 1])
