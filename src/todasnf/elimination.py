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

One driver, _reduced_form, runs every sweep on raw payloads.  It copies
the padded matrix out with payload_grid, bordered by identities that
collect P and Q when they are asked for, and every step is a call of
mix_rows or mix_cols on the sweep's one kernel object, a _Modulus, fed
the cofactors of ring.xgcd or the addition (1, 1, 1, 0).  bidiagonalize
runs it with exact kernels, smith_normal_form modulo D (below).  Over
ZZ the kernels and ZZ.xgcd run on Python's int operators; over GF(p)[x]
each kernel call is one call of PolyModP.mix, on packed ints like
PolyModP.xgcd.  At level t the rows and columns before t are finished,
so each call rewrites rows from column t on and walks columns from row
t on.  The P and Q borders past n ride along under any modulus but
never steer: the watch and _level read only the leading n x n block,
so a bordered sweep takes the same branches and leaves the same B.

The sweeps do only the arithmetic a step changes.  The cofactors of
xgcd(x, y) = (g, p, q, s, t) send the pair (x, y) itself to (g, 0), so
after each gcd step _level writes that pivot pair, g as the kernel
would store it (mod.residue), and the kernel starts one entry past it.
And a kernel keeps the first line of a block whose first row is the
identity's, (p, q) = (1, 0): the elimination block xgcd returns when x
divides y, most of the blocks of a sweep.

Over ZZ, smith_normal_form bounds coefficient growth by sweeping modulo
D (Kannan and Bachem 1979; Domich, Kannan and Trotter 1987), and
_Modulus holds the whole rule.  Let M be the input with invariant
factors s_1 | s_2 | ..., r its rank and D a nonzero r x r minor.  Then
s_1 s_2 ... s_r, the gcd of all r x r minors, divides D, so s_i | D for
i <= r, while s_i = 0 for i > r.  For any square B,

    SNF([B | D I]) = diag(gcd(s_i(B), D)),

and the sweeps never change the equivalence class of [B | D I]: their
row and column maps are unimodular, and putting a residue modulo D in
place of an entry subtracts a multiple of a column of D I.  So the
reduced bidiagonal form B keeps gcd(s_i(B), D) = s_i(M) for i <= r:
factor i < r (counting from 0) is the canonical gcd of the lattice's
factor i with D, and every factor from r on is zero.

The rule is lazy.  The modulus makes every kernel call, and before
each level it sees the pivot row.  Once an entry there outgrows the
input's Hadamard bound, which no minor of the input exceeds, it fixes r
and |D| by one full-pivot Bareiss pass (_rank_minor); D's sign does not
change the rule.  Until then the kernels are exact, and from then on
they store each written entry of more bits than |D| as its residue in
(0, |D|]; that includes the entries of a kept line, which can predate
the rule, and the written pivot pair.  The residue is nonzero exactly
where the unreduced entry is, so _level takes its branches on the same
zero pattern as it would on the unreduced values, and the result is
still a valid BidiagonalForm.
The lattice runs on B's seed, so SnfResult.trace, and with it snf
--trace, replays the reduced seed; an input whose pivot rows never
outgrow the bound never reduces, and keeps the exact form, steps and
trace.  Under a live modulus P pad(M) Q is congruent to B modulo D, and
det P and det Q to 1: every block has determinant one, and a residue
moves an entry by a multiple of D.  bidiagonalize itself never
reduces: its form, P and Q are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .matrix import DenseMatrix
from .ring import ZZ, Ring
from .gcd_toda import GcdTodaState


class _Modulus:
    """The kernels of one sweep, and over ZZ the mod-D rule.

    mix_rows maps rows x = grid[i1], y = grid[i2] to (p x + q y, t x + s y)
    for cof = (p, q, s, t), of determinant p s - q t, from column start
    on; mix_cols does the same on columns (j1, j2) from row start on.
    xgcd(x[k], y[k])[1:] leaves the gcd in x[k] and zero in y[k], and
    addition (1, 1, 1, 0) adds y to x.  Where (p, q) = (1, 0) neither
    recomputes x.

    Over GF(p)[x] the kernels hand the two lines to ring.mix, which
    packs each operand once (see ring.py).  Over ZZ they run on Python's
    int operators and d is the rule's one state: exact while d is None,
    and once d = |D| is set each entry of either line of more than bits
    bits, kept or written, is stored as its residue in (0, d], so a zero
    stays zero and a nonzero entry stays nonzero.  residue(v) is that
    map on one entry, which _level applies to the gcd it writes.

    watch, which only a ZZ modulus given the input matrix runs, sets
    rank, d and bits when the rule goes live.  It computes the Hadamard
    bound only on a pivot row with something right of its pivot, so an
    input whose sweeps call no kernel pays nothing.  Passing rank and d
    makes the rule live at once.
    """

    __slots__ = ("addition", "bits", "d", "matrix", "rank", "ring", "xgcd")

    def __init__(self, ring: Ring, matrix: DenseMatrix | None = None,
                 rank: int | None = None, d: int | None = None):
        one, zero = ring.coerce(1), ring.coerce(0)
        self.ring, self.xgcd = ring, ring.xgcd
        self.addition = (one, one, one, zero)  # x += y
        self.matrix, self.rank = (matrix if ring is ZZ else None), rank
        self.d = None if d is None else abs(d)
        self.bits = None if d is None else self.d.bit_length()

    def watch(self, row: list[int], t: int) -> None:
        """Go live if row, the pivot row of level t, outgrows the bound."""
        if self.matrix is None or self.d is not None or not any(row[t + 1:]):
            return
        if self.bits is None:
            self.bits = _hadamard_bits(self.matrix)
        if max(map(int.bit_length, row)) > self.bits:
            self.rank, self.d = _rank_minor(self.matrix.payload_grid())
            self.bits = self.d.bit_length()

    def residue(self, v):
        """v as a kernel stores it: in (0, d] past bits bits once live."""
        d = self.d
        return v if d is None or v.bit_length() <= self.bits else v % d or d

    def mix_rows(self, grid: list[list], i1: int, i2: int, cof,
                 start: int = 0) -> None:
        r1, r2 = grid[i1], grid[i2]
        xs, ys = r1[start:], r2[start:]
        if self.ring is not ZZ:
            r1[start:], r2[start:] = self.ring.mix(cof, xs, ys)
            return
        p, q, s, t = cof
        if p != 1 or q:
            r1[start:] = [p * x + q * y for x, y in zip(xs, ys)]
        r2[start:] = [t * x + s * y for x, y in zip(xs, ys)]
        d = self.d
        if d is not None:
            top = (1 << self.bits) - 1
            for r in r1, r2:
                r[start:] = [v if -top <= v <= top else v % d or d
                             for v in r[start:]]

    def mix_cols(self, grid: list[list], j1: int, j2: int, cof,
                 start: int = 0) -> None:
        rows = grid[start:]
        if self.ring is not ZZ:
            us, vs = self.ring.mix(cof, [row[j1] for row in rows],
                                   [row[j2] for row in rows])
            for row, u, v in zip(rows, us, vs):
                row[j1], row[j2] = u, v
            return
        p, q, s, t = cof
        if p == 1 and not q:
            for row in rows:
                row[j2] = row[j1] * t + row[j2] * s
        else:
            for row in rows:
                x, y = row[j1], row[j2]
                row[j1], row[j2] = x * p + y * q, x * t + y * s
        d = self.d
        if d is not None:
            top = (1 << self.bits) - 1
            for row in rows:
                u, v = row[j1], row[j2]
                row[j1] = u if -top <= u <= top else u % d or d
                row[j2] = v if -top <= v <= top else v % d or d


def _hadamard_bits(matrix: DenseMatrix) -> int:
    """Bits enough for any minor of an integer matrix: a minor is at most
    the product of the nonzero norms of its rows, or of its columns when
    it is tall."""
    grid = matrix.payload_grid()
    square = 1
    for line in zip(*grid) if matrix.nrows > matrix.ncols else grid:
        square *= max(1, sum(v * v for v in line))
    return (square.bit_length() + 1) // 2


def _rank_minor(grid: list[list[int]]) -> tuple[int, int]:
    """The rank r of an integer grid and |D| for a nonzero r x r minor D.

    One Bareiss pass with full pivoting: each pivot is the first nonzero
    entry, row by row, of the block left to eliminate, swapped into place
    with its row and its column.  After step t every entry below and
    right of the pivot is a minor of order t + 2, so floor division by
    the previous pivot is exact.  D is the minor on the pivot rows and
    columns (1 when r is 0), the last pivot up to sign.  Consumes grid.
    """
    m, n = len(grid), len(grid[0])
    prev, r = 1, 0
    for t in range(min(m, n)):
        at = next(((i, j) for i in range(t, m) for j in range(t, n)
                   if grid[i][j]), None)
        if at is None:
            break
        swap, col = at
        for row in grid:
            row[t], row[col] = row[col], row[t]
        grid[t], grid[swap] = grid[swap], grid[t]
        pivot, tail = grid[t][t], grid[t][t + 1:]
        for row in grid[t + 1:]:
            lead = row[t]
            row[t + 1:] = [(pivot * x - lead * y) // prev
                           for x, y in zip(row[t + 1:], tail)]
        prev, r = pivot, t + 1
    return r, abs(prev)


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


def _level(mod: _Modulus, grid: list[list], t: int, n: int) -> bool:
    """Process pivot level t of the leading n by n block of a payload grid.

    Works in place and returns False when nothing nonzero is left.  The
    rows before t vanish from column t on and the columns before t below
    row t, so every kernel call starts at t, or at t + 1 past the pivot
    pair (g, 0) a gcd step writes itself.  Rows and columns past n ride
    along.
    """
    addition, xgcd, residue = mod.addition, mod.xgcd, mod.residue
    zero = addition[3]  # addition is (1, 1, 1, 0)
    # Pivot row fix: steal mass from a lower row when row t is empty.
    if not any(grid[t][t:n]):
        donor = next((i for i in range(t + 1, n) if any(grid[i][t:n])), None)
        if donor is None:
            return False
        mod.mix_rows(grid, t, donor, addition, t)

    # Column sweep: collect the row gcd at (t, t), zeros to its right.
    for j in range(t + 1, n):
        if grid[t][j]:
            g, *cof = xgcd(grid[t][t], grid[t][j])
            grid[t][t], grid[t][j] = residue(g), zero
            mod.mix_cols(grid, t, j, cof, t + 1)

    # Keep the subdiagonal alive while mass remains below the pivot.
    below = grid[t + 1:n]
    if not any(row[t] for row in below):
        donor_col = next((j for j in range(t + 1, n)
                          if any(row[j] for row in below)), None)
        if donor_col is not None:
            mod.mix_cols(grid, t, donor_col, addition, t)

    # Row sweep: concentrate the column gcd at (t+1, t).
    for i in range(t + 2, n):
        if grid[i][t]:
            g, *cof = xgcd(grid[t + 1][t], grid[i][t])
            grid[t + 1][t], grid[i][t] = residue(g), zero
            mod.mix_rows(grid, t + 1, i, cof, t + 1)
    return True


def _reduced_form(matrix: DenseMatrix, mod: _Modulus,
                  transforms: bool = False):
    """The one sweep driver: the padded matrix swept by mod's kernels.

    Returns the BidiagonalForm, or (form, p, q) when transforms is asked
    for.  Before each level mod watches the pivot row's leading n
    entries, and it reduces only once the watch has set its d.
    """
    ring, grid = matrix.ring, matrix.padded_square().payload_grid()
    n = len(grid)
    if transforms:
        eye = DenseMatrix.identity(ring, n).payload_grid()
        grid = [row + e for row, e in zip(grid, eye)] + eye
    for t in range(n):
        mod.watch(grid[t][:n], t)
        if not _level(mod, grid, t, n):
            break
    if not transforms:
        return BidiagonalForm(DenseMatrix.from_payloads(ring, grid))
    form, p, q = (DenseMatrix.from_payloads(ring, g) for g in (
        [row[:n] for row in grid[:n]], [row[n:] for row in grid[:n]], grid[n:]
    ))
    return BidiagonalForm(form), p, q


def bidiagonalize(matrix: DenseMatrix, transforms: bool = False):
    """Lower bidiagonal form of a matrix under unimodular equivalence.

    Returns the BidiagonalForm, or (form, p, q) with p @ padded @ q equal
    to the form's matrix when transforms is requested; p and q are square
    with determinant one over the padded shape.  The sweeps are exact,
    with no bound on coefficient growth over ZZ; smith_normal_form takes
    the bounded route, the same sweeps modulo D.
    """
    return _reduced_form(matrix, _Modulus(matrix.ring), transforms)


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
