"""Reduction to lower bidiagonal form, its sweep kernels, lattice seeding."""

import importlib
import pkgutil
import random
import sys
from collections import Counter

import pytest

import todasnf
from conftest import bidiagonal_matrix, call_counter, random_int_matrix
from todasnf import (
    BidiagonalForm,
    DenseMatrix,
    GcdTodaState,
    PolyModP,
    RingValue,
    ZZ,
    bidiagonalize,
    determinant,
    gcd,
    run,
    seed_state,
)
from todasnf.elimination import _hadamard_bits, _level, _Modulus, _reduced_form


def cofactors(a, b):
    """The sweep cofactors xgcd(a, b)[1:] = (p, q, s, t), as ring values."""
    ring = a.ring
    return tuple(RingValue(ring, v)
                 for v in ring.xgcd(a.payload, b.payload)[1:])


def test_gcd_rotation_contract():
    rng = random.Random(41)
    cases = [(ZZ(0), ZZ(-6)), (ZZ(6), ZZ(0)), (ZZ(-1), ZZ(1))]
    cases += [
        (ZZ(rng.randint(-50, 50)), ZZ(rng.randint(-50, 50)))
        for _ in range(200)
    ]
    for a, b in cases:
        if not a and not b:
            continue
        p, q, s, t = cofactors(a, b)
        det = p * s - t * q
        assert det == ZZ(1), f"cofactors of ({a}, {b}) have det {det}"
        combined = (a * p + b * q, a * t + b * s)
        assert not combined[1], f"cofactors of ({a}, {b}) left {combined}"
        assert combined[0] == gcd(a, b)


def test_gcd_rotation_poly():
    ring = PolyModP(5)
    rng = random.Random(42)
    for _ in range(80):
        a = ring(tuple(rng.randrange(5) for _ in range(rng.randint(0, 4))))
        b = ring(tuple(rng.randrange(5) for _ in range(rng.randint(0, 4))))
        if not a and not b:
            continue
        p, q, s, t = cofactors(a, b)
        assert p * s - t * q == ring(1)
        assert not a * t + b * s


def test_block_updates_match_matrix_products():
    # Random blocks, and the sweeps' addition (1, 1, 1, 0) and elimination
    # blocks (1, 0, s, t), whose kept first line the kernels do not
    # recompute.
    rng = random.Random(33)
    gf = PolyModP(7)

    def draw(ring, low, high):
        """An int in [low, high], or over gf a polynomial of degree < 3."""
        if ring is ZZ:
            return rng.randint(low, high)
        return ring.coerce([rng.randint(low, high) for _ in range(3)])

    for k in range(100):
        ring = ZZ if k < 50 else gf
        one, zero = ring.coerce(1), ring.coerce(0)
        n = rng.randint(2, 4)
        a = DenseMatrix(ring, [[draw(ring, -9, 9) for _ in range(n)]
                               for _ in range(n)])
        i1, i2 = rng.sample(range(n), 2)
        cof = tuple(draw(ring, -3, 3) for _ in range(4))
        st = draw(ring, -3, 3), draw(ring, -3, 3)
        blocks = (cof, (one, zero, *st), (one, one, one, zero))

        def embed(block):
            """The identity with a 2x2 block at rows and columns (i1, i2)."""
            grid = DenseMatrix.identity(ring, n).payload_grid()
            grid[i1][i1], grid[i1][i2] = block[0]
            grid[i2][i1], grid[i2][i2] = block[1]
            return DenseMatrix(ring, grid)

        # Both kernels map (x, y) to (p x + q y, t x + s y): rows
        # left-multiply by ((p, q), (t, s)), columns right-multiply by
        # its transpose.
        for cof in blocks:
            p, q, s, t = cof
            grid = a.payload_grid()
            _Modulus(ring).mix_rows(grid, i1, i2, cof)
            assert DenseMatrix(ring, grid) == embed(((p, q), (t, s))) @ a
            grid = a.payload_grid()
            _Modulus(ring).mix_cols(grid, i1, i2, cof)
            assert DenseMatrix(ring, grid) == a @ embed(((p, t), (q, s)))


def test_live_kernels_reduce_the_kept_line():
    # Entries can predate the modulus, so under a live one a kept line
    # comes back as the residues the full 2x2 kernel stores: each entry
    # of magnitude above top as its residue in (0, d].
    rng = random.Random(34)
    for _ in range(40):
        n = rng.randint(2, 5)
        d = rng.randint(2**40, 2**41)
        a = [[rng.choice((0, rng.randint(-2**80, 2**80), rng.randint(-9, 9)))
              for _ in range(n)] for _ in range(n)]
        i1, i2 = rng.sample(range(n), 2)
        # Each kept row and column holds an entry of more than d's bits.
        a[i1][i2], a[i2][i1] = rng.randint(2**60, 2**80), -2**70
        st = rng.randint(-3, 3), rng.randint(-3, 3)
        for cof in ((1, 0, *st), (1, 1, 1, 0)):
            mod = _Modulus(ZZ, DenseMatrix(ZZ, [[d]]), 1, d)
            p, q, s, t = cof

            def fit(v):
                return v if -mod.top <= v <= mod.top else v % d or d

            grid = [list(row) for row in a]
            mod.mix_rows(grid, i1, i2, cof)
            full = [list(row) for row in a]
            full[i1] = [fit(p * x + q * y) for x, y in zip(a[i1], a[i2])]
            full[i2] = [fit(t * x + s * y) for x, y in zip(a[i1], a[i2])]
            assert grid == full, (cof, i1, i2)
            grid = [list(row) for row in a]
            mod.mix_cols(grid, i1, i2, cof)
            for row, old in zip(full, a):
                row[:] = old
                x, y = row[i1], row[i2]
                row[i1], row[i2] = fit(p * x + q * y), fit(t * x + s * y)
            assert grid == full, (cof, i1, i2)


def test_the_store_rule_keeps_magnitudes_up_to_top():
    # d = 1000 has 10 bits, so a live modulus keeps every magnitude up to
    # top = 1023 as it is and stores any larger one as its residue in
    # (0, d]; residue and both kernels, a kept line included, agree.
    d = 1000
    values = [0, 1, -1, 1000, -1000, 1023, -1023, 1024, -1024, 10**30 + 7]
    stored = [0, 1, -1, 1000, -1000, 1023, -1023, 24, 976, 7]
    mod = _Modulus(ZZ, DenseMatrix(ZZ, [[d]]), 1, d)
    assert mod.top == 1023
    assert [mod.residue(v) for v in values] == stored
    # (1, 0, 1, 1) keeps the first line and adds it to a zero second.
    grid = [list(values), [0] * len(values)]
    mod.mix_rows(grid, 0, 1, (1, 0, 1, 1))
    assert grid == [stored, stored]
    grid = [[v, 0] for v in values]
    mod.mix_cols(grid, 0, 1, (1, 0, 1, 1))
    assert grid == [[v, v] for v in stored]


def test_the_watch_goes_live_just_past_the_hadamard_bound():
    # Rows of squared norms 25 and 5 bound every minor by sqrt(125), so
    # by 4 bits: a pivot row may hold magnitudes up to 15 and stay exact.
    matrix = DenseMatrix(ZZ, [[3, 4], [1, 2]])
    assert _hadamard_bits(matrix) == 4
    for row in ([15, 1], [-15, 1], [0, 15]):
        mod = _Modulus(ZZ, matrix)
        mod.watch(row, 0)
        assert mod.d is None and mod.top == 15, row
    for row in ([16, 1], [1, -16]):
        mod = _Modulus(ZZ, matrix)
        mod.watch(row, 0)
        assert (mod.rank, mod.d, mod.top) == (2, 2, 3), row


def test_live_levels_write_the_pivot_pair_as_residues():
    # _level writes each sweep's pivot pair (g, 0) itself, as the full
    # kernel would store it: here g = |b| predates the modulus, since the
    # row sweep meets a zero at (1, 0), and comes back as b mod d.
    d = 2**40 + 15
    for b in (2**70 + 3, -(2**70 + 3), 2**90):
        grid = [[1, 0, 0], [0, 5, 0], [b, 0, 7]]
        assert _level(_Modulus(ZZ, DenseMatrix(ZZ, [[d]]), 1, d), grid, 0, 3)
        assert grid[1][0] == abs(b) % d and grid[2][0] == 0, b
        assert all(v.bit_length() <= d.bit_length() for row in grid
                   for v in row), b


def test_levels_leave_the_finished_lines_alone():
    # At level t the rows and columns before t are finished, and the
    # kernels start at t: no entry there changes, and none is rewritten
    # either, since a recomputed big int or polynomial is a new object.
    # The grids carry the P and Q borders of bidiagonalize's transforms;
    # the ZZ ones run once exactly and once with a live modulus.
    rng = random.Random(48)
    gf = PolyModP(7)
    cases = []
    for n in (5, 8, 12):
        zeros = {0, *rng.sample(range(1, n), 2)}
        zz = DenseMatrix(ZZ, [
            [0 if i in zeros or rng.random() < 0.3
             else rng.randint(-2**80, 2**80) for _ in range(n)]
            for i in range(n)])
        poly = DenseMatrix(gf, [
            [[] if i in zeros else
             [rng.randrange(1, 7) for _ in range(rng.randint(0, 3))]
             for _ in range(n)]
            for i in range(n)])
        live = _Modulus(ZZ, zz, n, rng.randint(2**40, 2**41))
        cases += [(zz, _Modulus(ZZ)), (zz, live), (poly, _Modulus(gf))]
    levels = 0
    for matrix, mod in cases:
        ring, n = matrix.ring, matrix.nrows
        eye = DenseMatrix.identity(ring, n).payload_grid()
        grid = [row + e for row, e in zip(matrix.payload_grid(), eye)] + eye
        for t in range(n):
            before = [list(row) for row in grid]
            if not _level(mod, grid, t, n):
                break
            levels += 1
            for i, (old, new) in enumerate(zip(before, grid)):
                done = range(len(old)) if i < t else range(t)
                assert all(new[j] is old[j] for j in done), (ring, t, i)
    assert levels > 40, levels


def test_submodules_are_reachable_by_attribute():
    # No package export may shadow the submodule of the same name.
    for info in pkgutil.iter_modules(todasnf.__path__):
        module = importlib.import_module(f"todasnf.{info.name}")
        assert getattr(todasnf, info.name) is module, info.name


def test_form_validation():
    form = BidiagonalForm(DenseMatrix(ZZ, [[2, 0], [4, 6]]))
    assert (form.k, form.corner) == (2, False)
    with pytest.raises(ValueError):
        BidiagonalForm(DenseMatrix(ZZ, [[1, 2], [0, 1]]))
    with pytest.raises(ValueError):
        BidiagonalForm(DenseMatrix(ZZ, [[1, 0, 0]]))
    corner = BidiagonalForm(DenseMatrix(ZZ, [[3, 0], [3, 0]]))
    assert (corner.k, corner.corner) == (1, True)
    # The trailing block past the leading nonzero diagonal must vanish.
    with pytest.raises(ValueError):
        BidiagonalForm(DenseMatrix(ZZ, [[0, 0], [0, 1]]))
    with pytest.raises(ValueError):
        BidiagonalForm(DenseMatrix(ZZ, [[1, 0, 0], [0, 0, 0], [0, 1, 0]]))


def _banded_mask(rng, m, n):
    """Which entries of an m by n matrix are nonzero; off-band rarely."""
    return [[rng.random() < (0.7 if j in (i - 1, i) else 0.06)
             for j in range(n)] for i in range(m)]


def _nonzero_entry(rng, ring):
    if ring is ZZ:
        return rng.choice((-1, 1)) * rng.randint(1, 9)
    return [rng.randrange(ring.p) for _ in range(rng.randint(0, 2))] + [
        rng.randrange(1, ring.p)]


def test_band_checks_match_the_definition():
    # Nonzero only where j is i - 1 or i; past the first zero diagonal
    # entry k everything at or beyond row and column k must vanish, and the
    # corner is the entry (k, k - 1).  The oracle reads only the mask.
    rng = random.Random(46)
    seen = Counter()
    for ring in (ZZ, PolyModP(2), PolyModP(5)):
        for m in range(1, 6):
            for n in range(1, 6):
                for _ in range(12):
                    mask = _banded_mask(rng, m, n)
                    matrix = DenseMatrix(ring, [
                        [_nonzero_entry(rng, ring) if nz else 0 for nz in row]
                        for row in mask])
                    banded = not any(mask[i][j] for i in range(m)
                                     for j in range(n) if j not in (i - 1, i))
                    assert matrix.is_lower_bidiagonal() == banded, mask
                    if m != n or not banded:
                        reason = "square" if m != n else "not lower bidiagonal"
                        with pytest.raises(ValueError, match=reason):
                            BidiagonalForm(matrix)
                        seen[reason] += 1
                        continue
                    k = next((i for i in range(n) if not mask[i][i]), n)
                    if any(mask[i][j] for i in range(k, n)
                           for j in range(k, n)):
                        with pytest.raises(ValueError, match="trailing block"):
                            BidiagonalForm(matrix)
                        seen["trailing"] += 1
                        continue
                    form = BidiagonalForm(matrix)
                    corner = 0 < k < n and mask[k][k - 1]
                    assert (form.k, form.corner) == (k, corner), mask
                    seen["corner" if corner else "form"] += 1
    assert set(seen) == {"square", "not lower bidiagonal", "trailing",
                         "corner", "form"}, seen


def test_boundary_scans_stay_linear():
    # On an already lower bidiagonal input the zero tests read row slices
    # with any(), so the C calls grow with n, not with the n * n entries.
    n = 64
    rng = random.Random(47)
    matrix = DenseMatrix(ZZ, [[rng.randint(1, 9) if j in (i - 1, i) else 0
                               for j in range(n)] for i in range(n)])
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "c_call"

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        form = bidiagonalize(matrix)
        banded = matrix.is_lower_bidiagonal()
    finally:
        sys.setprofile(previous)
    assert banded and form.matrix == matrix and form.k == n
    assert calls < 16 * n, calls


def _larger_draws(rng, draw):
    """Draws up to 12 x 12 by draw(m, n), where the sweeps start far from
    column 0: per n in 6..12 a square one, a rectangular one, a
    rank-deficient product and a square one with zero rows, its first
    row among them."""
    for n in range(6, 13):
        yield draw(n, n)
        yield draw(n, rng.randint(2, 12))
        rank = rng.randint(1, n - 2)
        yield draw(n, rank) @ draw(rank, n)
        full = draw(n, n)
        grid, zero = full.payload_grid(), full.ring.coerce(0)
        for i in {0, *rng.sample(range(1, n), 2)}:
            grid[i] = [zero] * n
        yield DenseMatrix(full.ring, grid)


def test_reduction_shape_and_transforms():
    rng = random.Random(43)
    cases = [random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
             for _ in range(150)]
    cases += _larger_draws(
        rng, lambda m, n: random_int_matrix(rng, m, n, bound=9))
    for a in cases:
        form, p, q = bidiagonalize(a, transforms=True)
        padded = a.padded_square()
        assert p @ padded @ q == form.matrix, f"transforms broken for {a!r}"
        assert determinant(p) == ZZ(1)
        assert determinant(q) == ZZ(1)
        assert bidiagonalize(a) == form


def test_poly_reduction():
    ring = PolyModP(3)
    rng = random.Random(44)
    cases = []
    for _ in range(60):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        cases.append(DenseMatrix(ring, [
            [[rng.randrange(3) for _ in range(rng.randint(0, 3))]
             for _ in range(n)]
            for _ in range(m)
        ]))
    cases += _larger_draws(rng, lambda m, n: DenseMatrix(ring, [
        [[rng.randrange(3) for _ in range(rng.randint(0, 2))]
         for _ in range(n)]
        for _ in range(m)
    ]))
    for a in cases:
        form, p, q = bidiagonalize(a, transforms=True)
        assert p @ a.padded_square() @ q == form.matrix


def _random_poly_matrix(rng, ring, m, n) -> DenseMatrix:
    return DenseMatrix(ring, [
        [[rng.randrange(ring.p) for _ in range(rng.randint(0, 3))]
         for _ in range(n)]
        for _ in range(m)
    ])


def test_transforms_at_pipeline_sizes():
    rng = random.Random(45)
    cases = []
    for n in range(6, 11):
        cases.append(random_int_matrix(rng, n, n))
        cases.append(random_int_matrix(rng, n, rng.randint(6, 10)))
        rank = rng.randint(2, n - 2)
        cases.append(random_int_matrix(rng, n, rank, bound=5, zero_prob=0)
                     @ random_int_matrix(rng, rank, n, bound=5, zero_prob=0))
    for p in (2, 5, 7):
        ring = PolyModP(p)
        for n in (6, 8, 10):
            cases.append(_random_poly_matrix(rng, ring, n, n))
            cases.append(_random_poly_matrix(rng, ring, n, n - 3))
            cases.append(_random_poly_matrix(rng, ring, n, 2)
                         @ _random_poly_matrix(rng, ring, 2, n + 1))
    for a in cases:
        form, p, q = bidiagonalize(a, transforms=True)
        assert p @ a.padded_square() @ q == form.matrix, f"broken for {a!r}"
        assert bidiagonalize(a) == form


def test_subdiagonal_forced_when_mass_remains():
    form = bidiagonalize(DenseMatrix(ZZ, [[2, 0], [0, 3]]))
    assert form.k == 2 and not form.corner
    assert form.matrix[1, 0], "decoupled pivot freezes the lattice"
    outcome = run(seed_state(form))
    assert outcome.factors == (ZZ(1), ZZ(6))


def test_zero_matrix_has_no_seed():
    form = bidiagonalize(DenseMatrix(ZZ, [[0, 0], [0, 0]]))
    assert form.k == 0 and not form.corner
    assert form.matrix.payload_grid() == [[0, 0], [0, 0]]
    with pytest.raises(ValueError):
        seed_state(form)


def test_corner_detection():
    form = bidiagonalize(DenseMatrix(ZZ, [[0, 0], [3, 4]]))
    assert form.k == 1 and form.corner
    seed = seed_state(form)
    assert seed.n == 2
    assert not seed.diagonal[1]
    assert seed.subdiagonal[0]
    outcome = run(seed)
    assert outcome.factors == (ZZ(1), ZZ(0))


def test_tall_rank_one_column():
    form = bidiagonalize(DenseMatrix(ZZ, [[0], [3]]))
    assert form.k == 1 and form.corner
    seed = seed_state(form)
    assert run(seed).factors == (ZZ(3), ZZ(0))


def test_already_bidiagonal_is_untouched(monkeypatch):
    # A bidiagonal input whose leading block is coupled (no zero on its
    # subdiagonal) is its own reduced form over both rings, with either
    # modulus and no kernel call, so its seed is its bands cut at
    # k + corner.  Rows: ring, q, e, then the form's k and corner.
    gf5 = PolyModP(5)
    x, x1, three = gf5.coerce([0, 1]), gf5.coerce([1, 1]), gf5.coerce(3)
    table = [
        (ZZ, (2, 6, 9), (4, 3), 3, False),
        (gf5, (x1, gf5.mul(x, x), three), (x, three), 3, False),
        (ZZ, (2, 6, 0), (4, 3), 2, True),
        (ZZ, (2, 6, 0), (4, 0), 2, False),
        (ZZ, (0, 0, 0), (0, 0), 0, False),
        (ZZ, tuple(range(1, 65)), tuple(range(2, 65)), 64, False),
    ]
    calls = call_counter(monkeypatch, _Modulus, ("mix_rows", "mix_cols"))
    for ring, q, e, k, corner in table:
        m = bidiagonal_matrix(GcdTodaState.from_payloads(ring, q, e))
        for mod in (_Modulus(ring), _Modulus(ring, m)):
            form = _reduced_form(m, mod)
            assert form.matrix == m and (form.k, form.corner) == (k, corner)
            assert not calls and mod.d is None, (q, e)
        if k == 0:
            with pytest.raises(ValueError):
                seed_state(form)
            continue
        cut = k + corner
        assert seed_state(form) == GcdTodaState.from_payloads(
            ring, q[:cut], e[:cut - 1])
    # A zero subdiagonal entry inside the block is no reduced form: the
    # sweeps couple it, through kernel calls.
    m = bidiagonal_matrix(GcdTodaState.from_payloads(ZZ, (2, 6, 9), (0, 3)))
    assert _reduced_form(m, _Modulus(ZZ, m)).matrix != m and calls


def test_seed_shapes():
    rng = random.Random(45)
    for _ in range(100):
        a = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        form = bidiagonalize(a)
        if form.k == 0:
            continue
        seed = seed_state(form)
        expected = form.k + 1 if form.corner else form.k
        assert seed.n == expected
        assert all(seed.diagonal[:form.k])
        if form.corner:
            assert not seed.diagonal[-1]


def test_golden_transforms_of_a_dense_input():
    # Frozen output: any reordered or re-signed sweep changes B, P or Q.
    a = DenseMatrix(ZZ, [[4, -6, 2], [3, 5, -7], [-2, 8, 9]])
    form, p, q = bidiagonalize(a, transforms=True)
    assert form.matrix.payload_grid() == [[2, 0, 0], [1, 1, 0], [0, 36, 275]]
    assert p.payload_grid() == [[1, 0, 0], [0, -4, -3], [0, -9, -7]]
    assert q.payload_grid() == [[0, 5, 41], [0, -1, -8], [1, -13, -106]]
