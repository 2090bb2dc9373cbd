"""Smith normal form: lattice route against classical route and minors."""

import math
import random
import time

import pytest

from conftest import (
    bareiss_rank_minor,
    call_counter,
    int_grid,
    ladder_draws,
    minors_gcd_int_brute,
    moore_wedge,
    planted_int_grid,
    random_complex,
    random_int_matrix,
    surface_grid,
)
from todasnf import (
    DenseMatrix,
    GcdTodaState,
    PolyModP,
    RingValue,
    SnfResult,
    ZZ,
    bidiagonalize,
    classical_snf,
    determinant,
    determinantal_divisors,
    gcd_step,
    minors_gcd,
    run,
    seed_state,
    smith_normal_form,
    verify,
)
from todasnf.elimination import _Modulus, _rank_minor, _reduced_form
from todasnf.snf import _det, _lattice_snf


def test_frozen_small_cases():
    cases = [
        ([[5]], (5,)),
        ([[0]], (0,)),
        ([[2, 0], [0, 3]], (1, 6)),
        ([[4, 0], [0, 6]], (2, 12)),
        ([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], (2, 2, 156)),
        ([[0], [3]], (3,)),
        ([[1, 2, 3]], (1,)),
        ([[2, 4], [6, 8]], (2, 4)),
        ([[0, 0], [0, 0]], (0, 0)),
        ([[3, 0], [0, 0]], (3, 0)),
    ]
    for grid, expected in cases:
        matrix = DenseMatrix(ZZ, grid)
        for result in (smith_normal_form(matrix), classical_snf(matrix)):
            got = tuple(v.payload for v in result.factors)
            assert got == expected, f"{grid}: got {got}, expected {expected}"
            assert verify(matrix, result)


def test_identity_and_diagonal():
    eye = DenseMatrix.identity(ZZ, 4)
    assert [v.payload for v in smith_normal_form(eye).factors] == [1, 1, 1, 1]
    diag = DenseMatrix(ZZ, [[6, 0, 0], [0, 10, 0], [0, 0, 15]])
    assert [v.payload for v in smith_normal_form(diag).factors] == [1, 30, 30]


def test_method_tags_and_iterations():
    matrix = DenseMatrix(ZZ, [[2, 0, 0], [4, 6, 0], [0, 3, 9]])
    toda = smith_normal_form(matrix)
    classical = classical_snf(matrix)
    assert toda.method == "toda" and classical.method == "classical"
    assert toda.iterations == 4 and classical.iterations == 0
    assert toda.factors == classical.factors
    chain = [seed_state(bidiagonalize(matrix))]
    for _ in range(toda.iterations):
        chain.append(gcd_step(chain[-1]))
    assert len(toda.trace) == toda.iterations + 1
    assert toda.trace == tuple(chain)
    assert classical.trace is None
    untraced = SnfResult(toda.factors, toda.iterations, "toda")
    assert untraced == toda, "the lattice run must not affect equality"


def test_routes_agree_on_random_dense():
    rng = random.Random(51)
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        matrix = random_int_matrix(rng, m, n)
        a = smith_normal_form(matrix)
        b = classical_snf(matrix)
        assert a.factors == b.factors, (
            f"routes disagree on {int_grid(matrix)}: "
            f"{[str(v) for v in a.factors]} vs {[str(v) for v in b.factors]}"
        )


def test_factor_products_match_brute_minors():
    rng = random.Random(52)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        matrix = random_int_matrix(rng, m, n, bound=9)
        factors = smith_normal_form(matrix).factors
        product = 1
        for k in range(1, min(m, n) + 1):
            product *= factors[k - 1].payload
            assert product == minors_gcd_int_brute(int_grid(matrix), k)


def test_minors_gcd_matches_enumeration():
    rng = random.Random(53)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        matrix = random_int_matrix(rng, m, n, bound=9)
        for k in range(1, min(m, n) + 1):
            expected = minors_gcd_int_brute(int_grid(matrix), k)
            assert minors_gcd(matrix, k) == ZZ(expected)
    with pytest.raises(ValueError):
        minors_gcd(DenseMatrix(ZZ, [[1]]), 2)
    with pytest.raises(ValueError):
        minors_gcd(DenseMatrix(ZZ, [[1]]), 0)


def test_poly_routes_agree():
    rng = random.Random(54)
    for p in (2, 3, 5):
        ring = PolyModP(p)
        for _ in range(40):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            matrix = DenseMatrix(ring, [
                [[rng.randrange(p) for _ in range(rng.randint(0, 3))]
                 for _ in range(n)]
                for _ in range(m)
            ])
            a = smith_normal_form(matrix)
            b = classical_snf(matrix)
            assert a.factors == b.factors
            assert verify(matrix, a)


def test_classical_route_stands_alone(monkeypatch):
    # The classical route cross-checks the lattice route, so it must not
    # share the Bezout data or the 2x2 kernels that bidiagonalize sweeps with.
    import todasnf.elimination as elimination
    from todasnf.ring import IntegerRing

    def shared(*_):
        raise AssertionError("classical_snf reached a lattice-route kernel")

    monkeypatch.setattr(IntegerRing, "xgcd", shared)
    monkeypatch.setattr(PolyModP, "xgcd", shared)
    monkeypatch.setattr(PolyModP, "mix", shared)
    monkeypatch.setattr(elimination._Modulus, "mix_rows", shared)
    monkeypatch.setattr(elimination._Modulus, "mix_cols", shared)
    gf5 = PolyModP(5)
    x, x1 = [0, 1], [1, 1]
    cases = [
        (ZZ, [[2, 0], [0, 3]], [1, 6]),
        (ZZ, [[2, 3, 0], [4, 5, 6]], [1, 2]),  # 2 does not divide its row
        (ZZ, [[2, 4], [3, 6], [5, 10]], [1, 0]),
        (gf5, [[x, 0], [0, x1]], [(1,), (0, 1, 1)]),
        (gf5, [[x, [1, 0, 1], 0]], [(1,)]),
        (gf5, [[x, [0, 0, 1]], [1, x], [0, 0]], [(1,), ()]),
    ]
    for ring, grid, expected in cases:
        result = classical_snf(DenseMatrix(ring, grid))
        assert [v.payload for v in result.factors] == expected, grid


def test_rank_deficient_factors_trail_with_zeros():
    matrix = DenseMatrix(ZZ, [[1, 2], [2, 4], [3, 6]])
    result = smith_normal_form(matrix)
    assert [v.payload for v in result.factors] == [1, 0]
    assert verify(matrix, result)


def test_result_validation():
    with pytest.raises(ValueError):
        SnfResult((), 0, "classical")
    with pytest.raises(ValueError):
        SnfResult((ZZ(-2),), 0, "classical")
    with pytest.raises(ValueError):
        SnfResult((ZZ(4), ZZ(6)), 0, "classical")
    with pytest.raises(ValueError):
        SnfResult((ZZ(0), ZZ(2)), 0, "classical")
    with pytest.raises(ValueError):
        SnfResult((ZZ(2), ZZ(4)), -1, "classical")
    SnfResult((ZZ(2), ZZ(4), ZZ(0)), 0, "classical")


def test_verify_rejects_wrong_results():
    matrix = DenseMatrix(ZZ, [[2, 0], [0, 4]])
    good = smith_normal_form(matrix)
    assert verify(matrix, good)
    assert not verify(matrix, SnfResult((ZZ(1), ZZ(8)), 0, "classical"))
    assert not verify(matrix, SnfResult((ZZ(2),), 0, "classical"))
    assert not verify(matrix, SnfResult((ZZ(1), ZZ(1)), 0, "classical"))
    other = DenseMatrix(PolyModP(3), [[1, 0], [0, 1]])
    assert not verify(other, good)


def test_max_iters_is_honored():
    from todasnf import IterationLimitError

    matrix = DenseMatrix(ZZ, [[2, 0, 0], [4, 6, 0], [0, 3, 9]])
    with pytest.raises(IterationLimitError):
        smith_normal_form(matrix, max_iters=2)
    assert smith_normal_form(matrix, max_iters=4).iterations == 4
    # The cap is checked for every input, the zero matrix included.
    for matrix in (matrix, DenseMatrix(ZZ, [[0, 0], [0, 0]])):
        for cap in (0, -5):
            with pytest.raises(ValueError, match="max_iters must be at least"):
                smith_normal_form(matrix, max_iters=cap)


def test_max_iters_must_be_an_int():
    # A bool or a float is refused before any step, not run as a count.
    matrix = DenseMatrix(ZZ, [[2, 0, 0], [4, 6, 0], [0, 3, 9]])
    state = GcdTodaState.from_payloads(ZZ, (2, 6), (4,))
    for cap in (True, False, 2.5, 4.0, "3"):
        with pytest.raises(TypeError, match="max_iters must be an int"):
            smith_normal_form(matrix, max_iters=cap)
        with pytest.raises(TypeError, match="max_iters must be an int"):
            run(state, max_iters=cap)


def _wraps(call) -> int:
    """How many RingValues a call builds."""
    with pytest.MonkeyPatch.context() as patch:
        wraps = call_counter(patch, RingValue, ("__init__",))
        call()
    return wraps["__init__"]


def test_elimination_wraps_values_only_at_the_boundary():
    # The sweeps run on payloads; a RingValue per 2x2 update would build
    # thousands of wrappers here instead of about one per entry.
    n = 12
    a = random_int_matrix(random.Random(58), n, n, zero_prob=0)
    assert _wraps(lambda: bidiagonalize(a)) <= 2 * n * n
    assert _wraps(lambda: bidiagonalize(a, transforms=True)) <= 4 * n * n
    assert _wraps(lambda: classical_snf(a)) <= 2 * n * n


def test_verify_wraps_values_only_at_the_boundary():
    # No minor gcd is a unit, so verify visits all 923 minors; each is a
    # payload sub-grid, not a matrix of RingValues.
    n = 6
    rng = random.Random(59)
    a = DenseMatrix(ZZ, [[6 * rng.randint(-9, 9) for _ in range(n)]
                         for _ in range(n)])
    result = smith_normal_form(a)
    verdicts = []
    assert _wraps(lambda: verdicts.append(verify(a, result))) <= 8 * n
    assert verdicts == [True]


def test_bareiss_never_divides_by_one(monkeypatch):
    # Bareiss divides by the previous pivot, which is one before the first
    # step; that division is the identity and is skipped.
    rng = random.Random(60)
    for ring in (ZZ, PolyModP(5)):
        divisors = []
        original = type(ring).exact_div

        def counting(self, a, b):
            divisors.append(b)
            return original(self, a, b)

        monkeypatch.setattr(type(ring), "exact_div", counting)
        one = ring.coerce(1)
        for n in range(1, 7):
            for _ in range(20):
                grid = [[rng.randint(-9, 9) if ring is ZZ
                         else [rng.randrange(5) for _ in range(2)]
                         for _ in range(n)] for _ in range(n)]
                before = len(divisors)
                determinant(DenseMatrix(ring, grid))
                if n <= 2:
                    assert len(divisors) == before, f"{n}x{n} grid divided"
        assert divisors, "the counter never saw a division"
        assert one not in divisors
        monkeypatch.undo()


def test_scale_ladder_above_the_lattice_sizes():
    for ring, grids, budget in ladder_draws():
        start = time.perf_counter()
        for k, grid in enumerate(grids):
            matrix = DenseMatrix(ring, grid)
            assert (smith_normal_form(matrix).factors
                    == classical_snf(matrix).factors), f"{ring.name} draw {k}"
        elapsed = time.perf_counter() - start
        n = len(grids[0])
        assert elapsed < budget, f"{ring.name} {n}x{n} took {elapsed:.2f} s"


def test_scale_ladder_planted_rungs():
    # Planted inputs carry their own answer, so no second route is timed.
    # Random(5) draws a 32 x 32 input (400 additions, 50-bit entries) and
    # then a 48 x 48 one of rank 40 (700 additions); smith_normal_form
    # took 0.09-0.16 and 0.29-0.49 s on them on a 2-vCPU Xeon VM, and
    # each budget is about five times the slower time.
    rng = random.Random(5)
    for n, rank, ops, budget in ((32, 32, 400, 0.8), (48, 40, 700, 2.5)):
        grid, chain = planted_int_grid(rng, n, rank, ops)
        start = time.perf_counter()
        factors = smith_normal_form(DenseMatrix(ZZ, grid)).factors
        elapsed = time.perf_counter() - start
        assert [v.payload for v in factors] == chain, f"{n}x{n}"
        assert elapsed < budget, f"planted {n}x{n} took {elapsed:.2f} s"


def test_scale_ladder_sparse_boundary_rungs():
    # Boundary maps whose torsion topology plants: the Klein bottle from
    # a 10 x 10 grid (300 x 200, exactly one factor 2), the torus from
    # the same grid (rank 199, no torsion) and the wedge of
    # M(Z/4, 1) and M(Z/6, 1) on a 3-vertex circle with 2 rings (216 x
    # 150, Z/4 + Z/6 = Z/2 + Z/12).  smith_normal_form took 0.06-0.08 s
    # on each surface and 0.22-0.33 s on the wedge on a 2-vCPU Xeon VM,
    # construction included; each budget is about five times the slower
    # time.
    for grid, shape, chain, budget in (
            (surface_grid(10, True), (300, 200), [2], 0.4),
            (surface_grid(10, False), (300, 200), [0], 0.4),
            (moore_wedge((4, 6), 3, 2), (216, 150), [2, 12], 1.5)):
        assert (len(grid), len(grid[0])) == shape
        start = time.perf_counter()
        factors = smith_normal_form(DenseMatrix(ZZ, grid)).factors
        elapsed = time.perf_counter() - start
        assert [v.payload for v in factors] == [1] * (shape[1] - len(chain)) + chain
        assert elapsed < budget, f"{shape} took {elapsed:.2f} s"


def test_rank_minor_matches_the_eager_bareiss_pass():
    # The (r, |D|) that the mod-D rule fixes, against the full-pivot pass
    # kept in conftest, on each input and its transpose: dense +-20
    # square, tall and wide, a rank-deficient product, a planted 24 x 24
    # of rank 20 and two boundary maps.  Independently, r counts the
    # nonzero factors of classical_snf and their product, the gcd of the
    # r x r minors, divides D.
    rng = random.Random(30)
    grids = [[[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
             for m, n in ((10, 10), (12, 7), (7, 12))]
    left, right = ([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
                   for m, n in ((11, 4), (4, 9)))
    grids.append([[sum(a * b for a, b in zip(row, col))
                   for col in zip(*right)] for row in left])
    grids += [planted_int_grid(rng, 24, 20, 288)[0], surface_grid(5, True),
              moore_wedge((2, 3), 3, 1)]
    start = time.perf_counter()
    for grid in grids + [[list(col) for col in zip(*g)] for g in grids]:
        shape = f"{len(grid)}x{len(grid[0])}"
        rank, d = _rank_minor([row[:] for row in grid])
        assert (rank, d) == bareiss_rank_minor(grid), shape
        factors = [v.payload for v in
                   classical_snf(DenseMatrix(ZZ, grid)).factors if v]
        assert rank == len(factors) and d % math.prod(factors) == 0, shape
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_random_complexes_match_the_classical_route():
    # Linial-Meshulam Y(n, c / n) near c = 2.75, where H_2 appears and
    # torsion is largest: one C(n, 2)-row draw per (n, c), on both routes.
    rng = random.Random(31)
    for n in (10, 12, 14):
        for c in (2.6, 2.8):
            matrix = DenseMatrix(ZZ, random_complex(n, c, rng))
            assert (smith_normal_form(matrix).factors
                    == classical_snf(matrix).factors), (n, c)


def _product_mod(a, b, d):
    """a @ b of two square int grids, each entry reduced modulo d."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % d for col in cols]
            for row in a]


def test_mod_d_transforms_certify_the_factors():
    # The bordered sweep modulo D carries P and Q without steering, and
    # they certify smith_normal_form through the lattice's conserved
    # quantities (Kaltofen, Nehring and Saunders 2011): P pad(A) Q = B
    # (mod D), det P and det Q are units mod D, and factor i < r is
    # gcd(d_i / d_(i-1), D) for the determinantal divisors d of B's seed.
    # Inputs: the ladder's ZZ 16 x 16 and 20 x 20 draws, planted 24 x 24
    # rank 18 and 48 x 48 rank 40 inputs, and dense +-20 14 x 9 and 9 x 14
    # draws.  The 14 inputs took 1.8 s on a 2-vCPU Xeon VM, 0.9 s of it at
    # 48 x 48, where the Bareiss det P alone would take about 15 s, so the
    # unit check stops at n = 24; the budget is about five times 1.8 s.
    inputs = [(grid, None) for ring, grids, _ in ladder_draws()
              if ring is ZZ and len(grids[0]) in (16, 20) for grid in grids]
    rng = random.Random(7)
    inputs += [planted_int_grid(rng, n, rank, ops)
               for n, rank, ops in ((24, 18, 288), (48, 40, 700))]
    rng = random.Random(8)
    inputs += [([[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)],
                None) for m, n in ((14, 9), (9, 14))]
    start = time.perf_counter()
    for grid, chain in inputs:
        a = DenseMatrix(ZZ, grid)
        shape = f"{a.nrows}x{a.ncols}"
        mod = _Modulus(ZZ, a)
        form, p, q = _reduced_form(a, mod, transforms=True)
        assert mod.d is not None, f"{shape}: the modulus never went live"
        assert form == _reduced_form(a, _Modulus(ZZ, a)), shape
        d, n = mod.d, form.matrix.nrows
        pad = a.padded_square().payload_grid()
        pq = _product_mod(_product_mod(p.payload_grid(), pad, d),
                          q.payload_grid(), d)
        assert pq == [[v % d for v in row]
                      for row in form.matrix.payload_grid()], shape
        seed = seed_state(form)
        divisors = [v.payload for v in determinantal_divisors(seed)]
        size = min(a.nrows, a.ncols)
        factors = [math.gcd(divisors[i] // (divisors[i - 1] if i else 1), d)
                   for i in range(mod.rank)] + [0] * (size - mod.rank)
        assert factors == [v.payload for v in smith_normal_form(a).factors]
        assert chain is None or factors == chain, shape
        if n <= 24:
            for t in (p, q):
                assert math.gcd(_det(ZZ, t.payload_grid()), d) == 1, shape
    elapsed = time.perf_counter() - start
    assert elapsed < 9.0, f"certificates took {elapsed:.2f} s"


def test_mod_d_sweeps_stay_within_the_size_of_d(monkeypatch):
    # The sweeps hand the modulus to every kernel, and once it is live
    # every line a kernel writes must hold entries of at most size(D) bits.
    import todasnf.elimination as elimination

    live = {"mix_rows": 0, "mix_cols": 0}
    lines = {"mix_rows": lambda grid, a, b: (grid[a], grid[b]),
             "mix_cols": lambda grid, a, b: ([row[a] for row in grid],
                                             [row[b] for row in grid])}

    def bounded(name):
        kernel = getattr(elimination._Modulus, name)

        def wrapped(mod, grid, a, b, cof, start=0):
            kernel(mod, grid, a, b, cof, start)
            if mod.d is not None:
                top = max(v.bit_length() for line in lines[name](grid, a, b)
                          for v in line)
                assert top <= mod.d.bit_length(), f"{name} wrote {top} bits"
                live[name] += 1
        return wrapped

    for name in live:
        monkeypatch.setattr(elimination._Modulus, name, bounded(name))
    grids = next(grids for ring, grids, _ in ladder_draws()
                 if ring is ZZ and len(grids[0]) == 20)
    for k, grid in enumerate(grids):
        matrix = DenseMatrix(ZZ, grid)
        assert (smith_normal_form(matrix).factors
                == classical_snf(matrix).factors), f"draw {k}"
    assert min(live.values()) > 100, live


def test_residues_keep_the_zero_pattern():
    # A written multiple of d is stored as d, never as zero, and a zero
    # stays zero, so _level branches as it would on the unreduced values.
    mod = _Modulus(ZZ, DenseMatrix(ZZ, [[5]]), 1, -5)
    grid = [[10, -7, 0], [5, 3, 0]]
    mod.mix_rows(grid, 0, 1, (2, 0, 1, 0))
    assert grid == [[5, 1, 0], [5, 3, 0]]
    grid = [[10, 5], [-7, 3], [0, 0]]
    mod.mix_cols(grid, 0, 1, (2, 0, 1, 0))
    assert grid == [[5, 5], [1, 3], [0, 0]]


def test_untriggered_inputs_keep_the_exact_route():
    # Where no pivot row outgrows the Hadamard bound the modulus never goes
    # live, and the form, the step count and the trace are the exact ones.
    rng = random.Random(62)
    quiet = 0
    for _ in range(80):
        a = random_int_matrix(rng, rng.randint(1, 7), rng.randint(1, 7),
                              bound=rng.choice((1, 3, 20)))
        mod = _Modulus(ZZ, a)
        form = _reduced_form(a, mod)
        result = smith_normal_form(a)
        exact = _lattice_snf(a, None, _Modulus(ZZ))
        assert result.factors == exact.factors
        if mod.d is None:
            quiet += 1
            assert form == bidiagonalize(a)
            assert result.iterations == exact.iterations
            assert result.trace == exact.trace
    assert 0 < quiet < 80, quiet


def test_only_the_zz_lattice_route_watches(monkeypatch):
    # Only a ZZ modulus given the input matrix watches the pivot rows: the
    # GF(p)[x] sweeps and bidiagonalize's exact ones never bound a minor
    # or compute D, and their results stand without either.
    import todasnf.elimination as elimination

    class Watched(Exception):
        pass

    def watched(*_):
        raise Watched

    monkeypatch.setattr(elimination, "_hadamard_bits", watched)
    monkeypatch.setattr(elimination, "_rank_minor", watched)
    grids = next(grids for ring, grids, _ in ladder_draws()
                 if ring is not ZZ and ring.p == 2)
    for k, grid in enumerate(grids):
        matrix = DenseMatrix(PolyModP(2), grid)
        assert (smith_normal_form(matrix).factors
                == classical_snf(matrix).factors), f"GF(2)[x] draw {k}"
    # The exact sweeps of the ladder's 20 x 20 draws take seconds each,
    # so bidiagonalize runs on 12 x 12 draws of the same kind.
    rng = random.Random(1)
    draws = [DenseMatrix(ZZ, [[rng.randint(-20, 20) for _ in range(12)]
                              for _ in range(12)]) for _ in range(5)]
    for k, a in enumerate(draws):
        form, p, q = bidiagonalize(a, transforms=True)
        assert p @ a.padded_square() @ q == form.matrix, f"ZZ draw {k}"
    with pytest.raises(Watched):
        smith_normal_form(draws[0])
