"""Acceptance gate: one test per numbered criterion.

Every test prints exactly one PASS or FAIL line (visible in the pytest
summary) and enforces the stated workload sizes and time budgets on this
machine.  Golden values are frozen from worked examples; random corpora
are seeded and cross-checked against the independent classical route and
the brute-force oracles from conftest.
"""

from __future__ import annotations

import functools
import random
import time

from conftest import bidiagonal_matrix, int_values, non_adjacent_min_brute
from todasnf import (
    DenseMatrix,
    GcdTodaState,
    UdTodaState,
    ZZ,
    bbs_step,
    classical_snf,
    conserved_quantities,
    determinantal_divisors,
    exponent_lift,
    from_bbs,
    gcd_step,
    is_sorted,
    minors_gcd,
    render_bbs,
    run,
    smith_normal_form,
    to_bbs,
    ud_step,
    verify,
)
from todasnf.ud_toda import interleave

GOLDEN_TRACE = [
    ((2, 6, 9), (4, 3)),
    ((2, 3, 18), (12, 9)),
    ((2, 3, 18), (18, 54)),
    ((2, 3, 18), (27, 324)),
    ((1, 6, 18), (81, 972)),
]

# The five displayed automaton lines, on the window of 30 sites starting
# one box left of the initial configuration.
GOLDEN_BBS_LINES = [
    "011110001110010000000000000000",
    "000001110001101110000000000000",
    "000000001110010001111000000000",
    "000000000001101100000111100000",
    "000000000000010011100000011110",
]


def criterion(number: int, description: str):
    """Print one PASS/FAIL line for the wrapped acceptance check."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner():
            try:
                detail = fn()
            except AssertionError:
                print(f"FAIL criterion {number}: {description}")
                raise
            suffix = f" [{detail}]" if detail else ""
            print(f"PASS criterion {number}: {description}{suffix}")

        return inner

    return wrap


def _best_time(workload, repeats: int = 7) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        workload()
        best = min(best, time.perf_counter() - start)
    return best


@criterion(1, "golden lattice trace terminates at step 4 with factors "
              "(1, 6, 18) in under 1 ms")
def test_criterion_1_golden_lattice_trace():
    seed = GcdTodaState(int_values(2, 6, 9), int_values(4, 3))
    outcome = run(seed)
    assert len(outcome.trace) == 5
    for state, (diag, sub) in zip(outcome.trace, GOLDEN_TRACE):
        assert state.diagonal == int_values(*diag), "trace diagonal mismatch"
        assert state.subdiagonal == int_values(*sub), "trace subdiagonal mismatch"
    assert outcome.iterations == 4, f"terminated at {outcome.iterations}"
    assert outcome.factors == int_values(1, 6, 18)
    best = _best_time(lambda: run(seed))
    assert best < 1e-3, f"run took {best * 1e3:.3f} ms"
    return f"best run {best * 1e6:.0f} us"


@criterion(2, "golden box-and-ball display reproduced and automaton "
              "commutes with the lattice step in under 1 ms")
def test_criterion_2_golden_bbs_display():
    start_state = UdTodaState((4, 3, 1), (3, 2))

    def evolve():
        configs = [to_bbs(start_state)]
        for _ in range(4):
            configs.append(bbs_step(configs[-1]))
        return configs

    configs = evolve()
    lines = [render_bbs(c, -1, 29) for c in configs]
    assert lines == GOLDEN_BBS_LINES, f"display mismatch: {lines}"
    state = start_state
    for config in configs:
        assert from_bbs(config) == state, "automaton left the lattice orbit"
        state = ud_step(state)
    best = _best_time(lambda: [render_bbs(c, -1, 29) for c in evolve()])
    assert best < 1e-3, f"evolution took {best * 1e3:.3f} ms"
    return f"best evolution {best * 1e6:.0f} us"


@functools.cache
def _integer_lattice_corpus():
    """1000 seeded integer bidiagonal runs checked against the classical
    route, with the elapsed wall time for the whole comparison."""
    rng = random.Random(90210)
    seeds = []
    for _ in range(1000):
        n = rng.randint(2, 6)
        seeds.append(GcdTodaState(
            tuple(ZZ(rng.choice((-1, 1)) * rng.randint(1, 100))
                  for _ in range(n)),
            tuple(ZZ(rng.choice((-1, 1)) * rng.randint(1, 100))
                  for _ in range(n - 1)),
        ))
    start = time.perf_counter()
    outcomes = [run(seed) for seed in seeds]
    mismatches = []
    for seed, outcome in zip(seeds, outcomes):
        expected = classical_snf(bidiagonal_matrix(seed)).factors
        if outcome.factors != expected:
            mismatches.append((seed, outcome.factors, expected))
    elapsed = time.perf_counter() - start
    return seeds, outcomes, mismatches, elapsed


@criterion(3, "1000 random integer bidiagonal seeds: lattice factors match "
              "the classical route in under 10 s")
def test_criterion_3_integer_oracle_equivalence():
    seeds, outcomes, mismatches, elapsed = _integer_lattice_corpus()
    assert len(seeds) == 1000
    assert not mismatches, f"first mismatch: {mismatches[0]}"
    assert elapsed < 10.0, f"corpus took {elapsed:.2f} s"
    return f"1000 seeds in {elapsed:.2f} s"


@criterion(4, "500 random polynomial bidiagonal seeds over GF(2), GF(3), "
              "GF(5): lattice factors match the classical route in under 10 s")
def test_criterion_4_poly_oracle_equivalence():
    from todasnf import PolyModP

    rng = random.Random(1729)
    seeds = []
    for index in range(500):
        ring = PolyModP((2, 3, 5)[index % 3])
        p = ring.p

        def nonzero_poly():
            degree = rng.randint(0, 4)
            coeffs = [rng.randrange(p) for _ in range(degree)]
            coeffs.append(rng.randrange(1, p))
            return ring(coeffs)

        n = rng.randint(2, 6)
        seeds.append(GcdTodaState(
            tuple(nonzero_poly() for _ in range(n)),
            tuple(nonzero_poly() for _ in range(n - 1)),
        ))
    start = time.perf_counter()
    for seed in seeds:
        outcome = run(seed)
        expected = classical_snf(bidiagonal_matrix(seed)).factors
        assert outcome.factors == expected, (
            f"routes disagree on {seed}: "
            f"{[str(v) for v in outcome.factors]} vs "
            f"{[str(v) for v in expected]}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"corpus took {elapsed:.2f} s"
    return f"500 seeds in {elapsed:.2f} s"


@criterion(5, "200 random dense integer matrices (singular and rectangular "
              "included): full pipeline matches the classical route and "
              "passes minor verification in under 30 s")
def test_criterion_5_full_pipeline_equivalence():
    rng = random.Random(8128)
    matrices = []
    for index in range(200):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        if index % 7 == 0:
            # Deliberately rank-deficient: a thin product (entries stay
            # within the +-20 bound since |sum| <= 4 * r <= 16).
            r = rng.randint(1, min(m, n) - 1)
            left = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(m)]
            right = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
            grid = [
                [sum(left[i][t] * right[t][j] for t in range(r))
                 for j in range(n)]
                for i in range(m)
            ]
        else:
            grid = [
                [0 if rng.random() < 0.15 else rng.randint(-20, 20)
                 for _ in range(n)]
                for i in range(m)
            ]
        matrices.append(DenseMatrix(ZZ, grid))

    rectangular = sum(1 for a in matrices if a.nrows != a.ncols)
    assert rectangular >= 10, f"only {rectangular} rectangular matrices"
    start = time.perf_counter()
    singular = 0
    for matrix in matrices:
        result = smith_normal_form(matrix)
        expected = classical_snf(matrix)
        assert result.factors == expected.factors, (
            f"routes disagree on {matrix!r}"
        )
        assert verify(matrix, result), f"verification failed on {matrix!r}"
        if not result.factors[-1]:
            singular += 1
    elapsed = time.perf_counter() - start
    assert singular >= 10, f"only {singular} singular matrices"
    assert elapsed < 30.0, f"corpus took {elapsed:.2f} s"
    return (f"200 matrices ({rectangular} rectangular, {singular} singular) "
            f"in {elapsed:.2f} s")


@criterion(6, "determinantal divisors constant along the golden and corpus "
              "traces and equal to the seed's minor gcds")
def test_criterion_6_divisor_conservation():
    golden = run(GcdTodaState(int_values(2, 6, 9), int_values(4, 3)))
    _, outcomes, _, _ = _integer_lattice_corpus()
    traces = [golden.trace] + [outcome.trace for outcome in outcomes]
    checked_minors = 0
    for trace in traces:
        seed = trace[0]
        frozen = determinantal_divisors(seed)
        for state in trace[1:]:
            assert determinantal_divisors(state) == frozen, (
                f"divisors drifted along the trace of {seed}"
            )
        if seed.n <= 5:
            matrix = bidiagonal_matrix(seed)
            for k in range(1, seed.n + 1):
                assert frozen[k - 1] == minors_gcd(matrix, k), (
                    f"divisor {k} of {seed} differs from the minor gcd"
                )
            checked_minors += 1
    return f"{len(traces)} traces, {checked_minors} seeds checked via minors"


@criterion(7, "500 random min-plus states: step preserves nonnegativity and "
              "conserved quantities, sorting is reached and kept, and the "
              "conserved values match subset enumeration")
def test_criterion_7_min_plus_properties():
    rng = random.Random(496)
    enumerated = 0
    for _ in range(500):
        n = rng.randint(1, 6)
        state = UdTodaState(
            tuple(rng.randint(0, 8) for _ in range(n)),
            tuple(rng.randint(0, 8) for _ in range(n - 1)),
        )
        frozen = conserved_quantities(state)
        word = interleave(state.blocks, state.gaps)
        if n <= 5:
            expected = tuple(
                non_adjacent_min_brute(word, count)
                for count in range(1, n + 1)
            )
            assert frozen == expected, f"conserved of {state} != enumeration"
            enumerated += 1
        cap = state.n * max(1, sum(word))
        steps = 0
        while not is_sorted(state):
            state = ud_step(state)
            steps += 1
            assert all(v >= 0 for v in state.blocks + state.gaps), (
                f"negative entry after step {steps}"
            )
            assert conserved_quantities(state) == frozen, (
                f"conserved drifted after step {steps}"
            )
            assert steps <= cap, f"not sorted within {cap} steps"
        blocks = state.blocks
        for _ in range(3):
            state = ud_step(state)
            assert is_sorted(state) and state.blocks == blocks, (
                "sorted state was not retained"
            )
            assert conserved_quantities(state) == frozen
    return f"500 states, {enumerated} checked against enumeration"


@criterion(8, "200 random prime-power lattice states: valuation lifting "
              "commutes with the lattice step exactly")
def test_criterion_8_exponent_lift_commutes():
    rng = random.Random(6174)
    for index in range(200):
        prime = (2, 3)[index % 2]
        base = ZZ(prime)
        n = rng.randint(2, 6)
        state = GcdTodaState(
            tuple(ZZ(rng.choice((-1, 1)) * prime ** rng.randint(0, 6))
                  for _ in range(n)),
            tuple(ZZ(rng.choice((-1, 1)) * prime ** rng.randint(0, 6))
                  for _ in range(n - 1)),
        )
        lifted_then_stepped = ud_step(exponent_lift(state, base))
        stepped_then_lifted = exponent_lift(gcd_step(state), base)
        assert lifted_then_stepped == stepped_then_lifted, (
            f"lift does not commute on {state} at prime {prime}"
        )
    return "200 states over primes 2 and 3"


@criterion(9, "100 random padded-corner seeds (trailing zero diagonal): the "
              "lattice terminates and matches the classical route")
def test_criterion_9_padded_corner_seeds():
    rng = random.Random(2357)
    for _ in range(100):
        n = rng.randint(2, 6)
        diagonal = [ZZ(rng.choice((-1, 1)) * rng.randint(1, 100))
                    for _ in range(n - 1)] + [ZZ(0)]
        subdiagonal = [ZZ(rng.choice((-1, 1)) * rng.randint(1, 100))
                       for _ in range(n - 1)]
        seed = GcdTodaState(tuple(diagonal), tuple(subdiagonal))
        outcome = run(seed)
        assert not outcome.factors[-1], "trailing factor must stay zero"
        # Within 2 N (max size + 1) steps, the zero counting as size 0;
        # the largest share is 10 of 80 steps.
        size = max(map(ZZ.size, seed.q + seed.e))
        assert outcome.iterations <= 2 * seed.n * (size + 1), seed
        expected = classical_snf(bidiagonal_matrix(seed)).factors
        assert outcome.factors == expected, (
            f"routes disagree on padded seed {seed}"
        )
    return "100 padded seeds"
