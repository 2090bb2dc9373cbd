"""Lattice dynamics over a ring: step, termination, invariants, lifting."""

import random

import pytest

from conftest import (
    bidiagonal_matrix,
    int_values,
    minors_gcd_int_brute,
    non_adjacent_gcd_brute,
)
from todasnf import (
    ExactDivisionError,
    GcdTodaState,
    IterationLimitError,
    PolyModP,
    RingValue,
    UdTodaState,
    ZZ,
    canonical,
    conserved_quantities,
    default_max_iters,
    determinantal_divisors,
    divides,
    exponent_lift,
    gcd_step,
    run,
    terminated,
    ud_step,
)
from todasnf.gcd_toda import interleaved

# Frozen evolution of the integer seed q=(2,6,9), e=(4,3): four steps to
# termination, diagonal sorted into (1, 6, 18).
GOLDEN_TRACE = [
    ((2, 6, 9), (4, 3)),
    ((2, 3, 18), (12, 9)),
    ((2, 3, 18), (18, 54)),
    ((2, 3, 18), (27, 324)),
    ((1, 6, 18), (81, 972)),
]


def _int_state(diag, sub) -> GcdTodaState:
    return GcdTodaState(int_values(*diag), int_values(*sub))


def test_state_validation():
    with pytest.raises(ValueError):
        GcdTodaState((), ())
    with pytest.raises(ValueError):
        GcdTodaState(int_values(1, 2), ())
    with pytest.raises(TypeError):
        GcdTodaState((1, 2), (3,))
    with pytest.raises(ValueError):
        GcdTodaState((ZZ(1), PolyModP(3)(1)), (ZZ(2),))


def test_golden_trace_and_termination():
    outcome = run(_int_state(*GOLDEN_TRACE[0]))
    assert len(outcome.trace) == len(GOLDEN_TRACE)
    for state, (diag, sub) in zip(outcome.trace, GOLDEN_TRACE):
        assert state.diagonal == int_values(*diag)
        assert state.subdiagonal == int_values(*sub)
    assert outcome.iterations == 4
    assert outcome.factors == int_values(1, 6, 18)
    assert not terminated(outcome.trace[-2])
    assert terminated(outcome.trace[-1])


def test_run_always_takes_one_step():
    outcome = run(_int_state((1, 1, 1), (1, 1)))
    assert outcome.iterations == 1
    assert outcome.factors == int_values(1, 1, 1)


def test_run_canonicalizes_single_entry():
    outcome = run(_int_state((-5,), ()))
    assert outcome.factors == int_values(5)
    assert outcome.iterations == 1


def test_step_outputs_are_canonical():
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randint(2, 5)
        state = _int_state(
            [rng.choice([-1, 1]) * rng.randint(1, 50) for _ in range(n)],
            [rng.choice([-1, 1]) * rng.randint(1, 50) for _ in range(n - 1)],
        )
        nxt = gcd_step(state)
        for v in nxt.diagonal + nxt.subdiagonal:
            assert v == canonical(v), f"non-canonical entry {v} from {state}"


def test_step_division_by_zero_is_exact_division_error():
    # gcd(e_0, a_0) = gcd(0, 0) = 0 is then a divisor of a_1.
    with pytest.raises(ExactDivisionError):
        gcd_step(_int_state((0, 3), (0,)))
    ring = PolyModP(3)
    with pytest.raises(ExactDivisionError):
        gcd_step(GcdTodaState((ring(0), ring([1, 1])), (ring(0),)))


def test_iteration_cap_raises_with_trace():
    seed = _int_state(*GOLDEN_TRACE[0])
    with pytest.raises(IterationLimitError) as info:
        run(seed, max_iters=2)
    assert info.value.limit == 2
    assert len(info.value.trace) == 3
    assert info.value.trace[0] == seed
    with pytest.raises(ValueError):
        run(seed, max_iters=0)


def test_interior_zero_rejected():
    with pytest.raises(ValueError):
        run(_int_state((0, 3), (2,)))
    run(_int_state((3, 0), (2,)))


def test_default_cap_formula():
    assert default_max_iters(_int_state((1,), ())) == 64
    big = _int_state((2**40, 2**40), (2**40,))
    assert default_max_iters(big) == 2 * (3 * 41)


def test_divisors_golden():
    assert determinantal_divisors(_int_state(*GOLDEN_TRACE[0])) == int_values(
        1, 6, 108
    )


def test_divisors_match_subset_enumeration():
    rng = random.Random(22)
    for _ in range(150):
        n = rng.randint(1, 5)
        state = _int_state(
            [rng.randint(-40, 40) for _ in range(n)],
            [rng.randint(-40, 40) for _ in range(n - 1)],
        )
        word = [v.payload for v in interleaved(state)]
        expected = int_values(
            *(non_adjacent_gcd_brute(word, count) for count in range(1, n + 1))
        )
        assert determinantal_divisors(state) == expected


def test_divisors_equal_minor_gcds_of_bidiagonal():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 4)
        state = _int_state(
            [rng.randint(-15, 15) for _ in range(n)],
            [rng.randint(-15, 15) for _ in range(n - 1)],
        )
        grid = [
            [v.payload for v in bidiagonal_matrix(state).row(i)]
            for i in range(n)
        ]
        expected = int_values(
            *(minors_gcd_int_brute(grid, k) for k in range(1, n + 1))
        )
        assert determinantal_divisors(state) == expected


def test_divisors_invariant_under_step():
    rng = random.Random(24)
    for _ in range(100):
        n = rng.randint(2, 5)
        state = _int_state(
            [rng.randint(1, 80) for _ in range(n)],
            [rng.randint(1, 80) for _ in range(n - 1)],
        )
        frozen = determinantal_divisors(state)
        for _ in range(4):
            state = gcd_step(state)
            assert determinantal_divisors(state) == frozen


def test_poly_run_terminates_sorted():
    ring = PolyModP(2)
    x = ring([0, 1])
    x1 = ring([1, 1])
    state = GcdTodaState((x * x1, x, x1), (x1, x * x))
    outcome = run(state)
    for a, b in zip(outcome.factors, outcome.factors[1:]):
        assert divides(a, b), f"chain broken: {a} does not divide {b}"
    for v in outcome.factors:
        assert v == canonical(v)
    assert determinantal_divisors(outcome.final) == determinantal_divisors(
        state
    )


def test_exponent_lift_valuations():
    state = _int_state((4, 8, 2), (1, 16))
    lifted = exponent_lift(state, ZZ(2))
    assert lifted == UdTodaState((2, 3, 1), (0, 4))
    signed = _int_state((-4, 8, -2), (1, 16))
    assert exponent_lift(signed, ZZ(2)) == lifted


def test_exponent_lift_errors():
    state = _int_state((4, 6), (2,))
    with pytest.raises(ValueError):
        exponent_lift(state, ZZ(2))
    with pytest.raises(ValueError):
        exponent_lift(_int_state((4, 0), (2,)), ZZ(2))
    with pytest.raises(ValueError):
        exponent_lift(_int_state((4, 8), (2,)), ZZ(1))
    with pytest.raises(ValueError):
        exponent_lift(_int_state((4, 8), (2,)), ZZ(0))


def test_lift_commutes_with_step():
    rng = random.Random(25)
    for prime in (2, 3):
        base = ZZ(prime)
        for _ in range(60):
            n = rng.randint(2, 5)
            state = _int_state(
                [
                    rng.choice([-1, 1]) * prime ** rng.randint(0, 5)
                    for _ in range(n)
                ],
                [prime ** rng.randint(0, 5) for _ in range(n - 1)],
            )
            lifted_then_stepped = ud_step(exponent_lift(state, base))
            stepped_then_lifted = exponent_lift(gcd_step(state), base)
            assert lifted_then_stepped == stepped_then_lifted


def test_poly_exponent_lift():
    ring = PolyModP(3)
    x = ring([0, 1])
    state = GcdTodaState(
        (x ** 2, ring([2]) * x, ring(1)), (x ** 3, x)
    )
    assert exponent_lift(state, x) == UdTodaState((2, 1, 0), (3, 1))


def _int_valuation(value: int, prime: int) -> int:
    k = 0
    while value % prime == 0:
        value //= prime
        k += 1
    assert value == 1, f"not a power of {prime}"
    return k


def _x_valuation(payload: tuple[int, ...]) -> int:
    k = len(payload) - 1
    assert payload == (0,) * k + (1,), f"{payload} is not a power of x"
    return k


def test_divisors_lift_to_conserved_quantities():
    rng = random.Random(26)
    for prime in (2, 3, 5):
        for _ in range(40):
            n = rng.randint(1, 6)
            state = _int_state(
                [
                    rng.choice([-1, 1]) * prime ** rng.randint(0, 6)
                    for _ in range(n)
                ],
                [
                    rng.choice([-1, 1]) * prime ** rng.randint(0, 6)
                    for _ in range(n - 1)
                ],
            )
            valuations = tuple(
                _int_valuation(d.payload, prime)
                for d in determinantal_divisors(state)
            )
            lifted = exponent_lift(state, ZZ(prime))
            assert valuations == conserved_quantities(lifted)
    for p in (2, 3, 7):
        ring = PolyModP(p)
        x = ring([0, 1])

        def entry():
            return ring(rng.randrange(1, p)) * x ** rng.randint(0, 5)

        for _ in range(40):
            n = rng.randint(1, 6)
            state = GcdTodaState(
                [entry() for _ in range(n)], [entry() for _ in range(n - 1)]
            )
            valuations = tuple(
                _x_valuation(d.payload) for d in determinantal_divisors(state)
            )
            assert valuations == conserved_quantities(exponent_lift(state, x))


def _gcd_step_chain(seed, steps):
    chain = [seed]
    for _ in range(steps):
        chain.append(gcd_step(chain[-1]))
    return tuple(chain)


def test_run_wraps_only_the_final_state_and_replays_its_trace():
    # run steps on payloads; wrapping every visited state would build
    # 2n - 1 RingValues per step, far above 4n over 40 steps.
    rng = random.Random(60)

    def smooth():
        return 2 ** rng.randint(0, 6) * 3 ** rng.randint(0, 6) * 5 ** rng.randint(0, 6)

    n = 32
    seed = _int_state([smooth() for _ in range(n)],
                      [smooth() for _ in range(n - 1)])
    count = 0
    original = RingValue.__init__

    def counting(self, ring, payload):
        nonlocal count
        count += 1
        original(self, ring, payload)

    RingValue.__init__ = counting
    try:
        outcome = run(seed)
    finally:
        RingValue.__init__ = original
    assert outcome.iterations >= 40
    assert count <= 4 * n

    ring = PolyModP(5)
    x = ring([0, 1])
    x1 = ring([1, 1])
    poly_seed = GcdTodaState((x * x1, x, x1 * x1, x), (x1, x * x, x1))
    for state in (seed, poly_seed, _int_state(*GOLDEN_TRACE[0])):
        outcome = run(state)
        assert outcome.trace == _gcd_step_chain(state, outcome.iterations)
        assert outcome.trace[-1] == outcome.final
        cap = max(1, outcome.iterations // 2)
        with pytest.raises(IterationLimitError) as info:
            run(state, max_iters=cap)
        assert info.value.trace == _gcd_step_chain(state, cap)
