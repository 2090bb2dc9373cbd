"""Lattice dynamics over a ring: step, termination, invariants, lifting."""

import operator
import pickle
import random
import sys
import traceback
from collections import Counter
from dataclasses import FrozenInstanceError
from itertools import islice

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
    iterate,
    run,
    terminated,
    ud_step,
)
from todasnf import ud_toda
from todasnf.cli import render_trace_line
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
    # gcd(e_i, a_i) = gcd(0, 0) = 0 is then a divisor of a_{i+1}.  Over ZZ
    # the step divides with //, whose ZeroDivisionError is replaced by the
    # error exact_div raises, its context suppressed as there.
    ring = PolyModP(3)
    for state in (_int_state((0, 3), (0,)), _int_state((2, 0, 5), (2, 0)),
                  GcdTodaState((ring(0), ring([1, 1])), (ring(0),))):
        with pytest.raises(ExactDivisionError) as info:
            gcd_step(state)
        assert str(info.value) == "division by zero"
        assert isinstance(info.value.__context__, ZeroDivisionError)
        assert info.value.__suppress_context__
        assert info.value.__cause__ is None
        shown = "".join(traceback.format_exception(info.value))
        assert "ZeroDivisionError" not in shown


def _checked_chain(state, steps):
    """The states after the seed by toda_step with ZZ.exact_div, which
    raises on any quotient that floor division would round."""
    q, e = tuple(map(abs, state.q)), tuple(map(abs, state.e))
    chain = []
    for _ in range(steps):
        q, e = ud_toda.toda_step(q, e, ZZ.gcd, ZZ.mul, ZZ.exact_div)
        chain.append((q, e))
    return chain


def test_integer_iterate_is_the_checked_generic_step():
    # iterate divides ZZ payloads with //; step for step it yields what the
    # generic step with exact division does, so no quotient was floored.
    rng = random.Random(19)
    seeds = [_smooth_seed(), _int_state(*GOLDEN_TRACE[0])]
    for n in (2, 3, 5, 8, 13, 21):
        for _ in range(4):
            bound = rng.choice((9, 10 ** 6, 10 ** 40))
            diag = [rng.choice((-1, 1)) * rng.randint(1, bound)
                    for _ in range(n)]
            sub = [rng.randint(-bound, bound) for _ in range(n - 1)]
            seeds.append(_int_state(diag, sub))
            sub = [v if rng.random() < 0.5 else 0 for v in sub]
            seeds.append(_int_state(diag, sub))
            seeds.append(_int_state(diag[:-1] + [0], sub))
    for seed in seeds:
        states = islice(iterate(seed), 1, 61)
        assert [(s.q, s.e) for s in states] == _checked_chain(seed, 60)


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


def test_split_seed_rejected():
    # A zero subdiagonal entry decouples the lattice: (6, 35) could never
    # sort, and run would spin to its cap.  Sorted blocks are refused too,
    # while iterate still steps a split seed.
    for q in ((6, 35), (2, 6)):
        with pytest.raises(ValueError, match="splits the lattice"):
            run(_int_state(q, (0,)))
    with pytest.raises(ValueError, match="splits the lattice"):
        run(_int_state((1, 2, 3), (1, 0)))
    split = next(islice(iterate(_int_state((6, 35), (0,))), 1, None))
    assert split.q == (6, 35) and split.e == (0,)


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


def _smooth_seed(n=32):
    """The n = 32 seed of 2^a 3^b 5^c entries used above, or one of n."""
    rng = random.Random(60)

    def smooth():
        return 2 ** rng.randint(0, 6) * 3 ** rng.randint(0, 6) * 5 ** rng.randint(0, 6)

    return _int_state([smooth() for _ in range(n)],
                      [smooth() for _ in range(n - 1)])


def _poly_seed():
    """A 16-level GF(5)[x] seed of products x**i (x + 1)**j, i, j < 4."""
    ring = PolyModP(5)
    x, x1 = ring([0, 1]), ring([1, 1])
    powers = [x ** i * x1 ** j for i in range(4) for j in range(4)]
    rng = random.Random(23)
    return GcdTodaState([rng.choice(powers) for _ in range(16)],
                        [rng.choice(powers) for _ in range(15)])


def _lattice_seeds():
    """(seed, stride) pairs: the seeds above, the n = 64 smooth one and
    the n = 32 one with a zero last diagonal entry; the stride says how
    many of its capped runs a test can afford, every one or every 7th."""
    smooth = _smooth_seed()
    zero_last = GcdTodaState.from_payloads(ZZ, smooth.q[:-1] + (0,), smooth.e)
    return ((smooth, 1), (_poly_seed(), 1), (_smooth_seed(64), 7),
            (zero_last, 7))


def _memo_free_states(seed):
    """The states after the seed, as (q, e) payloads, by toda_step without
    a memo; exact division raises on a zero gcd as iterate does."""
    ring = seed.ring
    q, e = map(ring.canonical, seed.q), map(ring.canonical, seed.e)
    q, e = tuple(q), tuple(e)
    while True:
        q, e = ud_toda.toda_step(q, e, ring.gcd, ring.mul, ring.exact_div)
        yield q, e


def test_the_memo_of_iterate_changes_no_state(monkeypatch):
    # iterate steps one stepper, whose divisibility memo lasts the whole
    # evolution.  Chained memo-free toda_step calls must give every state
    # through run's final one, and split seeds must raise alike; so must
    # ud_step against one min-plus stepper, paid after each step.  A
    # full step costs two products and two gcds (the step's and its
    # flag's).  A settled entry costs at most its memo test, and none
    # from its second lagging step on; its rescaling waits for one
    # product by a power.  So fewer than one product and 0.9 gcds per
    # entry and step show that the memo arm defers its product and does
    # not repeat a test it passed.
    calls, counters = Counter(), {}
    for name in ("mul", "gcd"):
        def counting(a, b, name=name, original=getattr(ZZ, name)):
            calls[name] += 1
            return original(a, b)

        counters[name] = staticmethod(counting)

    for seed, _ in _lattice_seeds():
        calls.clear()
        for name, counting in counters.items():
            monkeypatch.setattr(type(ZZ), name, counting)
        outcome = run(seed)
        monkeypatch.undo()
        steps = islice(iterate(seed), 1, outcome.iterations + 1)
        for state, (q, e) in zip(steps, _memo_free_states(seed)):
            assert (state.q, state.e) == (q, e)
        assert state == outcome.final
        if seed.ring is ZZ:
            entry_steps = outcome.iterations * (seed.n - 1)
            assert calls["mul"] < 1.0 * entry_steps
            assert calls["gcd"] < 0.9 * entry_steps

    for seed in (_int_state((2, 0, 5), (2, 0)), _int_state((0, 3), (0,))):
        memo = islice(iterate(seed), 1, None)
        for states in (memo, _memo_free_states(seed)):
            with pytest.raises(ExactDivisionError, match="division by zero"):
                next(states)

    rng = random.Random(24)
    for _ in range(40):
        n = rng.randint(2, 12)
        state = UdTodaState([rng.randint(0, 9) for _ in range(n)],
                            [rng.randint(0, 9) for _ in range(n - 1)])
        differences = 0

        def sub(a, b):
            nonlocal differences
            differences += 1
            return a - b

        lattice = ud_toda._Stepper(state.blocks, state.gaps, min,
                                   operator.add, sub)
        for _ in range(60):
            lattice.step()
            q, e = lattice.pay()
            state = ud_step(state)
            assert (q, e) == (state.blocks, state.gaps)
        assert differences < 2 * 60 * (n - 1)


def test_the_poly_memo_tests_divisibility_by_remainder(monkeypatch):
    # Over GF(p)[x] a gcd is a Euclidean loop, so the memo's test "q_i
    # divides q_{i+1}" goes through ring.divides, one remainder.  Every
    # ring.gcd call of the evolution is then a full step's g = gcd(e_i,
    # a_i), and the step's next two calls divide e_i and a_i by g; a
    # memo test through ring.gcd is followed by no such pair.  There are
    # fewer such gcds than entries and steps once the memo skips some.
    seed = _poly_seed()
    calls = []
    for name in ("gcd", "exact_div", "divides"):
        def logging(ring, a, b, name=name, original=getattr(PolyModP, name)):
            out = original(ring, a, b)
            calls.append((name, a, b, out))
            return out

        monkeypatch.setattr(PolyModP, name, logging)
    outcome = run(seed)
    monkeypatch.undo()
    gcds = [k for k, call in enumerate(calls) if call[0] == "gcd"]
    for k in gcds:
        _, e, a, g = calls[k]
        divisions = [call[:3] for call in calls[k + 1:k + 3]]
        assert divisions == [("exact_div", e, g), ("exact_div", a, g)]
    assert 0 < len(gcds) < outcome.iterations * (seed.n - 1)


def test_iterate_wraps_nothing_until_a_diagonal_is_read(monkeypatch):
    # States hold payloads; wrapping every stepped state would build
    # (2n - 1) * 40 RingValues for 40 steps.
    seed = _smooth_seed()
    count = 0
    original = RingValue.__init__

    def counting(self, ring, payload):
        nonlocal count
        count += 1
        original(self, ring, payload)

    monkeypatch.setattr(RingValue, "__init__", counting)
    states = list(islice(iterate(seed), 41))
    assert count == 0
    assert all(not v.is_zero() for v in states[-1].diagonal)
    assert count == seed.n


def test_trace_lines_render_payloads(monkeypatch):
    # A line renders the stored payloads; wrapping each entry only to
    # call str on it would build 2n - 1 = 63 RingValues per line.
    states = list(islice(iterate(_smooth_seed()), 41))
    count = 0
    original = RingValue.__init__

    def counting(self, ring, payload):
        nonlocal count
        count += 1
        original(self, ring, payload)

    monkeypatch.setattr(RingValue, "__init__", counting)
    lines = [render_trace_line(state) for state in states]
    assert count == 0
    monkeypatch.undo()
    for state, line in zip(states, lines):
        q = " ".join(str(v) for v in state.diagonal)
        e = " ".join(str(v) for v in state.subdiagonal)
        assert line == f"q: {q} | e: {e}"


def test_state_is_a_frozen_picklable_payload_record():
    ring = PolyModP(5)
    x, x1 = ring([0, 1]), ring([1, 1])
    poly = gcd_step(GcdTodaState((x * x1, x, x1 * x1, x), (x1, x * x, x1)))
    for state in (poly, gcd_step(_smooth_seed())):
        assert state.q == tuple(v.payload for v in state.diagonal)
        assert state.e == tuple(v.payload for v in state.subdiagonal)
        twin = GcdTodaState.from_payloads(state.ring, state.q, state.e)
        assert twin == state and hash(twin) == hash(state)
        assert twin == GcdTodaState(state.diagonal, state.subdiagonal)
        assert GcdTodaState.from_payloads(state.ring, state.q[::-1],
                                          state.e) != state
        restored = pickle.loads(pickle.dumps(state))
        assert restored == state and restored.ring is state.ring
        with pytest.raises(FrozenInstanceError):
            state.q = ()
        assert state.q == twin.q
    outcome = run(poly)
    restored = pickle.loads(pickle.dumps(outcome))
    assert restored == outcome and restored.trace == outcome.trace


def test_iteration_limit_error_survives_pickling():
    seed = _int_state(*GOLDEN_TRACE[0])
    with pytest.raises(IterationLimitError) as info:
        run(seed, max_iters=2)
    restored = pickle.loads(pickle.dumps(info.value))
    assert isinstance(restored, IterationLimitError)
    assert restored.limit == 2
    assert str(restored) == str(info.value)
    assert restored.trace == info.value.trace


def test_run_enters_no_generator_of_the_lattice_kernels():
    # The step and the sortedness test run on every lattice step, each as
    # a single pass: no generator frame of ud_toda.py is entered.
    entered = []

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_name == "<genexpr>"
                and code.co_filename == ud_toda.__file__):
            entered.append(code.co_firstlineno)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        outcome = run(_smooth_seed())
    finally:
        sys.setprofile(previous)
    assert outcome.iterations > 1
    assert entered == []


def test_a_capped_run_ends_on_the_last_state_of_its_trace():
    # run pays the frozen suffix's lag only at the end or at the cap, and
    # the error's trace is replayed by iterate, which pays at every step.
    # Each capped trace is a prefix of the full run's, replayed once here.
    for seed, stride in _lattice_seeds():
        outcome = run(seed)
        trace = outcome.trace
        for cap in range(1, outcome.iterations, stride):
            with pytest.raises(IterationLimitError) as info:
                run(seed, max_iters=cap)
            assert info.value.capped.final == trace[cap]
            if cap % 8 == 1:
                assert info.value.trace == trace[:cap + 1]
        assert outcome.final == trace[-1]
        assert run(seed, max_iters=outcome.iterations) == outcome


def _small_seeds():
    """60 random ZZ seeds of 2 to 12 blocks, entries 1 to 30."""
    rng = random.Random(27)
    sizes = [rng.randint(2, 12) for _ in range(60)]
    return [_int_state([rng.randint(1, 30) for _ in range(n)],
                       [rng.randint(1, 30) for _ in range(n - 1)])
            for n in sizes]


def test_a_capped_run_pays_every_lag_at_every_cap():
    # run defers each memo-arm entry's rescaling until the entry next
    # takes the full step, the q_{i+1} it owes changes, or the run ends
    # or hits its cap.  Small seeds break and re-freeze their suffix
    # often; every capped state must be the memo-free chain's, which
    # takes no lagging path of the stepper.
    for seed in _small_seeds() + [_poly_seed()]:
        outcome = run(seed)
        states = list(islice(_memo_free_states(seed), outcome.iterations))
        for cap in range(1, outcome.iterations):
            with pytest.raises(IterationLimitError) as info:
                run(seed, max_iters=cap)
            capped = info.value.capped.final
            assert (capped.q, capped.e) == states[cap - 1]
        assert (outcome.final.q, outcome.final.e) == states[-1]


def test_run_stops_on_the_first_terminated_state_of_iterate():
    # run skips "q_i divides e_i" wherever the memo knows it and so never
    # reads a lagging e_i; it must stop at the first terminated state.
    # Small random seeds often reach a dividing diagonal whose e_i are not
    # all divided yet, and some end on a step that stopped at the frozen
    # suffix, whose lag run must pay; the seeds above do neither.
    rng = random.Random(26)
    seeds = [seed for seed, _ in _lattice_seeds()]
    for _ in range(60):
        n = rng.randint(2, 6)
        seeds.append(_int_state([rng.randint(1, 30) for _ in range(n)],
                                [rng.randint(1, 30) for _ in range(n - 1)]))
    for seed in seeds:
        outcome = run(seed)
        states = list(islice(iterate(seed), 1, outcome.iterations + 1))
        assert not any(map(terminated, states[:-1]))
        assert terminated(states[-1])
        assert outcome.final == states[-1]
