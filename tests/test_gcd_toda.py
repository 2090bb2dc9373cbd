"""Lattice dynamics over a ring: step, termination, invariants, lifting."""

import importlib
import operator
import pickle
import random
import sys
import traceback
from dataclasses import FrozenInstanceError
from itertools import islice
from pathlib import Path

import pytest

from conftest import (
    bidiagonal_matrix,
    call_counter,
    int_state,
    int_values,
    minors_gcd_int_brute,
    non_adjacent_gcd_brute,
    poly_seed,
    slow_sorting_state,
    small_seeds,
    smooth_seed,
)
from todasnf import (
    DenseMatrix,
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
    smith_normal_form,
    terminated,
    ud_step,
)
from todasnf import gcd_toda, ud_toda
from todasnf.cli import render_trace_line

# Frozen evolution of the integer seed q=(2,6,9), e=(4,3): four steps to
# termination, diagonal sorted into (1, 6, 18).
GOLDEN_TRACE = [
    ((2, 6, 9), (4, 3)),
    ((2, 3, 18), (12, 9)),
    ((2, 3, 18), (18, 54)),
    ((2, 3, 18), (27, 324)),
    ((1, 6, 18), (81, 972)),
]


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
    outcome = run(int_state(*GOLDEN_TRACE[0]))
    assert len(outcome.trace) == len(GOLDEN_TRACE)
    for state, (diag, sub) in zip(outcome.trace, GOLDEN_TRACE):
        assert state.diagonal == int_values(*diag)
        assert state.subdiagonal == int_values(*sub)
    assert outcome.iterations == 4
    assert outcome.factors == int_values(1, 6, 18)
    assert not terminated(outcome.trace[-2])
    assert terminated(outcome.trace[-1])


def test_run_always_takes_one_step():
    outcome = run(int_state((1, 1, 1), (1, 1)))
    assert outcome.iterations == 1
    assert outcome.factors == int_values(1, 1, 1)


def test_run_canonicalizes_single_entry():
    outcome = run(int_state((-5,), ()))
    assert outcome.factors == int_values(5)
    assert outcome.iterations == 1


def test_step_outputs_are_canonical():
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randint(2, 5)
        state = int_state(
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
    for state in (int_state((0, 3), (0,)), int_state((2, 0, 5), (2, 0)),
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
    seeds = [smooth_seed(), int_state(*GOLDEN_TRACE[0])]
    for n in (2, 3, 5, 8, 13, 21):
        for _ in range(4):
            bound = rng.choice((9, 10 ** 6, 10 ** 40))
            diag = [rng.choice((-1, 1)) * rng.randint(1, bound)
                    for _ in range(n)]
            sub = [rng.randint(-bound, bound) for _ in range(n - 1)]
            seeds.append(int_state(diag, sub))
            sub = [v if rng.random() < 0.5 else 0 for v in sub]
            seeds.append(int_state(diag, sub))
            seeds.append(int_state(diag[:-1] + [0], sub))
    for seed in seeds:
        states = islice(iterate(seed), 1, 61)
        assert [(s.q, s.e) for s in states] == _checked_chain(seed, 60)


def test_iteration_cap_raises_with_trace():
    seed = int_state(*GOLDEN_TRACE[0])
    with pytest.raises(IterationLimitError) as info:
        run(seed, max_iters=2)
    assert info.value.capped.iterations == 2
    assert len(info.value.trace) == 3
    assert info.value.trace[0] == seed
    with pytest.raises(ValueError):
        run(seed, max_iters=0)


def test_interior_zero_rejected():
    with pytest.raises(ValueError):
        run(int_state((0, 3), (2,)))
    run(int_state((3, 0), (2,)))


def test_split_seed_rejected():
    # A zero subdiagonal entry decouples the lattice: (6, 35) could never
    # sort, and run would spin to its cap.  Sorted blocks are refused too,
    # while iterate still steps a split seed.
    for q in ((6, 35), (2, 6)):
        with pytest.raises(ValueError, match="splits the lattice"):
            run(int_state(q, (0,)))
    with pytest.raises(ValueError, match="splits the lattice"):
        run(int_state((1, 2, 3), (1, 0)))
    split = next(islice(iterate(int_state((6, 35), (0,))), 1, None))
    assert split.q == (6, 35) and split.e == (0,)


def test_default_cap_formula():
    assert default_max_iters(int_state((1,), ())) == 64
    big = int_state((2**40, 2**40), (2**40,))
    assert default_max_iters(big) == 2 * (3 * 41)


def test_run_steps_stay_within_2n_times_the_largest_size_plus_1(monkeypatch):
    # The powers-of-2 seeds of min-plus states take the min-plus step
    # counts: the 7-level one takes 71 steps, one above n (max size + 1)
    # = 70 and well inside today's default cap of 588.  Every other run
    # stays within twice that measure, where size(0) = 0 in both rings
    # (the bit length of 0, the degree given to the zero polynomial), so
    # a zero entry, such as a corner seed's last diagonal entry, adds
    # nothing.  Largest shares: 0.214 on the fixture seeds, 0.30 on 2000
    # corner seeds (n <= 12, 3-smooth entries, a zero last diagonal
    # entry), and 0.125 (12 of 96 steps, poly_gfp seed 61's
    # gf2.bidiag8.2) on the 364 runs smith_normal_form makes on the
    # benchmark's dense_zz, lattice_smooth and poly_gfp corpora of seeds
    # 11-13 and 61.
    def powers_of_2(state):
        return int_state([2 ** b for b in state.blocks],
                         [2 ** g for g in state.gaps])

    assert run(powers_of_2(slow_sorting_state(4, 8))).iterations == 53
    seed = powers_of_2(UdTodaState((1, 8, 7, 8, 7, 5, 0),
                                   (8, 5, 4, 5, 6, 7)))
    measure = seed.n * (max(map(ZZ.size, seed.q + seed.e)) + 1)
    assert run(seed).iterations == 71 == measure + 1
    assert default_max_iters(seed) == 588
    seeds = small_seeds() + [smooth_seed(32), smooth_seed(64), poly_seed()]
    rng = random.Random(5)
    entries = (1, 2, 3, 4, 6, 8, 9, 12, 16, 27)
    for _ in range(2000):
        n = rng.randint(2, 12)
        seeds.append(GcdTodaState.from_payloads(
            ZZ, tuple(rng.choice(entries) for _ in range(n - 1)) + (0,),
            tuple(rng.choice(entries) for _ in range(n - 1))))
    runs = [run(seed) for seed in seeds]
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(Path(__file__).resolve().parent.parent
                                / "perfbench")
    corpus = importlib.import_module("corpus")
    for workload in (corpus.dense_zz, corpus.lattice_smooth, corpus.poly_gfp):
        for corpus_seed in (11, 12, 13, 61):
            for raw in workload(corpus_seed):
                ring = ZZ if raw.p is None else PolyModP(raw.p)
                matrix = DenseMatrix(ring, raw.rows)
                runs.append(smith_normal_form(matrix).lattice)
    runs = [outcome for outcome in runs if outcome is not None]
    assert len(runs) == len(seeds) + 364
    for outcome in runs:
        seed = outcome.seed
        size = max(map(seed.ring.size, seed.q + seed.e))
        assert outcome.iterations <= 2 * seed.n * (size + 1), seed


def test_divisors_golden():
    assert determinantal_divisors(int_state(*GOLDEN_TRACE[0])) == int_values(
        1, 6, 108
    )


def test_divisors_match_subset_enumeration():
    rng = random.Random(22)
    for _ in range(150):
        n = rng.randint(1, 5)
        state = int_state(
            [rng.randint(-40, 40) for _ in range(n)],
            [rng.randint(-40, 40) for _ in range(n - 1)],
        )
        word = ud_toda.interleave(state.q, state.e)
        expected = int_values(
            *(non_adjacent_gcd_brute(word, count) for count in range(1, n + 1))
        )
        assert determinantal_divisors(state) == expected


def test_divisors_equal_minor_gcds_of_bidiagonal():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 4)
        state = int_state(
            [rng.randint(-15, 15) for _ in range(n)],
            [rng.randint(-15, 15) for _ in range(n - 1)],
        )
        grid = bidiagonal_matrix(state).payload_grid()
        expected = int_values(
            *(minors_gcd_int_brute(grid, k) for k in range(1, n + 1))
        )
        assert determinantal_divisors(state) == expected


def test_divisors_invariant_under_step():
    rng = random.Random(24)
    for _ in range(100):
        n = rng.randint(2, 5)
        state = int_state(
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
    state = int_state((4, 8, 2), (1, 16))
    lifted = exponent_lift(state, ZZ(2))
    assert lifted == UdTodaState((2, 3, 1), (0, 4))
    signed = int_state((-4, 8, -2), (1, 16))
    assert exponent_lift(signed, ZZ(2)) == lifted


def test_exponent_lift_errors():
    state = int_state((4, 6), (2,))
    with pytest.raises(ValueError):
        exponent_lift(state, ZZ(2))
    with pytest.raises(ValueError):
        exponent_lift(int_state((4, 0), (2,)), ZZ(2))
    with pytest.raises(ValueError):
        exponent_lift(int_state((4, 8), (2,)), ZZ(1))
    with pytest.raises(ValueError):
        exponent_lift(int_state((4, 8), (2,)), ZZ(0))


def test_lift_commutes_with_step():
    rng = random.Random(25)
    for prime in (2, 3):
        base = ZZ(prime)
        for _ in range(60):
            n = rng.randint(2, 5)
            state = int_state(
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
            state = int_state(
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


def test_run_wraps_only_the_final_state_and_replays_its_trace(monkeypatch):
    # run steps on payloads; wrapping every visited state would build
    # 2n - 1 RingValues per step, far above 4n over 40 steps.
    n = 32
    seed = smooth_seed(n)
    wraps = call_counter(monkeypatch, RingValue, ("__init__",))
    outcome = run(seed)
    monkeypatch.undo()
    assert outcome.iterations >= 40
    assert wraps["__init__"] <= 4 * n

    ring = PolyModP(5)
    x = ring([0, 1])
    x1 = ring([1, 1])
    poly = GcdTodaState((x * x1, x, x1 * x1, x), (x1, x * x, x1))
    for state in (seed, poly, int_state(*GOLDEN_TRACE[0])):
        outcome = run(state)
        assert outcome.trace == _gcd_step_chain(state, outcome.iterations)
        assert outcome.trace[-1] == outcome.final
        cap = max(1, outcome.iterations // 2)
        with pytest.raises(IterationLimitError) as info:
            run(state, max_iters=cap)
        assert info.value.trace == _gcd_step_chain(state, cap)


def _lattice_seeds():
    """(seed, stride) pairs: the seeds above, the n = 64 smooth one and
    the n = 32 one with a zero last diagonal entry; the stride says how
    many of its capped runs a test can afford, every one or every 7th."""
    smooth = smooth_seed()
    zero_last = GcdTodaState.from_payloads(ZZ, smooth.q[:-1] + (0,), smooth.e)
    return ((smooth, 1), (poly_seed(), 1), (smooth_seed(64), 7),
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
    # evolution, and pays every lag before each state, which sets no
    # flag.  Chained memo-free toda_step calls must give every state
    # through run's final one, and split seeds must raise alike; so must
    # ud_step against one min-plus stepper, paid after each step.  So a
    # flag left proved once q_i or q_{i+1} changed would show here.  A
    # full step costs two products and two gcds (the step's and its
    # flag's).  A settled entry costs at most its stale flag's one test;
    # its rescaling waits for one product by a power.  So fewer than one
    # product and 0.9 gcds per entry and step of run show that the memo
    # arm defers its product and does not repeat a test it passed.
    for seed, _ in _lattice_seeds():
        calls = call_counter(monkeypatch, ZZ, ("mul", "gcd"))
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

    for seed in (int_state((2, 0, 5), (2, 0)), int_state((0, 3), (0,))):
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
    seed = poly_seed()
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
    seed = smooth_seed()
    wraps = call_counter(monkeypatch, RingValue, ("__init__",))
    states = list(islice(iterate(seed), 41))
    assert wraps["__init__"] == 0
    assert all(states[-1].diagonal)
    assert wraps["__init__"] == seed.n


def test_trace_lines_render_payloads(monkeypatch):
    # A line renders the stored payloads; wrapping each entry only to
    # call str on it would build 2n - 1 = 63 RingValues per line.
    states = list(islice(iterate(smooth_seed()), 41))
    wraps = call_counter(monkeypatch, RingValue, ("__init__",))
    lines = [render_trace_line(state) for state in states]
    assert wraps["__init__"] == 0
    monkeypatch.undo()
    for state, line in zip(states, lines):
        q = " ".join(str(v) for v in state.diagonal)
        e = " ".join(str(v) for v in state.subdiagonal)
        assert line == f"q: {q} | e: {e}"


def test_state_is_a_frozen_picklable_payload_record():
    ring = PolyModP(5)
    x, x1 = ring([0, 1]), ring([1, 1])
    poly = gcd_step(GcdTodaState((x * x1, x, x1 * x1, x), (x1, x * x, x1)))
    for state in (poly, gcd_step(smooth_seed())):
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
    seed = int_state(*GOLDEN_TRACE[0])
    with pytest.raises(IterationLimitError) as info:
        run(seed, max_iters=2)
    restored = pickle.loads(pickle.dumps(info.value))
    assert isinstance(restored, IterationLimitError)
    assert restored.capped.iterations == 2
    assert str(restored) == str(info.value)
    assert restored.trace == info.value.trace


def test_run_enters_no_generator_of_the_lattice_kernels():
    # The step, the witness and the sortedness test run on every lattice
    # step, each as a single pass: no generator expression of ud_toda.py
    # or gcd_toda.py is entered.
    entered = []
    files = (ud_toda.__file__, gcd_toda.__file__)

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_name == "<genexpr>"
                and code.co_filename in files):
            entered.append((code.co_filename, code.co_firstlineno))

    seed = smooth_seed()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        outcome = run(seed)
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


def test_a_capped_run_pays_every_lag_at_every_cap():
    # run defers each memo-arm entry's rescaling until the entry next
    # takes the full step, the q_{i+1} it owes changes, or the run ends
    # or hits its cap.  Small seeds break and re-freeze their suffix
    # often; every capped state must be the memo-free chain's, which
    # takes no lagging path of the stepper.
    for seed in small_seeds() + [poly_seed()]:
        outcome = run(seed)
        states = list(islice(_memo_free_states(seed), outcome.iterations))
        for cap in range(1, outcome.iterations):
            with pytest.raises(IterationLimitError) as info:
                run(seed, max_iters=cap)
            capped = info.value.capped.final
            assert (capped.q, capped.e) == states[cap - 1]
        assert (outcome.final.q, outcome.final.e) == states[-1]


def _first_unsorted(state):
    """The first i where q_i does not divide q_{i+1}, or None."""
    pairs = zip(state.q, state.q[1:])
    return next((i for i, (a, b) in enumerate(pairs)
                 if not state.ring.divides(a, b)), None)


def test_run_stops_on_the_first_terminated_state_of_iterate():
    # run skips "q_i divides e_i" wherever the memo knows it and so never
    # reads a lagging e_i; it must stop at the first terminated state.
    # Small random seeds often reach a dividing diagonal whose e_i are not
    # all divided yet, and some end on a step that stopped at the frozen
    # suffix, whose lag run must pay; the seeds above do neither.  run
    # also skips the full test while the first pair that failed it last
    # time still fails: in some ZZ seeds an earlier pair fails later, so
    # that witness is stale, and it must still stop nowhere but here.
    # GF(2)[x] and GF(5)[x] seeds take the ring's own divides, and one-
    # and two-level seeds have no pair or a single one to witness.
    rng = random.Random(26)
    seeds = [seed for seed, _ in _lattice_seeds()]
    for _ in range(60):
        n = rng.randint(2, 6)
        seeds.append(int_state([rng.randint(1, 30) for _ in range(n)],
                               [rng.randint(1, 30) for _ in range(n - 1)]))
    for _ in range(12):
        n = rng.choice((1, 2))
        seeds.append(int_state([rng.randint(1, 30) for _ in range(n)],
                               [rng.randint(1, 30) for _ in range(n - 1)]))
    for p in (2, 5):
        ring = PolyModP(p)

        def poly():
            coeffs = [rng.randrange(p) for _ in range(rng.randint(0, 2))]
            return ring(coeffs + [rng.randrange(1, p)])

        for n in (1, 2, 2, 3, 5, 6, 8):
            seeds.append(GcdTodaState([poly() for _ in range(n)],
                                      [poly() for _ in range(n - 1)]))
    moved = 0
    for seed in seeds:
        outcome = run(seed)
        states = list(islice(iterate(seed), 1, outcome.iterations + 1))
        assert not any(map(terminated, states[:-1]))
        assert terminated(states[-1])
        assert outcome.factors == states[-1].diagonal
        assert outcome.final == states[-1]
        firsts = [_first_unsorted(state) for state in states]
        moved += seed.ring is ZZ and any(
            later is not None and earlier is not None and later < earlier
            for earlier, later in zip(firsts, firsts[1:]))
    assert moved


def test_run_pays_its_final_state_on_first_read(monkeypatch):
    # smith_normal_form reads only the diagonal of run's last state, so
    # run leaves that state's lags unpaid: factors reads the stepper's q,
    # and the first read of final pays once and keeps the paid state.
    # Equality, hashing, repr and pickling see the paid state whether or
    # not final was read, and a capped run still ends on its trace.
    pays = call_counter(monkeypatch, ud_toda._Stepper, ("pay",))
    seed = smooth_seed(64)
    outcome = run(seed)
    factors = outcome.factors
    assert pays["pay"] == 0
    final = outcome.final
    assert pays["pay"] == 1
    assert outcome.final is final and pays["pay"] == 1
    result = smith_normal_form(bidiagonal_matrix(smooth_seed()))
    assert result.factors and pays["pay"] == 1
    monkeypatch.undo()
    trace = outcome.trace
    assert final == trace[-1] and factors == final.diagonal
    assert result.lattice.final == result.trace[-1]
    for unread in (run(seed), pickle.loads(pickle.dumps(run(seed)))):
        assert unread == outcome and hash(unread) == hash(outcome)
    poly = run(poly_seed())
    assert repr(poly) == (f"TodaRun(seed={poly_seed()!r}, iterations="
                          f"{poly.iterations!r}, final={poly.final!r})")
    with pytest.raises(FrozenInstanceError):
        outcome.final = seed
    cap = outcome.iterations // 2
    with pytest.raises(IterationLimitError) as info:
        run(seed, max_iters=cap)
    assert info.value.capped.final == trace[cap]
    assert str(info.value).endswith(
        f"{[str(v) for v in trace[cap].diagonal]}")


def test_state_repr_shows_a_placeholder_past_the_digit_limit():
    # A long run's e entries pass the 4300 digits Python renders an int
    # in, so repr shows _printable's placeholder there instead of raising;
    # with the limit lifted it is the dataclass's text, and small states
    # print as they always have.
    outcome = run(smooth_seed(64))
    final = outcome.final
    assert repr(final) == (f"GcdTodaState(ring=ZZ, q={final.q!r}, "
                           "e=<too many digits to print>)")
    assert repr(outcome) == (f"TodaRun(seed={outcome.seed!r}, iterations="
                             f"{outcome.iterations!r}, final={final!r})")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for state in (final, outcome.seed):
            assert repr(state) == (f"GcdTodaState(ring={state.ring!r}, "
                                   f"q={state.q!r}, e={state.e!r})")
    finally:
        sys.set_int_max_str_digits(limit)
    ring = PolyModP(5)
    x, x1 = ring([0, 1]), ring([1, 1])
    assert repr(run(int_state((2, 6, 9), (4, 3)))) == (
        "TodaRun(seed=GcdTodaState(ring=ZZ, q=(2, 6, 9), e=(4, 3)), "
        "iterations=4, final=GcdTodaState(ring=ZZ, q=(1, 6, 18), "
        "e=(81, 972)))")
    assert repr(GcdTodaState((x * x1, x), (x1,))) == (
        "GcdTodaState(ring=GF(5)[x], q=((0, 1, 1), (0, 1)), e=((1, 1),))")


def test_run_keeps_its_ring_call_savings(monkeypatch):
    # run's ring calls on the smooth seeds, each count exact and
    # repeatable.  Three savings keep them down: a proved memo flag
    # spares a settled entry its memo test (no gcd), the witness pair
    # skips the full termination test while it still fails, and the last
    # test reads q_i | e_i only where the memo flag is false, with the
    # chain of q already known to hold (no divides).  Giving any of them
    # back raises a count past its bound.
    seeds = {n: smooth_seed(n) for n in (32, 64)}
    calls = call_counter(monkeypatch, ZZ, ("divides", "gcd", "mul"))
    bounds = {32: (180, {"divides": 253, "gcd": 4694, "mul": 5063}),
              64: (366, {"divides": 566, "gcd": 17054, "mul": 18406})}
    for n, (steps, most) in bounds.items():
        calls.clear()
        assert run(seeds[n]).iterations == steps
        assert all(calls[name] <= most[name] for name in most), (n, calls)


def test_reading_a_state_changes_no_memo_test(monkeypatch):
    # Paying a lag to read a state leaves every memo flag as it is, so
    # iterate, which reads each state, makes run's gcd calls through
    # run's steps (4694 and 17054 on the smooth seeds), and a stepper
    # paid after every step makes the memo tests of one never paid:
    # gcds over ZZ, where the test is inline, and divides over GF(5)[x].
    names = ("gcd", "divides")
    for n in (32, 64):
        seed = smooth_seed(n)
        calls = call_counter(monkeypatch, ZZ, names)
        steps = run(seed).iterations
        ran = calls.pop("gcd")
        for _ in islice(iterate(seed), 1, steps + 1):
            pass
        monkeypatch.undo()
        assert calls["gcd"] == ran > 0
    for seed in (smooth_seed(32), smooth_seed(64), poly_seed()):
        steps, counts = run(seed).iterations, []
        for paid in (False, True):
            calls = call_counter(monkeypatch, seed.ring, names)
            for lattice in islice(gcd_toda._evolve(seed), steps):
                if paid:
                    lattice.pay()
            monkeypatch.undo()
            counts.append(calls)
        assert counts[0] == counts[1]
        assert counts[0]["gcd" if seed.ring is ZZ else "divides"] > 0
