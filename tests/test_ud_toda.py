"""Min-plus dynamics: ultradiscrete Toda states and box-and-ball runs."""

import random

import pytest

from conftest import non_adjacent_min_brute
from todasnf import (
    BbsState,
    ExactDivisionError,
    PolyModP,
    UdTodaState,
    ZZ,
    bbs_step,
    conserved_quantities,
    from_bbs,
    is_sorted,
    parse_state_literal,
    render_bbs,
    render_state_literal,
    to_bbs,
    ud_step,
)
from todasnf.ud_toda import MIN_PLUS, interleaved, toda_step

# Time evolution of the three-soliton state (4,3,1)/(3,2), frozen from a
# worked example: blocks, gaps, and the conserved triple.
GOLDEN_STATES = [
    ((4, 3, 1), (3, 2)),
    ((3, 2, 3), (3, 1)),
    ((3, 1, 4), (2, 3)),
    ((2, 2, 4), (1, 5)),
    ((1, 3, 4), (2, 6)),
]
GOLDEN_CONSERVED = (1, 4, 8)


def _random_state(rng, max_n=6, max_entry=8) -> UdTodaState:
    n = rng.randint(1, max_n)
    return UdTodaState(
        tuple(rng.randint(0, max_entry) for _ in range(n)),
        tuple(rng.randint(0, max_entry) for _ in range(n - 1)),
    )


def test_state_validation():
    with pytest.raises(ValueError):
        UdTodaState((), ())
    with pytest.raises(ValueError):
        UdTodaState((1, 2), ())
    with pytest.raises(ValueError):
        UdTodaState((1, -2), (3,))
    with pytest.raises(ValueError):
        UdTodaState((1, 2), (True,))
    state = UdTodaState([2, 1], [3])
    assert state.blocks == (2, 1) and state.n == 2


def test_golden_evolution():
    state = UdTodaState(*GOLDEN_STATES[0])
    for blocks, gaps in GOLDEN_STATES:
        assert state.blocks == blocks
        assert state.gaps == gaps
        assert conserved_quantities(state) == GOLDEN_CONSERVED
        state = ud_step(state)


def test_single_block_translates():
    state = UdTodaState((3,), ())
    assert ud_step(state) == state
    assert conserved_quantities(state) == (3,)
    assert is_sorted(state)


def test_conserved_matches_subset_enumeration():
    rng = random.Random(11)
    for _ in range(200):
        state = _random_state(rng, max_n=5)
        word = interleaved(state)
        expected = tuple(
            non_adjacent_min_brute(word, count)
            for count in range(1, state.n + 1)
        )
        got = conserved_quantities(state)
        assert got == expected, f"conserved of {state} = {got} != {expected}"


def test_step_preserves_shape_and_conserved():
    rng = random.Random(12)
    for _ in range(200):
        state = _random_state(rng)
        before = conserved_quantities(state)
        after_state = ud_step(state)
        assert after_state.n == state.n
        assert all(v >= 0 for v in after_state.blocks + after_state.gaps)
        assert conserved_quantities(after_state) == before
        assert sum(after_state.blocks) == sum(state.blocks)


def test_sorting_is_reached_and_kept():
    rng = random.Random(13)
    for _ in range(120):
        state = _random_state(rng)
        cap = state.n * max(1, sum(interleaved(state)))
        steps = 0
        while not is_sorted(state):
            state = ud_step(state)
            steps += 1
            assert steps <= cap, f"not sorted after {cap} steps"
        frozen = state.blocks
        for _ in range(5):
            state = ud_step(state)
            assert is_sorted(state)
            assert state.blocks == frozen, "sorted blocks changed"


def test_is_sorted_examples():
    assert is_sorted(UdTodaState((1, 2, 3), (2, 5)))
    assert not is_sorted(UdTodaState((2, 1), (5,)))
    assert not is_sorted(UdTodaState((2, 3), (1,)))
    assert is_sorted(UdTodaState((0, 1), (0,)))


def test_bbs_round_trip():
    rng = random.Random(14)
    for _ in range(100):
        n = rng.randint(1, 5)
        state = UdTodaState(
            tuple(rng.randint(1, 6) for _ in range(n)),
            tuple(rng.randint(1, 6) for _ in range(n - 1)),
        )
        assert from_bbs(to_bbs(state)) == state


def test_to_bbs_requires_positive_runs():
    with pytest.raises(ValueError):
        to_bbs(UdTodaState((0, 2), (3,)))
    with pytest.raises(ValueError):
        to_bbs(UdTodaState((1, 2), (0,)))
    with pytest.raises(ValueError):
        from_bbs(BbsState(0, ()))


def test_bbs_state_validation():
    with pytest.raises(ValueError):
        BbsState(0, (0, 1))
    with pytest.raises(ValueError):
        BbsState(0, (1, 0))
    with pytest.raises(ValueError):
        BbsState(0, (1, 2, 1))
    assert BbsState(-3, (1, 0, 1)).positions() == (-3, -1)
    assert BbsState(0, ()).ball_count == 0


def test_bbs_step_agrees_with_ud_step():
    rng = random.Random(15)
    for _ in range(150):
        n = rng.randint(1, 5)
        state = UdTodaState(
            tuple(rng.randint(1, 5) for _ in range(n)),
            tuple(rng.randint(1, 5) for _ in range(n - 1)),
        )
        config = to_bbs(state)
        for _ in range(4):
            state = ud_step(state)
            config = bbs_step(config)
            assert from_bbs(config) == state, "automaton left the lattice orbit"


def test_bbs_step_conserves_balls_and_moves_right():
    rng = random.Random(16)
    for _ in range(100):
        state = _random_state(rng, max_n=4)
        if any(v == 0 for v in state.blocks + state.gaps):
            continue
        config = to_bbs(state)
        nxt = bbs_step(config)
        assert nxt.ball_count == config.ball_count
        assert nxt.offset > config.offset


def test_empty_configuration_is_fixed():
    empty = BbsState(0, ())
    assert bbs_step(empty) == empty
    assert render_bbs(empty, 0, 4) == "0000"


def test_render_bbs_windows():
    config = BbsState(2, (1, 0, 1))
    assert render_bbs(config) == "101"
    assert render_bbs(config, 0, 7) == "0010100"
    assert render_bbs(config, 3, 5) == "01"


def test_state_literal_round_trip():
    state = parse_state_literal("Q:4,3,1;E:3,2")
    assert state == UdTodaState((4, 3, 1), (3, 2))
    assert render_state_literal(state) == "Q:4,3,1;E:3,2"
    single = parse_state_literal("Q:5;E:")
    assert single == UdTodaState((5,), ())
    assert parse_state_literal(render_state_literal(single)) == single


def test_state_literal_errors():
    for text in ("Q:1,2", "E:1;Q:2", "Q:1;E:2;E:3", "Q:a;E:", "Q:1,2;E:x",
                 "Q:1,2;X:1"):
        with pytest.raises(ValueError):
            parse_state_literal(text)
    with pytest.raises(ValueError):
        parse_state_literal("Q:1,2;E:1,2")


def _product_first(q, e, add, mul, div):
    """The recurrence as written: each product before its exact quotient."""
    n = len(q)
    new_q, a = [], q[0]
    for i in range(n):
        if i:
            a = div(mul(a, q[i]), new_q[i - 1])
        new_q.append(add(e[i], a) if i < n - 1 else a)
    new_e = [div(mul(e[i], q[i + 1]), new_q[i]) for i in range(n - 1)]
    return tuple(new_q), tuple(new_e)


def _kernel_states(rng, draw, zero, count=150):
    """Random (q, e) of entries drawn by draw; about a third end in a zero
    diagonal entry and about a third have a zero interior e entry."""
    for _ in range(count):
        n = rng.randint(1, 6)
        q = [draw() for _ in range(n)]
        e = [draw() for _ in range(n - 1)]
        if rng.random() < 0.35:
            q[-1] = zero
        if n > 2 and rng.random() < 0.35:
            e[rng.randrange(n - 2)] = zero
        yield tuple(q), tuple(e)


def test_toda_step_matches_the_product_first_recurrence():
    # Dividing first is exact because q'_i divides (is at most) both e_i
    # and a_i; compare against the textbook order on three semirings.
    rng = random.Random(1207)
    gf5 = PolyModP(5)
    factors = [(0, 1), (1, 1), (2, 1), (2, 0, 1)]  # x, x+1, x+2, x^2+2

    def zz():
        return 2 ** rng.randint(0, 4) * 3 ** rng.randint(0, 3) * 5 ** rng.randint(0, 2)

    def poly():
        out = (1,)
        for _ in range(rng.randint(0, 3)):
            out = gf5.mul(out, rng.choice(factors))
        return out

    cases = [
        ((ZZ.gcd, ZZ.mul, ZZ.exact_div), zz, 0),
        ((gf5.gcd, gf5.mul, gf5.exact_div), poly, ()),
        (MIN_PLUS, lambda: rng.randint(0, 8), 0),
    ]
    for ops, draw, zero in cases:
        zero_last = zero_interior_e = 0
        for q, e in _kernel_states(rng, draw, zero):
            assert toda_step(q, e, *ops) == _product_first(q, e, *ops)
            zero_last += len(q) > 1 and q[-1] == zero
            zero_interior_e += zero in e[:-1]
        assert zero_last and zero_interior_e


def test_toda_step_on_zero_gcd_is_division_by_zero():
    # e_i = a_i = 0 makes q'_i = 0; it fails on the level it appears.
    gf5 = PolyModP(5)
    for ring, q, e in ((ZZ, (0, 3), (0,)), (ZZ, (2, 0, 5), (2, 0)),
                       (gf5, ((1, 1), (), (0, 1)), ((1, 1), ()))):
        with pytest.raises(ExactDivisionError) as info:
            toda_step(q, e, ring.gcd, ring.mul, ring.exact_div)
        assert str(info.value) == "division by zero"
