"""Print the ring calls the gcd-Toda lattice makes per step and entry-step.

    python3 tools/lattice_counts.py

The seeds are the 18 lattice_smooth matrices of benchmark seed 61, built
by perfbench/corpus.py (imported only; no bytecode is written next to
it) and seeded as smith_normal_form seeds them, and the n = 32 and
n = 64 smooth seeds of tests/test_gcd_toda.py (Random(60), entries
2^a 3^b 5^c), all over ZZ; and the 16-level GF(5)[x] seed of the same
file (Random(23), products x^i (x + 1)^j).  For each set and route it
prints the steps, the entry-steps (steps times N - 1, summed over the
seeds) and the calls to the ring's divides, gcd and mul per step and per
entry-step:

- run: run(seed), to termination, its final state left unread;
- iterate: the same number of states of iterate(seed), each one read.

Over ZZ the stepper tests its memo inline, so every ZZ.divides call of
run is its termination test, and iterate makes none; over GF(5)[x] the
memo tests by PolyModP.divides on both routes.  Last, it prints
the _Stepper.pay calls that smith_normal_form makes on the lattice_smooth
matrices.  Every count is exact and repeats on every run.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus  # noqa: E402
from todasnf import (  # noqa: E402
    DenseMatrix,
    GcdTodaState,
    PolyModP,
    ZZ,
    iterate,
    run,
    seed_state,
    smith_normal_form,
)
from todasnf.elimination import _Modulus, _reduced_form  # noqa: E402
from todasnf.ud_toda import _Stepper  # noqa: E402

SEED = 61
NAMES = ("divides", "gcd", "mul")


@contextmanager
def counting(calls: Counter, ring=ZZ):
    """Count the ring's divides, gcd and mul calls and the _Stepper.pay
    calls into calls while the block runs."""
    cls, originals = type(ring), {}

    def counted(name, original):
        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    for name in NAMES:
        originals[name] = cls.__dict__.get(name)
        wrapped = counted(name, getattr(ring, name))
        setattr(cls, name, staticmethod(wrapped))
    pay = _Stepper.pay
    _Stepper.pay = counted("pay", pay)
    try:
        yield calls
    finally:
        _Stepper.pay = pay
        for name, original in originals.items():
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)


def matrices() -> list[DenseMatrix]:
    return [DenseMatrix(ZZ, raw.rows) for raw in corpus.lattice_smooth(SEED)]


def smooth_seed(n: int) -> GcdTodaState:
    """The n-level smooth seed of tests/test_gcd_toda.py."""
    rng = random.Random(60)

    def smooth():
        return 2 ** rng.randint(0, 6) * 3 ** rng.randint(0, 6) * 5 ** rng.randint(0, 6)

    diagonal = tuple(smooth() for _ in range(n))
    return GcdTodaState.from_payloads(ZZ, diagonal,
                                      tuple(smooth() for _ in range(n - 1)))


def poly_seed() -> GcdTodaState:
    """The 16-level GF(5)[x] seed of tests/test_gcd_toda.py."""
    ring = PolyModP(5)
    x, x1 = ring([0, 1]), ring([1, 1])
    powers = [x ** i * x1 ** j for i in range(4) for j in range(4)]
    rng = random.Random(23)
    return GcdTodaState([rng.choice(powers) for _ in range(16)],
                        [rng.choice(powers) for _ in range(15)])


def lattice_seeds() -> list[GcdTodaState]:
    """The seeds smith_normal_form runs on the lattice_smooth matrices."""
    forms = (_reduced_form(m, _Modulus(ZZ, m)) for m in matrices())
    return [seed_state(form) for form in forms if form.k]


def count_routes(seeds) -> dict[str, tuple[int, int, Counter]]:
    """Per route: steps, entry-steps and call counts over the seeds."""
    out = {}
    for route in ("run", "iterate"):
        steps = entry_steps = 0
        calls = Counter()
        for seed in seeds:
            iterations = run(seed).iterations
            with counting(calls, seed.ring):
                if route == "run":
                    run(seed)
                else:
                    for _ in islice(iterate(seed), 1, iterations + 1):
                        pass
            steps += iterations
            entry_steps += iterations * (seed.n - 1)
        out[route] = steps, entry_steps, calls
    return out


def main() -> None:
    sets = ((f"lattice_smooth/{SEED}", lattice_seeds()),
            ("smooth n=32", [smooth_seed(32)]),
            ("smooth n=64", [smooth_seed(64)]),
            ("GF(5)[x] n=16", [poly_seed()]))
    print(f"{'seeds':18} {'route':8} {'steps':>6} {'entry-steps':>11}  "
          + "  ".join(f"{name + '/step':>12}" for name in NAMES) + "  "
          + "  ".join(f"{name + '/entry':>12}" for name in NAMES))
    for label, seeds in sets:
        for route, (steps, entry_steps, calls) in count_routes(seeds).items():
            print(f"{label:18} {route:8} {steps:6} {entry_steps:11}  "
                  + "  ".join(f"{calls[n] / steps:12.3f}" for n in NAMES)
                  + "  "
                  + "  ".join(f"{calls[n] / entry_steps:12.3f}" for n in NAMES))
    calls = Counter()
    inputs = matrices()
    with counting(calls):
        for matrix in inputs:
            smith_normal_form(matrix)
    print(f"smith_normal_form on lattice_smooth/{SEED}: {calls['pay']} "
          f"_Stepper.pay calls over {len(inputs)} matrices")


if __name__ == "__main__":
    main()
