"""Print the ring calls the gcd-Toda lattice makes per step and entry-step.

    python3 tools/lattice_counts.py

The seeds are the 18 lattice_smooth matrices of benchmark seed 61, built
by perfbench/corpus.py, each seeded as smith_normal_form seeded it (the
seed of its run), and the n = 32 and n = 64 smooth seeds of
tests/conftest.py (Random(60), entries 2^a 3^b 5^c), all over ZZ; and
the 16-level GF(5)[x] seed of the same file (Random(23), products
x^i (x + 1)^j).  corpus.py and conftest.py are imported only; no
bytecode is written next to them, and the calls are counted by
conftest's call_counter.  For each set and route it prints the steps,
the entry-steps (steps times N - 1, summed over the seeds) and the
calls to the ring's divides, gcd and mul per step and per entry-step:

- run: run(seed), to termination, its final state left unread;
- iterate: the same number of states of iterate(seed), each one read.

Over ZZ the stepper tests its memo inline, so every ZZ.divides call of
run is its termination test, and iterate makes none; over GF(5)[x] the
memo tests by PolyModP.divides on both routes.  Last, it prints
the _Stepper.pay calls that smith_normal_form makes on the lattice_smooth
matrices.  Every count is exact and repeats on every run.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / name) for name in ("src", "perfbench", "tests")]

import corpus  # noqa: E402
from conftest import call_counter, poly_seed, smooth_seed  # noqa: E402
from todasnf import (  # noqa: E402
    DenseMatrix,
    GcdTodaState,
    ZZ,
    iterate,
    run,
    smith_normal_form,
)
from todasnf.ud_toda import _Stepper  # noqa: E402

SEED = 61
NAMES = ("divides", "gcd", "mul")


def matrices() -> list[DenseMatrix]:
    return [DenseMatrix(ZZ, raw.rows) for raw in corpus.lattice_smooth(SEED)]


def lattice_seeds() -> list[GcdTodaState]:
    """The seeds smith_normal_form runs on the lattice_smooth matrices."""
    results = map(smith_normal_form, matrices())
    return [result.lattice.seed for result in results
            if result.lattice is not None]


def count_routes(seeds) -> dict[str, tuple[int, int, Counter]]:
    """Per route: steps, entry-steps and call counts over seeds of one
    ring."""
    iterations = [run(seed).iterations for seed in seeds]
    steps = sum(iterations)
    entry_steps = sum(k * (seed.n - 1) for seed, k in zip(seeds, iterations))
    out = {}
    for route in ("run", "iterate"):
        with pytest.MonkeyPatch.context() as patch:
            calls = call_counter(patch, seeds[0].ring, NAMES)
            for seed, k in zip(seeds, iterations):
                if route == "run":
                    run(seed)
                else:
                    for _ in islice(iterate(seed), 1, k + 1):
                        pass
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
    inputs = matrices()
    with pytest.MonkeyPatch.context() as patch:
        calls = call_counter(patch, _Stepper, ("pay",))
        for matrix in inputs:
            smith_normal_form(matrix)
    print(f"smith_normal_form on lattice_smooth/{SEED}: {calls['pay']} "
          f"_Stepper.pay calls over {len(inputs)} matrices")


if __name__ == "__main__":
    main()
