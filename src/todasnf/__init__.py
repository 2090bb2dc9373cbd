"""Smith normal form over principal ideal domains via the gcd-Toda lattice.

The lattice route pads a matrix to square, reduces it to lower bidiagonal
form by determinant-one blocks, and iterates a gcd/product analogue of
the discrete Toda time step until the diagonal settles into the chain of
invariant factors.  The package also ships the min-plus original (the
ultradiscrete Toda lattice and its box-and-ball realisation), a classical
elimination as an independent oracle, and a small CLI.
"""

from .ring import (
    ExactDivisionError,
    IntegerRing,
    PolyModP,
    Ring,
    RingMismatchError,
    RingValue,
    ZZ,
    canonical,
    divides,
    exact_div,
    gcd,
)
from .ud_toda import (
    BbsState,
    UdTodaState,
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
from .gcd_toda import (
    GcdTodaState,
    IterationLimitError,
    TodaRun,
    default_max_iters,
    determinantal_divisors,
    exponent_lift,
    gcd_step,
    iterate,
    run,
    terminated,
)
from .matrix import DenseMatrix
from .elimination import BidiagonalForm, bidiagonalize, seed_state
from .snf import (
    SnfResult,
    classical_snf,
    determinant,
    minors_gcd,
    smith_normal_form,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "BbsState",
    "BidiagonalForm",
    "DenseMatrix",
    "ExactDivisionError",
    "GcdTodaState",
    "IntegerRing",
    "IterationLimitError",
    "PolyModP",
    "Ring",
    "RingMismatchError",
    "RingValue",
    "SnfResult",
    "TodaRun",
    "UdTodaState",
    "ZZ",
    "bbs_step",
    "bidiagonalize",
    "canonical",
    "classical_snf",
    "conserved_quantities",
    "default_max_iters",
    "determinant",
    "determinantal_divisors",
    "divides",
    "exact_div",
    "exponent_lift",
    "from_bbs",
    "gcd",
    "gcd_step",
    "is_sorted",
    "iterate",
    "minors_gcd",
    "parse_state_literal",
    "render_bbs",
    "render_state_literal",
    "run",
    "seed_state",
    "smith_normal_form",
    "terminated",
    "to_bbs",
    "ud_step",
    "verify",
]
