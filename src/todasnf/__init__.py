"""Smith normal form over principal ideal domains via the gcd-Toda lattice.

The lattice route pads a matrix to square, reduces it to lower bidiagonal
form by determinant-one blocks, and iterates a gcd/product analogue of
the discrete Toda time step until the diagonal settles into the chain of
invariant factors.  The package also ships the min-plus original (the
ultradiscrete Toda lattice and its box-and-ball realisation), a classical
elimination as an independent oracle, and a small CLI.

Each module's __all__ lists the public names it defines; the package
re-exports them all.
"""

from .ring import *
from .ud_toda import *
from .gcd_toda import *
from .matrix import *
from .elimination import *
from .snf import *

__version__ = "0.1.0"

__all__ = sorted(ring.__all__ + ud_toda.__all__ + gcd_toda.__all__
                 + matrix.__all__ + elimination.__all__ + snf.__all__)
