"""latdeg: degrees of graded lattice ideals of dimension one.

The degree of such an ideal equals the order of the torsion subgroup of
Z^s modulo the defining lattice, i.e. the product of the invariant
factors of any generator matrix.  This package computes that product
with exact integer linear algebra, without unimodular transforms (no
Smith or Hermite transform is exported; ``integer_kernel`` reads the
kernel off the Hermite form of [A | I]), and ships three independent
brute-force oracles that confirm it at desk scale: coset counting by
degree, point enumeration over prime fields, and spanning-tree
enumeration for graph Laplacians.

Reports and specs are immutable records (``latdeg._record``), which
keep :mod:`dataclasses` and its :mod:`inspect` off the import path of
every CLI process.  Each layer lists its public names once, in its own
``__all__``; the package re-exports exactly those.  Importing the
package loads every layer eagerly; the benchmark's tracer wraps only
the submodules already imported.
"""

from . import applications, errors, hilbert, intmat, lattices
from .applications import *
from .errors import *
from .hilbert import *
from .intmat import *
from .lattices import *

__version__ = "0.1.0"

__all__ = ["__version__", *intmat.__all__, *lattices.__all__, *hilbert.__all__,
           *applications.__all__, *errors.__all__]
