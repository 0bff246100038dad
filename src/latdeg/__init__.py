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
package runs only the layers the degree needs (``errors``, ``intmat``,
``lattices``).  The oracle layers ``hilbert`` and ``applications`` are
put in ``sys.modules`` as :class:`importlib.util.LazyLoader` modules,
compiled and run on the first access to one of their attributes.  A
module ``__getattr__`` serves their names and ``__all__`` by reading
the layer on every access, so a name patched or wrapped there is the
one the package returns; looking up any other public name the package
lacks loads both, unless it names a submodule (``from latdeg import
cli`` asks for ``cli`` before importing it), which loads neither.  The
benchmark's tracer wraps the latdeg modules in ``sys.modules`` and
reads each one's ``__all__``, which loads a lazy layer, so a traced run
still sees every layer.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from . import errors, intmat, lattices
from .errors import *
from .intmat import *
from .lattices import *

__version__ = "0.1.0"


def _lazy(name: str):
    """Submodule ``name``, in ``sys.modules`` now and run on its first attribute access."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


hilbert = _lazy("hilbert")
applications = _lazy("applications")


def __getattr__(name: str):
    if name == "__all__":
        return ["__version__", *intmat.__all__, *lattices.__all__, *hilbert.__all__,
                *applications.__all__, *errors.__all__]
    # a submodule about to be imported is not looked up in the lazy layers
    if name.isidentifier() and name[0] != "_" and find_spec(f"{__name__}.{name}") is None:
        for layer in (hilbert, applications):
            if name in layer.__all__:
                return getattr(layer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
