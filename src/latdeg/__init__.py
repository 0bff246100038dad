"""latdeg: degrees of graded lattice ideals of dimension one.

The degree of such an ideal equals the order of the torsion subgroup of
Z^s modulo the defining lattice, i.e. the product of the invariant
factors of any generator matrix.  This package computes that product
with exact integer linear algebra, without unimodular transforms, and
ships three independent brute-force oracles that confirm it at desk
scale: coset counting by degree, point enumeration over prime fields,
and spanning-tree enumeration for graph Laplacians.

Reports and specs are immutable records (``latdeg._record``), which
keep :mod:`dataclasses` and its :mod:`inspect` off the import path of
every CLI process.  Importing the package loads every layer eagerly;
the benchmark's tracer wraps only the submodules already imported.
"""

from .applications import (
    CiHypothesisCheck,
    GraphSpec,
    SandpileCheck,
    ToricSetSpec,
    VanishingCheck,
    build_laplacian_lattice,
    build_toric_lattice,
    check_sandpile_degree,
    check_vanishing_degree,
    ci_hypothesis_check,
    enumerate_toric_set,
    parse_graph,
    parse_toric_spec,
    reduced_laplacian,
    spanning_tree_count,
)
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    Disconnected,
    DomainError,
    FormatError,
    NonPrimeField,
    NonSquare,
    NotHomogeneous,
    NotStabilized,
    RankMismatch,
)
from .hilbert import (
    DegreeCheck,
    HilbertProfile,
    hilbert_profile,
    oracle_degree,
    verify_degree,
)
from .intmat import (
    HermiteForm,
    SmithDecomposition,
    ZMatrix,
    determinant,
    format_matrix,
    hermite_basis,
    hermite_normal_form,
    integer_kernel,
    mat_mul,
    parse_matrix,
    smith_invariants,
    smith_normal_form,
)
from .lattices import HomogeneousLattice, TorsionStructure

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # matrices
    "ZMatrix",
    "SmithDecomposition",
    "HermiteForm",
    "mat_mul",
    "determinant",
    "smith_normal_form",
    "smith_invariants",
    "hermite_normal_form",
    "hermite_basis",
    "integer_kernel",
    "parse_matrix",
    "format_matrix",
    # lattices
    "HomogeneousLattice",
    "TorsionStructure",
    # coset counting
    "HilbertProfile",
    "hilbert_profile",
    "oracle_degree",
    "DegreeCheck",
    "verify_degree",
    # applications
    "ToricSetSpec",
    "build_toric_lattice",
    "enumerate_toric_set",
    "VanishingCheck",
    "check_vanishing_degree",
    "CiHypothesisCheck",
    "ci_hypothesis_check",
    "GraphSpec",
    "build_laplacian_lattice",
    "reduced_laplacian",
    "spanning_tree_count",
    "SandpileCheck",
    "check_sandpile_degree",
    "parse_toric_spec",
    "parse_graph",
    # errors
    "DomainError",
    "DimensionMismatch",
    "NonSquare",
    "NotHomogeneous",
    "RankMismatch",
    "BudgetExceeded",
    "NotStabilized",
    "Disconnected",
    "NonPrimeField",
    "FormatError",
]
