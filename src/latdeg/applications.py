"""End-to-end consumers of the degree machinery.

Two independent sources of rank-(s-1) homogeneous lattices, each with
its own elementary counting oracle:

* monomially parameterized projective sets over a prime field, where
  the lattice degree must equal the number of distinct points; and
* graph Laplacian row lattices, where the degree must equal the number
  of spanning trees (and the reduced-Laplacian determinant).

Both enumerations are sized first by ``errors.bounded_count``, which
stops once past the budget.  Specs and reports are immutable records;
the two specs normalise and validate their fields in ``__post_init__``.
The two file parsers read through the integer-line reader of
:mod:`latdeg.intmat` and keep only their own format's rules.
"""

from __future__ import annotations

import itertools
from math import prod
from operator import index
from typing import Sequence

from ._record import Record
from .errors import (DEFAULT_BUDGET, BudgetExceeded, Disconnected, DomainError, FormatError,
                     NonPrimeField, bounded_count)
from .intmat import ZMatrix, _int_lines, _ints, determinant, integer_kernel
from .lattices import HomogeneousLattice

__all__ = [
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
]


# Miller-Rabin with the first 12 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017)); larger inputs are refused
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318_665_857_834_031_151_167_461


def _is_prime(n: int) -> bool:
    """Deterministic primality test, exact for n < ``_MR_EXACT_BELOW``."""
    if n >= _MR_EXACT_BELOW:
        raise DomainError(
            f"primality of {n} is not certified: the deterministic test is exact "
            f"only below {_MR_EXACT_BELOW}"
        )
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ToricSetSpec(Record):
    """Prime field size q and exponent vectors defining a projective set.

    The set consists of the projective points whose coordinates are the
    monomials x^{v_1}, ..., x^{v_s} evaluated at parameters x_1..x_n
    ranging over the nonzero field elements.
    """

    q: int
    exponents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not _is_prime(self.q):
            raise NonPrimeField(self.q)
        exps = tuple(tuple(map(index, v)) for v in self.exponents)
        object.__setattr__(self, "exponents", exps)
        if len(exps) < 1:
            raise ValueError("need at least one exponent vector")
        n = len(exps[0])
        if n < 1:
            raise ValueError("exponent vectors must have at least one entry")
        if any(len(v) != n for v in exps):
            raise ValueError("exponent vectors must all have the same length")
        if any(e < 0 for v in exps for e in v):
            raise ValueError("exponents must be nonnegative")

    @property
    def s(self) -> int:
        return len(self.exponents)

    @property
    def n(self) -> int:
        return len(self.exponents[0])


def build_toric_lattice(spec: ToricSetSpec) -> HomogeneousLattice:
    """The homogeneous lattice whose binomial ideal vanishes on the set.

    A vector c belongs to it iff its coordinates sum to zero and
    sum_i c_i v_i == 0 componentwise mod q-1.  Both conditions together
    are the integer left kernel of the stacked system
    [ones column | exponent matrix] over [zero column | (q-1) identity],
    projected to the first s coordinates; the projection is injective on
    that kernel, so a kernel basis maps to a generating set.  The result
    always has rank s-1 because (q-1)(e_i - e_s) satisfies both
    conditions for every i.
    """
    s, n, q = spec.s, spec.n, spec.q
    rows = [[1, *v] for v in spec.exponents]
    for j in range(n):
        row = [0] * (n + 1)
        row[1 + j] = q - 1
        rows.append(row)
    kernel = integer_kernel(ZMatrix.from_rows(rows))
    gens = [kernel.row(i)[:s] for i in range(kernel.rows)]
    return HomogeneousLattice.from_rows(gens, ambient_dim=s)


def _point(spec: ToricSetSpec, x: Sequence[int]) -> tuple[int, ...]:
    q = spec.q
    coords = [
        prod(pow(xj, vj, q) for xj, vj in zip(x, v)) % q for v in spec.exponents
    ]
    inv = pow(coords[0], q - 2, q)  # first coordinate is a unit
    return tuple(c * inv % q for c in coords)


def enumerate_toric_set(spec: ToricSetSpec, budget: int = DEFAULT_BUDGET) -> set[tuple[int, ...]]:
    """All distinct points of the set, normalized to first coordinate 1.

    Iterates the full parameter grid of size (q-1)^n, which must fit in
    ``budget``.  The check multiplies n factors q - 1 and stops once past
    the budget, so a large grid is refused with a lower bound.  Points
    are deduplicated after dividing by the first coordinate, so members
    are s-tuples over [1, q-1] starting with 1.
    """
    q, n = spec.q, spec.n
    needed = bounded_count(itertools.repeat(q - 1, n), itertools.repeat(1), budget)
    if needed > budget:
        raise BudgetExceeded(needed, budget, what="parameter grid size at least")
    return {_point(spec, x) for x in itertools.product(range(1, q), repeat=n)}


class VanishingCheck(Record):
    lattice_degree: int
    point_count: int
    agree: bool


def check_vanishing_degree(spec: ToricSetSpec, budget: int = DEFAULT_BUDGET) -> VanishingCheck:
    """Compare lattice degree with the brute-force point count."""
    # the count goes first: its budget refuses a large grid before elimination
    count = len(enumerate_toric_set(spec, budget=budget))
    deg = build_toric_lattice(spec).degree()
    return VanishingCheck(lattice_degree=deg, point_count=count, agree=deg == count)


class CiHypothesisCheck(Record):
    """Whether the complete-intersection criterion's hypotheses hold.

    When q-1 is prime, the exponent vectors are pairwise distinct mod
    q-1, and the torsion subgroup is (Z_{q-1})^(s-1), the vanishing
    ideal is a complete intersection iff it is generated by the pure
    power differences listed in ``predicted_generators``.
    """

    q_minus_1_prime: bool
    exponents_distinct_mod: bool
    torsion_is_power: bool
    corollary_applies: bool
    predicted_generators: str | None


def ci_hypothesis_check(spec: ToricSetSpec) -> CiHypothesisCheck:
    q1 = spec.q - 1
    s = spec.s
    prime = _is_prime(q1)
    distinct = all(
        any((vi[k] - vj[k]) % q1 != 0 for k in range(spec.n)) if q1 > 1 else False
        for vi, vj in itertools.combinations(spec.exponents, 2)
    )
    torsion = build_toric_lattice(spec).torsion_structure()
    is_power = list(torsion.cyclic_factors) == [q1] * (s - 1)
    applies = prime and distinct and is_power
    predicted = None
    if applies:
        predicted = ", ".join(f"t{i + 1}^{q1}-t{s}^{q1}" for i in range(s - 1))
    return CiHypothesisCheck(
        q_minus_1_prime=prime,
        exponents_distinct_mod=distinct,
        torsion_is_power=is_power,
        corollary_applies=applies,
        predicted_generators=predicted,
    )


class GraphSpec(Record):
    """Connected simple undirected graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        s = self.vertex_count
        if s < 1:
            raise ValueError("graph needs at least one vertex")
        norm = []
        seen = set()
        for i, j in self.edges:
            if not (0 <= i < s and 0 <= j < s):
                raise ValueError(f"edge ({i}, {j}) out of range for {s} vertices")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            e = (min(i, j), max(i, j))
            if e in seen:
                raise ValueError(f"duplicate edge ({e[0]}, {e[1]})")
            seen.add(e)
            norm.append(e)
        object.__setattr__(self, "edges", tuple(norm))
        # fewer than s - 1 edges cannot connect s vertices; refuse before
        # allocating anything of size s
        if len(norm) < s - 1 or _joining_edges(s, norm) != s - 1:
            raise Disconnected(f"graph on {s} vertices is not connected")


def _joining_edges(s: int, edges: Sequence[tuple[int, int]]) -> int:
    """Number of ``edges`` that join two components, by union-find on 0..s-1.

    Equals s - 1 exactly when the edges connect all s vertices; for
    s - 1 edges, exactly when they form a spanning tree.
    """
    parent = list(range(s))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joined = 0
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            joined += 1
    return joined


def _laplacian_rows(g: GraphSpec) -> list[list[int]]:
    """The graph Laplacian (degree matrix minus adjacency), row by row."""
    s = g.vertex_count
    lap = [[0] * s for _ in range(s)]
    for i, j in g.edges:
        lap[i][j] -= 1
        lap[j][i] -= 1
        lap[i][i] += 1
        lap[j][j] += 1
    return lap


def build_laplacian_lattice(g: GraphSpec) -> HomogeneousLattice:
    """Row lattice of the graph Laplacian (degree matrix minus adjacency).

    Rows sum to zero, and for a connected graph the rank is s-1, so the
    degree machinery applies; the torsion order is the spanning-tree
    count.
    """
    return HomogeneousLattice.from_rows(_laplacian_rows(g), ambient_dim=g.vertex_count)


def reduced_laplacian(g: GraphSpec) -> ZMatrix:
    """Laplacian without the last vertex's row and column (any vertex gives the same det)."""
    rows = _laplacian_rows(g)[:-1]
    return ZMatrix.from_rows([row[:-1] for row in rows], cols=g.vertex_count - 1)


def spanning_tree_count(g: GraphSpec) -> int:
    """Exact spanning-tree count by enumerating edge subsets of size s-1.

    The C(E, s-1) subsets of the E edges must fit in ``DEFAULT_BUDGET``.
    The check builds C(E, i) up from i = 0 and stops past the budget, so
    a large graph is refused with a lower bound, without the cost (or the
    digits) of the whole binomial.  A subset of s-1 edges on s vertices
    is a spanning tree exactly when each of its edges joins two
    components, so a union-find pass decides.
    """
    s = g.vertex_count
    e = len(g.edges)
    needed = bounded_count(range(e, max(s - 1, e - s + 1), -1), range(1, s), DEFAULT_BUDGET)
    if needed > DEFAULT_BUDGET:
        raise BudgetExceeded(needed, DEFAULT_BUDGET, what="edge subset count at least")
    return sum(
        _joining_edges(s, subset) == s - 1 for subset in itertools.combinations(g.edges, s - 1)
    )


class SandpileCheck(Record):
    degree: int
    spanning_trees: int
    reduced_laplacian_det: int
    agree: bool


def check_sandpile_degree(g: GraphSpec) -> SandpileCheck:
    """Three independent routes to one number, compared.

    The tree count goes first: its budget refuses a large graph before
    the Laplacian lattice of that graph is eliminated.
    """
    trees = spanning_tree_count(g)
    deg = build_laplacian_lattice(g).degree()
    det = abs(determinant(reduced_laplacian(g)))
    return SandpileCheck(
        degree=deg,
        spanning_trees=trees,
        reduced_laplacian_det=det,
        agree=deg == trees == det,
    )


def parse_toric_spec(text: str) -> ToricSetSpec:
    """Parse the exponent file format: header "q n s", then s rows of n entries."""
    (q, n, s), body = _int_lines(text, "exponent", 3)
    if n < 0 or s < 0:
        raise FormatError(f"counts n and s must be nonnegative, got {n} {s}")
    if len(body) != s:
        raise FormatError(f"expected {s} exponent rows, got {len(body)}")
    vectors = [_ints("exponent", k, line, n) for k, line in body]
    try:
        return ToricSetSpec(q=q, exponents=vectors)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def parse_graph(text: str) -> GraphSpec:
    """Parse the graph file format: header "s", then one 1-indexed "i j" per line."""
    (s,), body = _int_lines(text, "graph", 1)
    edges = []
    seen = set()
    for k, line in body:
        i, j = _ints("graph", k, line, 2)
        if not (1 <= i <= s and 1 <= j <= s):
            raise FormatError(f"edge ({i}, {j}) out of range for {s} vertices (1-indexed)")
        # checked here, not left to GraphSpec, to name the file's vertices and line
        if i == j:
            raise FormatError(f"graph file line {k}: self-loop at vertex {i}")
        edge = (min(i, j) - 1, max(i, j) - 1)
        if edge in seen:
            raise FormatError(f"graph file line {k}: duplicate edge ({i}, {j})")
        seen.add(edge)
        edges.append(edge)
    try:
        return GraphSpec(vertex_count=s, edges=tuple(edges))
    except ValueError as exc:
        raise FormatError(str(exc)) from None
