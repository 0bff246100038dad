"""Homogeneous integer lattices and the quotient-group data derived from them.

A lattice here is the integer row span of a generator matrix in which
every row has coordinate sum zero.  The degree path is transform-free:
the invariant factors of the generators (a Smith elimination without
unimodular transforms) give the rank and the torsion structure of the
quotient group, and for lattices of rank one less than the ambient
dimension the degree (the torsion order).  An independent Hermite
elimination, also without transform and at that rank modulo a gcd of
minors of its own, gives the echelon basis that answers membership
and element-order queries by integer reduction, canonical coset
representatives, the simplex-volume reading of the degree (its Bareiss
determinant), and an upper bound for where the associated counting
function goes constant.  The Smith decomposition with transforms, used
only by Smith coordinates, is computed on first use.  Query vectors
must hold integers (``operator.index``); the torsion structure is an
immutable record.
"""

from __future__ import annotations

from math import gcd, prod
from operator import index
from typing import Sequence

from ._record import Record
from .errors import DimensionMismatch, DomainError, NotHomogeneous, RankMismatch
from .intmat import (
    SmithDecomposition,
    ZMatrix,
    _hermite_elimination,
    _reverse_pass_modulus,
    determinant,
    hermite_basis,
    smith_invariants,
    smith_normal_form,
)

__all__ = ["HomogeneousLattice", "TorsionStructure"]


class TorsionStructure(Record):
    """Cyclic decomposition of the torsion subgroup of Z^s modulo the lattice.

    ``cyclic_factors`` are the invariant factors with the trivial 1s
    filtered out, each dividing the next; ``order`` is the product of
    all invariant factors; ``free_rank`` is ambient dimension minus
    lattice rank.
    """

    cyclic_factors: tuple[int, ...]
    order: int
    free_rank: int


def _corank_one_basis(generators: ZMatrix) -> ZMatrix:
    """:func:`hermite_basis` of homogeneous generators of rank s - 1, modulo D2.

    Without its last coordinate (minus the row sum) the lattice is L',
    of full rank in Z^(s-1), whose index (the degree) divides D2, the
    gcd of the minors of a Bareiss pass over L' in reverse row order.
    """
    s = generators.cols
    head = ZMatrix.from_rows([generators.row(i)[:-1] for i in range(generators.rows)], cols=s - 1)
    h, _t, _r = _hermite_elimination(head, track=False, modulus=_reverse_pass_modulus(head))
    return ZMatrix.from_rows([row + [-sum(row)] for row in h[: s - 1]], cols=s)


class HomogeneousLattice:
    """Integer lattice in Z^s all of whose members have zero coordinate sum.

    Construction verifies homogeneity of every generator row (row sums
    are linear, so this covers the whole lattice) and runs two
    transform-free eliminations of the generator matrix: the Smith
    elimination for ``invariant_factors`` (rank, degree, torsion) and
    the Hermite elimination for ``basis``, the echelon basis that
    answers membership, element-order and coset queries with integer
    reduction and gives the normalized volume.  The Smith elimination
    works modulo the gcd of the minors of one Bareiss pass; at rank
    s - 1 the Hermite elimination works modulo that of a second pass
    over the rows in reverse order.  Degree and volume therefore come
    from independent eliminations with independent moduli.  The Smith
    decomposition with transforms is computed on first access to
    :attr:`decomposition`.
    Instances are immutable (the cache is idempotent) and safe to share
    across threads.
    """

    __slots__ = ("generators", "ambient_dim", "rank", "invariant_factors", "basis",
                 "_pivots", "_decomposition")

    def __init__(self, generators: ZMatrix):
        for i in range(generators.rows):
            total = sum(generators.row(i))
            if total != 0:
                raise NotHomogeneous(i, total)
        self.generators = generators
        self.ambient_dim = generators.cols
        self.invariant_factors = smith_invariants(generators)
        self.rank = len(self.invariant_factors)
        if self.rank == self.ambient_dim - 1:
            self.basis = _corank_one_basis(generators)
        else:
            self.basis = hermite_basis(generators)
        pivots = []
        for i in range(self.basis.rows):
            row = self.basis.row(i)
            p = next(j for j, x in enumerate(row) if x)
            pivots.append((p, row[p], row))
        self._pivots = tuple(pivots)  # (column, pivot, basis row) per row
        self._decomposition = None

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], ambient_dim: int | None = None):
        return cls(ZMatrix.from_rows(rows, cols=ambient_dim))

    def __repr__(self) -> str:
        return (
            f"HomogeneousLattice(s={self.ambient_dim}, rank={self.rank}, "
            f"generators={self.generators.to_rows()!r})"
        )

    @property
    def decomposition(self) -> SmithDecomposition:
        """Smith decomposition of the generators, with transforms, computed on first use."""
        if self._decomposition is None:
            self._decomposition = smith_normal_form(self.generators)
        return self._decomposition

    def smith_coordinates(self, v: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of ``v`` after the column transform of the decomposition.

        With ``w = v @ V``, the lattice consists exactly of the vectors
        whose first ``rank`` transformed coordinates are divisible by the
        matching invariant factors and whose remaining coordinates vanish.
        """
        w = self._vector(v)
        vmat = self.decomposition.v
        cols = [vmat.column(j) for j in range(self.ambient_dim)]
        return tuple(sum(x * c for x, c in zip(w, col)) for col in cols)

    def _vector(self, v: Sequence[int]) -> list[int]:
        s = self.ambient_dim
        if len(v) != s:
            raise DimensionMismatch(f"vector has length {len(v)}, expected {s}")
        return list(map(index, v))

    def contains(self, v: Sequence[int]) -> bool:
        """True iff ``v`` lies in the integer row span of the generators."""
        return self.element_order(v) == 1

    def element_order(self, v: Sequence[int]) -> int | None:
        """Smallest n >= 1 with n*v in the lattice, or None if no multiple is.

        Reduces ``v`` by the echelon basis, pivot by pivot, first scaling
        the residual by h / gcd(w_p, h) wherever pivot h does not
        divide its coordinate w_p; the product of the scalings is the lcm
        of the denominators of ``v``'s coordinates in the basis.  A
        residual left at the end means ``v`` is outside the rational span.
        """
        w = self._vector(v)
        n = 1
        for p, h, row in self._pivots:
            scale = h // gcd(w[p], h)
            if scale > 1:
                n *= scale
                w = [scale * x for x in w]
            q = w[p] // h
            if q:
                for k in range(p, self.ambient_dim):
                    w[k] -= q * row[k]
        return None if any(w) else n

    def residue(self, v: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative of the coset ``v`` + L.

        Reduces ``v`` by the echelon basis, pivot by pivot, flooring each
        pivot coordinate into [0, h) for the pivot h of its basis row.
        Two vectors have equal residues iff their difference lies in the
        lattice.
        """
        w = self._vector(v)
        for p, h, row in self._pivots:
            q = w[p] // h
            if q:
                for k in range(p, self.ambient_dim):
                    w[k] -= q * row[k]
        return tuple(w)

    def torsion_structure(self) -> TorsionStructure:
        factors = self.invariant_factors
        return TorsionStructure(
            cyclic_factors=tuple(f for f in factors if f > 1),
            order=prod(factors),
            free_rank=self.ambient_dim - self.rank,
        )

    def is_torsion_free(self) -> bool:
        return all(f == 1 for f in self.invariant_factors)

    def _require_corank_one(self) -> None:
        if self.ambient_dim == 0:
            raise DomainError(
                "ambient dimension is 0; the degree needs a lattice in Z^s with s >= 1"
            )
        expected = self.ambient_dim - 1
        if self.rank != expected:
            raise RankMismatch(expected=expected, got=self.rank)

    def degree(self) -> int:
        """Product of the invariant factors, i.e. the torsion order.

        Only defined when the rank is ambient dimension minus one (the
        quotient then has exactly one free factor); for other ranks the
        formula is wrong, so this raises ``RankMismatch`` instead of
        returning a misleading number.
        """
        self._require_corank_one()
        return prod(self.invariant_factors)

    def regularity_upper_bound(self) -> int:
        """A degree B from which the coset-counting function is constant.

        B = sum over i < s of (n_i - 1), plus 1, where n_i is the order
        of e_i - e_s in the quotient.  Not claimed minimal; the counting
        function equals :meth:`degree` from B on.
        """
        self._require_corank_one()
        s = self.ambient_dim
        total = 0
        for i in range(s - 1):
            v = [0] * s
            v[i] = 1
            v[s - 1] = -1
            n = self.element_order(v)
            assert n is not None  # guaranteed at rank s - 1
            total += n - 1
        return total + 1

    def normalized_volume(self) -> int:
        """(s-1)! times the relative volume of the basis simplex.

        Expresses each row of the Hermite basis in the coordinates
        e_i - e_s (its first s-1 entries, valid because rows sum to
        zero) and returns the absolute Bareiss determinant.  Equals
        :meth:`degree`; the two values travel through independent
        eliminations.
        """
        self._require_corank_one()
        basis = [self.basis.row(i)[:-1] for i in range(self.basis.rows)]
        return abs(determinant(ZMatrix.from_rows(basis, cols=self.ambient_dim - 1)))
