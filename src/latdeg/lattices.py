"""Homogeneous integer lattices and the quotient-group data derived from them.

A lattice here is the integer row span of a generator matrix in which
every row has coordinate sum zero.  Construction is transform-free and
works on the generators without their last coordinate (minus the row
sum), which span the projection L' with the same invariant factors.  A
Smith elimination gives the rank and the torsion structure of the
quotient group, and for lattices of rank one less than the ambient
dimension the degree (the torsion order).  One Hermite elimination,
at that rank modulo a gcd of other minors from the tail of the same
Bareiss pass, gives the echelon basis that answers membership and
element-order queries by integer reduction over the nonzero entries
of its rows, canonical coset
representatives, the simplex-volume reading of the degree (the product
of its pivots, the index of L'), and an upper bound for where the
associated counting function goes constant.  Only ``smith_coordinates``
carries a transform: on each call it reruns the exact Smith loop with
an identity block below the generators, which comes out as V.  Query
vectors must hold integers (``operator.index``); the torsion structure
is an immutable record.
"""

from __future__ import annotations

from math import gcd, prod
from operator import index

from ._record import Record
from .errors import DimensionMismatch, DomainError, NotHomogeneous, RankMismatch
from .intmat import ZMatrix, _hermite_elimination, _smith_elimination, _smith_pass, _tail_modulus

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


class HomogeneousLattice:
    """Integer lattice in Z^s all of whose members have zero coordinate sum.

    Construction verifies homogeneity of every generator row (row sums
    are linear, so this covers the whole lattice) and runs two
    transform-free eliminations of the head, the generators without
    their last column: the Smith elimination for ``invariant_factors``
    (rank, degree, torsion) and the Hermite elimination for ``basis``,
    the echelon basis that answers membership, element-order and coset
    queries with integer reduction and whose pivots give the normalized
    volume.  Each basis row gets back its last coordinate as minus its
    row sum; a sum-zero row never pivots in the last column, so this is
    the Hermite basis of the generators (Cohen, GTM 138, 2.4).  One
    Bareiss pass over the head gives the Smith modulus, the gcd of its
    minors; at rank s - 1 a pass over the block it left at three
    columns, rows reversed, gives the Hermite modulus, and below that
    rank the Hermite elimination is exact.  Each elimination reads only
    its own modulus, so degree and volume come from separate
    eliminations.  Instances are immutable and safe to share across
    threads.
    """

    __slots__ = ("generators", "ambient_dim", "rank", "invariant_factors", "basis", "_pivots")

    def __init__(self, generators: ZMatrix):
        head = []
        for i in range(generators.rows):
            row = generators.row(i)
            if total := sum(row):
                raise NotHomogeneous(i, total)
            head.append(list(row[:-1]))
        self.generators = generators
        self.ambient_dim = s = generators.cols
        n = max(s - 1, 0)
        self.invariant_factors, tail = _smith_pass(head, n)
        self.rank = len(self.invariant_factors)
        modulus = _tail_modulus(head, n, tail) if self.rank == s - 1 else 0
        cols = _hermite_elimination(head, modulus=modulus)
        self.basis = ZMatrix.from_rows([row + [-sum(row)] for row in head], cols=s)
        # (column, pivot, nonzero (column, entry) pairs of the basis row) per
        # row; a Hermite row of a small-degree lattice has few nonzeros: its
        # pivot, the columns of the non-unit pivots, and the last coordinate
        self._pivots = tuple(
            (p, head[i][p], tuple((c, x) for c, x in enumerate(self.basis.row(i)) if x))
            for i, p in enumerate(cols)
        )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], ambient_dim: int | None = None):
        return cls(ZMatrix.from_rows(rows, cols=ambient_dim))

    def __repr__(self) -> str:
        if not hasattr(self, "rank"):  # __init__ stopped early, or never ran
            return object.__repr__(self)
        return (
            f"HomogeneousLattice(s={self.ambient_dim}, rank={self.rank}, "
            f"generators={self.generators.to_rows()!r})"
        )

    def smith_coordinates(self, v: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of ``v`` after the column transform V of the Smith form.

        With ``w = v @ V``, the lattice consists exactly of the vectors
        whose first ``rank`` transformed coordinates are divisible by the
        matching invariant factors and whose remaining coordinates vanish.
        Runs the exact Smith loop on each call, on the generator rows
        with the s rows of the identity below them, which come out as
        the rows of V; nothing on the degree path needs a transform.
        """
        w = self._vector(v)
        m, s = self.generators.rows, self.ambient_dim
        rows = self.generators.to_rows() + [[int(i == j) for j in range(s)] for i in range(s)]
        _smith_elimination(rows, m, s)
        return tuple(sum(x * row[j] for x, row in zip(w, rows[m:])) for j in range(s))

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
        return self._order(self._vector(v), 0)

    def _order(self, w: list[int], start: int) -> int | None:
        """:meth:`element_order` of ``w``, whose coordinates at the pivots before ``start`` are 0.

        A pivot whose coordinate is 0 is skipped: its scale is 1 and its
        quotient 0.
        """
        n = 1
        for p, h, support in self._pivots[start:]:
            x = w[p]
            if not x:
                continue
            scale = h // gcd(x, h)
            if scale > 1:
                n *= scale
                w = [scale * y for y in w]
                x *= scale
            q = x // h
            if q:
                for c, y in support:
                    w[c] -= q * y
        return None if any(w) else n

    def residue(self, v: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative of the coset ``v`` + L.

        Reduces ``v`` by the echelon basis, pivot by pivot, flooring each
        pivot coordinate into [0, h) for the pivot h of its basis row.
        Two vectors have equal residues iff their difference lies in the
        lattice.
        """
        w = self._vector(v)
        for p, h, support in self._pivots:
            q = w[p] // h
            if q:
                for c, y in support:
                    w[c] -= q * y
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
        function equals :meth:`degree` from B on.  At rank s - 1 the
        pivots are the columns 0, ..., s - 2, so the reduction of
        e_i - e_s starts at pivot i.
        """
        self._require_corank_one()
        s = self.ambient_dim
        total = 0
        for i in range(s - 1):
            v = [0] * s
            v[i] = 1
            v[s - 1] = -1
            n = self._order(v, i)
            assert n is not None  # guaranteed at rank s - 1
            total += n - 1
        return total + 1

    def normalized_volume(self) -> int:
        """(s-1)! times the relative volume of the basis simplex.

        Expresses each row of the Hermite basis in the coordinates
        e_i - e_s (its first s-1 entries, valid because rows sum to
        zero); that matrix is upper triangular with positive diagonal,
        so its determinant is the product of the pivots.  Equals
        :meth:`degree`; the two values travel through independent
        eliminations (the Hermite one never reads the Smith modulus).
        """
        self._require_corank_one()
        return prod(h for _p, h, _support in self._pivots)
