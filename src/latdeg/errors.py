"""Exception types shared across the package.

``DomainError`` subclasses mean the inputs were outside an operation's
domain (the CLI maps them to exit status 1).  ``FormatError`` means an
input file could not be parsed (exit status 2).  ``DEFAULT_BUDGET``
is the enumeration budget the oracles and the CLI default to; it lives
here, out of ``__all__``, so that ``applications`` and the CLI read it
without loading ``hilbert``, which re-exports it.  ``bounded_count``,
also out of ``__all__``, sizes every enumeration against its budget.
"""

from typing import Iterable

__all__ = ["DomainError", "DimensionMismatch", "NonSquare", "NotHomogeneous", "RankMismatch",
           "BudgetExceeded", "NotStabilized", "Disconnected", "NonPrimeField", "FormatError"]

DEFAULT_BUDGET = 2_000_000


def bounded_count(numerators: Iterable[int], denominators: Iterable[int], budget: int) -> int:
    """The product of the fractions n_i / d_i, built up pair by pair until past ``budget``.

    Each partial product must be an integer no smaller than the one
    before, so the result exceeds ``budget`` exactly when the whole
    product does, and is then a lower bound for it.  A power b**n is n
    factors b over 1; a binomial C(N, k) is N, N - 1, ... over 1, 2, ...,
    min(k, N - k) of each, whose partial products are C(N, i).
    """
    count = 1
    for n, d in zip(numerators, denominators):
        count = count * n // d
        if count > budget:
            break
    return count


class DomainError(Exception):
    """Input is outside the mathematical domain of the requested operation."""


class DimensionMismatch(DomainError):
    """Operand shapes are incompatible."""


class NonSquare(DomainError):
    """A square matrix was required."""

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        super().__init__(f"matrix is {rows}x{cols}, determinant needs a square matrix")


class NotHomogeneous(DomainError):
    """A generator row has a nonzero coordinate sum."""

    def __init__(self, row_index: int, row_sum: int):
        self.row_index = row_index
        self.row_sum = row_sum
        super().__init__(
            f"generator row {row_index} has coordinate sum {row_sum}, expected 0"
        )


class RankMismatch(DomainError):
    """The lattice rank is not ambient dimension minus one, so the
    torsion-order degree formula does not apply."""

    def __init__(self, expected: int, got: int):
        self.expected = expected
        self.got = got
        super().__init__(f"expected rank {expected}, got rank {got}")


class BudgetExceeded(DomainError):
    """An enumeration would exceed its configured budget.

    Where the message says "at least", ``needed`` is a lower bound.
    """

    def __init__(self, needed: int, budget: int, what: str = "enumeration size"):
        self.needed = needed
        self.budget = budget
        super().__init__(f"{what} {needed} exceeds budget {budget}")


class NotStabilized(DomainError):
    """No finite-difference order settled within the computed profile."""

    def __init__(self, d_max: int):
        self.d_max = d_max
        super().__init__(
            f"no finite-difference order is constant over the trailing window; "
            f"d_max={d_max} is too small to certify a degree"
        )


class Disconnected(DomainError):
    """The graph is not connected."""


class NonPrimeField(DomainError):
    """The field size is not a prime number."""

    def __init__(self, q: int):
        self.q = q
        super().__init__(f"field size {q} is not prime (prime-power fields unsupported)")


class FormatError(Exception):
    """An input file does not match its documented text format."""
