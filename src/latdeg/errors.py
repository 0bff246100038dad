"""Exception types shared across the package.

``DomainError`` subclasses mean the inputs were outside an operation's
domain (the CLI maps them to exit status 1).  ``FormatError`` means an
input file could not be parsed (exit status 2).  ``DEFAULT_BUDGET``
is the enumeration budget the oracles and the CLI default to; it lives
here, out of ``__all__``, so that ``applications`` and the CLI read it
without loading ``hilbert``, which re-exports it.
"""

__all__ = ["DomainError", "DimensionMismatch", "NonSquare", "NotHomogeneous", "RankMismatch",
           "BudgetExceeded", "NotStabilized", "Disconnected", "NonPrimeField", "FormatError"]

DEFAULT_BUDGET = 2_000_000


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
    """An enumeration would exceed its configured budget."""

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
