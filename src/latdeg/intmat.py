"""Exact integer matrix algebra.

Everything here runs over Python's unbounded integers: Smith and Hermite
normal forms with unimodular transform tracking, the same eliminations
without transforms (invariant factors and Hermite bases only),
fraction-free determinants, and integer kernels.  No floating point, no
fixed-width arithmetic anywhere: a matrix takes its entries through
``operator.index``, so a float or a string is refused, never truncated.
The transform-tracking forms come back as immutable records.

The invariant factors alone are computed modulo D, the gcd of the r x r
minors (r the rank) that one Bareiss pass already produces; that pass
is shared with the determinant.  Every one of the first r invariant
factors divides D, so reducing mod D loses none of them, and entries
stay below D instead of swelling.  The Hermite elimination also takes a
modulus, a multiple of the index of a full-rank row lattice; the public
Hermite functions run it exact.
"""

from __future__ import annotations

from math import gcd
from operator import index
from typing import Iterable, Sequence

from ._record import Record
from .errors import DimensionMismatch, FormatError, NonSquare

__all__ = [
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
]


class ZMatrix:
    """Dense integer matrix, stored row-major, immutable by convention.

    Entries are plain Python ints, so magnitudes are unbounded; an entry
    that is not an integer (a float, a string) raises ``TypeError``
    instead of being truncated or parsed.  Empty matrices (zero rows
    and/or columns) are allowed.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        data = tuple(map(index, entries))
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        self.rows = rows
        self.cols = cols
        self.entries = data

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "ZMatrix":
        """Build from a sequence of rows; ``cols`` disambiguates the empty case."""
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError(f"rows have {width} entries, expected {cols}")
            cols = width
        elif cols is None:
            cols = 0
        return cls(len(rows), cols, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n: int) -> "ZMatrix":
        return cls(n, n, [int(i == j) for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "ZMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def to_rows(self) -> list[list[int]]:
        """Mutable row-of-lists copy (the working form for elimination)."""
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self[i, i] for i in range(min(self.rows, self.cols)))

    def transpose(self) -> "ZMatrix":
        return ZMatrix(
            self.cols, self.rows,
            [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def __matmul__(self, other: "ZMatrix") -> "ZMatrix":
        return mat_mul(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"ZMatrix.from_rows({self.to_rows()!r})" if self.cols else \
            f"ZMatrix({self.rows}, {self.cols}, ())"


class SmithDecomposition(Record):
    """Unimodular u, v and diagonal d with u @ a @ v == d.

    The diagonal of ``d`` is ``invariant_factors`` (each positive, each
    dividing the next) followed by zeros; ``rank`` counts the nonzero
    diagonal entries.
    """

    u: ZMatrix
    d: ZMatrix
    v: ZMatrix
    invariant_factors: tuple[int, ...]
    rank: int


class HermiteForm(Record):
    """Row-style upper echelon form with transform @ a == h.

    Pivots are positive, move strictly right row by row, and entries
    above each pivot are reduced into [0, pivot).  The nonzero rows of
    ``h`` are a basis of the row lattice of ``a``.
    """

    h: ZMatrix
    transform: ZMatrix
    rank: int


def mat_mul(a: ZMatrix, b: ZMatrix) -> ZMatrix:
    """Exact matrix product."""
    if a.cols != b.rows:
        raise DimensionMismatch(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    bc = b.cols
    brows = [b.row(i) for i in range(b.rows)]
    out = []
    for i in range(a.rows):
        arow = a.row(i)
        acc = [0] * bc
        for k, aik in enumerate(arow):
            if aik:
                brow = brows[k]
                for j in range(bc):
                    acc[j] += aik * brow[j]
        out.extend(acc)
    return ZMatrix(a.rows, bc, out)


def _fraction_free(a: ZMatrix) -> tuple[int, int, tuple[int, ...]]:
    """One Bareiss fraction-free elimination pass over the rows of ``a``.

    Columns without a pivot are skipped, so any shape works.  Returns
    the rank r, the last pivot with the sign of the row swaps (for a
    nonsingular square matrix, its determinant; 1 when r = 0), and the
    entries of the pivot row and the pivot column at the r-th step.  By
    Sylvester's identity each of those is an r x r minor of ``a``.
    """
    m, n = a.rows, a.cols
    mat = a.to_rows()
    sign = 1
    prev = 1
    k = 0
    pivot_col: list[int] = []
    last = 0
    for j in range(n):
        if k == m:
            break
        swap = next((i for i in range(k, m) if mat[i][j]), None)
        if swap is None:
            continue
        if swap != k:
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        row_k = mat[k]
        pivot = row_k[j]
        pivot_col = [mat[i][j] for i in range(k, m)]
        for i in range(k + 1, m):
            row_i = mat[i]
            factor = row_i[j]
            # Bareiss: these divisions are always exact; a zero factor
            # leaves x * pivot // prev, the identity when pivot == prev
            if factor:
                for c in range(j + 1, n):
                    row_i[c] = (row_i[c] * pivot - factor * row_k[c]) // prev
                row_i[j] = 0
            elif pivot != prev:
                for c in range(j + 1, n):
                    row_i[c] = row_i[c] * pivot // prev
        prev = pivot
        last = j
        k += 1
    minors = tuple(mat[k - 1][last:]) + tuple(pivot_col[1:]) if k else ()
    return k, sign * prev, minors


def determinant(a: ZMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    if a.rows != a.cols:
        raise NonSquare(a.rows, a.cols)
    rank, signed_pivot, _minors = _fraction_free(a)
    return signed_pivot if rank == a.rows else 0


def _smith_elimination(a: ZMatrix, track: bool, modulus: int = 0):
    """The Smith elimination loop shared by both Smith entry points.

    Returns the invariant factors, the diagonalized working matrix and,
    when ``track`` is set, the row and column transforms (else None for
    both).  Once pivot t is being worked on, rows and columns before t
    are zero outside the diagonal, so row operations touch only columns
    >= t and column operations only rows >= t.

    With a positive ``modulus`` D every entry is kept reduced mod D, so
    the loop eliminates the lattice spanned by the rows of ``a`` and
    D*Z^n, and the factors are gcd(diagonal entry, D) for each of the
    min(m, n) diagonal positions.  The stray test then asks for
    divisibility by gcd(pivot, D), the generator of the pivot's ideal
    mod D; since that gcd divides D, residues of its multiples stay its
    multiples, and the factors still form a divisibility chain.
    """
    m, s = a.rows, a.cols
    d = [[x % modulus for x in row] for row in a.to_rows()] if modulus else a.to_rows()
    u = [[int(i == j) for j in range(m)] for i in range(m)] if track else None
    v = [[int(i == j) for j in range(s)] for i in range(s)] if track else None
    t = 0

    def swap_rows(i, j):
        if i != j:
            d[i], d[j] = d[j], d[i]
            if track:
                u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for k in range(t, m):
                row = d[k]
                row[i], row[j] = row[j], row[i]
            if track:
                for row in v:
                    row[i], row[j] = row[j], row[i]

    def row_sub(i, j, q):  # row i -= q * row j
        di, dj = d[i], d[j]
        if modulus:
            for k in range(t, s):
                di[k] = (di[k] - q * dj[k]) % modulus
        else:
            for k in range(t, s):
                di[k] -= q * dj[k]
        if track:
            ui, uj = u[i], u[j]
            for k in range(m):
                ui[k] -= q * uj[k]

    def col_sub(j, k, q):  # col j -= q * col k
        if modulus:
            for i in range(t, m):
                row = d[i]
                row[j] = (row[j] - q * row[k]) % modulus
        else:
            for i in range(t, m):
                row = d[i]
                row[j] -= q * row[k]
        if track:
            for row in v:
                row[j] -= q * row[k]

    def min_pivot():
        best = None
        for i in range(t, m):
            row = d[i]
            for j in range(t, s):
                x = row[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if best[0] == 1:
                        return best
        return best

    limit = min(m, s)
    while t < limit:
        best = min_pivot()
        if best is None:
            break
        swap_rows(t, best[1])
        swap_cols(t, best[2])
        while True:
            dirty = False
            pivot = d[t][t]
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // pivot
                    if q:
                        row_sub(i, t, q)
                    if d[i][t]:
                        dirty = True
            for j in range(t + 1, s):
                if d[t][j]:
                    q = d[t][j] // pivot
                    if q:
                        col_sub(j, t, q)
                    if d[t][j]:
                        dirty = True
            if dirty:
                # a remainder smaller than the pivot appeared; re-pivot on it
                best = min_pivot()
                swap_rows(t, best[1])
                swap_cols(t, best[2])
                continue
            divisor = gcd(d[t][t], modulus) if modulus else abs(d[t][t])
            if divisor == 1:
                break  # a unit divides every entry: no stray can exist
            stray = None
            for i in range(t + 1, m):
                row = d[i]
                for j in range(t + 1, s):
                    if row[j] % divisor:
                        stray = i
                        break
                if stray is not None:
                    break
            if stray is None:
                break
            # pull the non-multiple into the pivot row; the next sweep
            # replaces the pivot by a proper divisor of itself
            row_sub(t, stray, -1)
        if d[t][t] < 0:
            d[t][t] = -d[t][t]  # the rest of row t is already zero
            if track:
                u[t] = [-x for x in u[t]]
        t += 1
    if modulus:
        factors = tuple(gcd(d[i][i], modulus) for i in range(limit))
    else:
        factors = tuple(d[i][i] for i in range(limit) if d[i][i])
    return factors, d, u, v


def smith_normal_form(a: ZMatrix) -> SmithDecomposition:
    """Smith normal form with transforms.

    Classical elimination: repeatedly move the entry of minimal absolute
    value in the working block to the pivot position, clear its row and
    column with integer row/column operations, and fold any block entry
    the pivot does not divide back into the pivot row so the diagonal
    comes out as a divisibility chain.  Invariant factors are normalized
    positive.  Deterministic for a given input.
    """
    factors, d, u, v = _smith_elimination(a, track=True)
    return SmithDecomposition(
        u=ZMatrix.from_rows(u, cols=a.rows),
        d=ZMatrix.from_rows(d, cols=a.cols),
        v=ZMatrix.from_rows(v, cols=a.cols),
        invariant_factors=factors,
        rank=len(factors),
    )


def smith_invariants(a: ZMatrix) -> tuple[int, ...]:
    """The invariant factors of ``a``, without the unimodular transforms.

    Returns the same ``invariant_factors`` as :func:`smith_normal_form`,
    computed modulo D, the gcd of the r x r minors that one Bareiss pass
    (r the rank) leaves in its last pivot row and column.  This is exact:
    the product d_1 ... d_r of the first r invariant factors divides
    every r x r minor, so each d_i divides D, and the lattice spanned by
    the rows of ``a`` and D*Z^n has the invariant factors
    d_1 | ... | d_r | D | ... | D, whose first r are the d_i.  Entries of
    the elimination therefore stay below D, which is far smaller than
    the coefficient swell of the unreduced loop.
    """
    rank, _pivot, minors = _fraction_free(a)
    if rank == 0:
        return ()
    modulus = gcd(*minors)
    if modulus == 1:
        return (1,) * rank
    return _smith_elimination(a, track=False, modulus=modulus)[0][:rank]


def _reverse_pass_modulus(a: ZMatrix) -> int:
    """The gcd of the minors a Bareiss pass over the rows of ``a`` in reverse order leaves.

    For a full-rank row lattice this is a multiple of its index, a
    modulus for :func:`_hermite_elimination` that shares no pass with
    the Smith modulus of :func:`smith_invariants`.  It is 0 at rank 0.
    """
    _rank, _pivot, minors = _fraction_free(ZMatrix.from_rows(a.to_rows()[::-1], cols=a.cols))
    return gcd(*minors)


def _hermite_elimination(a: ZMatrix, track: bool, modulus: int = 0):
    """The Hermite elimination loop shared by both Hermite entry points.

    Returns the echelon working matrix, the row transform when ``track``
    is set (else None), and the rank.  While column j is being worked
    on, the rows at and below the current pivot row are zero before
    column j; row operations only subtract multiples of those rows, so
    they touch only columns >= j.

    A positive ``modulus`` R (without ``track``) requires a full-rank
    row lattice whose index divides R, so it contains R*Z^s
    (Domich-Kannan-Trotter).  Rows at and below the pivot row stay
    reduced mod R; the pivot is h = gcd(x, R) for the entry x left in
    the column (R if it is all zero mod R), its row u * row mod R with
    u*x = h mod R, and then R //= h.  Reduction above pivots is exact.
    """
    m, s = a.rows, a.cols
    h = [[x % modulus for x in row] for row in a.to_rows()] if modulus else a.to_rows()
    t = [[int(i == j) for j in range(m)] for i in range(m)] if track else None

    def swap(i, k):
        if i != k:
            h[i], h[k] = h[k], h[i]
            if track:
                t[i], t[k] = t[k], t[i]

    def row_sub(i, k, q):  # row i -= q * row k
        hi, hk = h[i], h[k]
        if modulus and i > k:
            for c in range(j, s):
                hi[c] = (hi[c] - q * hk[c]) % modulus
        else:
            for c in range(j, s):
                hi[c] -= q * hk[c]
        if track:
            ti, tk = t[i], t[k]
            for c in range(m):
                ti[c] -= q * tk[c]

    r = 0
    for j in range(s):
        if r == m:
            break
        pivoted = False
        while True:
            best = None
            for i in range(r, m):
                x = h[i][j]
                if x and (best is None or abs(x) < abs(h[best][j])):
                    best = i
            if best is None:
                break
            swap(r, best)
            pivot = h[r][j]
            clean = True
            for i in range(r + 1, m):
                if h[i][j]:
                    row_sub(i, r, h[i][j] // pivot)
                    if h[i][j]:
                        clean = False
            if clean:
                pivoted = True
                break
        if modulus:
            row = h[r]
            pivot = gcd(row[j], modulus)
            u = pow(row[j] // pivot, -1, modulus // pivot)
            h[r] = row[:j] + [pivot] + [u * x % modulus for x in row[j + 1 :]]
            modulus //= pivot
        elif not pivoted:
            continue
        elif h[r][j] < 0:
            h[r] = [-x for x in h[r]]
            if track:
                t[r] = [-x for x in t[r]]
        pivot = h[r][j]
        for i in range(r):
            q = h[i][j] // pivot  # floor puts the entry into [0, pivot)
            if q:
                row_sub(i, r, q)
        r += 1
    return h, t, r


def hermite_normal_form(a: ZMatrix) -> HermiteForm:
    """Hermite normal form (row-style upper echelon) with transform.

    Only unimodular row operations are used, so the nonzero rows of the
    result are a basis of the row lattice of ``a`` and the returned
    canonical form is unique for a given row lattice.
    """
    h, t, r = _hermite_elimination(a, track=True)
    return HermiteForm(
        h=ZMatrix.from_rows(h, cols=a.cols),
        transform=ZMatrix.from_rows(t, cols=a.rows),
        rank=r,
    )


def hermite_basis(a: ZMatrix) -> ZMatrix:
    """The nonzero rows of the Hermite normal form of ``a``, without transform.

    Runs the elimination of :func:`hermite_normal_form`; the result is
    the canonical echelon basis of the row lattice of ``a``, one row per
    unit of rank.
    """
    h, _t, r = _hermite_elimination(a, track=False)
    return ZMatrix.from_rows(h[:r], cols=a.cols)


def integer_kernel(a: ZMatrix) -> ZMatrix:
    """Basis of the integer left kernel ``{x : x @ a == 0}``.

    The rows of the result are a basis over the integers of the full
    kernel lattice (a direct summand of Z^rows, not just a rational
    basis), put into Hermite form for determinism.  Returns an empty
    matrix when the kernel is trivial.
    """
    hf = hermite_normal_form(a)
    raw = [hf.transform.row(i) for i in range(hf.rank, a.rows)]
    if not raw:
        return ZMatrix(0, a.rows, ())
    return hermite_basis(ZMatrix.from_rows(raw, cols=a.rows))


def _content_lines(text: str) -> list[str]:
    """Non-blank lines with comment lines (leading '#') removed."""
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def parse_matrix(text: str) -> ZMatrix:
    """Parse the matrix text format.

    First content line is ``"rows cols"``; each following line holds one
    row of whitespace-separated integers.  Blank lines and lines whose
    first nonblank character is ``#`` are ignored.
    """
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'rows cols', got {lines[0]!r}")
    try:
        m, s = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"header must be two integers, got {lines[0]!r}") from None
    if m < 0 or s < 0:
        raise FormatError(f"dimensions must be nonnegative, got {m} {s}")
    body = lines[1:]
    expected = m if s > 0 else 0
    if len(body) != expected:
        raise FormatError(f"expected {expected} row lines, got {len(body)}")
    entries: list[int] = []
    for k, line in enumerate(body):
        parts = line.split()
        if len(parts) != s:
            raise FormatError(f"row {k + 1} has {len(parts)} entries, expected {s}")
        try:
            entries.extend(int(p) for p in parts)
        except ValueError:
            raise FormatError(f"row {k + 1} contains a non-integer entry: {line!r}") from None
    return ZMatrix(m, s, entries)


def format_matrix(a: ZMatrix) -> str:
    """Inverse of :func:`parse_matrix` (modulo comments and blank lines)."""
    lines = [f"{a.rows} {a.cols}"]
    if a.cols > 0:
        for i in range(a.rows):
            lines.append(" ".join(str(x) for x in a.row(i)))
    return "\n".join(lines) + "\n"
