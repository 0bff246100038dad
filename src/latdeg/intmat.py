"""Exact integer matrix algebra.

Everything here runs over Python's unbounded integers: invariant
factors, Hermite normal forms, fraction-free determinants, and integer
kernels.  Each normal form has one elimination loop, and no unimodular
transform is returned: the degree needs only the invariant factors, and
the integer kernel is read off the Hermite form of [A | I].  The loops
work on lists of rows, which the public functions take from a matrix
once, and share one row operation.  No floating point and no
machine-word arithmetic anywhere: a matrix takes its entries through
``operator.index``, so a float or a string is refused, never truncated.
One reader of integer lines serves the matrix, exponent and graph file
formats.

The invariant factors alone are computed modulo D, the gcd of the r x r
minors (r the rank) that one Bareiss pass already produces
(``_fraction_free``, shared with the determinant); see
:func:`smith_invariants` for why no factor is lost.  The Hermite
elimination also takes a modulus, a multiple of the index of a
full-rank row lattice, which the block the pass leaves at three columns
gives from other minors; the public Hermite functions run it exact.
With a modulus, both loops clear what columns they can with a unit
pivot on packed rows (``_unit_sweep``), and the others with the min-|x|
loop on unpacked, reduced rows.
"""

from __future__ import annotations

import re
import sys
from math import gcd
from operator import index

from .errors import FormatError, NonSquare

__all__ = [
    "ZMatrix",
    "determinant",
    "smith_invariants",
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

    def __reduce__(self):
        # __slots__ without __getstate__ defeats pickle protocols 0 and 1
        return (ZMatrix, (self.rows, self.cols, self.entries))

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

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        """Mutable row-of-lists copy (the working form for elimination)."""
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"ZMatrix.from_rows({self.to_rows()!r})" if self.cols else \
            f"ZMatrix({self.rows}, {self.cols}, ())"


def _fraction_free(rows: list[list[int]], n: int) -> tuple[int, int, tuple[int, ...], tuple | None]:
    """One Bareiss fraction-free elimination pass over a copy of the n-column ``rows``.

    Columns without a pivot are skipped, so any shape works.  Returns
    the rank r, the last pivot with the sign of the row swaps (for a
    nonsingular square matrix, its determinant; 1 when r = 0), the
    entries of the pivot row and the pivot column at the r-th step (by
    Sylvester's identity each an r x r minor of ``rows``), and the tail:
    the rows at and below the next pivot when three columns remain, and
    the last pivot p, or None if the pass never got there.  After k
    pivots in k columns, each 3 x 3 minor of that block is p**2 times
    the (k + 3) x (k + 3) minor of ``rows`` on its rows and the pivot rows.

    Where it can, the pass clears two columns j, j + 1 in one sweep
    (Bareiss's two-step variant, Math. Comp. 22, 1968): each row below
    the 2 x 2 pivot block becomes its 3 x 3 minor with that block, over
    prev**2, again exact by Sylvester's identity.  A block with no
    nonzero 2 x 2 minor, the last three columns, and a single row left
    take the one-step sweep instead, so the tail and the last-step
    minors are those of the one-step pass.
    """
    m = len(rows)
    mat = [list(row) for row in rows]
    sign = 1
    prev = 1
    k = 0
    pivot_col: list[int] = []
    last = 0
    tail = None
    j = 0
    while j < n and k < m:
        if j == n - 3:
            tail = [row[j:] for row in mat[k:]], prev
        swap = next((i for i in range(k, m) if mat[i][j]), None)
        if swap is None:
            j += 1
            continue
        if swap != k:
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        row_k = mat[k]
        pivot = row_k[j]
        if j + 1 < n - 3 and k + 1 < m:
            b = row_k[j + 1]
            # column j + 1 below row k after one step, times prev
            col = [row[j + 1] * pivot - row[j] * b for row in mat[k + 1 :]]
            second = next((i for i, x in enumerate(col) if x), None)
            if second is not None:
                if second:
                    mat[k + 1], mat[k + 1 + second] = mat[k + 1 + second], mat[k + 1]
                    col[0], col[second] = col[second], col[0]
                    sign = -sign
                row_l = mat[k + 1]
                a, d, det2 = row_l[j], row_l[j + 1], col[0]
                # the cofactors of a row's entries in columns j and j + 1, per
                # column c; row k + 1 takes its one-step values
                c1, c2 = [0] * n, [0] * n
                for c in range(j + 2, n):
                    c1[c] = b * row_l[c] - d * row_k[c]
                    c2[c] = a * row_k[c] - pivot * row_l[c]
                    row_l[c] = -c2[c] // prev
                prev2 = prev * prev
                for i in range(k + 2, m):
                    row_i = mat[i]
                    x, y = row_i[j], row_i[j + 1]
                    if x or y:
                        for c in range(j + 2, n):
                            row_i[c] = (row_i[c] * det2 + x * c1[c] + y * c2[c]) // prev2
                    elif det2 != prev2:
                        for c in range(j + 2, n):
                            row_i[c] = row_i[c] * det2 // prev2
                # columns j and j + 1 below the pivots are never read again
                pivot_col = [x // prev for x in col]
                prev = row_l[j + 1] = pivot_col[0]
                last = j + 1
                k += 2
                j += 2
                continue
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
        j += 1
    minors = tuple(mat[k - 1][last:]) + tuple(pivot_col[1:]) if k else ()
    return k, sign * prev, minors, tail


def determinant(a: ZMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    if a.rows != a.cols:
        raise NonSquare(a.rows, a.cols)
    rank, signed_pivot, _minors, _tail = _fraction_free(a.to_rows(), a.cols)
    return signed_pivot if rank == a.rows else 0


def _field_width(modulus: int, m: int, n: int) -> int:
    """Bits per column of a packed m x n matrix mod R: 2*bits(R) + bits(max(m, n)) + 2.

    A field starts below R and takes at most one add of c * x, with c
    and x below R (a pivot row is reduced first), per eliminated column,
    so it stays below R + max(m, n) * R**2 and never carries.
    """
    return 2 * modulus.bit_length() + max(m, n).bit_length() + 2


def _pack(values: list[int], w: int) -> int:
    """One int holding the nonnegative ``values`` in w-bit fields, the first lowest."""
    v = 0
    for x in reversed(values):
        v = v << w | x
    return v


def _unit_sweep(rows: list[int], j: int, cols: Iterable[int], w: int, modulus: int) -> list | None:
    """Clear column j of the packed ``rows`` with a unit pivot mod R.

    Each row is one int, a nonnegative field per column, the first
    lowest, of the width that ``_field_width`` bounds; a residue is its
    field mod R.  Takes out of ``rows`` the first row whose field j is a
    unit x, scales its fields in ``cols`` by x**-1 mod R, clears field j
    of every other row with one multiply-add (Kronecker substitution),
    and returns the scaled fields in ``cols`` order (None if no unit).
    """
    mask = (1 << w) - 1
    shift = w * j
    for i, row in enumerate(rows):
        if gcd(row >> shift & mask, modulus) == 1:
            break
    else:
        return None
    del rows[i]
    u = pow(row >> shift & mask, -1, modulus)
    fields = []
    pivot = 0
    for c in cols:
        x = u * (row >> w * c & mask) % modulus
        fields.append(x)
        pivot |= x << w * c
    for k, v in enumerate(rows):
        y = (v >> shift & mask) % modulus
        if y:
            rows[k] = v + (modulus - y) * pivot
    return fields


def _unit_pivots(d: list[list[int]], s: int, modulus: int) -> int:
    """Unit pivots of the Smith loop mod R, each an invariant factor 1; returns their number.

    Sweeps the live columns left to right until a pass sweeps none, and
    leaves in ``d`` the reduced block of the others, which holds no unit.
    """
    w = _field_width(modulus, len(d), s)
    mask = (1 << w) - 1
    rows = [_pack([x % modulus for x in row], w) for row in d]
    cols = list(range(s))
    live = None
    while live != len(cols):
        live = len(cols)
        for j in cols[:]:
            # the pivot carries every live column, a skipped one left of j too
            if _unit_sweep(rows, j, cols, w, modulus) is not None:
                cols.remove(j)
    d[:] = [[(v >> w * k & mask) % modulus for k in cols] for v in rows]
    return s - len(cols)


def _row_sub(di: list[int], dj: list[int], q: int, start: int, modulus: int) -> None:
    """Row ``di`` -= q * row ``dj`` from column ``start`` on, reduced mod a positive ``modulus``."""
    if modulus:
        for k in range(start, len(di)):
            di[k] = (di[k] - q * dj[k]) % modulus
    else:
        for k in range(start, len(di)):
            di[k] -= q * dj[k]


def _smith_elimination(d: list[list[int]], m: int, s: int, modulus: int = 0) -> tuple[int, ...]:
    """The Smith elimination loop, in place on the rows ``d``.

    Classical elimination: move an entry of minimal absolute value in
    the working block to the pivot position, clear its row and column
    with integer row and column operations, and fold any block entry
    the pivot does not divide back into the pivot row, so the diagonal
    comes out as a divisibility chain of positive factors.  Pivots only
    inside the m x s block at the top left, and returns its invariant
    factors.  Rows below the block are carried along by the same column
    swaps and subtractions, so an identity block placed there comes out
    as the column transform V (Cohen, GTM 138, 2.4); only
    ``HomogeneousLattice.smith_coordinates`` places one.  Once pivot t
    is being worked on, rows and columns before t of the block are zero
    outside the diagonal, so row operations touch only columns >= t and
    column operations only rows >= t.

    With a positive ``modulus`` D (and nothing carried) the loop
    eliminates the lattice spanned by the rows and D*Z^s, and the
    factors are gcd(diagonal entry, D) for each of the min(m, s)
    diagonal positions.  It first takes every unit pivot
    (``_unit_pivots``), then runs the classical loop on the block left,
    with every entry kept reduced mod D.  Its stray test asks for
    divisibility by gcd(pivot, D), the generator of the pivot's ideal
    mod D; since that gcd divides D, residues of its multiples stay its
    multiples, and the factors still form a divisibility chain.
    """
    units = _unit_pivots(d, s, modulus) if modulus else 0
    m, s = m - units, s - units
    t = 0

    def swap_cols(i, j):
        if i != j:
            for row in d[t:]:
                row[i], row[j] = row[j], row[i]

    def col_sub(j, k, q):  # col j -= q * col k, in the rows where col k is nonzero
        for row in d[t:]:
            if row[k]:
                row[j] = (row[j] - q * row[k]) % modulus if modulus else row[j] - q * row[k]

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
        d[t], d[best[1]] = d[best[1]], d[t]
        swap_cols(t, best[2])
        while True:
            dirty = False
            pivot = d[t][t]
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // pivot
                    if q:
                        _row_sub(d[i], d[t], q, t, modulus)
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
                d[t], d[best[1]] = d[best[1]], d[t]
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
            _row_sub(d[t], d[stray], -1, t, modulus)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
        t += 1
    if modulus:
        return (1,) * units + tuple(gcd(d[i][i], modulus) for i in range(limit))
    return tuple(d[i][i] for i in range(limit) if d[i][i])


def smith_invariants(a: ZMatrix) -> tuple[int, ...]:
    """The invariant factors of ``a``, without the unimodular transforms.

    Returns the factors of the exact Smith loop, computed modulo D, the
    gcd of the r x r minors that one Bareiss pass (r the rank) leaves in
    its last pivot row and column.  This is exact: the product
    d_1 ... d_r of the first r invariant factors divides every r x r
    minor, so each d_i divides D, and the lattice spanned by the rows of
    ``a`` and D*Z^n has the invariant factors d_1 | ... | d_r | D | ... | D,
    whose first r are the d_i.  Entries of the elimination therefore
    stay below D, which is far smaller than the coefficient swell of the
    unreduced loop.
    """
    return _smith_pass(a.to_rows(), a.cols)[0]


def _smith_pass(rows: list[list[int]], n: int) -> tuple[tuple[int, ...], tuple | None]:
    """:func:`smith_invariants` of the n-column ``rows``, and the tail of their Bareiss pass."""
    rank, _pivot, minors, tail = _fraction_free(rows, n)
    modulus = gcd(*minors)  # 0 at rank 0, which has no minors
    if modulus <= 1:
        return (1,) * rank, tail
    d = [list(row) for row in rows]
    return _smith_elimination(d, len(d), n, modulus=modulus)[:rank], tail


def _tail_modulus(rows: list[list[int]], n: int, tail: tuple | None) -> int:
    """D2, a multiple of the index of the lattice of the n-column ``rows``, of rank n.

    From the tail (B, p) of the pass over ``rows``, or B = ``rows`` and
    p = 1 when n < 3: the gcd of the minors a pass over the rows of B in
    reverse order leaves, over p**2.  That is a gcd of n x n minors of
    ``rows``; with more than n rows, generically not those of the Smith
    modulus.  It is 0 when n = 0.
    """
    block, p = tail or (rows, 1)
    minors = _fraction_free(block[::-1], min(n, 3))[2]
    return gcd(*minors) // (p * p)


def _hermite_elimination(h: list[list[int]], modulus: int = 0) -> list[int]:
    """The Hermite elimination loop, in place on the rows ``h``; returns the pivot columns.

    Pivots are positive and move strictly right row by row, and rows
    past the rank are dropped.  While column j is being worked on, the
    rows at and below the current pivot row are zero before column j;
    row operations only subtract multiples of those rows, so they touch
    only columns >= j.  Rows above the pivots are left alone until one
    bottom-up pass at the end reduces each row exactly by the finished
    rows below it, over their nonzero entries, and puts every entry
    above a pivot into [0, pivot) (Cohen, GTM 138, Alg. 2.4.5 and
    2.4.8).  So the rows left are the canonical basis of the row lattice.

    A positive ``modulus`` R requires a full-rank row lattice in Z^s
    whose index divides R, so it contains R*Z^s (Domich-Kannan-Trotter),
    and every one of the s columns gets a pivot.  A column with a unit
    mod R gets the pivot 1 from ``_unit_sweep`` on the rows below the
    pivots, packed.  A column without one is unpacked and worked by the
    Euclid sweeps, with rows kept reduced mod R; its pivot is h =
    gcd(x, R) for the entry x left (R if the column is all zero mod R),
    its row u * row mod R with u*x = h mod R, and then R //= h.  Once R
    is 1 every entry is a unit and every pivot left is 1; R = 1 at the
    start gives the identity basis at once.
    """
    m, s = len(h), len(h[0]) if h else 0
    if modulus == 1:
        h[:] = [[int(c == k) for c in range(s)] for k in range(s)]
        return list(range(s))
    if modulus:
        w = _field_width(modulus, m, s)
        mask = (1 << w) - 1
        packed = [_pack([x % modulus for x in row], w) for row in h]
    cols: list[int] = []
    for j in range(s):
        r = len(cols)
        if r == m:
            break
        if modulus:
            fields = _unit_sweep(packed, j, range(j, s), w, modulus)
            if fields is not None:
                h[r] = [0] * j + [1] + fields[1:]  # u * x mod R is 0 once R is 1
                cols.append(j)
                continue
            h[r:] = [[(v >> w * c & mask) % modulus for c in range(s)] for v in packed]
        while True:
            best = None
            for i in range(r, m):
                x = h[i][j]
                if x and (best is None or abs(x) < abs(h[best][j])):
                    best = i
            if best is None:
                break
            h[r], h[best] = h[best], h[r]
            pivot = h[r][j]
            clean = True
            for i in range(r + 1, m):
                if h[i][j]:
                    _row_sub(h[i], h[r], h[i][j] // pivot, j, modulus)
                    if h[i][j]:
                        clean = False
            if clean:
                break
        row = h[r]
        if modulus:
            pivot = gcd(row[j], modulus)
            u = pow(row[j] // pivot, -1, modulus // pivot)
            h[r] = row[:j] + [pivot] + [u * x % modulus for x in row[j + 1 :]]
            packed = [_pack(row, w) for row in h[r + 1 :]]
            modulus //= pivot
        elif not row[j]:
            continue  # the column is zero below the pivots found so far
        elif row[j] < 0:
            h[r] = [-x for x in row]
        cols.append(j)
    del h[len(cols) :]
    support: list[list[tuple[int, int]]] = []  # nonzero (column, entry) pairs of the rows below
    for row in reversed(h):
        for below in support:
            p, pivot = below[0]
            q = row[p] // pivot  # floor puts the entry into [0, pivot)
            if q:
                for c, x in below:
                    row[c] -= q * x
        support.insert(0, [(c, x) for c, x in enumerate(row) if x])
    return cols


def hermite_basis(a: ZMatrix) -> ZMatrix:
    """The nonzero rows of the Hermite normal form of ``a``.

    Only unimodular row operations are used, so the result is the
    canonical echelon basis of the row lattice of ``a``, one row per
    unit of rank, the same for every generating set of that lattice.
    """
    h = a.to_rows()
    _hermite_elimination(h)
    return ZMatrix.from_rows(h, cols=a.cols)


def integer_kernel(a: ZMatrix) -> ZMatrix:
    """Basis of the integer left kernel ``{x : x @ a == 0}``.

    The rows of the result are a basis over the integers of the full
    kernel lattice (a direct summand of Z^rows, not just a rational
    basis), in Hermite form.  Returns an empty matrix when the kernel is
    trivial.  One elimination over all columns of [a | I] gives it: the
    rows of that Hermite form are the vectors (x @ a, x), and those that
    vanish on ``a`` are the Hermite basis of the kernel (Cohen, GTM 138,
    2.4).
    """
    n = a.cols
    h = [row + [int(i == j) for j in range(a.rows)] for i, row in enumerate(a.to_rows())]
    _hermite_elimination(h)
    return ZMatrix.from_rows([row[n:] for row in h if not any(row[:n])], cols=a.rows)


def _int_lines(text: str, kind: str, width: int) -> tuple[list[int], list[tuple[int, str]]]:
    """A ``kind`` file's header as ``width`` integers, and its other (number, line) pairs."""
    lines = [(k, line) for k, raw in enumerate(text.splitlines(), 1)
             if (line := raw.strip()) and line[0] != "#"]
    if not lines:
        raise FormatError(f"empty {kind} file")
    return _ints(kind, *lines[0], width), lines[1:]


def _ints(kind: str, number: int, line: str, width: int) -> list[int]:
    """Line ``number`` of a ``kind`` file as exactly ``width`` tokens that ``int`` reads."""
    parts = line.split()
    if len(parts) == width:
        try:
            return list(map(int, parts))
        except ValueError:
            pass
    where = f"{kind} file line {number}"
    if len(parts) != width:
        raise FormatError(f"{where}: field count {len(parts)}, expected {width}")
    # a token of int's syntax fails only on Python's limit on decimal digits
    for token in parts:
        if not re.fullmatch(r"[+-]?\d+(_\d+)*", token):
            raise FormatError(f"{where}: {token!r} is not an integer")
    raise FormatError(f"{where}: an integer has more digits than Python's limit of "
                      f"{sys.get_int_max_str_digits()} (sys.set_int_max_str_digits)")


def parse_matrix(text: str) -> ZMatrix:
    """Parse the matrix text format.

    First content line is ``"rows cols"``; each following line holds one
    row of whitespace-separated integers.  Blank lines and lines whose
    first nonblank character is ``#`` are ignored.
    """
    (m, s), body = _int_lines(text, "matrix", 2)
    if m < 0 or s < 0:
        raise FormatError(f"dimensions must be nonnegative, got {m} {s}")
    expected = m if s > 0 else 0
    if len(body) != expected:
        raise FormatError(f"expected {expected} row lines, got {len(body)}")
    entries: list[int] = []
    for number, line in body:
        entries += _ints("matrix", number, line, s)
    return ZMatrix(m, s, entries)


def format_matrix(a: ZMatrix) -> str:
    """Inverse of :func:`parse_matrix` (modulo comments and blank lines)."""
    lines = [f"{a.rows} {a.cols}"]
    if a.cols > 0:
        for i in range(a.rows):
            lines.append(" ".join(str(x) for x in a.row(i)))
    return "\n".join(lines) + "\n"
