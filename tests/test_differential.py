"""Differential property tests: transform-free routes against transform-tracking ones.

The lattice answers membership and element-order queries by reducing
against its Hermite basis; the reference here is the Smith-coordinate
formula read off the reference Smith decomposition of the generators
(``conftest.smith_normal_form``), whose coordinates must also equal
``smith_coordinates``.  The lattice runs one Hermite elimination on the
generators without their last column, modulo a gcd of minors at rank
s - 1 and exactly below it; its basis is checked against the exact
``hermite_basis`` of the full generators at every rank, and its volume
(the product of the pivots) against the determinant of that basis
without its last column.  The breadth-first coset counts of
``hilbert_profile`` are checked against pairwise membership tests
between monomials.  The modular Smith and Hermite loops, which work on
packed rows with unit pivots first, are checked directly against the
lattice of the rows and R*Z^n, and through the lattice on bases whose
degree has at least 40 bits and on non-cyclic groups; the Smith unit
phase must leave no unit mod R behind.  Scaling every row by k must
scale the invariant factors and the Hermite basis by k, and scaling
only some rows must keep the exact answers.  The two-step Bareiss pass
must return exactly what the one-step reference
(``conftest.fraction_free_reference``) returns, and the queries on
sparse basis rows exactly what a reduction over the dense rows of
``basis`` returns, at s = 8 to 30 and every rank.
"""

import random
from math import gcd, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    check_hermite_basis,
    cofactor_det,
    fraction_free_reference,
    mat_mul,
    minors_invariant_factors,
    pairwise_coset_count,
    random_unimodular,
    smith_normal_form,
    zero_matrix,
)
from latdeg import (
    HomogeneousLattice,
    ZMatrix,
    determinant,
    hermite_basis,
    hilbert_profile,
    smith_invariants,
)
from latdeg.intmat import (_fraction_free, _hermite_elimination, _smith_elimination, _tail_modulus,
                           _unit_pivots)

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def small_matrices(draw, max_dim=4, bound=9):
    """An m x n matrix with m, n <= max_dim, of a shape the Smith routes branch on.

    Uniform entries in [-bound, bound] or in [-10^6, 10^6]; the zero
    matrix (rank 0); a product of an m x r and an r x n factor (rank at
    most r, often below both m and n); or a unimodular transform of
    diag(1, ..., 1, k), square and nonsingular, whose last invariant
    factor is |det|.
    """
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    kind = draw(st.sampled_from(["uniform", "huge", "zero", "low_rank", "diagonal"]))
    if kind == "zero":
        return zero_matrix(m, n)
    if kind == "low_rank":
        r = draw(st.integers(0, min(m, n)))
        left = [draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r)) for _ in range(m)]
        right = [draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
                 for _ in range(r)]
        rows = [[sum(x * y[j] for x, y in zip(row, right)) for j in range(n)] for row in left]
        return ZMatrix.from_rows(rows, cols=n)
    if kind == "diagonal":
        n = max(n, 1)
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        rows[n - 1][n - 1] = draw(st.integers(1, 60))
        for _ in range(draw(st.integers(0, 6))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            c = draw(st.integers(-3, 3))
            if i != j:
                if draw(st.booleans()):
                    rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
                else:
                    for row in rows:
                        row[i] += c * row[j]
        return ZMatrix.from_rows(rows, cols=n)
    entry = st.integers(-bound, bound) if kind == "uniform" else st.integers(-(10**6), 10**6)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    return ZMatrix.from_rows(rows, cols=n)


@st.composite
def homogeneous_rows(draw, max_s=5, bound=6, extra_rows=1):
    """(s, rows): generator rows of a homogeneous lattice in Z^s of any rank.

    Up to s + ``extra_rows`` rows are drawn as s-1 free entries in
    [-bound, bound] plus the balancing last one, and zero rows are mixed
    in, so every rank from 0 to s-1 occurs.
    """
    s = draw(st.integers(1, max_s))
    m = draw(st.integers(0, s + extra_rows))
    rows = []
    for _ in range(m):
        if draw(st.booleans()) and draw(st.booleans()):
            rows.append([0] * s)
        else:
            head = draw(st.lists(st.integers(-bound, bound), min_size=s - 1, max_size=s - 1))
            rows.append(head + [-sum(head)])
    return s, rows


@st.composite
def lattices_with_vectors(draw):
    """A homogeneous lattice in Z^s (1 <= s <= 5) of any rank, and query vectors.

    The queries are arbitrary vectors, coordinate-sum-zero vectors,
    lattice members and their quotients by small integers where those
    are whole.
    """
    s, rows = draw(homogeneous_rows())
    m = len(rows)
    lattice = HomogeneousLattice.from_rows(rows, ambient_dim=s)
    coordinate = st.integers(-8, 8)
    vectors = draw(st.lists(st.lists(coordinate, min_size=s, max_size=s), max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        head = draw(st.lists(coordinate, min_size=s - 1, max_size=s - 1))
        vectors.append(head + [-sum(head)])
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
        member = [sum(c * row[k] for c, row in zip(coeffs, rows)) for k in range(s)]
        vectors.append(member)
        k = draw(st.integers(2, 6))
        if all(x % k == 0 for x in member):
            vectors.append([x // k for x in member])
    return lattice, vectors


def smith_reference(lattice, v):
    """(contains, element_order) from the Smith coordinates of ``v``.

    The coordinates w = v @ V come from the V of the reference Smith
    form, and must equal what ``lattice.smith_coordinates`` returns.
    """
    dec = smith_normal_form(lattice.generators)
    w = tuple(sum(x * dec.v[i, j] for i, x in enumerate(v)) for j in range(len(v)))
    assert lattice.smith_coordinates(v) == w
    factors, r = dec.invariant_factors, dec.rank
    if any(w[r:]):
        return False, None
    contains = all(w[i] % factors[i] == 0 for i in range(r))
    order = 1
    for i in range(r):
        order = lcm(order, factors[i] // gcd(factors[i], w[i]))
    return contains, order


@SETTINGS
@given(small_matrices())
@example(zero_matrix(3, 4))
@example(ZMatrix.from_rows([[1, 0], [0, 6]]))
@example(ZMatrix.from_rows([[2, 4, 6], [4, 8, 12], [6, 12, 18]]))
@example(ZMatrix.from_rows([[10**6, -(10**6)], [999_999, 10**6]]))
def test_smith_invariants_match_tracked_form_and_minors(a):
    factors = smith_invariants(a)
    assert factors == smith_normal_form(a).invariant_factors
    minors = minors_invariant_factors(a)
    assert list(factors) == minors
    rank, _pivot, last_minors, _tail = _fraction_free(a.to_rows(), a.cols)
    assert rank == len(factors)
    if rank:
        # the modulus of the Smith route: a multiple of every d_i
        modulus = gcd(*last_minors)
        assert modulus % prod(factors) == 0
        assert modulus % prod(minors) == 0
        if a.rows == a.cols == rank:
            assert modulus == abs(determinant(a))


@SETTINGS
@given(small_matrices(max_dim=5, bound=30))
def test_hermite_basis_is_the_nonzero_hermite_rows(a):
    check_hermite_basis(a, hermite_basis(a))


@SETTINGS
@given(lattices_with_vectors())
def test_queries_match_smith_coordinates(case):
    lattice, vectors = case
    assert lattice.rank == lattice.basis.rows
    for v in vectors:
        contains, order = smith_reference(lattice, v)
        assert lattice.contains(v) == contains
        assert lattice.element_order(v) == order


@SETTINGS
@given(lattices_with_vectors())
def test_residue_is_a_canonical_coset_label(case):
    lattice, vectors = case
    generators = lattice.generators.to_rows()
    for v in vectors:
        r = lattice.residue(v)
        assert lattice.residue(r) == r
        assert lattice.contains([x - y for x, y in zip(v, r)])
        for g in generators:
            assert lattice.residue([x + y for x, y in zip(v, g)]) == r
    for a in vectors:
        for b in vectors:
            difference = [x - y for x, y in zip(a, b)]
            assert (lattice.residue(a) == lattice.residue(b)) == lattice.contains(difference)


@SETTINGS
@given(homogeneous_rows(max_s=4), st.integers(0, 4))
@example((1, []), 4)
@example((4, []), 4)
@example((4, [[0, 0, 0, 0]]), 3)
def test_profile_matches_pairwise_counts(case, d):
    s, rows = case
    lattice = HomogeneousLattice.from_rows(rows, ambient_dim=s)
    expected = tuple(pairwise_coset_count(lattice, k) for k in range(d + 1))
    assert hilbert_profile(lattice, d).values == expected


def head(rows, s):
    """The rows without their last column: generators of L' in Z^(s-1)."""
    return ZMatrix.from_rows([row[:-1] for row in rows], cols=s - 1)


def smith_modulus(rows, s):
    """D, the modulus of the Smith route: the gcd of the minors of the pass over the head."""
    return gcd(*_fraction_free([row[:-1] for row in rows], s - 1)[2])


def head_modulus(rows, s):
    """D2 of the lattice L', from the tail of the same pass."""
    a = [row[:-1] for row in rows]
    return _tail_modulus(a, s - 1, _fraction_free(a, s - 1)[3])


@SETTINGS
@given(st.sampled_from([6, 10**6]).flatmap(
    lambda bound: homogeneous_rows(max_s=8, bound=bound, extra_rows=2)))
@example((1, []))
@example((2, [[0, 0], [5, -5]]))
@example((3, [[0, 0, 0], [0, 0, 0]]))  # rank 0 = s - 3: only zero rows
@example((4, [[2, -4, 6, -4], [1, -2, 3, -2]]))  # rank 1 = s - 3
@example((4, [[2, 0, 4, -6], [0, 3, 3, -6], [4, 6, 14, -24]]))  # rank 2 = s - 2
@example((5, [[3, 0, -6, 9, -6], [0, 4, 2, -8, 2], [3, 4, -4, 1, -4]]))  # rank 2 = s - 3
@example((6, [[1, 2, 0, -3, 4, -4], [0, 0, 5, 5, -5, -5], [2, 4, 5, -1, 3, -13],
              [0, 6, 0, 6, 0, -12]]))  # rank 3 = s - 3
def test_corank_one_basis_matches_hermite_basis(case):
    s, rows = case
    lattice = HomogeneousLattice.from_rows(rows, ambient_dim=s)
    assert lattice.basis == hermite_basis(lattice.generators)
    assert lattice.invariant_factors == smith_invariants(lattice.generators)
    if lattice.rank == s - 1:
        assert head_modulus(rows, s) % lattice.degree() == 0


@pytest.mark.parametrize("rows, s, modulus", [
    ([], 1, 0),  # s = 1: no columns left, so the exact loop runs
    ([[0], [0]], 1, 0),
    ([[3, -3]], 2, 3),  # s = 2
    ([[4, -4], [0, 0], [6, -6]], 2, 2),
    ([[2, -1, 0, -1], [1, 3, -4, 0], [0, 2, 1, -3]], 4, 23),  # exactly s - 1 rows
    ([[0, 0, 0], [2, -1, -1], [0, 0, 0], [1, 3, -4]], 3, 7),  # zero rows
    ([[1, -1, 0], [0, 1, -1], [3, 5, -8]], 3, 1),  # D2 = 1: every pivot is 1
    ([[2, -4, 2], [1, 0, -1], [3, 0, -3]], 3, 12),  # D2 = 3 * degree
    # column 1 is zero mod R = 5 after the first pivot, so it gets the pivot R
    ([[1, 0, -1], [0, 5, -5]], 3, 5),
    # the entry 2 left in column 1 is zero mod R = 4 // 2, so the pivot is R
    ([[2, 0, -2], [0, 2, -2]], 3, 4),
    ([[10**6, -(10**6) + 1, -1], [999_999, 10**6, -1_999_999]], 3, 1_999_998_000_001),
])
def test_corank_one_basis_cases(rows, s, modulus):
    lattice = HomogeneousLattice.from_rows(rows, ambient_dim=s)
    assert lattice.rank == s - 1
    assert head_modulus(rows, s) == modulus
    basis = hermite_basis(lattice.generators)
    assert lattice.basis == basis
    if s > 1:
        assert lattice.normalized_volume() == lattice.degree()
    assert lattice.normalized_volume() == abs(determinant(head(basis.to_rows(), s)))


@pytest.mark.parametrize("rows, s, smith, modulus", [
    ([[0, 1, 4, -4, -1], [3, -1, -4, -2, 4], [-3, 1, 3, -1, 0], [2, 4, -3, -1, -2],
      [-4, -1, 2, 0, 3]], 5, 6, 2),
    ([[-4, -4, -4, 4, -4, 12], [2, -1, 2, -4, 4, -3], [-1, 3, 3, 4, -1, -8],
      [1, -1, -1, 3, 0, -2], [-4, 2, 4, -3, -2, 3], [0, -3, 1, 4, 2, -4]], 6, 12, 4),
    ([[4, -1, 0, 0, 3, 4, -10], [2, -4, 3, -1, 2, 2, -4], [-2, 1, 4, 1, -3, 3, -4],
      [4, -3, -2, 4, 2, 1, -6], [3, -4, 3, -4, 0, 2, 0], [-2, -2, 4, -1, -4, -1, 6],
      [4, 4, -1, 2, 4, 1, -14]], 7, 36, 72),
    ([[1, 3, 0, 4, -4, 2, 4, -10], [-2, 4, 4, -1, 2, -4, 3, -6], [1, 4, -1, 4, 2, 3, 1, -14],
      [2, 1, -4, 4, 4, 1, 3, -11], [-4, -1, -2, 4, -2, -3, 4, 4], [0, -4, -3, -3, -4, 3, -4, 15],
      [0, -1, 0, -3, -2, 1, 0, 5], [-3, -2, -2, 0, 4, -2, 0, 5]], 8, 4, 4),
    # m = s + 2
    ([[5, -1, 2, 0, -6], [2, 2, -4, -5, 5], [-1, 1, 0, 1, -1], [-2, -1, -4, -1, 8],
      [3, -2, 4, 1, -6], [-5, -2, -5, 1, 11], [-3, -5, -3, 2, 9]], 5, 2, 1),
    ([[3, 5, 1, 3, -2, 5, -15], [3, 2, -2, 3, 5, -5, -6], [1, 5, 4, 0, 5, 5, -20],
      [1, -5, -1, -3, -2, -5, 15], [-1, -4, -4, -1, -1, -3, 14], [1, 4, -1, -3, -5, 3, 1],
      [-5, 4, -2, 4, 2, -3, 0], [4, 3, -5, 1, -2, 0, -1], [-4, -2, 4, 5, 1, 4, -8]], 7, 8, 12),
    # a zero row and a copy of row 0 before the tail: both force row swaps
    ([[-2, 0, -3, 2, 0, -1, 1, 3], [0, 0, 0, 0, 0, 0, 0, 0], [-2, 0, -3, 2, 0, -1, 1, 3],
      [0, -3, -1, 1, 3, 0, -1, 1], [-3, -2, -2, 3, -1, 3, 1, 1], [3, -2, -1, 0, -2, -1, 2, 1],
      [-3, 3, 0, 1, -1, 3, 2, -5], [1, 0, 3, 1, -2, -3, 2, -2], [-3, -3, -2, -2, -2, 1, -2, 13],
      [-1, 3, -1, 1, 1, 3, -1, -5]], 8, 3, 18),
    ([[-228022, -289377, -286371, -761108, -389278, 1954156],
      [-506772, 819111, 979700, 266643, 634813, -2193495],
      [499691, 860729, 25072, -716159, 216258, -885591],
      [155888, 615337, -781320, -327389, -917923, 1255407],
      [-147301, -846503, -202600, 816486, 652799, -272881],
      [-691030, 737502, -737820, -285087, -759479, 1735914]], 6, 4, 2),
], ids=["generic5", "generic6", "generic7", "generic8", "extra5", "extra7", "swaps8", "huge6"])
def test_corank_one_tail_cases(rows, s, smith, modulus):
    """Both moduli at s >= 5, where D2 comes from the tail block of the pass."""
    lattice = HomogeneousLattice.from_rows(rows, ambient_dim=s)
    assert lattice.rank == s - 1
    assert smith_modulus(rows, s) == smith
    assert head_modulus(rows, s) == modulus
    assert smith % lattice.degree() == 0
    assert modulus % lattice.degree() == 0
    basis = hermite_basis(lattice.generators)
    assert lattice.basis == basis
    assert lattice.normalized_volume() == lattice.degree()
    assert lattice.normalized_volume() == abs(determinant(head(basis.to_rows(), s)))
    if len(rows) == s:
        # no row swap in either pass: D and D2 are gcds of disjoint pairs of
        # maximal minors, omitting row s - 1 or s - 2, and row s - 4 or s - 3
        a = [row[:-1] for row in rows]
        omitted = [cofactor_det(a[:i] + a[i + 1:]) for i in range(s)]
        assert smith == gcd(omitted[s - 1], omitted[s - 2])
        assert modulus == gcd(omitted[s - 4], omitted[s - 3])


def with_modulus_rows(a, modulus):
    """The rows of ``a`` and of modulus * I: the lattice the modular loops eliminate."""
    n = a.cols
    scaled = [[modulus * int(i == j) for j in range(n)] for i in range(n)]
    return ZMatrix.from_rows(a.to_rows() + scaled, cols=n)


def check_modular_loops(a, modulus, factors) -> bool:
    """Both modular loops on ``a`` (n <= m rows) against ``factors`` and the exact Hermite basis.

    The Smith loop mod R returns the first min(m, n) invariant factors of
    the lattice of the rows and R*Z^n, for any R.  The Hermite loop
    returns its Hermite basis, of rank n, when its index divides R
    (Domich-Kannan-Trotter); returns whether that held and was checked.
    """
    assert _smith_elimination(a.to_rows(), a.rows, a.cols, modulus=modulus) == tuple(factors)
    basis = hermite_basis(with_modulus_rows(a, modulus))
    if modulus % prod(basis[i, i] for i in range(a.cols)):
        return False
    h = a.to_rows()
    assert _hermite_elimination(h, modulus=modulus) == list(range(a.cols))
    assert ZMatrix.from_rows(h, cols=a.cols) == basis
    return True


@st.composite
def modular_cases(draw):
    """(a, R): an m x n matrix with n <= m <= n + 2 and a modulus R.

    R is small, a power of two or at least 2^40.  The entries are small
    or up to 2R in size, all R - 1, or multiples of a divisor of R, so
    that blocks and columns with no unit mod R, columns that are zero
    mod R, and R falling to 1 part way through the Hermite loop occur.
    """
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, n + 2))
    modulus = draw(st.one_of(st.integers(1, 60), st.sampled_from([2**k for k in range(1, 11)]),
                             st.integers(2**40, 2**41)))
    kind = draw(st.sampled_from(["entries", "top", "multiples"]))
    if kind == "top":
        return ZMatrix.from_rows([[modulus - 1] * n] * m, cols=n), modulus
    g = gcd(draw(st.integers(1, 64)), modulus) if kind == "multiples" else 1
    entry = st.integers(-9, 9) | st.integers(-2 * modulus, 2 * modulus)
    rows = [[g * x for x in draw(st.lists(entry, min_size=n, max_size=n))] for _ in range(m)]
    return ZMatrix.from_rows(rows, cols=n), modulus


@SETTINGS
@given(modular_cases())
@example((ZMatrix.from_rows([[5, 1, 2], [0, 1, 0], [0, 0, 1]]), 5))  # R is 1 after column 0
@example((ZMatrix.from_rows([[1, 4, 0], [0, 8, 1], [2, 0, 3], [1, 4, 1]]), 4))  # column 1 = 0 mod R
@example((ZMatrix.from_rows([[2, 4], [6, 8], [4, 2], [2, 2]]), 16))  # no unit mod D = 2^k
@example((ZMatrix.from_rows([[2**41 - 1] * 3] * 5), 2**41))  # all R - 1, m = n + 2
def test_modular_loops_match_the_lattice_with_modulus_rows(case):
    a, modulus = case
    check_modular_loops(a, modulus, minors_invariant_factors(with_modulus_rows(a, modulus)))


@SETTINGS
@given(modular_cases())
@example((ZMatrix.from_rows([[2, 1], [3, 1]]), 6))  # column 0 has a unit once column 1 is swept
def test_unit_pivots_leave_no_unit(case):
    """The Smith unit phase leaves a reduced block without a unit mod R."""
    a, modulus = case
    d = a.to_rows()
    units = _unit_pivots(d, a.cols, modulus)
    assert len(d) == a.rows - units
    assert all(len(row) == a.cols - units for row in d)
    assert all(0 <= x < modulus and gcd(x, modulus) > 1 for row in d for x in row)


@pytest.mark.parametrize("n, modulus, g", [(8, 2**20 - 1, 15), (12, 2**40 - 1, 341), (12, 999, 27)])
def test_modular_loops_at_the_largest_field_growth(n, modulus, g):
    """Every unit sweep adds (R - 1)**2 to every field it touches.

    Row i is P_0 + ... + P_i mod R, with P_t = e_t - e_{t+1} - ... - e_n,
    so each pivot row, reduced, is 1 then R - 1 in every later column,
    and every row below it has 1 in its column: the multiplier is R - 1.
    The last row takes n - 1 such adds before it is reduced.  W is
    unimodular, so scaling its last column by g | R leaves the factors
    1, ..., 1, g.
    """
    rows = [[((c <= i) - min(i + 1, c)) % modulus for c in range(n)] for i in range(n)]
    rows = [row[:-1] + [g * row[-1] % modulus] for row in rows]
    a = ZMatrix.from_rows(rows, cols=n)
    assert check_modular_loops(a, modulus, (1,) * (n - 1) + (g,))


def lattice_of_head(head):
    """The lattice whose generators are the rows of ``head``, each followed by minus its sum."""
    return HomogeneousLattice.from_rows([row + [-sum(row)] for row in head])


def scaled(rows, k, mask=None):
    """``rows`` with the rows that ``mask`` marks (all of them by default) times k."""
    mask = mask or [True] * len(rows)
    return [[k * x for x in row] if marked else list(row) for row, marked in zip(rows, mask)]


# which rows to scale, for up to 10 rows
MASKS = st.lists(st.booleans(), min_size=10, max_size=10)


@SETTINGS
@given(small_matrices(), st.integers(2, 12), MASKS)
def test_scaled_rows_scale_the_invariant_factors(a, k, mask):
    """k * A has k times the invariant factors of A; with only some rows
    scaled, the factors are still those of the minors."""
    rows = a.to_rows()
    times_k = ZMatrix.from_rows(scaled(rows, k), cols=a.cols)
    assert smith_invariants(times_k) == tuple(k * f for f in smith_invariants(a))
    mixed = ZMatrix.from_rows(scaled(rows, k, mask), cols=a.cols)
    assert list(smith_invariants(mixed)) == minors_invariant_factors(mixed)


@SETTINGS
@given(homogeneous_rows(max_s=8, bound=9, extra_rows=2), st.integers(2, 12), MASKS)
def test_scaled_rows_scale_the_lattice(case, k, mask):
    """k * L has k times the invariant factors and k times the Hermite basis of L.

    At rank s - 1 no block of k * L has a unit mod the modulus, so the
    modular loops take their min-|x| sweeps.  With only some rows
    scaled, the answers must still be those of the exact loops.
    """
    s, rows = case
    lattice = HomogeneousLattice.from_rows(rows, ambient_dim=s)
    times_k = HomogeneousLattice.from_rows(scaled(rows, k), ambient_dim=s)
    assert times_k.invariant_factors == tuple(k * f for f in lattice.invariant_factors)
    assert times_k.basis.to_rows() == scaled(lattice.basis.to_rows(), k)
    mixed = HomogeneousLattice.from_rows(scaled(rows, k, mask), ambient_dim=s)
    assert mixed.basis == hermite_basis(mixed.generators)
    assert mixed.invariant_factors == smith_normal_form(mixed.generators).invariant_factors


@pytest.mark.parametrize("extra", [0, 3], ids=["basis", "m=s+2"])
@pytest.mark.parametrize("s", range(8, 25))
def test_large_degree_lattices(s, extra):
    """s - 1 random generators, and three combinations of them, with a degree of 40 bits or more.

    The moduli D and D2 of both loops are then about as large as the
    degree.  Factors are checked against the exact Smith loop and the
    basis against the exact Hermite loop.
    """
    rng = random.Random(s)
    basis = [[rng.randint(-999, 999) for _ in range(s - 1)] for _ in range(s - 1)]
    combinations = []
    for _ in range(extra):
        coeffs = [rng.randint(-2, 2) for _ in basis]
        combinations.append([sum(c * row[k] for c, row in zip(coeffs, basis)) for k in range(s - 1)])
    lattice = lattice_of_head(basis + combinations)
    assert lattice.rank == s - 1
    assert smith_modulus(lattice.generators.to_rows(), s) >= 2**40
    assert lattice.invariant_factors == smith_normal_form(lattice.generators).invariant_factors
    assert lattice.basis == hermite_basis(lattice.generators)
    assert lattice.normalized_volume() == lattice.degree() == abs(determinant(ZMatrix.from_rows(basis)))


def _30_bit_pair(seed):
    rng = random.Random(seed)
    return [rng.getrandbits(30) | 1 << 29 for _ in range(2)]


(P1, Q1), (P2, Q2), (P3, Q3) = (_30_bit_pair(seed) for seed in range(3))


@pytest.mark.parametrize("diagonal", [
    [1, P1, P1 * Q1],
    [1] * 5 + [P2, P2 * Q2],
    [1] * 9 + [P3, P3 * Q3],
    [1, 1, 1, 2, 4, 8],  # D = 2^6: the block left after the unit pivots holds no unit
    [2, 2, 4, 16],  # D = 2^9: no unit anywhere
], ids=["pq3", "pq7", "pq11", "pow2-tail", "pow2-all"])
def test_unimodular_transforms_of_a_diagonal(diagonal):
    """U diag(...) V with random unimodular U and V: the factors are the diagonal.

    With 30-bit p and q the group is non-cyclic, Z/p x Z/pq, so the unit
    pivots meet a block of multiples of p.
    """
    n = len(diagonal)
    rng = random.Random(repr(diagonal))
    d = ZMatrix.from_rows([[x * int(i == j) for j in range(n)] for i, x in enumerate(diagonal)])
    a = mat_mul(mat_mul(random_unimodular(rng, n, ops=4 * n), d), random_unimodular(rng, n, ops=4 * n))
    lattice = lattice_of_head(a.to_rows())
    assert lattice.invariant_factors == tuple(diagonal)
    assert lattice.basis == hermite_basis(lattice.generators)
    assert lattice.normalized_volume() == lattice.degree() == prod(diagonal)


@st.composite
def pass_inputs(draw):
    """(rows, n): an m x n matrix, m, n <= 24, of a shape the two-step pass branches on.

    Entries are within 1, 9 or 10^6 in absolute value.  Some columns are
    zeroed; some rows are combinations of two others; and some column
    j + 1 is a multiple of column j, which makes the 2 x 2 block at j
    singular whatever the rows above did.
    """
    m, n = draw(st.integers(0, 24)), draw(st.integers(0, 24))
    bound = draw(st.sampled_from([1, 9, 10**6]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
    if n and draw(st.booleans()):
        for c in rng.sample(range(n), rng.randint(1, min(n, 3))):
            for row in rows:
                row[c] = 0
    if m > 2 and draw(st.booleans()):
        for i in rng.sample(range(m), rng.randint(1, m - 2)):
            a, b = rng.sample([k for k in range(m) if k != i], 2)
            f, g = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[i] = [f * x + g * y for x, y in zip(rows[a], rows[b])]
    if n > 1 and draw(st.booleans()):
        for j in rng.sample(range(n - 1), rng.randint(1, min(n - 1, 4))):
            f = rng.randint(-3, 3)
            for row in rows:
                row[j + 1] = f * row[j]
    return rows, n


@SETTINGS
@given(pass_inputs())
def test_two_step_pass_matches_the_one_step_reference(case):
    rows, n = case
    assert _fraction_free(rows, n) == fraction_free_reference(rows, n)


@pytest.mark.parametrize("rows", [
    # row 0 is zero in column 0, so the first pivot is swapped up; below it
    # only the fourth row has a nonzero 2 x 2 minor with the pivot, so the
    # second pivot is swapped up too: two sign flips in one double step
    [[0, 0, 2, 3, 4, 5], [2, 4, 1, 0, 3, 1], [1, 2, 5, 1, 2, 2], [3, 1, 0, 2, 1, 4],
     [1, 1, 1, 1, 1, 2], [2, 0, 1, 3, 0, 1]],
    # column 1 is twice column 0: no 2 x 2 block at column 0 is nonsingular,
    # so column 0 takes one step, column 1 has no pivot, and the double
    # step on columns 2 and 3 divides by prev**2 = 4
    [[2, 4, 3, 1, 0, 2, 1, 1], [1, 2, 1, 1, 1, 0, 2, 3], [3, 6, 0, 2, 1, 1, 1, 0],
     [1, 2, 2, 0, 3, 1, 0, 1], [0, 0, 1, 2, 1, 3, 1, 2]],
    # n = 4: no double step, since it would reach column n - 3
    [[2, 1, 3, 1], [1, 3, 2, 2], [4, 1, 1, 3], [1, 1, 5, 1]],
    # n = 5: one double step on columns 0 and 1, then the tail at column 2
    [[2, 1, 3, 1, 1], [1, 3, 2, 2, 0], [4, 1, 1, 3, 2], [1, 1, 5, 1, 3], [0, 2, 1, 1, 1]],
    # m = 1: a single row never takes a double step
    [[3, 1, 4, 1, 5, 9, 2]],
    # two double steps whose 2 x 2 minor equals prev**2, over rows with
    # zeros in both columns
    [[int(i == j) for j in range(7)] for i in range(7)],
], ids=["second-swap", "singular-block", "n4", "n5", "m1", "identity"])
def test_two_step_pass_cases(rows):
    n = len(rows[0])
    assert _fraction_free(rows, n) == fraction_free_reference(rows, n)
    if len(rows) == n:
        assert determinant(ZMatrix.from_rows(rows)) == cofactor_det(rows)


def dense_queries(lattice, v):
    """(element_order, residue) of ``v`` by reduction over the dense rows of ``lattice.basis``."""
    s = lattice.ambient_dim
    rows = [lattice.basis.row(i) for i in range(lattice.basis.rows)]
    pivots = [(next(c for c, x in enumerate(row) if x), row) for row in rows]
    w, n = list(v), 1
    for p, row in pivots:
        scale = row[p] // gcd(w[p], row[p])
        if scale > 1:
            n *= scale
            w = [scale * x for x in w]
        q = w[p] // row[p]
        for k in range(p, s):
            w[k] -= q * row[k]
    r = list(v)
    for p, row in pivots:
        q = r[p] // row[p]
        for k in range(p, s):
            r[k] -= q * row[k]
    return (None if any(w) else n), tuple(r)


@pytest.mark.parametrize("s", range(8, 31))
def test_queries_match_dense_rows_at_every_rank(s):
    """Sparse-row queries at every rank 0 to s - 1, with entries within 9 and within 10^6.

    The generators are r random sum-zero rows, some scaled by 2, 3 or 6
    so that the group has torsion, and one combination of them.  The
    queries are random vectors, random sum-zero vectors, combinations of
    the unscaled rows (elements of finite order), members, and e_i - e_s.
    """
    rng = random.Random(s)
    for bound in (9, 10**6):
        for r in range(s):
            free = []
            for _ in range(r):
                head = [rng.randint(-bound, bound) for _ in range(s - 1)]
                free.append(head + [-sum(head)])
            rows = [[f * x for x in row] for f, row in zip(rng.choices((1, 1, 2, 3, 6), k=r), free)]
            if r > 1:
                rows.append([x - 2 * y for x, y in zip(rows[0], rows[1])])
            lattice = HomogeneousLattice.from_rows(rows, ambient_dim=s)
            assert lattice.rank == r
            vectors = [[rng.randint(-bound, bound) for _ in range(s)] for _ in range(2)]
            head = [rng.randint(-bound, bound) for _ in range(s - 1)]
            vectors.append(head + [-sum(head)])
            for source in (free, rows):
                coeffs = [rng.randint(-3, 3) for _ in source]
                vectors.append([sum(c * row[k] for c, row in zip(coeffs, source)) for k in range(s)])
            vectors += [[int(k == i) - int(k == s - 1) for k in range(s)] for i in (0, s // 2, s - 2)]
            for v in vectors:
                order, residue = dense_queries(lattice, v)
                assert lattice.element_order(v) == order
                assert lattice.residue(v) == residue
                assert lattice.contains(v) == (order == 1)
            if r == s - 1:
                orders = [dense_queries(lattice, [int(k == i) - int(k == s - 1) for k in range(s)])[0]
                          for i in range(s - 1)]
                assert lattice.regularity_upper_bound() == sum(orders) - (s - 1) + 1
