"""Differential property tests: transform-free routes against transform-tracking ones.

The lattice answers membership and element-order queries by reducing
against its Hermite basis; the reference here is the Smith-coordinate
formula read off the Smith decomposition of the generators.  The
breadth-first coset counts of ``hilbert_profile`` are checked against
pairwise membership tests between monomials.
"""

from math import gcd, lcm, prod

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import minors_invariant_factors, pairwise_coset_count
from latdeg import (
    HomogeneousLattice,
    ZMatrix,
    determinant,
    hermite_basis,
    hermite_normal_form,
    hilbert_profile,
    smith_invariants,
    smith_normal_form,
)
from latdeg.intmat import _fraction_free

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
        return ZMatrix.zero(m, n)
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
def homogeneous_rows(draw, max_s=5):
    """(s, rows): generator rows of a homogeneous lattice in Z^s of any rank.

    Rows are drawn as s-1 free entries plus the balancing last one, and
    zero rows are mixed in, so every rank from 0 to s-1 occurs.
    """
    s = draw(st.integers(1, max_s))
    m = draw(st.integers(0, s + 1))
    rows = []
    for _ in range(m):
        if draw(st.booleans()) and draw(st.booleans()):
            rows.append([0] * s)
        else:
            head = draw(st.lists(st.integers(-6, 6), min_size=s - 1, max_size=s - 1))
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
    """(contains, element_order) from the Smith coordinates of ``v``."""
    dec = lattice.decomposition
    w = lattice.smith_coordinates(v)
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
@example(ZMatrix.zero(3, 4))
@example(ZMatrix.from_rows([[1, 0], [0, 6]]))
@example(ZMatrix.from_rows([[2, 4, 6], [4, 8, 12], [6, 12, 18]]))
@example(ZMatrix.from_rows([[10**6, -(10**6)], [999_999, 10**6]]))
def test_smith_invariants_match_tracked_form_and_minors(a):
    factors = smith_invariants(a)
    assert factors == smith_normal_form(a).invariant_factors
    minors = minors_invariant_factors(a)
    assert list(factors) == minors
    rank, _pivot, last_minors = _fraction_free(a)
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
    hf = hermite_normal_form(a)
    expected = ZMatrix.from_rows([hf.h.row(i) for i in range(hf.rank)], cols=a.cols)
    assert hermite_basis(a) == expected


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
def test_lazy_decomposition_matches_smith_normal_form(case):
    lattice, _vectors = case
    assert lattice.invariant_factors == smith_normal_form(lattice.generators).invariant_factors
    first = lattice.decomposition
    assert first == smith_normal_form(lattice.generators)
    assert lattice.decomposition is first


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
