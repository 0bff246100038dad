"""Shared helpers: independent oracles, a Smith reference and random-input generators.

The oracles here deliberately avoid the library's elimination code so
that agreement means something: determinants by cofactor expansion,
invariant factors by gcds of minors, membership by bounded coefficient
search, coset counts by pairwise membership tests, spanning structure
by hand.

``smith_normal_form`` is not one of them.  It reuses the library's
exact Smith loop with identity blocks carried beside the matrix, so it
checks that loop's transforms (``U @ A @ V == D`` through ``mat_mul``,
both unimodular) but cannot vouch for its invariant factors on its own;
``minors_invariant_factors`` is the independent reference for those.
``fraction_free_reference`` is the one-step Bareiss pass that the
library's two-step pass must reproduce exactly.
"""

import itertools
from math import gcd

from latdeg import (
    DimensionMismatch,
    GraphSpec,
    HomogeneousLattice,
    ToricSetSpec,
    ZMatrix,
    smith_invariants,
)
from latdeg._record import Record
from latdeg.intmat import _smith_elimination


class SmithDecomposition(Record):
    """Unimodular u, v and diagonal d with u @ a @ v == d.

    The diagonal of ``d`` is ``invariant_factors`` (each positive, each
    dividing the next) followed by zeros; ``rank`` counts the nonzero
    diagonal entries.
    """

    u: ZMatrix
    d: ZMatrix
    v: ZMatrix
    invariant_factors: tuple
    rank: int


def smith_normal_form(a: ZMatrix) -> SmithDecomposition:
    """Smith normal form with transforms, from the library's exact Smith loop.

    The loop runs on [[a | I_m], [I_s | 0]], which it turns into
    [[d | u], [v | 0]] (Cohen, GTM 138, 2.4).
    """
    m, s = a.rows, a.cols
    rows = [row + [int(i == j) for j in range(m)] for i, row in enumerate(a.to_rows())]
    rows += [[int(i == j) for j in range(s)] + [0] * m for i in range(s)]
    factors = _smith_elimination(rows, m, s)
    return SmithDecomposition(
        u=ZMatrix.from_rows([row[s:] for row in rows[:m]], cols=m),
        d=ZMatrix.from_rows([row[:s] for row in rows[:m]], cols=s),
        v=ZMatrix.from_rows([row[:s] for row in rows[m:]], cols=s),
        invariant_factors=factors,
        rank=len(factors),
    )


def fraction_free_reference(rows, n):
    """The one-step Bareiss pass: what ``intmat._fraction_free`` returns, one column per sweep.

    The same 4-tuple: the rank, the signed last pivot, the minors at the
    last step (its pivot row from the pivot column on, then its pivot
    column below the pivot), and the tail (the rows at and below the
    next pivot from column n - 3 on, with the last pivot), or None.
    """
    m = len(rows)
    mat = [list(row) for row in rows]
    sign = 1
    prev = 1
    k = 0
    pivot_col = []
    last = 0
    tail = None
    for j in range(n):
        if k == m:
            break
        if j == n - 3:
            tail = [row[j:] for row in mat[k:]], prev
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
            for c in range(j + 1, n):
                row_i[c] = (row_i[c] * pivot - factor * row_k[c]) // prev
            row_i[j] = 0
        prev = pivot
        last = j
        k += 1
    minors = tuple(mat[k - 1][last:]) + tuple(pivot_col[1:]) if k else ()
    return k, sign * prev, minors, tail


def mat_mul(a: ZMatrix, b: ZMatrix) -> ZMatrix:
    """Exact matrix product, by the schoolbook sum over k of a[i, k] * b[k, j]."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return ZMatrix(a.rows, b.cols, [
        sum(a[i, k] * b[k, j] for k in range(a.cols))
        for i in range(a.rows) for j in range(b.cols)
    ])


def check_hermite_basis(a: ZMatrix, basis: ZMatrix) -> None:
    """Assert that ``basis`` is the Hermite basis of the row lattice of ``a``.

    Shape: no zero row, positive pivots moving strictly right, and
    entries above each pivot in [0, pivot).  Lattice: every row of ``a``
    reduces to zero against ``basis``, so it lies in the row lattice of
    ``basis``; the two lattices then have the same rational span exactly
    when they have the same rank, and the same index in their saturation
    exactly when their invariant factors (``smith_invariants``) agree, so
    the two checks together make them equal.
    """
    pivots = []
    for i in range(basis.rows):
        row = basis.row(i)
        p = next(j for j, x in enumerate(row) if x)
        assert row[p] > 0 and all(0 <= basis[k, p] < row[p] for k in range(i))
        pivots.append(p)
    assert pivots == sorted(set(pivots))
    for i in range(a.rows):
        v = list(a.row(i))
        for k, p in enumerate(pivots):
            q, rem = divmod(v[p], basis[k, p])
            assert rem == 0
            v = [x - q * y for x, y in zip(v, basis.row(k))]
        assert not any(v)
    assert smith_invariants(a) == smith_invariants(basis)


def zero_matrix(rows, cols):
    return ZMatrix(rows, cols, [0] * (rows * cols))


def identity_matrix(n):
    return ZMatrix(n, n, [int(i == j) for i in range(n) for j in range(n)])


def diagonal(a: ZMatrix) -> tuple:
    return tuple(a[i, i] for i in range(min(a.rows, a.cols)))


def cofactor_det(rows):
    """Determinant by first-row cofactor expansion (exponential, tiny inputs)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * x * cofactor_det(minor)
    return total


def minors_invariant_factors(a: ZMatrix):
    """Invariant factors via determinantal divisors.

    The gcd of all k x k minors is the k-th determinantal divisor D_k,
    and the k-th invariant factor is D_k / D_{k-1}.  Completely
    independent of any elimination order.
    """
    rows = a.to_rows()
    m, s = a.rows, a.cols
    previous = 1
    factors = []
    for k in range(1, min(m, s) + 1):
        g = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(s), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, cofactor_det(sub))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return factors


def brute_force_contains(generator_rows, v, coeff_bound=6):
    """Membership by searching integer combinations with bounded coefficients."""
    m = len(generator_rows)
    if m == 0:
        return all(x == 0 for x in v)
    for coeffs in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=m):
        combo = [
            sum(c * row[k] for c, row in zip(coeffs, generator_rows))
            for k in range(len(v))
        ]
        if combo == list(v):
            return True
    return False


def random_int_matrix(rng, m, s, bound):
    return ZMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(s)] for _ in range(m)], cols=s
    )


def random_homogeneous_rows(rng, s, m, bound):
    rows = []
    while len(rows) < m:
        row = [rng.randint(-bound, bound) for _ in range(s)]
        if sum(row) == 0:
            rows.append(row)
    return rows


def random_corank1_lattice(rng, s, bound):
    """Random homogeneous lattice of rank s - 1 (rejection sampling)."""
    while True:
        lat = HomogeneousLattice.from_rows(
            random_homogeneous_rows(rng, s, s - 1, bound), ambient_dim=s
        )
        if lat.rank == s - 1:
            return lat


def random_unimodular(rng, n, ops=12):
    """Product of random elementary row operations applied to the identity."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 1:
            rows[i] = [-x for x in rows[i]]
        elif kind == 2 and i != j:
            c = rng.randint(-3, 3)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return ZMatrix.from_rows(rows, cols=n)


def random_toric_spec(rng):
    q = rng.choice((2, 3, 5, 7))
    s = rng.randint(2, 4)
    n = rng.randint(1, 3)
    exps = tuple(tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(s))
    return ToricSetSpec(q=q, exponents=exps)


def random_connected_graph(rng, max_vertices=7):
    """Connected simple graph: a random spanning tree plus extra edges."""
    s = rng.randint(2, max_vertices)
    edges = set()
    for v in range(1, s):
        u = rng.randrange(v)
        edges.add((u, v))
    all_pairs = [(i, j) for i in range(s) for j in range(i + 1, s)]
    for pair in all_pairs:
        if pair not in edges and rng.random() < 0.4:
            edges.add(pair)
    return GraphSpec(vertex_count=s, edges=tuple(sorted(edges)))


def pairwise_coset_count(lattice, d):
    """Quadratic-time reference count: one class per equivalence block."""
    s = lattice.ambient_dim
    monomials = [
        v for v in itertools.product(range(d + 1), repeat=s) if sum(v) == d
    ]
    classes = []
    for a in monomials:
        for rep in classes:
            if lattice.contains([x - y for x, y in zip(a, rep)]):
                break
        else:
            classes.append(a)
    return len(classes)


def is_strictly_increasing_then_constant(values):
    i = 0
    while i + 1 < len(values) and values[i] < values[i + 1]:
        i += 1
    return all(v == values[i] for v in values[i:])
