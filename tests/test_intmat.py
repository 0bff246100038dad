import hashlib
import random

import pytest

from conftest import (
    check_hermite_basis,
    cofactor_det,
    diagonal,
    identity_matrix,
    mat_mul,
    minors_invariant_factors,
    random_int_matrix,
    smith_normal_form,
    zero_matrix,
)
from latdeg import (
    DimensionMismatch,
    NonSquare,
    ZMatrix,
    determinant,
    format_matrix,
    hermite_basis,
    integer_kernel,
    parse_matrix,
    smith_invariants,
)
from latdeg.errors import FormatError

EXAMPLE2 = ZMatrix.from_rows([[18, -18, 0], [45, 0, -45], [0, 10, -10]])
EXAMPLE1 = ZMatrix.from_rows(
    [
        [1001, -500, -501, 0, 0],
        [0, 3500, -3500, 0, 0],
        [0, 0, 3200, -200, -3000],
        [5000, -1000, -1000, -1001, -1999],
    ]
)


def check_decomposition(a, dec):
    assert mat_mul(mat_mul(dec.u, a), dec.v) == dec.d
    assert abs(determinant(dec.u)) == 1
    assert abs(determinant(dec.v)) == 1
    diag = diagonal(dec.d)
    assert dec.invariant_factors == tuple(x for x in diag if x)
    # diagonal and chain layout: factors first, then zeros
    for i in range(dec.d.rows):
        for j in range(dec.d.cols):
            if i != j:
                assert dec.d[i, j] == 0
    assert all(f >= 1 for f in dec.invariant_factors)
    for x, y in zip(dec.invariant_factors, dec.invariant_factors[1:]):
        assert y % x == 0
    assert dec.rank == len(dec.invariant_factors)


@pytest.mark.parametrize("entry", [2.0, 0.5, "3", None])
def test_non_integer_entries_are_refused(entry):
    with pytest.raises(TypeError):
        ZMatrix.from_rows([[1, entry]])


def test_smith_example2_matrix():
    dec = smith_normal_form(EXAMPLE2)
    assert dec.invariant_factors == (1, 90)
    assert dec.rank == 2
    check_decomposition(EXAMPLE2, dec)


def test_smith_identity():
    dec = smith_normal_form(identity_matrix(2))
    assert dec.invariant_factors == (1, 1)


def test_smith_diag_2_3():
    a = ZMatrix.from_rows([[2, 0], [0, 3]])
    dec = smith_normal_form(a)
    # d1 = gcd of all entries = 1, d1*d2 = |det| = 6
    assert dec.invariant_factors == (1, 6)
    check_decomposition(a, dec)


def test_smith_example1_11_digit_factor():
    dec = smith_normal_form(EXAMPLE1)
    assert dec.invariant_factors == (1, 1, 100, 91203112000)
    check_decomposition(EXAMPLE1, dec)
    # cross-check through determinantal divisors, no elimination involved
    assert minors_invariant_factors(EXAMPLE1) == [1, 1, 100, 91203112000]


def test_smith_empty_and_zero():
    empty = ZMatrix(0, 3, ())
    dec = smith_normal_form(empty)
    assert dec.invariant_factors == ()
    assert dec.rank == 0
    assert dec.u == identity_matrix(0)
    assert dec.v == identity_matrix(3)

    dec = smith_normal_form(ZMatrix(3, 0, ()))
    assert dec.invariant_factors == ()
    assert dec.u == identity_matrix(3)
    assert dec.d == ZMatrix(3, 0, ())
    assert dec.v == identity_matrix(0)

    zero = zero_matrix(2, 2)
    dec = smith_normal_form(zero)
    assert dec.invariant_factors == ()
    assert dec.u == identity_matrix(2)
    assert dec.v == identity_matrix(2)


def test_smith_random_invariants():
    rng = random.Random(20240)
    for _ in range(120):
        m = rng.randint(1, 4)
        s = rng.randint(1, 4)
        a = random_int_matrix(rng, m, s, 20)
        dec = smith_normal_form(a)
        check_decomposition(a, dec)
        assert dec.rank == hermite_basis(a).rows


def test_smith_matches_minors_oracle():
    rng = random.Random(7)
    for _ in range(60):
        a = random_int_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 9)
        assert list(smith_normal_form(a).invariant_factors) == minors_invariant_factors(a)


def test_smith_factor_product_is_determinant():
    rng = random.Random(99)
    done = 0
    while done < 40:
        n = rng.choice((3, 4))
        a = random_int_matrix(rng, n, n, 20)
        det = determinant(a)
        if det == 0:
            continue
        dec = smith_normal_form(a)
        prod = 1
        for f in dec.invariant_factors:
            prod *= f
        assert prod == abs(det)
        done += 1


def test_smith_invariant_under_permutation_and_negation():
    rng = random.Random(5)
    for _ in range(30):
        m = rng.randint(2, 4)
        s = rng.randint(2, 4)
        a = random_int_matrix(rng, m, s, 9)
        base = smith_normal_form(a).invariant_factors
        rows = a.to_rows()
        rng.shuffle(rows)
        cols = list(range(s))
        rng.shuffle(cols)
        shuffled = [[row[j] for j in cols] for row in rows]
        i = rng.randrange(m)
        shuffled[i] = [-x for x in shuffled[i]]
        assert smith_normal_form(ZMatrix.from_rows(shuffled)).invariant_factors == base


def test_hermite_examples():
    assert hermite_basis(ZMatrix.from_rows([[2, 4], [0, 3]])) == ZMatrix.from_rows([[2, 1], [0, 3]])
    identity = identity_matrix(3)
    assert hermite_basis(identity) == identity
    assert hermite_basis(ZMatrix.from_rows([[3, 3], [3, 3]])) == ZMatrix.from_rows([[3, 3]])
    assert hermite_basis(ZMatrix(3, 0, ())) == ZMatrix(0, 0, ())
    assert hermite_basis(ZMatrix(0, 3, ())) == ZMatrix(0, 3, ())


def test_hermite_random_properties():
    rng = random.Random(31)
    for _ in range(80):
        m = rng.randint(1, 4)
        s = rng.randint(1, 4)
        a = random_int_matrix(rng, m, s, 15)
        basis = hermite_basis(a)
        check_hermite_basis(a, basis)
        assert basis.rows == len(smith_invariants(a))


def test_hermite_is_canonical_for_the_row_lattice():
    # different presentations of one row lattice must produce identical
    # nonzero rows: left-unimodular change, duplicated rows, zero rows
    from conftest import random_unimodular

    rng = random.Random(246)
    for _ in range(25):
        m = rng.randint(1, 3)
        s = rng.randint(1, 4)
        a = random_int_matrix(rng, m, s, 9)
        base = hermite_basis(a)

        changed = mat_mul(random_unimodular(rng, m), a)
        padded_rows = changed.to_rows() + [list(changed.row(0))] + [[0] * s]
        assert hermite_basis(ZMatrix.from_rows(padded_rows, cols=s)) == base


def test_determinant_examples():
    assert determinant(identity_matrix(2)) == 1
    assert determinant(ZMatrix.from_rows([[2, 1], [1, 2]])) == 3
    k4_reduced = ZMatrix.from_rows([[3, -1, -1], [-1, 3, -1], [-1, -1, 3]])
    assert determinant(k4_reduced) == 16
    assert cofactor_det(k4_reduced.to_rows()) == 16


def test_determinant_random_vs_cofactor():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(0, 4)
        a = random_int_matrix(rng, n, n, 12)
        assert determinant(a) == cofactor_det(a.to_rows())


def test_determinant_nonsquare():
    with pytest.raises(NonSquare):
        determinant(ZMatrix.from_rows([[1, 2, 3]]))


def test_integer_kernel_examples():
    k = integer_kernel(ZMatrix.from_rows([[1], [1]]))
    assert k.rows == 1
    assert list(k.row(0)) in ([1, -1], [-1, 1])

    k = integer_kernel(ZMatrix.from_rows([[1], [1], [1]]))
    assert k.rows == 2
    # both difference vectors must lie in the kernel's row lattice
    from latdeg import HomogeneousLattice

    span = HomogeneousLattice.from_rows(k.to_rows(), ambient_dim=3)
    assert span.contains([1, -1, 0])
    assert span.contains([0, 1, -1])

    invertible = ZMatrix.from_rows([[2, 1], [1, 1]])
    assert integer_kernel(invertible) == ZMatrix(0, 2, ())
    assert integer_kernel(ZMatrix(2, 0, ())) == identity_matrix(2)


def test_integer_kernel_random_annihilates_and_is_saturated():
    rng = random.Random(4242)
    for _ in range(50):
        m = rng.randint(1, 4)
        s = rng.randint(1, 3)
        a = random_int_matrix(rng, m, s, 6)
        k = integer_kernel(a)
        for i in range(k.rows):
            assert mat_mul(ZMatrix.from_rows([k.row(i)], cols=m), a) == zero_matrix(1, s)
        assert hermite_basis(k) == k
        assert k.rows == a.rows - len(smith_invariants(a))
        # a basis of a saturated lattice has every invariant factor 1
        assert smith_invariants(k) == (1,) * k.rows
        # saturation: every small solution of x @ a == 0 already lies in the
        # row span of the kernel basis, so stacking it changes nothing
        if m <= 3:
            kernel_rank = k.rows
            import itertools

            for x in itertools.product(range(-3, 4), repeat=m):
                if any(x) and mat_mul(ZMatrix.from_rows([x], cols=m), a) == zero_matrix(1, s):
                    stacked = hermite_basis(
                        ZMatrix.from_rows(list(k.to_rows()) + [list(x)], cols=m)
                    )
                    assert stacked.rows == kernel_rank


KERNEL_SEED = 20261019
KERNEL_DIGEST = "9f08d6dd718aec5431a93c89e43c6d2bd550a7cea30ffc1d4956274494be1434"


def random_kernel_input(rng, bounds=(1, 9, 10**3)):
    """A matrix of 0-8 rows and 0-6 columns with zero, duplicate and dependent rows."""
    m = rng.randint(0, 8)
    n = rng.randint(0, 6)
    bound = rng.choice(bounds)
    rows = []
    for _ in range(m):
        kind = rng.random()
        if kind < 0.1:
            rows.append([0] * n)
        elif rows and kind < 0.25:
            rows.append(list(rng.choice(rows)))
        elif len(rows) >= 2 and kind < 0.45:
            (p, q), c, d = rng.sample(rows, 2), rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append([c * x + d * y for x, y in zip(p, q)])
        else:
            rows.append([rng.randint(-bound, bound) for _ in range(n)])
    return ZMatrix.from_rows(rows, cols=n)


def test_integer_kernel_digest():
    # one sha256 over the kernels of 1,000 seeded matrices pins every output
    rng = random.Random(KERNEL_SEED)
    h = hashlib.sha256()
    for _ in range(1000):
        a = random_kernel_input(rng)
        h.update(format_matrix(a).encode() + format_matrix(integer_kernel(a)).encode())
    assert h.hexdigest() == KERNEL_DIGEST


NORMAL_FORM_SEED = 20261020
NORMAL_FORM_DIGEST = "c34cdbe79959ab3b55ac875f46e16882704154c15aa1d35910fe8dfa69c9cfae"


def random_normal_form_input(rng):
    """A kernel input with entries up to 10**9 and some of its columns zeroed."""
    a = random_kernel_input(rng, bounds=(1, 9, 10**3, 10**9))
    zeroed = {j for j in range(a.cols) if rng.random() < 0.15}
    return ZMatrix.from_rows([[0 if j in zeroed else x for j, x in enumerate(row)]
                              for row in a.to_rows()], cols=a.cols)


def test_normal_form_digest():
    # one sha256 over the Hermite bases and invariant factors of 1,000
    # seeded matrices pins both public normal forms
    rng = random.Random(NORMAL_FORM_SEED)
    h = hashlib.sha256()
    for _ in range(1000):
        a = random_normal_form_input(rng)
        h.update(format_matrix(a).encode() + format_matrix(hermite_basis(a)).encode())
        h.update(repr(smith_invariants(a)).encode())
    assert h.hexdigest() == NORMAL_FORM_DIGEST


def test_mat_mul():
    a = ZMatrix.from_rows([[1, 2], [3, 4]])
    assert mat_mul(identity_matrix(2), a) == a
    assert mat_mul(ZMatrix.from_rows([[1, 2]]), ZMatrix.from_rows([[3], [4]])) == ZMatrix.from_rows(
        [[11]]
    )
    with pytest.raises(DimensionMismatch):
        mat_mul(a, ZMatrix.from_rows([[1, 2, 3]]))
    dec = smith_normal_form(EXAMPLE2)
    assert mat_mul(mat_mul(dec.u, EXAMPLE2), dec.v) == dec.d


def test_parse_format_round_trip():
    rng = random.Random(8)
    for _ in range(40):
        m = rng.randint(0, 4)
        s = rng.randint(0, 4)
        a = random_int_matrix(rng, m, s, 10**6)
        assert parse_matrix(format_matrix(a)) == a


def test_parse_ignores_comments_and_blanks():
    text = "# a comment\n\n3 3\n18 -18 0\n\n# mid comment\n45 0 -45\n0 10 -10\n"
    assert parse_matrix(text) == EXAMPLE2


def test_parse_reads_a_token_as_int_does():
    # a sign, single underscores between digits, and any Unicode decimal digit
    assert parse_matrix("1 3\n1_0 -\u0661\u0660 +0\n") == ZMatrix.from_rows([[10, -10, 0]])


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "2\n1 2\n3 4\n",
        "2 2\n1 2\n",
        "2 2\n1 2 3\n4 5 6\n",
        "2 2\n1 x\n3 4\n",
        "-1 2\n",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(FormatError):
        parse_matrix(bad)


def test_zmatrix_validation():
    with pytest.raises(ValueError):
        ZMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        ZMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        ZMatrix(-1, 2, ())
    with pytest.raises(ValueError, match="rows have 2 entries, expected 3"):
        ZMatrix.from_rows([[1, 2]], cols=3)
    assert ZMatrix.from_rows([]) == ZMatrix(0, 0, ())
    assert (ZMatrix(0, 0, ()) == object()) is False
    with pytest.raises(IndexError):
        identity_matrix(2)[2, 0]
