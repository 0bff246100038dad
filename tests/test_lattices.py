import random

import pytest

from conftest import (
    brute_force_contains,
    mat_mul,
    random_corank1_lattice,
    random_homogeneous_rows,
    random_unimodular,
)
from latdeg import (
    DimensionMismatch,
    HomogeneousLattice,
    NotHomogeneous,
    RankMismatch,
    ZMatrix,
    hermite_basis,
    hilbert_profile,
)
from latdeg import errors, intmat, lattices

EXAMPLE2_ROWS = [[18, -18, 0], [45, 0, -45], [0, 10, -10]]
EXAMPLE1_ROWS = [
    [1001, -500, -501, 0, 0],
    [0, 3500, -3500, 0, 0],
    [0, 0, 3200, -200, -3000],
    [5000, -1000, -1000, -1001, -1999],
]


@pytest.fixture(scope="module")
def example2():
    return HomogeneousLattice.from_rows(EXAMPLE2_ROWS)


@pytest.fixture(scope="module")
def example3():
    return HomogeneousLattice.from_rows([[-1, 2, -1]])


def unit_difference(s, i):
    v = [0] * s
    v[i] = 1
    v[s - 1] = -1
    return v


def test_construction(example2, example3):
    assert example2.ambient_dim == 3
    assert example2.rank == 2
    assert example3.ambient_dim == 3
    assert example3.rank == 1
    with pytest.raises(NotHomogeneous) as exc:
        HomogeneousLattice.from_rows([[1, 1]])
    assert exc.value.row_index == 0
    # both constructors: raw rows or a matrix
    assert HomogeneousLattice.from_rows(EXAMPLE2_ROWS).rank == 2
    assert HomogeneousLattice(ZMatrix.from_rows(EXAMPLE2_ROWS)).rank == 2


def test_repr_of_a_lattice_whose_init_stopped_early():
    default = "<latdeg.lattices.HomogeneousLattice object at 0x"
    assert repr(HomogeneousLattice.__new__(HomogeneousLattice)).startswith(default)
    with pytest.raises(NotHomogeneous) as exc:
        HomogeneousLattice.from_rows([[1, 2, 3], [1, 1, 1]])
    # the half-built instance, as pytest finds it in the failing frame
    half = next(entry.frame.f_locals["self"] for entry in exc.traceback if entry.name == "__init__")
    assert repr(half).startswith(default)
    assert repr(HomogeneousLattice.from_rows([[1, -1]])) == (
        "HomogeneousLattice(s=2, rank=1, generators=[[1, -1]])"
    )


def test_contains_examples(example2, example3):
    assert example2.contains([18, -18, 0])
    assert not example3.contains([1, 0, -1])
    assert example2.contains([0, 0, 0])
    assert example3.contains([0, 0, 0])
    with pytest.raises(DimensionMismatch):
        example2.contains([1, -1])


def test_contains_agrees_with_brute_force():
    rng = random.Random(2024)
    for _ in range(25):
        s = rng.randint(2, 3)
        m = rng.randint(1, 2)
        rows = random_homogeneous_rows(rng, s, m, 3)
        lat = HomogeneousLattice.from_rows(rows, ambient_dim=s)
        # random small vectors: brute-force truth must match
        for _ in range(20):
            v = [rng.randint(-4, 4) for _ in range(s)]
            if brute_force_contains(rows, v, coeff_bound=6):
                assert lat.contains(v)
        # vectors built from small coefficients must be found both ways
        for _ in range(10):
            coeffs = [rng.randint(-4, 4) for _ in range(m)]
            v = [sum(c * row[k] for c, row in zip(coeffs, rows)) for k in range(s)]
            assert lat.contains(v)
            assert brute_force_contains(rows, v, coeff_bound=6)


def test_element_order_examples(example3):
    lat = HomogeneousLattice.from_rows([[2, -2]])
    assert lat.element_order([1, -1]) == 2
    assert lat.element_order([0, 0]) == 1
    assert example3.element_order([1, 0, -1]) is None


def test_non_integer_coordinates_are_refused():
    # int() would truncate 0.5 to 0 and 1.9 to 1, and parse "2"
    lat = HomogeneousLattice.from_rows([[2, -2]])
    with pytest.raises(TypeError):
        lat.contains([0.5, -0.5])
    with pytest.raises(TypeError):
        lat.element_order([1.9, -1.9])
    with pytest.raises(TypeError):
        lat.residue(["2", "-2"])
    with pytest.raises(TypeError):
        HomogeneousLattice.from_rows([[0.5, -0.5]])


def test_element_order_is_minimal_witness():
    rng = random.Random(11)
    checked = 0
    while checked < 15:
        s = rng.randint(2, 3)
        lat = random_corank1_lattice(rng, s, 6)
        v = [rng.randint(-3, 3) for _ in range(s)]
        if sum(v) != 0:
            continue
        n = lat.element_order(v)
        if n is None or n > 50:
            continue
        assert lat.contains([n * x for x in v])
        for k in range(1, n):
            assert not lat.contains([k * x for x in v])
        checked += 1


def test_torsion_structure(example2, example3):
    t2 = example2.torsion_structure()
    assert t2.cyclic_factors == (90,)
    assert t2.order == 90
    assert t2.free_rank == 1

    t3 = example3.torsion_structure()
    assert t3.cyclic_factors == ()
    assert t3.order == 1

    free = HomogeneousLattice.from_rows([[1, 0, -1], [0, 1, -1]])
    assert free.torsion_structure().order == 1
    assert free.torsion_structure().free_rank == 1


def test_torsion_order_consistent_with_cyclic_factors():
    rng = random.Random(303)
    for _ in range(30):
        lat = HomogeneousLattice.from_rows(
            random_homogeneous_rows(rng, rng.randint(2, 4), rng.randint(1, 3), 7),
        )
        t = lat.torsion_structure()
        prod = 1
        for f in t.cyclic_factors:
            prod *= f
        assert prod == t.order
        assert list(t.cyclic_factors) == sorted(t.cyclic_factors) or all(
            b % a == 0 for a, b in zip(t.cyclic_factors, t.cyclic_factors[1:])
        )


def test_degree_examples(example2, example3):
    big = HomogeneousLattice.from_rows(EXAMPLE1_ROWS)
    deg = big.degree()
    assert deg == 9120311200000
    assert deg == 2**8 * 5**5 * 7**2 * 11 * 13 * 1627

    assert example2.degree() == 90

    with pytest.raises(RankMismatch) as exc:
        example3.degree()
    assert exc.value.expected == 2
    assert exc.value.got == 1

    free = HomogeneousLattice.from_rows([[1, 0, -1], [0, 1, -1]])
    assert free.degree() == 1


def test_degree_equals_torsion_order_when_defined():
    rng = random.Random(17)
    for _ in range(40):
        lat = random_corank1_lattice(rng, rng.choice((2, 3, 4)), 6)
        assert lat.degree() == lat.torsion_structure().order


def test_is_torsion_free(example2, example3):
    assert HomogeneousLattice.from_rows([[1, 0, -1], [0, 1, -1]]).is_torsion_free()
    assert not example2.is_torsion_free()
    assert example3.is_torsion_free()


def test_regularity_upper_bound_examples(example2):
    for n in (1, 2, 5, 9):
        lat = HomogeneousLattice.from_rows([[n, -n]])
        assert lat.element_order([1, -1]) == n
        assert lat.regularity_upper_bound() == n

    free = HomogeneousLattice.from_rows([[1, 0, -1], [0, 1, -1]])
    assert free.regularity_upper_bound() == 1

    bound = example2.regularity_upper_bound()
    assert bound == (45 - 1) + (10 - 1) + 1
    profile = hilbert_profile(example2, bound + 3)
    constant = profile.values[bound]
    assert all(v == constant for v in profile.values[bound:])
    assert constant == example2.degree()

    with pytest.raises(RankMismatch):
        HomogeneousLattice.from_rows([[-1, 2, -1]]).regularity_upper_bound()


def test_normalized_volume_examples(example2):
    assert HomogeneousLattice.from_rows([[1, -1]]).normalized_volume() == 1
    assert example2.normalized_volume() == 90
    for n in (2, 3, 7):
        assert HomogeneousLattice.from_rows([[n, -n]]).normalized_volume() == n


@pytest.mark.parametrize("bad", [7, 30])
def test_degree_and_volume_use_independent_moduli(monkeypatch, bad):
    """A wrong modulus in one route shows as degree != normalized_volume.

    ``bad`` is not a multiple of the degree 90.  Patching the Hermite
    modulus leaves the degree right and the volume wrong, and patching
    the Smith modulus does the opposite, so neither route reads the
    other's modulus.
    """

    def with_modulus(elimination):
        def run(*args, modulus=0):
            return elimination(*args, modulus=bad if modulus else 0)

        return run

    with monkeypatch.context() as patch:
        patch.setattr(lattices, "_hermite_elimination", with_modulus(intmat._hermite_elimination))
        lattice = HomogeneousLattice.from_rows(EXAMPLE2_ROWS)
        assert lattice.degree() == 90
        assert lattice.normalized_volume() != 90
    with monkeypatch.context() as patch:
        patch.setattr(intmat, "_smith_elimination", with_modulus(intmat._smith_elimination))
        lattice = HomogeneousLattice.from_rows(EXAMPLE2_ROWS)
        assert lattice.normalized_volume() == 90
        assert lattice.degree() != 90


def test_corank_one_construction_runs_one_wide_pass(monkeypatch):
    """Both moduli at rank s - 1 come from one Bareiss pass over the head.

    The Hermite modulus needs only a second pass over the three-column
    block that the first pass leaves.
    """
    widths = []
    original = intmat._fraction_free

    def counting(rows, n):
        widths.append(n)
        return original(rows, n)

    monkeypatch.setattr(intmat, "_fraction_free", counting)
    lattice = HomogeneousLattice.from_rows([
        [-4, -4, -4, 4, -4, 12], [2, -1, 2, -4, 4, -3], [-1, 3, 3, 4, -1, -8],
        [1, -1, -1, 3, 0, -2], [-4, 2, 4, -3, -2, 3], [0, -3, 1, 4, 2, -4],
    ])
    assert lattice.rank == 5
    assert [w for w in widths if w > 3] == [5]
    assert len(widths) == 2


def test_volume_equals_degree_random_suite():
    rng = random.Random(60606)
    for _ in range(200):
        lat = random_corank1_lattice(rng, rng.choice((2, 3, 4)), 9)
        assert lat.normalized_volume() == lat.degree()


def test_volume_invariant_under_basis_change():
    rng = random.Random(515)
    for _ in range(20):
        s = rng.choice((2, 3, 4))
        lat = random_corank1_lattice(rng, s, 6)
        u = random_unimodular(rng, s - 1)
        other_rows = mat_mul(u, hermite_basis(lat.generators)).to_rows()
        other = HomogeneousLattice.from_rows(other_rows, ambient_dim=s)
        assert other.normalized_volume() == lat.normalized_volume()
        assert other.degree() == lat.degree()


def test_coordinate_permutation_invariance(monkeypatch):
    monkeypatch.setattr(errors, "DEFAULT_BUDGET", 500_000)
    rng = random.Random(321)
    for _ in range(25):
        s = rng.choice((2, 3, 4))
        lat = random_corank1_lattice(rng, s, 6)
        perm = list(range(s))
        rng.shuffle(perm)
        permuted = HomogeneousLattice.from_rows(
            [[row[p] for p in perm] for row in lat.generators.to_rows()], ambient_dim=s
        )
        assert permuted.torsion_structure().order == lat.torsion_structure().order
        assert permuted.degree() == lat.degree()
        # the bound is computed against the last coordinate, so a general
        # permutation may change its value; it must stay a valid bound
        bound = permuted.regularity_upper_bound()
        if bound <= 40:
            profile = hilbert_profile(permuted, bound + 1)
            assert profile.values[bound] == profile.values[bound + 1] == permuted.degree()
        # permutations that fix the last coordinate only shuffle the orders
        if s > 2:
            head = list(range(s - 1))
            rng.shuffle(head)
            head.append(s - 1)
            shuffled = HomogeneousLattice.from_rows(
                [[row[p] for p in head] for row in lat.generators.to_rows()],
                ambient_dim=s,
            )
            assert shuffled.regularity_upper_bound() == lat.regularity_upper_bound()


def test_degree_depends_only_on_the_lattice_not_the_presentation():
    rng = random.Random(1618)
    for _ in range(20):
        s = rng.choice((2, 3, 4))
        lat = random_corank1_lattice(rng, s, 6)
        rows = lat.generators.to_rows()
        u = random_unimodular(rng, len(rows))
        restated = mat_mul(u, lat.generators).to_rows()
        restated.append(rows[0])  # redundant generator changes nothing
        other = HomogeneousLattice.from_rows(restated, ambient_dim=s)
        assert other.degree() == lat.degree()
        assert other.torsion_structure() == lat.torsion_structure()
        assert other.regularity_upper_bound() == lat.regularity_upper_bound()


def test_unit_differences_have_finite_order_at_corank_one():
    rng = random.Random(888)
    for _ in range(20):
        s = rng.choice((2, 3, 4))
        lat = random_corank1_lattice(rng, s, 6)
        for i in range(s - 1):
            assert lat.element_order(unit_difference(s, i)) is not None
