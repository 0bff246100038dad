import random
import tracemalloc
from math import comb
from pathlib import Path

import pytest

from conftest import random_connected_graph, random_toric_spec
from latdeg import (
    BudgetExceeded,
    Disconnected,
    DomainError,
    GraphSpec,
    NonPrimeField,
    ToricSetSpec,
    build_laplacian_lattice,
    build_toric_lattice,
    check_sandpile_degree,
    check_vanishing_degree,
    ci_hypothesis_check,
    determinant,
    enumerate_toric_set,
    parse_graph,
    parse_toric_spec,
    reduced_laplacian,
    spanning_tree_count,
)
from latdeg import applications
from latdeg.applications import _is_prime
from latdeg.errors import FormatError

K4 = GraphSpec(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
C5 = GraphSpec(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
P4 = GraphSpec(4, ((0, 1), (1, 2), (2, 3)))
DATA = Path(__file__).resolve().parent.parent / "data"


def torus_spec(q, s):
    return ToricSetSpec(
        q=q, exponents=tuple(tuple(int(i == j) for j in range(s)) for i in range(s))
    )


def test_toric_spec_refuses_non_integer_exponents():
    with pytest.raises(TypeError):
        ToricSetSpec(q=5, exponents=((1.5,), (2,)))


def test_toric_lattice_hand_example():
    spec = ToricSetSpec(q=3, exponents=((1,), (2,)))
    lat = build_toric_lattice(spec)
    assert lat.ambient_dim == 2
    assert lat.contains([2, -2])
    assert not lat.contains([1, -1])
    assert lat.degree() == 2


def test_toric_lattice_q2_is_full_homogeneous():
    spec = ToricSetSpec(q=2, exponents=((3, 1), (0, 2), (1, 1)))
    lat = build_toric_lattice(spec)
    assert lat.degree() == 1
    assert lat.is_torsion_free()
    assert lat.contains([1, 0, -1])
    assert lat.contains([0, 1, -1])


def test_toric_lattice_torus_degree():
    for s in (2, 3):
        assert build_toric_lattice(torus_spec(5, s)).degree() == 4 ** (s - 1)


def test_toric_lattice_always_corank_one():
    rng = random.Random(2)
    for _ in range(25):
        spec = random_toric_spec(rng)
        lat = build_toric_lattice(spec)
        assert lat.rank == spec.s - 1
        q1 = spec.q - 1
        for i in range(spec.s - 1):
            v = [0] * spec.s
            v[i] = q1
            v[spec.s - 1] = -q1
            assert lat.contains(v)


def test_enumerate_examples():
    assert enumerate_toric_set(ToricSetSpec(q=3, exponents=((1,), (2,)))) == {
        (1, 1),
        (1, 2),
    }
    single = enumerate_toric_set(ToricSetSpec(q=2, exponents=((3,), (1,), (2,))))
    assert single == {(1, 1, 1)}
    assert len(enumerate_toric_set(torus_spec(5, 3))) == 16


def test_enumerate_points_are_normalized():
    rng = random.Random(14)
    for _ in range(10):
        spec = random_toric_spec(rng)
        for point in enumerate_toric_set(spec):
            assert point[0] == 1
            assert all(1 <= c <= spec.q - 1 for c in point)


def test_enumerate_budget():
    spec = ToricSetSpec(q=7, exponents=((1, 1), (2, 0)))
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_toric_set(spec, budget=10)
    assert exc.value.needed == 36
    # the library's default is the CLI's: 2,000,000 points
    with pytest.raises(BudgetExceeded) as exc:
        check_vanishing_degree(ToricSetSpec(q=2003, exponents=((1, 1), (2, 0))))
    assert (exc.value.needed, exc.value.budget) == (2002**2, 2_000_000)


def test_vanishing_check_refuses_before_eliminating(monkeypatch):
    def fail(spec):
        raise AssertionError("the toric lattice was built before the budget check")

    monkeypatch.setattr(applications, "build_toric_lattice", fail)
    # q = 5, n = 1600: a 4^1600 grid, and a 1603 x 1601 kernel problem; the
    # check stops at 4^11, the first power of 4 past the budget
    spec = ToricSetSpec(q=5, exponents=tuple((i, 1, 2 * i) * 533 + (i,) for i in range(3)))
    with pytest.raises(BudgetExceeded) as exc:
        check_vanishing_degree(spec)
    assert (exc.value.needed, exc.value.budget) == (4**11, 2_000_000)
    assert str(exc.value) == "parameter grid size at least 4194304 exceeds budget 2000000"


def test_toric_set_is_multiplicative_group():
    rng = random.Random(33)
    for _ in range(6):
        spec = random_toric_spec(rng)
        points = enumerate_toric_set(spec)
        q = spec.q
        for a in points:
            for b in points:
                assert tuple(x * y % q for x, y in zip(a, b)) in points


def test_vanishing_degree_random_specs():
    rng = random.Random(606)
    for _ in range(50):
        check = check_vanishing_degree(random_toric_spec(rng))
        assert check.agree, check
    assert check_vanishing_degree(ToricSetSpec(q=3, exponents=((1,), (2,)))).agree


def test_ci_hypothesis_examples():
    report = ci_hypothesis_check(torus_spec(3, 3))
    assert report.q_minus_1_prime
    assert report.exponents_distinct_mod
    assert report.torsion_is_power
    assert report.corollary_applies
    assert report.predicted_generators == "t1^2-t3^2, t2^2-t3^2"

    assert not ci_hypothesis_check(torus_spec(5, 3)).q_minus_1_prime
    assert not ci_hypothesis_check(torus_spec(5, 3)).corollary_applies

    dup = ToricSetSpec(q=3, exponents=((1,), (1,)))
    assert not ci_hypothesis_check(dup).exponents_distinct_mod


def test_ci_torsion_is_power_matches_cyclic_factors():
    rng = random.Random(9)
    for _ in range(20):
        spec = random_toric_spec(rng)
        report = ci_hypothesis_check(spec)
        factors = list(build_toric_lattice(spec).torsion_structure().cyclic_factors)
        assert report.torsion_is_power == (factors == [spec.q - 1] * (spec.s - 1))


def test_toric_spec_validation():
    with pytest.raises(NonPrimeField):
        ToricSetSpec(q=4, exponents=((1,),))
    with pytest.raises(NonPrimeField):
        ToricSetSpec(q=1, exponents=((1,),))
    with pytest.raises(ValueError):
        ToricSetSpec(q=3, exponents=())
    with pytest.raises(ValueError):
        ToricSetSpec(q=3, exponents=((1, 2), (1,)))
    with pytest.raises(ValueError):
        ToricSetSpec(q=3, exponents=((-1,),))


def test_laplacian_examples():
    lat = build_laplacian_lattice(K4)
    assert lat.rank == 3
    assert lat.generators.row(0) == (3, -1, -1, -1)

    p3 = build_laplacian_lattice(GraphSpec(3, ((0, 1), (1, 2))))
    assert p3.generators.to_rows() == [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
    assert p3.rank == 2

    c5 = build_laplacian_lattice(C5)
    assert c5.generators.row(0) == (2, -1, 0, 0, -1)


def test_spanning_tree_examples():
    assert spanning_tree_count(K4) == 16  # Cayley: 4^(4-2)
    assert spanning_tree_count(C5) == 5
    assert spanning_tree_count(P4) == 1
    star = GraphSpec(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
    assert spanning_tree_count(star) == 1


def test_spanning_tree_budget():
    # C(45, 9) = 886,163,135 edge subsets; the check stops at C(45, 6)
    complete10 = GraphSpec(
        10, tuple((i, j) for i in range(10) for j in range(i + 1, 10))
    )
    with pytest.raises(BudgetExceeded) as exc:
        spanning_tree_count(complete10)
    assert (exc.value.needed, exc.value.budget) == (comb(45, 6), 2_000_000)


def test_spanning_tree_budget_bounds_subsets_before_the_count(monkeypatch):
    # K4 has C(6, 3) = 20 edge subsets of size 3; a 30-vertex path has one
    path30 = GraphSpec(30, tuple((i, i + 1) for i in range(29)))
    single = GraphSpec(1, ())
    monkeypatch.setattr(applications, "DEFAULT_BUDGET", 1)
    assert spanning_tree_count(path30) == 1
    monkeypatch.setattr(applications, "DEFAULT_BUDGET", 20)
    assert spanning_tree_count(K4) == 16

    def refuse(*_args):
        raise AssertionError("edge subsets walked before the budget was checked")

    monkeypatch.setattr(applications, "_joining_edges", refuse)
    monkeypatch.setattr(applications, "DEFAULT_BUDGET", 19)
    with pytest.raises(BudgetExceeded) as exc:
        spanning_tree_count(K4)
    assert (exc.value.needed, exc.value.budget) == (20, 19)
    with pytest.raises(BudgetExceeded):
        check_sandpile_degree(K4)
    # a tree has a single subset, which a budget below 1 still refuses
    monkeypatch.setattr(applications, "DEFAULT_BUDGET", 0)
    for tree in (path30, single):
        with pytest.raises(BudgetExceeded) as exc:
            spanning_tree_count(tree)
        assert (exc.value.needed, exc.value.budget) == (1, 0)


def test_three_way_sandpile_agreement():
    for g in (K4, C5, P4):
        check = check_sandpile_degree(g)
        assert check.agree, check
    rng = random.Random(4040)
    for _ in range(20):
        g = random_connected_graph(rng, max_vertices=7)
        check = check_sandpile_degree(g)
        assert check.agree, (g, check)
        assert check.degree == spanning_tree_count(g)
        assert check.degree == abs(determinant(reduced_laplacian(g)))


def test_sandpile_check_builds_one_lattice(monkeypatch):
    built = []
    init = applications.HomogeneousLattice.__init__

    def counting(self, generators):
        built.append(generators)
        init(self, generators)

    monkeypatch.setattr(applications.HomogeneousLattice, "__init__", counting)
    check = check_sandpile_degree(parse_graph((DATA / "complete4.graph").read_text()))
    assert check.agree and check.degree == 16
    assert len(built) == 1


def test_reduced_laplacian_drop_choice_is_irrelevant():
    # two triangles sharing edge 1-2, plus a pendant vertex 4 on vertex 3;
    # vertex degrees 2, 3, 3, 3, 1, so no relabeling is an automorphism
    s, edges = 5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (1, 3))
    reduced = set()
    for v in range(s):
        # swap v and the last vertex, so that v is the one deleted
        label = list(range(s))
        label[v], label[s - 1] = s - 1, v
        g = GraphSpec(s, tuple((label[i], label[j]) for i, j in edges))
        matrix = reduced_laplacian(g)
        reduced.add(matrix)
        assert abs(determinant(matrix)) == spanning_tree_count(g) == 8
    assert len(reduced) == s


def test_graph_validation():
    with pytest.raises(Disconnected):
        GraphSpec(4, ((0, 1), (2, 3)))
    with pytest.raises(Disconnected):
        GraphSpec(5, ((0, 1), (1, 2), (0, 2), (3, 4)))  # s - 1 edges, two components
    with pytest.raises(ValueError):
        GraphSpec(3, ((0, 0),))
    with pytest.raises(ValueError):
        GraphSpec(3, ((0, 1), (1, 0), (1, 2)))
    with pytest.raises(ValueError):
        GraphSpec(3, ((0, 5),))
    # a single vertex is connected and has exactly one (empty) spanning tree
    single = GraphSpec(1, ())
    assert spanning_tree_count(single) == 1
    assert build_laplacian_lattice(single).degree() == 1


def test_sandpile_edge_budget_refuses_before_the_laplacian(monkeypatch):
    # 120 vertices, 600 edges: eliminating the Laplacian alone takes seconds
    edges = tuple((i, (i + k) % 120) for k in range(1, 6) for i in range(120))
    g = GraphSpec(120, edges)

    def refuse(_g):
        raise AssertionError("Laplacian lattice built before the edge budget was checked")

    monkeypatch.setattr(applications, "build_laplacian_lattice", refuse)
    with pytest.raises(BudgetExceeded):
        check_sandpile_degree(g)


def test_too_few_edges_are_disconnected_before_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(Disconnected):
            parse_graph("1000000\n")
        with pytest.raises(Disconnected):
            GraphSpec(5, ((0, 1), (1, 2), (2, 3)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_parse_toric_spec():
    spec = parse_toric_spec("# comment\n3 1 2\n1\n2\n")
    assert spec.q == 3
    assert spec.exponents == ((1,), (2,))
    with pytest.raises(FormatError):
        parse_toric_spec("3 1\n1\n")
    with pytest.raises(FormatError):
        parse_toric_spec("3 1 2\n1\n")
    with pytest.raises(FormatError):
        parse_toric_spec("3 1 2\n1 2\n3\n")
    with pytest.raises(FormatError, match="nonnegative"):
        parse_toric_spec("3 1 2\n1\n-2\n")


def test_parse_graph():
    g = parse_graph("4\n1 2\n2 3\n3 4\n")
    assert g.vertex_count == 4
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    with pytest.raises(FormatError):
        parse_graph("")
    with pytest.raises(FormatError):
        parse_graph("3\n1 5\n")
    with pytest.raises(FormatError):
        parse_graph("3\n1 1\n")  # self-loop surfaces as a format problem
    with pytest.raises(Disconnected):
        parse_graph("4\n1 2\n3 4\n")


def trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if trial_division_is_prime(n)
    ]


def test_is_prime_large_and_pseudoprime_cases():
    assert _is_prime(2**61 - 1)
    assert not _is_prime(561)  # Carmichael number
    assert not _is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5 and 7
    assert not _is_prime((10**9 + 7) * (10**9 + 9))
    assert _is_prime(10**18 + 3)
    with pytest.raises(DomainError, match="not certified"):
        _is_prime(318_665_857_834_031_151_167_461)
    with pytest.raises(DomainError):
        ToricSetSpec(q=10**24 + 7, exponents=((1,),))
