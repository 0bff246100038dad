import itertools
import random
import tracemalloc
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    is_strictly_increasing_then_constant,
    pairwise_coset_count,
    random_corank1_lattice,
)
from latdeg import (
    BudgetExceeded,
    HomogeneousLattice,
    RankMismatch,
    ToricSetSpec,
    build_toric_lattice,
    errors,
    hilbert_profile,
    verify_degree,
)


@pytest.fixture(scope="module")
def example2():
    return HomogeneousLattice.from_rows([[18, -18, 0], [45, 0, -45], [0, 10, -10]])


@pytest.fixture(scope="module")
def example3():
    return HomogeneousLattice.from_rows([[-1, 2, -1]])


def test_profile_example3_is_odd_numbers(example3):
    profile = hilbert_profile(example3, 12)
    assert profile.values == tuple(2 * d + 1 for d in range(13))
    assert profile.degree_estimate == 2
    assert profile.krull_dim_estimate == 2
    assert profile.stabilization_degree is None


def test_profile_matches_pairwise_reference(example3, example2):
    for d in range(5):
        assert hilbert_profile(example3, d).values[d] == pairwise_coset_count(example3, d)
    for d in range(4):
        assert hilbert_profile(example2, d).values[d] == pairwise_coset_count(example2, d)


def test_profile_example2_increases_to_90(example2):
    bound = example2.regularity_upper_bound()
    profile = hilbert_profile(example2, bound + 3)
    assert profile.values[0] == 1
    assert is_strictly_increasing_then_constant(profile.values)
    assert profile.values[-1] == 90
    assert profile.stabilization_degree is not None
    assert profile.stabilization_degree <= bound


def test_profile_zero_lattice():
    zero = HomogeneousLattice.from_rows([], ambient_dim=2)
    assert hilbert_profile(zero, 6).values == (1, 2, 3, 4, 5, 6, 7)


def test_profile_h0_is_one():
    rng = random.Random(5150)
    for _ in range(10):
        lat = random_corank1_lattice(rng, rng.choice((2, 3)), 5)
        assert hilbert_profile(lat, 0).values == (1,)


def test_degree_estimate_cases(example2):
    profile = hilbert_profile(HomogeneousLattice.from_rows([[-1, 2, -1]]), 6)
    assert profile.values == (1, 3, 5, 7, 9, 11, 13)
    assert profile.degree_estimate == 2

    bound = example2.regularity_upper_bound()
    assert hilbert_profile(example2, bound + 3).degree_estimate == 90

    constant = hilbert_profile(HomogeneousLattice.from_rows([[1, -1]]), 3)
    assert constant.values == (1, 1, 1, 1)
    assert constant.degree_estimate == 1


def test_degree_estimate_none_while_no_order_settles():
    # window is max(3, s) = 3; two degrees cannot certify anything
    zero3 = HomogeneousLattice.from_rows([], ambient_dim=3)
    profile = hilbert_profile(zero3, 2)
    assert profile.degree_estimate is None
    assert profile.krull_dim_estimate is None


def test_verify_degree_examples(example2):
    check = verify_degree(example2)
    assert check.agree
    assert check.snf_degree == check.oracle_degree == 90
    assert check.observed_stabilization <= check.regularity_bound

    check = verify_degree(HomogeneousLattice.from_rows([[3, -3]]))
    assert check.snf_degree == check.oracle_degree == 3
    profile = hilbert_profile(HomogeneousLattice.from_rows([[3, -3]]), 4)
    assert profile.values == (1, 2, 3, 3, 3)

    check = verify_degree(HomogeneousLattice.from_rows([[1, 0, -1], [0, 1, -1]]))
    assert check.snf_degree == check.oracle_degree == 1
    assert check.observed_stabilization == 0


def test_verify_degree_150_stabilizes_at_12():
    # counting to the bound 203 + s once took minutes; the counts settle at 12
    lattice = HomogeneousLattice.from_rows([[6, -2, -4, 0], [0, 5, 0, -5], [3, 3, -7, 1]])
    check = verify_degree(lattice)
    assert check.agree
    assert check.snf_degree == check.oracle_degree == 150
    assert check.regularity_bound == 203
    assert check.observed_stabilization == 12


@st.composite
def corank_one_lattices(draw, max_s=4, bound=4):
    """A lattice of rank s - 1 in Z^s: s - 1 rows of entries in [-bound, bound], summing to 0."""
    s = draw(st.integers(1, max_s))
    rows = []
    for _ in range(s - 1):
        head = draw(st.lists(st.integers(-bound, bound), min_size=s - 1, max_size=s - 1))
        rows.append(head + [-sum(head)])
    lattice = HomogeneousLattice.from_rows(rows, ambient_dim=s)
    if lattice.rank < s - 1:
        # the steps e_i - e_s have rank s - 1; scaled, they keep the group small
        k = draw(st.integers(1, 5))
        lattice = HomogeneousLattice.from_rows(
            [[k * (c == i) - k * (c == s - 1) for c in range(s)] for i in range(s - 1)],
            ambient_dim=s)
    return lattice


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(corank_one_lattices())
@example(HomogeneousLattice.from_rows([], ambient_dim=1))
@example(HomogeneousLattice.from_rows([[18, -18, 0], [45, 0, -45], [0, 10, -10]]))
def test_emptied_frontier_is_the_first_full_degree(lattice):
    # the profile runs to the proven bound, so it reaches the degree on its own
    check = verify_degree(lattice)
    degree = lattice.degree()
    assert check.oracle_degree == check.snf_degree == degree
    assert check.agree
    values = hilbert_profile(lattice, check.regularity_bound).values
    assert check.observed_stabilization == values.index(degree)
    assert check.observed_stabilization <= check.regularity_bound


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("s", [2, 3, 4])
def test_projective_torus_regularity_index(q, s):
    # s - 1 forms of degree q - 1 cut out the torus: a complete
    # intersection, whose h-polynomial has degree (s - 1)(q - 2)
    torus = ToricSetSpec(q=q, exponents=[[int(i == j) for j in range(s)] for i in range(s)])
    check = verify_degree(build_toric_lattice(torus))
    assert check.agree
    assert check.oracle_degree == (q - 1) ** (s - 1)
    assert check.observed_stabilization == (s - 1) * (q - 2)


def test_verify_degree_requires_corank_one(example3):
    with pytest.raises(RankMismatch):
        verify_degree(example3)


def test_counterexample_fidelity(example3):
    # rank 1 in Z^3: the counting degree is 2 but the torsion order is 1
    assert hilbert_profile(example3, 12).degree_estimate == 2
    assert example3.torsion_structure().order == 1


def test_residue_soundness(example2, example3):
    for lattice in (example2, example3):
        for d in (2, 3):
            monos = [
                v
                for v in itertools.product(range(d + 1), repeat=3)
                if sum(v) == d
            ]
            for a, b in itertools.combinations(monos, 2):
                equal = lattice.residue(a) == lattice.residue(b)
                assert equal == lattice.contains([x - y for x, y in zip(a, b)])


def test_random_suite_agreement_and_shape(monkeypatch):
    monkeypatch.setattr(errors, "DEFAULT_BUDGET", 30_000)
    rng = random.Random(909)
    done = 0
    while done < 30:
        lat = random_corank1_lattice(rng, rng.choice((2, 3, 4)), 6)
        try:
            check = verify_degree(lat)
        except BudgetExceeded:
            continue
        assert check.agree
        assert check.observed_stabilization <= check.regularity_bound
        profile = hilbert_profile(lat, check.regularity_bound + lat.ambient_dim)
        assert is_strictly_increasing_then_constant(profile.values)
        assert all(v >= 1 for v in profile.values)
        done += 1


def test_budget_enforced(monkeypatch):
    monkeypatch.setattr(errors, "DEFAULT_BUDGET", 1000)
    zero = HomogeneousLattice.from_rows([], ambient_dim=4)
    # C(103, 3) monomials of degree 100; the count stops at C(103, 2), the
    # first C(103, i) past the budget
    with pytest.raises(BudgetExceeded) as exc:
        hilbert_profile(zero, 100)
    assert exc.value.needed == comb(103, 2)
    assert exc.value.budget == 1000
    assert str(exc.value) == "estimated monomial count at least 5253 exceeds budget 1000"


def test_corank_one_budget_bounds_residue_steps(example2, monkeypatch):
    # at rank s - 1 the search visits at most |T| = 90 cosets, s = 3 steps
    # each, and writes d_max + 1 = 2101 values
    monkeypatch.setattr(errors, "DEFAULT_BUDGET", 2370)
    with pytest.raises(BudgetExceeded) as exc:
        hilbert_profile(example2, 2100)
    assert exc.value.needed == 2371
    monkeypatch.setattr(errors, "DEFAULT_BUDGET", 2371)
    assert hilbert_profile(example2, 2100).values[-1] == 90
    # below that the monomial count is smaller and stays the bound
    monkeypatch.setattr(errors, "DEFAULT_BUDGET", 200)
    with pytest.raises(BudgetExceeded) as exc:
        hilbert_profile(example2, 20)
    assert exc.value.needed == comb(22, 2)
    # 10**6 + 1 output values alone exceed the budget, and the refusal
    # comes before the profile is built (as for d_max = 10**9 under the
    # default budget)
    monkeypatch.setattr(errors, "DEFAULT_BUDGET", 10**6)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as exc:
            hilbert_profile(example2, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc.value.needed == 270 + 10**6 + 1
    assert peak < 2**20


def test_profile_rejects_negative_degree(example2):
    with pytest.raises(ValueError):
        hilbert_profile(example2, -1)

