"""Every enumeration budget against the exact count it bounds.

Each of the three brute-force routes sizes its work before it starts,
by building the count up (``errors.bounded_count``) and stopping once it
passes the budget.  Here the exact count comes from ``math.comb`` or a
power, and every budget around it and around each partial count is
tried, patched in as ``errors.DEFAULT_BUDGET``: a route must
refuse exactly when the exact count exceeds the budget, and then name
the first partial count past it, a lower bound.  ``verify`` searches
the whole group, and names its |T| * s residue steps exactly.
The enumerations themselves are replaced by a stub, so an accepted
size costs nothing.
"""

import random
from math import comb

import pytest

from conftest import int_digit_limit
from latdeg import (
    BudgetExceeded,
    GraphSpec,
    HomogeneousLattice,
    ToricSetSpec,
    applications,
    enumerate_toric_set,
    errors,
    hilbert,
    hilbert_profile,
    spanning_tree_count,
    verify_degree,
)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


class Enumerated(Exception):
    """Raised by the stubbed enumeration: the size was accepted."""


def enumerated(*_args):
    raise Enumerated


def refusal(call):
    """The ``BudgetExceeded`` that ``call`` raises, or None if it got to the enumeration."""
    try:
        call()
    except BudgetExceeded as exc:
        return exc
    except Enumerated:
        return None
    raise AssertionError("neither refused nor enumerated")


def first_past(partials, budget):
    """The first of ``partials`` past ``budget``, else the last one."""
    return next((c for c in partials if c > budget), partials[-1])


def budgets_around(*counts):
    return sorted({b for c in counts for b in (c - 1, c, c + 1) if b >= 0} | {0, 1})


def binomial_partials(n, k):
    """C(n, i) for i = 1..min(k, n - k), the counts built up to C(n, k); (1,) if there are none."""
    return [comb(n, i) for i in range(1, min(k, n - k) + 1)] or [1]


def test_toric_grid_refusals_match_the_exact_grid(monkeypatch):
    monkeypatch.setattr(applications, "_exponent_differences", enumerated)
    for q in SMALL_PRIMES:
        for n in range(1, 6):
            spec = ToricSetSpec(q=q, exponents=((1,) * n, (0,) * n))
            exact = (q - 1) ** n
            partials = [(q - 1) ** i for i in range(1, n + 1)]
            for budget in budgets_around(*partials):
                monkeypatch.setattr(errors, "DEFAULT_BUDGET", budget)
                exc = refusal(lambda: enumerate_toric_set(spec))
                assert (exc is not None) == (exact > budget), (q, n, budget)
                if exc is not None:
                    assert exc.needed == first_past(partials, budget) <= exact
                    assert str(exc) == (f"parameter grid size at least {exc.needed} "
                                        f"exceeds budget {budget}")


def lattices_of_every_rank(rng, s):
    """A lattice of each rank 0..s-1 in Z^s: scaled steps e_i - e_s plus one combination."""
    for rank in range(s):
        rows = []
        for i in range(rank):
            k = rng.randint(1, 4)
            rows.append([k * (c == i) - k * (c == s - 1) for c in range(s)])
        coeffs = [rng.randint(-2, 2) for _ in rows]
        if rows:
            rows.append([sum(c * x for c, x in zip(coeffs, col)) for col in zip(*rows)])
        lattice = HomogeneousLattice.from_rows(rows, ambient_dim=s)
        assert lattice.rank == rank
        yield lattice


def test_monomial_and_coset_refusals_match_the_exact_counts(monkeypatch):
    monkeypatch.setattr(hilbert, "_ball_sizes", enumerated)
    rng = random.Random(6)
    for s in range(1, 7):
        for lattice in lattices_of_every_rank(rng, s):
            corank_one = lattice.rank == s - 1
            for d_max in range(41):
                monomials = comb(d_max + s - 1, s - 1)
                partials = binomial_partials(d_max + s - 1, s - 1)
                steps = lattice.degree() * s + d_max + 1 if corank_one else monomials
                exact = min(monomials, steps)
                for budget in budgets_around(*partials, steps):
                    monkeypatch.setattr(errors, "DEFAULT_BUDGET", budget)
                    exc = refusal(lambda: hilbert_profile(lattice, d_max))
                    assert (exc is not None) == (exact > budget), (lattice, d_max, budget)
                    if exc is None:
                        continue
                    if steps < monomials:
                        # the coset search bound, named exactly
                        assert exc.needed == steps
                        assert str(exc).startswith("coset search work ")
                    else:
                        # at rank s - 1 the count goes on up to the coset bound
                        cap = max(budget, steps) if corank_one else budget
                        assert exc.needed == first_past(partials, cap) <= monomials
                        assert str(exc).startswith("estimated monomial count at least ")


def test_verify_refuses_past_the_coset_bound_before_searching(monkeypatch):
    # verify has no radius to size: it searches the whole group, |T| * s residue steps
    monkeypatch.setattr(hilbert, "_ball_sizes", enumerated)
    rng = random.Random(31)
    for s in range(1, 7):
        for _ in range(4):
            lattice = list(lattices_of_every_rank(rng, s))[-1]
            steps = lattice.degree() * s
            for budget in budgets_around(steps):
                monkeypatch.setattr(errors, "DEFAULT_BUDGET", budget)
                exc = refusal(lambda: verify_degree(lattice))
                assert (exc is not None) == (steps > budget), (lattice, budget)
                if exc is not None:
                    assert str(exc) == f"coset search work {steps} exceeds budget {budget}"


def connected_graph(rng, s, e):
    """A connected graph on s vertices with e edges: a random tree plus random extra edges."""
    edges = {(rng.randrange(v), v) for v in range(1, s)}
    others = [(i, j) for i in range(s) for j in range(i + 1, s) if (i, j) not in edges]
    edges |= set(rng.sample(others, e - len(edges)))
    return GraphSpec(vertex_count=s, edges=tuple(sorted(edges)))


def test_edge_subset_refusals_match_the_exact_count(monkeypatch):
    rng = random.Random(14)
    graphs = [connected_graph(rng, s, e) for s in range(1, 16)
              for e in range(s - 1, min(14, s * (s - 1) // 2) + 1)]
    monkeypatch.setattr(applications, "_joining_edges", enumerated)
    for g in graphs:
        s, e = g.vertex_count, len(g.edges)
        exact = comb(e, s - 1)
        partials = binomial_partials(e, s - 1)
        for budget in budgets_around(*partials):
            monkeypatch.setattr(errors, "DEFAULT_BUDGET", budget)
            exc = refusal(lambda: spanning_tree_count(g))
            assert (exc is not None) == (exact > budget), (s, e, budget)
            if exc is not None:
                assert exc.needed == first_past(partials, budget) <= exact
                assert str(exc) == (f"edge subset count at least {exc.needed} "
                                    f"exceeds budget {budget}")


@pytest.mark.parametrize("refused", [
    # a grid of 100**2200 points, 4,401 digits
    lambda: enumerate_toric_set(ToricSetSpec(q=101, exponents=[[1] * 2200])),
    # C(10**9 + 1999, 1999) monomials, over 12,000 digits
    lambda: hilbert_profile(HomogeneousLattice.from_rows([[1, -1] + [0] * 1998]), 10**9),
], ids=["toric", "hilbert"])
def test_refusals_past_the_str_digit_limit(refused):
    """A count of more digits than Python formats by default is refused by its first part."""
    with int_digit_limit(4300):
        exc = refusal(refused)
        assert exc is not None
        assert len(str(exc)) < 100
