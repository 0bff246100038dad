"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them
inline).  All comparisons are exact; timing limits are asserted where
stated.  Criterion 10 is a documented manual cross-check against an
external computer-algebra system; the in-repo part verifies the emitted
script text and the README records the expected external output.
"""

import random
import time

import pytest

from conftest import (
    diagonal,
    is_strictly_increasing_then_constant,
    mat_mul,
    random_connected_graph,
    random_corank1_lattice,
    random_int_matrix,
    random_toric_spec,
    random_unimodular,
    smith_normal_form,
)
from latdeg import (
    BudgetExceeded,
    GraphSpec,
    HomogeneousLattice,
    RankMismatch,
    ToricSetSpec,
    ZMatrix,
    check_sandpile_degree,
    check_vanishing_degree,
    determinant,
    errors,
    hermite_basis,
    hilbert_profile,
    oracle_degree,
    verify_degree,
)
from latdeg.cli import emit_cas_script

EXAMPLE1 = ZMatrix.from_rows(
    [
        [1001, -500, -501, 0, 0],
        [0, 3500, -3500, 0, 0],
        [0, 0, 3200, -200, -3000],
        [5000, -1000, -1000, -1001, -1999],
    ]
)
EXAMPLE2 = ZMatrix.from_rows([[18, -18, 0], [45, 0, -45], [0, 10, -10]])
EXAMPLE3 = ZMatrix.from_rows([[-1, 2, -1]])


def report(number, description, ok):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def random_verified_suite(seed, count, budget):
    """Random rank-(s-1) lattices with their verify reports, under ``budget``."""
    rng = random.Random(seed)
    suite = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(errors, "DEFAULT_BUDGET", budget)
        while len(suite) < count:
            lat = random_corank1_lattice(rng, rng.choice((2, 3, 4)), 6)
            try:
                check = verify_degree(lat)
            except BudgetExceeded:
                continue
            suite.append((lat, check))
    return suite


def test_criterion_01_large_example_exact_and_fast():
    start = time.perf_counter()
    dec = smith_normal_form(EXAMPLE1)
    lat = HomogeneousLattice(EXAMPLE1)
    degree = lat.degree()
    elapsed = time.perf_counter() - start
    ok = (
        dec.invariant_factors == (1, 1, 100, 91203112000)
        and degree == 9120311200000
        and degree == 2**8 * 5**5 * 7**2 * 11 * 13 * 1627
        and elapsed < 1.0
    )
    report(1, f"4x5 example: factors {dec.invariant_factors}, degree {degree}, "
              f"{elapsed:.3f}s", ok)


def test_criterion_02_example2_oracle_agreement():
    start = time.perf_counter()
    dec = smith_normal_form(EXAMPLE2)
    lat = HomogeneousLattice(EXAMPLE2)
    check = verify_degree(lat)
    profile = hilbert_profile(lat, check.regularity_bound + 3)
    elapsed = time.perf_counter() - start
    ok = (
        dec.invariant_factors == (1, 90)
        and diagonal(dec.d) == (1, 90, 0)
        and lat.degree() == 90
        and check.agree
        and check.oracle_degree == 90
        and is_strictly_increasing_then_constant(profile.values)
        and profile.values[-1] == 90
        and check.observed_stabilization <= check.regularity_bound
        and elapsed < 10.0
    )
    report(2, f"3x3 example: degree 90 both routes, stabilization "
              f"{check.observed_stabilization} <= bound {check.regularity_bound}, "
              f"{elapsed:.3f}s", ok)


def test_criterion_03_counterexample_reproduced():
    lat = HomogeneousLattice(EXAMPLE3)
    raised = False
    try:
        lat.degree()
    except RankMismatch as exc:
        raised = exc.expected == 2 and exc.got == 1
    profile = hilbert_profile(lat, 12)
    diffs = [b - a for a, b in zip(profile.values, profile.values[1:])]
    ok = (
        raised
        and oracle_degree(profile) == 2
        and all(d == 2 for d in diffs)
        and lat.torsion_structure().order == 1
    )
    report(3, "rank-1 lattice in Z^3: counting degree 2, torsion order 1, "
              "degree() refuses", ok)


def test_criterion_04_theorem_cross_validation_random_suite():
    start = time.perf_counter()
    suite = random_verified_suite(seed=1234, count=100, budget=30_000)
    elapsed = time.perf_counter() - start
    ok = all(check.agree for _, check in suite) and elapsed < 120.0
    # stash for criteria 5 and 9, which quantify over the same suite
    test_criterion_04_theorem_cross_validation_random_suite.suite = suite
    report(4, f"verify_degree agrees on {len(suite)} random rank-(s-1) lattices, "
              f"{elapsed:.1f}s", ok)


def _suite():
    fn = test_criterion_04_theorem_cross_validation_random_suite
    if not hasattr(fn, "suite"):
        fn.suite = random_verified_suite(seed=1234, count=100, budget=30_000)
    return fn.suite


def test_criterion_05_volume_equals_degree_and_basis_invariance():
    suite = _suite()
    volume_ok = all(lat.normalized_volume() == lat.degree() for lat, _ in suite)
    rng = random.Random(777)
    paired_ok = True
    for _ in range(20):
        s = rng.choice((2, 3, 4))
        lat = random_corank1_lattice(rng, s, 6)
        changed = mat_mul(random_unimodular(rng, s - 1), hermite_basis(lat.generators))
        other = HomogeneousLattice(changed)
        paired_ok = paired_ok and other.normalized_volume() == lat.normalized_volume()
    ok = volume_ok and paired_ok
    report(5, "normalized volume == degree on the random suite and under "
              "20 unimodular basis changes", ok)


def test_criterion_06_vanishing_ideal_degrees():
    rng = random.Random(2718)
    checks = [check_vanishing_degree(random_toric_spec(rng)) for _ in range(50)]
    hand = check_vanishing_degree(ToricSetSpec(q=3, exponents=((1,), (2,))))
    ok = all(c.agree for c in checks) and hand.lattice_degree == hand.point_count == 2
    report(6, f"lattice degree == |X| on {len(checks)} random specs over "
              "q in {2,3,5,7} and the q=3 squares example (2 == 2)", ok)


def test_criterion_07_sandpile_three_way_agreement():
    k4 = GraphSpec(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    c5 = GraphSpec(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
    p4 = GraphSpec(4, ((0, 1), (1, 2), (2, 3)))
    named = {
        "K4": (k4, 16),
        "C5": (c5, 5),
        "P4": (p4, 1),
    }
    ok = True
    for g, expected in named.values():
        check = check_sandpile_degree(g)
        ok = ok and check.agree and check.degree == expected
    rng = random.Random(31415)
    for _ in range(20):
        check = check_sandpile_degree(random_connected_graph(rng, max_vertices=7))
        ok = ok and check.agree
    report(7, "degree == spanning trees == |reduced Laplacian det| for "
              "K4 (16), C5 (5), P4 (1) and 20 random graphs", ok)


def test_criterion_08_snf_algebraic_invariants_500_matrices():
    rng = random.Random(5050)
    start = time.perf_counter()
    ok = True
    for _ in range(500):
        m = rng.randint(1, 5)
        s = rng.randint(1, 5)
        a = random_int_matrix(rng, m, s, 50)
        dec = smith_normal_form(a)
        ok = ok and mat_mul(mat_mul(dec.u, a), dec.v) == dec.d
        ok = ok and abs(determinant(dec.u)) == 1 and abs(determinant(dec.v)) == 1
        ok = ok and all(f >= 1 for f in dec.invariant_factors)
        ok = ok and all(
            y % x == 0 for x, y in zip(dec.invariant_factors, dec.invariant_factors[1:])
        )
        if m == s:
            det = determinant(a)
            if det != 0:
                prod = 1
                for f in dec.invariant_factors:
                    prod *= f
                ok = ok and prod == abs(det)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(8, f"500 random matrices: U@A@V == D, unimodular transforms, "
              f"divisibility chain, factor product == |det|, {elapsed:.1f}s", ok)


def test_criterion_09_monotone_then_constant_across_suite(monkeypatch):
    suite = _suite()
    monkeypatch.setattr(errors, "DEFAULT_BUDGET", 30_000)
    ok = True
    for lat, check in suite:
        profile = hilbert_profile(lat, check.regularity_bound + lat.ambient_dim)
        ok = (
            ok
            and is_strictly_increasing_then_constant(profile.values)
            and profile.values[-1] == check.snf_degree
        )
    report(9, "every oracle profile in the random suite strictly increases then "
              "holds at the invariant-factor degree", ok)


def test_criterion_10_external_cross_check_script():
    lat = HomogeneousLattice(EXAMPLE2)
    script = emit_cas_script(lat, "macaulay2")
    ok = (
        "S=QQ[t1,t2,t3]" in script
        and "Q=ideal(t1^18-t2^18,t1^45-t3^45,t2^10-t3^10)" in script
        and "saturate(Q,t1*t2*t3)" in script
        and "degree saturate(Q,t1*t2*t3)" in script
    )
    print(
        "criterion 10 MANUAL: emitted Macaulay2 script verified structurally; "
        "running it externally must print degree 90 and saturation generators "
        "(t1^9-t2^4*t3^5, t2^10-t3^10) -- see README"
    )
    assert ok
