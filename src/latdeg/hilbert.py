"""Coset counting and the degree it certifies.

This is the independent cross-check for the invariant-factor degree
formula.  The count in degree d is the number of cosets of Z^s modulo
the lattice that the exponent vectors of total degree d occupy, i.e.
the dimension of the degree-d piece of the quotient of the polynomial
ring by the lattice's binomial ideal.  A degree-d exponent vector x
lies in the coset of x - d*e_s, a sum of at most d steps e_i - e_s
(i < s), so the count is the size of the radius-d ball around 0 in the
Cayley graph of the quotient group with those steps.  One breadth-first
search over cosets, each named by its canonical residue under the
lattice's Hermite basis, gives every count.  Finite differences of the
counts then recover the degree without any reference to the Smith form.
The search is sized and refused by ``errors.bounded_count`` and
``errors.check_budget``, which read ``errors.DEFAULT_BUDGET`` when
called.  The profile and the side-by-side check are immutable records.
"""

from __future__ import annotations

from ._record import Record
from .errors import DomainError, NotStabilized, bounded_count, check_budget
from .lattices import HomogeneousLattice

__all__ = [
    "HilbertProfile",
    "hilbert_profile",
    "oracle_degree",
    "DegreeCheck",
    "verify_degree",
]


class HilbertProfile(Record):
    """Coset counts H(0..d_max) plus what their finite differences certify.

    ``stabilization_degree`` is the first degree from which the observed
    values are constant (None if the last two values still differ).
    ``degree_estimate`` is the constant value of the lowest-order finite
    difference that is constant across the trailing window, and
    ``krull_dim_estimate`` is that order plus one; both are None when no
    difference order settles within the window.
    """

    values: tuple[int, ...]
    stabilization_degree: int | None
    degree_estimate: int | None
    krull_dim_estimate: int | None


def _make_profile(values: tuple[int, ...], window: int) -> HilbertProfile:
    stab = None
    n = len(values)
    if n >= 2:
        d = n - 1
        while d > 0 and values[d - 1] == values[d]:
            d -= 1
        if d < n - 1:
            stab = d
    seq = list(values)
    order = 0
    degree_estimate = None
    krull = None
    while len(seq) >= window:
        tail = seq[-window:]
        if all(x == tail[0] for x in tail):
            degree_estimate = tail[0]
            krull = order + 1
            break
        seq = [seq[i + 1] - seq[i] for i in range(len(seq) - 1)]
        order += 1
    return HilbertProfile(
        values=values,
        stabilization_degree=stab,
        degree_estimate=degree_estimate,
        krull_dim_estimate=krull,
    )


def _ball_sizes(lattice: HomogeneousLattice, d_max: int) -> tuple[int, ...]:
    """Sizes of the balls of radius 0..d_max around the coset of 0.

    Radius d adds only neighbours of the cosets first reached at radius
    d - 1; once a radius adds nothing, every larger ball is the same.
    """
    s = lattice.ambient_dim
    origin = (0,) * s
    seen = {origin}
    frontier = [origin]
    sizes = [1]
    while frontier and len(sizes) <= d_max:
        reached = []
        for x in frontier:
            for i in range(s - 1):
                y = list(x)
                y[i] += 1
                y[-1] -= 1
                y = lattice.residue(y)
                if y not in seen:
                    seen.add(y)
                    reached.append(y)
        frontier = reached
        sizes.append(len(seen))
    return tuple(sizes) + (len(seen),) * (d_max + 1 - len(sizes))


def hilbert_profile(lattice: HomogeneousLattice, d_max: int) -> HilbertProfile:
    """Coset counts for every degree 0..d_max.

    The counts are the sizes of the breadth-first balls around the coset
    of 0, and the work is proportional to the largest ball times s.
    That ball holds at most C(d_max + s - 1, s - 1) cosets, one per
    exponent vector of degree d_max.  At rank s - 1 the steps stay in a
    finite group of order |T|, the torsion order, so the search takes at
    most |T| * s residue steps, plus d_max + 1 values to write out.  The
    smaller bound must stay within ``errors.DEFAULT_BUDGET``, read at
    each call; |T| is read for this bound only, never for the counts.  The
    monomial count is built up from C(d_max + s - 1, 0) and stops once
    past the budget (at rank s - 1, past the larger of the budget and
    the residue steps), so a refusal names a lower bound for it; at rank
    s - 1 that may be the whole binomial, when the residue steps are
    larger still.
    """
    if d_max < 0:
        raise ValueError(f"d_max must be nonnegative, got {d_max}")
    s = lattice.ambient_dim
    if s < 1:
        raise DomainError(
            "ambient dimension is 0; coset counting needs a lattice in Z^s with s >= 1"
        )
    corank_one = lattice.rank == s - 1
    steps = lattice.degree() * s + d_max + 1 if corank_one else 0
    top = d_max + s - 1
    needed = bounded_count(range(top, max(d_max, s - 1), -1), range(1, s), steps)
    what = "estimated monomial count at least"
    if corank_one and steps < needed:
        needed, what = steps, "coset search work"
    check_budget(needed, what)
    return _make_profile(_ball_sizes(lattice, d_max), window=max(3, s))


def oracle_degree(profile: HilbertProfile) -> int:
    """The certified constant finite difference, or NotStabilized."""
    if profile.degree_estimate is None:
        raise NotStabilized(len(profile.values) - 1)
    return profile.degree_estimate


class DegreeCheck(Record):
    """Side-by-side result of the invariant-factor formula and the counter."""

    snf_degree: int
    oracle_degree: int
    regularity_bound: int
    observed_stabilization: int | None
    agree: bool


def verify_degree(lattice: HomogeneousLattice) -> DegreeCheck:
    """Run the coset counter far enough to certify the degree and compare.

    Requires rank s-1.  The counter runs to the proven constancy bound
    plus s, so its window certificate always lands; ``agree`` reports
    whether both routes produced the same number.
    """
    snf_deg = lattice.degree()
    bound = lattice.regularity_upper_bound()
    profile = hilbert_profile(lattice, bound + lattice.ambient_dim)
    found = oracle_degree(profile)
    return DegreeCheck(
        snf_degree=snf_deg,
        oracle_degree=found,
        regularity_bound=bound,
        observed_stabilization=profile.stabilization_degree,
        agree=snf_deg == found,
    )
