"""Brute-force coset counting and the degree it certifies.

This is the slow, independent cross-check for the invariant-factor
degree formula: enumerate every exponent vector of each total degree,
label it by the coset it occupies in Z^s modulo the lattice, and count
distinct labels.  Two same-degree exponent vectors share a label exactly
when their difference lies in the lattice, so the count per degree is
the dimension of the degree-d piece of the quotient of the polynomial
ring by the lattice's binomial ideal.  Finite differences of the counts
then recover the degree without any reference to normal forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import NamedTuple, Sequence

from .errors import BudgetExceeded, DomainError, NotStabilized
from .lattices import HomogeneousLattice

__all__ = [
    "DEFAULT_BUDGET",
    "CosetLabel",
    "coset_label",
    "HilbertProfile",
    "hilbert_profile",
    "oracle_degree",
    "DegreeCheck",
    "verify_degree",
]

DEFAULT_BUDGET = 2_000_000


class CosetLabel(NamedTuple):
    """Canonical tag for the coset of an exponent vector.

    In Smith coordinates w, the torsion residues are w_i mod d_i for the
    invariant factors d_i, and the free coordinates are the remaining
    w_i verbatim.  Two vectors get equal labels iff their difference is
    in the lattice.
    """

    torsion_residues: tuple[int, ...]
    free_coords: tuple[int, ...]


def coset_label(lattice: HomogeneousLattice, v: Sequence[int]) -> CosetLabel:
    w = lattice.smith_coordinates(v)
    factors = lattice.decomposition.invariant_factors
    r = lattice.rank
    return CosetLabel(
        torsion_residues=tuple(w[i] % factors[i] for i in range(r)),
        free_coords=tuple(w[r:]),
    )


@dataclass(frozen=True)
class HilbertProfile:
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


def _label_data(lattice: HomogeneousLattice):
    """Per-coordinate label increments: (rows, mods).

    Column j of the Smith transform contributes w_j; columns with
    invariant factor 1 are dropped (their residue is identically zero),
    torsion columns carry their modulus, free columns carry modulus 0
    meaning "do not reduce".
    """
    dec = lattice.decomposition
    s = lattice.ambient_dim
    r = dec.rank
    factors = dec.invariant_factors
    cols = [j for j in range(r) if factors[j] > 1] + list(range(r, s))
    mods = [factors[j] for j in range(r) if factors[j] > 1] + [0] * (s - r)
    vrows = [dec.v.row(i) for i in range(s)]
    rows = [tuple(vr[j] for j in cols) for vr in vrows]
    return rows, mods


def _count_degree(rows, mods, s: int, d: int) -> int:
    """Number of distinct labels of the exponent vectors of total degree d.

    Enumeration is depth-first over coordinates s-1, s-2, ..., 0 with the
    last coordinate's count chosen first (colex over the vectors); the
    running label is updated incrementally.
    """
    width = len(mods)
    labels: set = set()

    def leaf(w, count):
        row = rows[0]
        labels.add(
            tuple(
                (w[k] + count * row[k]) % mods[k] if mods[k] else w[k] + count * row[k]
                for k in range(width)
            )
        )

    def rec(i, remaining, w):
        if i == 0:
            leaf(w, remaining)
            return
        row = rows[i]
        ww = list(w)
        for _ in range(remaining + 1):
            rec(i - 1, remaining, ww)
            remaining -= 1
            for k in range(width):
                m = mods[k]
                ww[k] = (ww[k] + row[k]) % m if m else ww[k] + row[k]

    rec(s - 1, d, [0] * width)
    return len(labels)


def hilbert_profile(
    lattice: HomogeneousLattice,
    d_max: int,
    budget: int = DEFAULT_BUDGET,
) -> HilbertProfile:
    """Coset counts for every degree 0..d_max.

    The work is proportional to the number of exponent vectors touched;
    C(d_max + s - 1, s - 1) estimates the largest layer and must stay
    within ``budget``.
    """
    if d_max < 0:
        raise ValueError(f"d_max must be nonnegative, got {d_max}")
    s = lattice.ambient_dim
    if s < 1:
        raise DomainError(
            "ambient dimension is 0; coset counting needs a lattice in Z^s with s >= 1"
        )
    needed = comb(d_max + s - 1, s - 1)
    if needed > budget:
        raise BudgetExceeded(needed, budget, what="estimated monomial count")
    rows, mods = _label_data(lattice)
    values = tuple(_count_degree(rows, mods, s, d) for d in range(d_max + 1))
    return _make_profile(values, window=max(3, s))


def oracle_degree(profile: HilbertProfile) -> int:
    """The certified constant finite difference, or NotStabilized."""
    if profile.degree_estimate is None:
        raise NotStabilized(len(profile.values) - 1)
    return profile.degree_estimate


@dataclass(frozen=True)
class DegreeCheck:
    """Side-by-side result of the invariant-factor formula and the counter."""

    snf_degree: int
    oracle_degree: int
    regularity_bound: int
    observed_stabilization: int | None
    agree: bool


def verify_degree(lattice: HomogeneousLattice, budget: int = DEFAULT_BUDGET) -> DegreeCheck:
    """Run the coset counter far enough to certify the degree and compare.

    Requires rank s-1.  The counter runs to the proven constancy bound
    plus s, so its window certificate always lands; ``agree`` reports
    whether both routes produced the same number.
    """
    snf_deg = lattice.degree()
    bound = lattice.regularity_upper_bound()
    profile = hilbert_profile(lattice, bound + lattice.ambient_dim, budget=budget)
    found = oracle_degree(profile)
    return DegreeCheck(
        snf_degree=snf_deg,
        oracle_degree=found,
        regularity_bound=bound,
        observed_stabilization=profile.stabilization_degree,
        agree=snf_deg == found,
    )
