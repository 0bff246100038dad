"""Byte-identity of every lattice query over a fixed random suite.

One seeded sha256 digest covers 1,000 homogeneous lattices in Z^s
(s = 1..7, every rank from 0 to s - 1, entries up to +-10^6, redundant
and zero rows mixed in).  For each lattice it hashes the rank, the
invariant factors, the Hermite basis, the torsion structure, the
degree, the normalized volume and the regularity bound (or the error
each raises), and ``element_order``, ``residue``, ``contains`` and
``smith_coordinates`` on a few query vectors.  A refactor that changes
any of these answers, on any input of the suite, changes the digest.
"""

import hashlib
import random

from latdeg import DomainError, HomogeneousLattice

SEED = 20261018
COUNT = 1000
DIGEST = "4f86038460df3a29166fb8db701c3d09933ea44bafe3accefd0973be20ac1535"


def random_lattice(rng):
    """(lattice, query vectors) of a random dimension, rank and entry size."""
    s = rng.randint(1, 7)
    rank = rng.randint(0, s - 1)
    bound = rng.choice((3, 9, 100, 10**6))
    basis = []
    for _ in range(rank):
        head = [rng.randint(-bound, bound) for _ in range(s - 1)]
        basis.append(head + [-sum(head)])
    rows = list(basis)
    for _ in range(rng.randint(0, 2)):
        coeffs = [rng.randint(-2, 2) for _ in basis]
        rows.append([sum(c * row[k] for c, row in zip(coeffs, basis)) for k in range(s)])
    rng.shuffle(rows)
    lattice = HomogeneousLattice.from_rows(rows, ambient_dim=s)
    vectors = [[rng.randint(-9, 9) for _ in range(s)]]
    head = [rng.randint(-bound, bound) for _ in range(s - 1)]
    vectors.append(head + [-sum(head)])
    if rows:
        coeffs = [rng.randint(-3, 3) for _ in rows]
        member = [sum(c * row[k] for c, row in zip(coeffs, rows)) for k in range(s)]
        vectors.append(member)
        k = rng.randint(2, 6)
        vectors.append([x // k for x in member])
    return lattice, vectors


def outcome(method):
    try:
        return method()
    except DomainError as exc:
        return type(exc).__name__


def answers(lattice, vectors):
    return (
        lattice.ambient_dim,
        lattice.rank,
        lattice.invariant_factors,
        lattice.basis.to_rows(),
        lattice.torsion_structure(),
        lattice.is_torsion_free(),
        outcome(lattice.degree),
        outcome(lattice.normalized_volume),
        outcome(lattice.regularity_upper_bound),
        [
            (lattice.element_order(v), lattice.residue(v), lattice.contains(v),
             lattice.smith_coordinates(v))
            for v in vectors
        ],
    )


def test_golden_digest():
    rng = random.Random(SEED)
    h = hashlib.sha256()
    cells = set()
    for _ in range(COUNT):
        lattice, vectors = random_lattice(rng)
        cells.add((lattice.ambient_dim, lattice.rank))
        h.update(repr(answers(lattice, vectors)).encode())
    assert cells == {(s, r) for s in range(1, 8) for r in range(s)}
    assert h.hexdigest() == DIGEST
