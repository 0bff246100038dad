"""Seeded input generators for the benchmark workloads.

Every input is a pure function of its seed parts.  The random stream is
SplitMix64 keyed by a SHA-256 of the parts, so the same seed gives the
same inputs on every Python version and platform (``random`` makes no
such promise for ``randrange`` across versions).
"""

from __future__ import annotations

import hashlib
from math import comb

_MASK = (1 << 64) - 1
# Mersenne prime 2^61 - 1: a modular rank of s-1 here proves integer rank s-1
_RANK_PRIME = (1 << 61) - 1
# small_verify skips a draw whose coset counter would touch more monomials
SMALL_VERIFY_MONOMIAL_CAP = 400_000


class Rng:
    """SplitMix64 stream seeded from any tuple of str/int parts."""

    def __init__(self, *parts):
        digest = hashlib.sha256(repr(parts).encode()).digest()
        self.state = int.from_bytes(digest[:8], "little")

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], by rejection (no modulo bias)."""
        n = hi - lo + 1
        limit = (1 << 64) // n * n
        while True:
            x = self.next64()
            if x < limit:
                return lo + x % n

    def shuffle(self, items: list) -> list:
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]
        return items


def homogeneous_row(rng: Rng, s: int, bound: int) -> list[int]:
    """Uniform row of ``s`` entries in [-bound, bound] with coordinate sum 0."""
    while True:
        head = [rng.randint(-bound, bound) for _ in range(s - 1)]
        last = -sum(head)
        if -bound <= last <= bound:
            return head + [last]


def modular_rank(rows: list[list[int]], p: int = _RANK_PRIME) -> int:
    """Rank over GF(p); never exceeds the rank over the rationals."""
    work = [[x % p for x in row] for row in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for j in range(cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][j]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][j], p - 2, p)
        prow = [x * inv % p for x in work[rank]]
        work[rank] = prow
        for i in range(rank + 1, len(work)):
            f = work[i][j]
            if f:
                row = work[i]
                for k in range(j, cols):
                    row[k] = (row[k] - f * prow[k]) % p
        rank += 1
    return rank


def corank_one_rows(rng: Rng, count: int, s: int, bound: int) -> list[list[int]]:
    """``count`` homogeneous rows in Z^s spanning a lattice of rank s-1."""
    while True:
        rows = [homogeneous_row(rng, s, bound) for _ in range(count)]
        if modular_rank(rows) == s - 1:
            return rows


def matrix_text(rows: list[list[int]]) -> str:
    """The ``rows cols`` matrix file format that ``parse_matrix`` reads."""
    lines = [f"{len(rows)} {len(rows[0])}"]
    lines += [" ".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def dense_item(cls: str, s: int, bound: int, index: int) -> dict:
    """One dense_degree input: an s x s rank-(s-1) matrix and its queries.

    ``members`` are small integer combinations of the rows, so the
    lattice must contain them; ``outsider`` has coordinate sum 1, so no
    lattice member or rational multiple of one equals it; ``probes`` are
    e_i - e_j, whose order in the quotient divides the degree.
    """
    rng = Rng("dense_degree", cls, index)
    rows = corank_one_rows(rng, s, s, bound)
    members = []
    for _ in range(2):
        coeffs = [rng.randint(-3, 3) for _ in range(s)]
        members.append([sum(c * row[k] for c, row in zip(coeffs, rows)) for k in range(s)])
    outsider = [0] * s
    outsider[rng.randint(0, s - 1)] = 1
    probes = []
    for _ in range(2):
        i, j = rng.randint(0, s - 1), rng.randint(0, s - 2)
        j += j >= i
        v = [0] * s
        v[i], v[j] = 1, -1
        probes.append(v)
    return {
        "text": matrix_text(rows),
        "members": members,
        "outsider": outsider,
        "probes": probes,
    }


def monomials_to_bound(bound: int, s: int) -> int:
    """Exponent vectors verify_degree enumerates: sum_{d<=B+s} C(d+s-1, s-1).

    The hockey-stick identity gives the closed form C(B + 2s, s).
    """
    return comb(bound + 2 * s, s)


def small_verify_item(cls: str, s: int, bound: int, index: int, regularity_bound) -> dict:
    """One small_verify input: s-1 rows of a rank-(s-1) lattice in Z^s.

    ``regularity_bound(rows)`` returns the library's regularity upper
    bound B for the rows.  Draws whose coset counter would touch more
    than SMALL_VERIFY_MONOMIAL_CAP exponent vectors are skipped; the
    number skipped is kept with the item.
    """
    rng = Rng("small_verify", cls, index)
    for skipped in range(10_000):
        rows = corank_one_rows(rng, s - 1, s, bound)
        b = regularity_bound(rows)
        if monomials_to_bound(b, s) <= SMALL_VERIFY_MONOMIAL_CAP:
            return {"rows": rows, "regularity_bound": b, "skipped": skipped}
    raise RuntimeError(f"small_verify {cls}:{index}: no draw within the monomial cap")


def toric_item(cls: str, q: int, n: int, s: int, index: int) -> dict:
    """One toric spec: ``s`` exponent vectors in [0, q-2]^n over F_q."""
    rng = Rng("oracle_apps", cls, index)
    exponents = [[rng.randint(0, q - 2) for _ in range(n)] for _ in range(s)]
    return {"q": q, "exponents": exponents}


def graph_item(cls: str, vertices: int, edges: int, index: int) -> dict:
    """One connected simple graph: a random spanning tree plus extra edges."""
    rng = Rng("oracle_apps", cls, index)
    order = rng.shuffle(list(range(vertices)))
    chosen = set()
    for k in range(1, vertices):
        a, b = order[k], order[rng.randint(0, k - 1)]
        chosen.add((min(a, b), max(a, b)))
    while len(chosen) < edges:
        a, b = rng.randint(0, vertices - 1), rng.randint(0, vertices - 1)
        if a != b:
            chosen.add((min(a, b), max(a, b)))
    return {"vertices": vertices, "edges": sorted(chosen)}
