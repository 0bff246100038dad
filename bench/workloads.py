"""The benchmark workloads: corpora, operations and answer checks.

Each workload has op classes; each class has a corpus of ``size`` inputs,
input ``i`` generated from the seed parts (workload, class, i), cut into
``strata`` equal groups of similar cost.  A run works in passes: a pass
takes one input from every stratum of every class, chosen and ordered by
``--seed``, and interleaves the classes.  So different seeds run
different inputs with the same mix of sizes, and a run that ends on a
pass boundary has the same cost profile whatever the seed.

Every answer is checked twice: against its independent route (the
library computes the same number two ways) and against the digest
pinned for that input in ``pins.json`` by ``pin.py`` at a trusted commit.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
from tracing import TRACE_PREFIX

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS_PATH = BENCH_DIR / "pins.json"
CLI_DRIVER = BENCH_DIR / "cli_driver.py"


@dataclass(frozen=True)
class OpClass:
    name: str
    size: int
    strata: int
    make: Callable[[int], dict]


def _latdeg():
    import latdeg

    return latdeg


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class Workload:
    """A workload's corpus, its operation, and the checks on each answer."""

    name: str
    classes: tuple[OpClass, ...]
    # False when each operation is a child process
    in_process = True

    def key(self, cls: OpClass, index: int) -> str:
        return f"{cls.name}:{index}"

    def keys(self) -> list[str]:
        return [self.key(c, i) for c in self.classes for i in range(c.size)]

    def item(self, key: str) -> dict:
        name, index = key.rsplit(":", 1)
        cls = next(c for c in self.classes if c.name == name)
        return cls.make(int(index))

    def cost(self, item: dict) -> int:
        """Proxy for an input's cost, known before running it; orders the strata."""
        return 0

    def passes(self, seed: int, items: dict):
        """Endless passes (lists of corpus keys) for ``seed``."""
        strata = []
        for c in self.classes:
            order = sorted(range(c.size), key=lambda i: (self.cost(items[self.key(c, i)]), i))
            width = c.size // c.strata
            strata.append([order[k * width : (k + 1) * width] for k in range(c.strata)])
        rng = gen.Rng(self.name, "passes", seed)
        while True:
            picks = [
                [self.key(c, g[rng.randint(0, len(g) - 1)]) for g in rng.shuffle(list(groups))]
                for c, groups in zip(self.classes, strata)
            ]
            yield [key for row in itertools.zip_longest(*picks) for key in row if key]

    def run(self, item: dict, tracer=None):
        raise NotImplementedError

    def check(self, item: dict, answer) -> str | None:
        """Failure reason from the independent route, or None."""
        return None

    def digest(self, answer):
        return sha(repr(answer).encode())

    def verdict(self, key: str, item: dict, answer, pins: dict) -> str | None:
        """Failure reason for one answer, or None when it is correct."""
        reason = self.check(item, answer)
        if reason:
            return reason
        pinned = pins.get(key)
        if pinned is None:
            return "no pinned digest"
        if self.digest(answer) != pinned:
            return "digest mismatch"
        return None


class DenseDegree(Workload):
    """Smith form with transforms on s x s matrices; queries consume V."""

    name = "dense_degree"
    # twice as many s20 operations put the median inside the s30 class,
    # not in the gap between two classes
    classes = (
        OpClass("s20", 48, 8, lambda i: gen.dense_item("s20", 20, 9, i)),
        OpClass("s30", 48, 4, lambda i: gen.dense_item("s30", 30, 9, i)),
        OpClass("s40", 48, 4, lambda i: gen.dense_item("s40", 40, 9, i)),
        OpClass("s20big", 48, 4, lambda i: gen.dense_item("s20big", 20, 10**6, i)),
    )

    def run(self, item, tracer=None):
        latdeg = _latdeg()
        lattice = latdeg.HomogeneousLattice(latdeg.parse_matrix(item["text"]))
        vectors = item["members"] + [item["outsider"]] + item["probes"]
        return (
            lattice.degree(),
            lattice.normalized_volume(),
            lattice.regularity_upper_bound(),
            tuple((lattice.contains(v), lattice.element_order(v)) for v in vectors),
        )

    def check(self, item, answer):
        degree, volume, _bound, queries = answer
        if degree != volume:
            return "degree != normalized_volume"
        members = len(item["members"])
        if any(q != (True, 1) for q in queries[:members]):
            return "known member not found"
        if queries[members] != (False, None):
            return "vector with coordinate sum 1 reported in the rational span"
        for contained, order in queries[members + 1 :]:
            if order is None or degree % order or contained != (order == 1):
                return "probe order does not divide the degree"
        return None


def _regularity_bound(rows) -> int:
    return _latdeg().HomogeneousLattice.from_rows(rows).regularity_upper_bound()


class Oracles(Workload):
    """The brute-force routes to the degree, each compared with the lattice degree.

    ``verify_degree`` on s <= 4 lattices (the hilbert coset counter does
    nearly all the work), toric point enumeration and spanning-tree
    enumeration (applications).  intmat only sees small matrices here.
    """

    name = "oracles"
    classes = tuple(
        OpClass(
            f"s{s}b{b}",
            32,
            16,
            lambda i, s=s, b=b: gen.small_verify_item(f"s{s}b{b}", s, b, i, _regularity_bound),
        )
        for s, b in ((3, 3), (3, 9), (4, 3), (4, 9))
    ) + (
        OpClass("q31n3", 8, 1, lambda i: gen.toric_item("q31n3", 31, 3, 4, i)),
        OpClass("v8e16", 8, 1, lambda i: gen.graph_item("v8e16", 8, 16, i)),
        OpClass("q47n3", 8, 1, lambda i: gen.toric_item("q47n3", 47, 3, 4, i)),
        OpClass("v9e18", 8, 1, lambda i: gen.graph_item("v9e18", 9, 18, i)),
        OpClass("q101n2", 8, 1, lambda i: gen.toric_item("q101n2", 101, 2, 4, i)),
        OpClass("v10e20", 8, 1, lambda i: gen.graph_item("v10e20", 10, 20, i)),
        OpClass("v8e22", 8, 1, lambda i: gen.graph_item("v8e22", 8, 22, i)),
    )

    def cost(self, item):
        if "rows" not in item:
            return 0
        return gen.monomials_to_bound(item["regularity_bound"], len(item["rows"][0]))

    def run(self, item, tracer=None):
        latdeg = _latdeg()
        if "rows" in item:
            c = latdeg.verify_degree(latdeg.HomogeneousLattice.from_rows(item["rows"]))
            return (c.snf_degree, c.oracle_degree, c.regularity_bound,
                    c.observed_stabilization, c.agree)
        if "q" in item:
            spec = latdeg.ToricSetSpec(q=item["q"], exponents=tuple(map(tuple, item["exponents"])))
            v = latdeg.check_vanishing_degree(spec)
            ci = latdeg.ci_hypothesis_check(spec)
            return (
                v.lattice_degree, v.point_count, v.agree,
                ci.q_minus_1_prime, ci.exponents_distinct_mod, ci.torsion_is_power,
                ci.corollary_applies, ci.predicted_generators,
            )
        g = latdeg.GraphSpec(vertex_count=item["vertices"], edges=tuple(map(tuple, item["edges"])))
        c = latdeg.check_sandpile_degree(g)
        return (c.degree, c.spanning_trees, c.reduced_laplacian_det, c.agree)

    def check(self, item, answer):
        if "rows" in item:
            snf, oracle, bound, _stab, agree = answer
            if not agree or snf != oracle:
                return "verify_degree: Smith degree and coset-counting degree differ"
            if bound != item["regularity_bound"]:
                return "regularity bound differs from the generator's"
        elif "q" in item:
            degree, points, agree = answer[:3]
            if not agree or degree != points:
                return "lattice degree != point count"
        else:
            degree, trees, det, agree = answer
            if not agree or not degree == trees == det:
                return "degree, spanning trees and reduced Laplacian det differ"
        return None


_MATRIX_FILES = ("data/example1.mat", "data/example2.mat", "data/example3.mat")
CLI_COMMANDS = tuple(
    [(cmd, f) for cmd in ("snf", "hnf", "degree", "torsion", "hilbert", "verify", "emit")
     for f in _MATRIX_FILES]
    + [("toric", "data/squares_q3.exp"), ("toric", "data/torus_q5.exp"),
       ("sandpile", "data/complete4.graph"), ("sandpile", "data/cycle5.graph")]
)
CLI_ARGVS = tuple([cmd, f, *form] for cmd, f in CLI_COMMANDS for form in ([], ["--json"]))


def subprocess_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


class CliData(Workload):
    """One ``python -m latdeg.cli`` process per operation on a data/ file.

    An answer is (exit code, stdout); the pin is [exit code, stdout digest].
    Traced operations run ``cli_driver.py`` instead, which installs the
    spans and reports them on its last stderr line.
    """

    name = "cli_data"
    in_process = False
    # strata of two: the text and --json forms of one command on one file
    classes = (OpClass("cli", len(CLI_ARGVS), len(CLI_ARGVS) // 2, None),)

    def key(self, cls, index):
        return " ".join(CLI_ARGVS[index])

    def item(self, key):
        return {"argv": key.split(" ")}

    def run(self, item, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "latdeg.cli", *item["argv"]]
        else:
            cmd = [sys.executable, str(CLI_DRIVER), *item["argv"]]
        launch = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, env=subprocess_env(), capture_output=True)
        if tracer is not None:
            lines = proc.stderr.decode().splitlines()
            payload = json.loads(lines[-1][len(TRACE_PREFIX):]) if lines and \
                lines[-1].startswith(TRACE_PREFIX) else None
            if payload is None:
                raise RuntimeError("cli driver printed no trace")
            tracer.add_span("cli.interpreter", payload["start"] - launch)
            tracer.add_span("cli.import", payload["imported"] - payload["start"])
            tracer.absorb(payload, parent=None)
        return proc.returncode, proc.stdout

    def digest(self, answer):
        code, stdout = answer
        return [code, sha(stdout)]

    def verdict(self, key, item, answer, pins):
        pinned = pins.get(key)
        if pinned is None:
            return "no pinned digest"
        code, digest = self.digest(answer)
        if code != pinned[0]:
            return f"unexpected exit code {code} (pinned {pinned[0]})"
        if digest != pinned[1]:
            return "stdout digest mismatch"
        return None


WORKLOADS = {w.name: w for w in (DenseDegree(), Oracles(), CliData())}


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)
