"""Benchmark-side spans around calls into latdeg's public functions.

``Tracer.installed()`` replaces every public function of the latdeg
modules, under every name a latdeg module bound it to (so
``latdeg.lattices.smith_normal_form`` is wrapped as well as
``latdeg.intmat.smith_normal_form``), and the public methods of
``HomogeneousLattice``, with wrappers that record a span: operation id,
name, start, end and the span that was open when it started.  Leaving
the context restores the originals, so untraced calls run unwrapped.

Observers attached to a few functions turn arguments and results into
exact counts (entry bit lengths, monomials, grid points, edge subsets);
these depend only on the inputs, so they repeat exactly for a seed.
Nothing under ``src/`` is changed: in-program tracing is a later step.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from math import comb

LAYERS = ("intmat", "lattices", "hilbert", "applications", "cli")
# marks the line on which cli_driver.py reports its spans
TRACE_PREFIX = "LATDEG_BENCH_TRACE "

# span names that differ from "<module>.<function>"
_METHOD_SPANS = {
    "__init__": "lattices.construct",
    "contains": "lattices.query",
    "element_order": "lattices.query",
    "smith_coordinates": "lattices.query",
    "torsion_structure": "lattices.torsion_structure",
    "is_torsion_free": "lattices.is_torsion_free",
    "degree": "lattices.degree",
    "regularity_upper_bound": "lattices.regularity_upper_bound",
    "normalized_volume": "lattices.normalized_volume",
}

# counts kept as maxima; every other count is summed
MAXIMA = ("intmat.snf_entry_bits_max", "intmat.hnf_transform_bits_max")


def _bits_max(*matrices) -> int:
    return max((abs(x).bit_length() for m in matrices for x in m.entries), default=0)


def _observe_snf(args, result, counts):
    _raise_max(counts, "intmat.snf_entry_bits_max", _bits_max(result.u, result.d, result.v))


def _observe_hnf(args, result, counts):
    _raise_max(counts, "intmat.hnf_transform_bits_max", _bits_max(result.transform))


def _observe_profile(args, result, counts):
    lattice, d_max = args[0], args[1]
    s = lattice.ambient_dim
    # exponent vectors of total degree 0..d_max: sum of C(d+s-1, s-1) = C(d_max+s, s)
    counts["hilbert.monomials_counted"] += comb(d_max + s, s)
    counts["hilbert.degrees_counted"] += d_max + 1
    stab = result.stabilization_degree
    counts["hilbert.degrees_needed"] += d_max + 1 if stab is None else stab + 1


def _observe_toric(args, result, counts):
    spec = args[0]
    counts["applications.grid_points"] += (spec.q - 1) ** spec.n
    counts["applications.points_found"] += len(result)


def _observe_trees(args, result, counts):
    g = args[0]
    counts["applications.subsets_tried"] += comb(len(g.edges), g.vertex_count - 1)
    counts["applications.trees_found"] += result


_OBSERVERS = {
    "intmat.smith_normal_form": _observe_snf,
    "intmat.hermite_normal_form": _observe_hnf,
    "hilbert.hilbert_profile": _observe_profile,
    "applications.enumerate_toric_set": _observe_toric,
    "applications.spanning_tree_count": _observe_trees,
}


def _raise_max(counts, key, value):
    if value > counts[key]:
        counts[key] = value


def merge_counts(total: Counter, part: Counter) -> None:
    for key, value in part.items():
        if key in MAXIMA:
            _raise_max(total, key, value)
        else:
            total[key] += value


class Tracer:
    """Spans and exact counts for the operations of one benchmark run."""

    def __init__(self):
        self.op = 0
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._open: list[int] = []

    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append((self.op, name, 0.0, 0.0, parent))
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = (self.op, name, start, end, parent)
            counts = self.counts[self.op]
            counts[calls] += 1
            if observe is not None:
                observe(args, result, counts)
            return result

        return wrapper

    def add_span(self, name: str, duration: float, parent: int | None = None) -> int:
        """Record a span measured elsewhere, such as in a child process."""
        self.spans.append((self.op, name, 0.0, duration, parent))
        return len(self.spans) - 1

    def _targets(self):
        """(owner, attribute, span name, original) for every wrapped callable."""
        mods = {
            name.split(".")[1]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("latdeg.") and name.split(".")[1] in LAYERS
        }
        originals = {}
        for layer, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                value = getattr(mod, attr)
                if isinstance(value, types.FunctionType) and value.__module__ == mod.__name__:
                    originals[value] = f"{layer}.{attr}"
        owners = list(mods.values()) + [sys.modules["latdeg"]]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if isinstance(value, types.FunctionType) and value in originals:
                    yield owner, attr, originals[value], value
        lattices = mods["lattices"]
        for attr, span in _METHOD_SPANS.items():
            yield lattices.HomogeneousLattice, attr, span, vars(lattices.HomogeneousLattice)[attr]
        apps = mods.get("applications")
        if apps is not None:
            for cls, span in ((apps.GraphSpec, "graph_spec"), (apps.ToricSetSpec, "toric_spec")):
                yield cls, "__post_init__", f"applications.{span}", vars(cls)["__post_init__"]

    @contextmanager
    def installed(self):
        targets = list(self._targets())
        wrappers = {}
        try:
            for owner, attr, span, original in targets:
                if original not in wrappers:
                    wrappers[original] = self._wrap(span, original)
                setattr(owner, attr, wrappers[original])
            yield self
        finally:
            for owner, attr, _span, original in targets:
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children's."""
        child = [0.0] * len(self.spans)
        for _op, _name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        for i, (_op, name, start, end, _parent) in enumerate(self.spans):
            total[name] += end - start - child[i]
        return dict(total)

    def window_counts(self, ops) -> Counter:
        """Exact counts summed (or maximised) over the given operation ids."""
        total: Counter = Counter()
        for op in ops:
            merge_counts(total, self.counts.get(op, Counter()))
        return total

    def export(self) -> dict:
        """Spans and counts of operation 0, as JSON, for a parent process."""
        return {
            "spans": [[name, start, end, parent] for _op, name, start, end, parent in self.spans],
            "counts": dict(self.counts.get(0, {})),
        }

    def absorb(self, exported: dict, parent: int | None) -> None:
        """Append a child process's exported spans under ``parent``."""
        base = len(self.spans)
        for name, start, end, p in exported["spans"]:
            self.spans.append((self.op, name, start, end, parent if p is None else base + p))
        merge_counts(self.counts[self.op], Counter(exported["counts"]))
