"""The ``dense_degree`` benchmark corpus, answered and checked as the benchmark does.

The golden digest stops at s = 7; this corpus (s = 20 to 40) is what
reaches the packed modular Smith and Hermite loops.  Each answer must
pass the workload's own verdict: its independent check (degree equals
normalized volume, the known members and non-member, probe orders
dividing the degree) and the digest pinned for it in ``bench/pins.json``.
The benchmark's files are only read.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import WORKLOADS, load_pins  # noqa: E402


def test_dense_degree_corpus_passes_the_benchmark_verdict():
    workload = WORKLOADS["dense_degree"]
    pins = load_pins()["dense_degree"]
    failures = {}
    for key in workload.keys():
        item = workload.item(key)
        reason = workload.verdict(key, item, workload.run(item), pins)
        if reason:
            failures[key] = reason
    assert len(workload.keys()) == 192
    assert failures == {}
