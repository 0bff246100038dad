"""Tests of the benchmark itself: python -m pytest bench"""

import json
import math
import sys
from collections import Counter

import pytest

import gen
import run
import tracing
from workloads import WORKLOADS, load_pins

sys.path.insert(0, str(run.SRC))

import latdeg  # noqa: E402


@pytest.fixture(scope="module")
def corpora():
    return {
        name: {key: w.item(key) for key in w.keys()} for name, w in WORKLOADS.items()
    }


def test_rng_stream_is_pinned():
    # the corpus, and so pins.json, depends on this exact stream
    rng = gen.Rng("dense_degree", "s20", 0)
    assert [rng.next64() for _ in range(2)] == [1973448061191150324, 4997403236874599156]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(name, corpora):
    workload = WORKLOADS[name]
    items = corpora[name]
    for key in list(items)[:: max(1, len(items) // 8)]:
        assert workload.item(key) == items[key]
    firsts = []
    for seed in (0, 1, 2):
        a, b = workload.passes(seed, items), workload.passes(seed, items)
        first = [next(a), next(a)]
        assert first == [next(b), next(b)]
        assert all(key in items for key in first[0] + first[1])
        firsts.append(first)
    assert firsts[0] != firsts[1] != firsts[2]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_pass_takes_one_input_per_stratum(name, corpora):
    workload = WORKLOADS[name]
    one_pass = next(workload.passes(5, corpora[name]))
    assert len(one_pass) == sum(c.strata for c in workload.classes)
    assert len(set(one_pass)) == len(one_pass)


def test_pins_cover_exactly_the_corpus():
    pins = load_pins()
    assert set(pins) == set(WORKLOADS)
    for name, workload in WORKLOADS.items():
        assert set(pins[name]) == set(workload.keys())
    assert pins["cli_data"]["degree data/example3.mat"][0] == 1


def test_monomial_count_closed_form():
    for s in (3, 4):
        for bound in (0, 1, 7, 40):
            explicit = sum(math.comb(d + s - 1, s - 1) for d in range(bound + s + 1))
            assert gen.monomials_to_bound(bound, s) == explicit


def test_small_verify_skips_draws_over_the_cap():
    calls = []

    def bound(rows):
        calls.append(rows)
        return 10**6 if len(calls) <= 2 else 1

    item = gen.small_verify_item("stub", 4, 9, 0, bound)
    assert item["skipped"] == 2 and item["regularity_bound"] == 1
    assert item["rows"] == calls[2]
    assert gen.monomials_to_bound(10**6, 4) > gen.SMALL_VERIFY_MONOMIAL_CAP


def test_small_verify_corpus_respects_the_cap(corpora):
    verify_items = [item for item in corpora["oracles"].values() if "rows" in item]
    assert len(verify_items) == 4 * 32
    for item in verify_items:
        s = len(item["rows"][0])
        assert gen.monomials_to_bound(item["regularity_bound"], s) <= gen.SMALL_VERIFY_MONOMIAL_CAP
        lattice = latdeg.HomogeneousLattice.from_rows(item["rows"])
        assert lattice.rank == s - 1
        assert lattice.regularity_upper_bound() == item["regularity_bound"]


def test_mutated_pinned_digest_raises_fail_ratio():
    pins = {key: "0" * 16 for key in WORKLOADS["dense_degree"].keys()}
    result, meta = run.run_workload("dense_degree", seed=3, seconds=0, trace=False, pins=pins)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"] and not result["correct"]
    assert meta["fail_ratio"] == 1.0
    assert {reason for _key, reason in meta["failures"]} == {"digest mismatch"}


def test_wrong_answer_fails_its_independent_route(corpora):
    workload = WORKLOADS["dense_degree"]
    key = "s20:0"
    item = corpora["dense_degree"][key]
    degree, volume, bound, queries = workload.run(item)
    pins = load_pins()["dense_degree"]
    assert workload.verdict(key, item, (degree, volume, bound, queries), pins) is None
    wrong = (degree + 1, volume, bound, queries)
    assert workload.verdict(key, item, wrong, pins) == "degree != normalized_volume"


def test_unexpected_cli_exit_code_is_a_failure():
    workload = WORKLOADS["cli_data"]
    key = "degree data/example3.mat"
    pins = load_pins()["cli_data"]
    item = workload.item(key)
    latency, reason = run.attempt(workload, key, item, pins)
    assert reason is None and latency > 0
    mutated = dict(pins, **{key: [0, pins[key][1]]})
    _latency, reason = run.attempt(workload, key, item, mutated)
    assert reason == "unexpected exit code 1 (pinned 0)"


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    root = tracer.add_span("cli.main", 1.0)
    child = tracer.add_span("intmat.smith_normal_form", 0.75, parent=root)
    tracer.add_span("intmat.hermite_normal_form", 0.25, parent=child)
    assert tracer.self_times() == {
        "cli.main": 0.25,
        "intmat.smith_normal_form": 0.5,
        "intmat.hermite_normal_form": 0.25,
    }


def test_tracer_wraps_every_binding_and_restores(corpora):
    workload = WORKLOADS["dense_degree"]
    item = corpora["dense_degree"]["s20:1"]
    original = latdeg.lattices.smith_normal_form
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.installed():
            assert latdeg.lattices.smith_normal_form is not original
            assert latdeg.intmat.smith_normal_form is latdeg.lattices.smith_normal_form
            workload.run(item)
        counts.append(tracer.counts[0])
        names = {name for _op, name, *_rest in tracer.spans}
        assert {"lattices.construct", "intmat.smith_normal_form", "lattices.query"} <= names
    assert latdeg.lattices.smith_normal_form is original
    assert counts[0] == counts[1]
    assert counts[0]["intmat.smith_normal_form.calls"] == 1
    assert counts[0]["intmat.snf_entry_bits_max"] > 0


def test_merge_counts_sums_and_maximises():
    total = Counter({"intmat.snf_entry_bits_max": 5, "hilbert.degrees_counted": 2})
    tracing.merge_counts(total, Counter({"intmat.snf_entry_bits_max": 3, "hilbert.degrees_counted": 4}))
    assert total == Counter({"intmat.snf_entry_bits_max": 5, "hilbert.degrees_counted": 6})


def test_tail_leaves_ten_samples_beyond():
    latencies = [float(i) for i in range(100)]
    value, percentile = run.tail(latencies)
    assert value == 89.0 and percentile == 90.0
    assert sum(x > value for x in latencies) == 10
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_benchmark_json_declares_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS) - {"oracles"}


def test_refuses_to_run_outside_a_checkout(monkeypatch):
    monkeypatch.setattr(run, "SRC", run.BENCH_DIR / "src")
    with pytest.raises(SystemExit) as exc:
        run.require_checkout()
    assert "not a latdeg checkout" in str(exc.value)
