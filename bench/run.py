"""latdeg benchmark: one closed-loop caller, seeded inputs, checked answers.

Usage, from the root of a latdeg checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller sends the next operation only after the previous one
returned; there are no threads.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs each operation once with benchmark-side
spans and once without, and reports per-layer metrics and the tracing
overhead.  Human-readable lines come first, then a ``{"meta": ...}``
line, and the last line is the result object.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import tracing
from workloads import WORKLOADS, load_pins, subprocess_env

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 11
# samples a tail percentile must leave beyond it
TAIL_BEYOND = 10

END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-op self time of these spans is reported as "<span>.self_s"
SELF_TIME_SPANS = (
    "intmat.smith_normal_form",
    "intmat.hermite_normal_form",
    "intmat.determinant",
    "intmat.integer_kernel",
    "intmat.parse_matrix",
    "lattices.construct",
    "lattices.degree",
    "lattices.normalized_volume",
    "lattices.regularity_upper_bound",
    "lattices.query",
    "hilbert.hilbert_profile",
    "hilbert.verify_degree",
    "applications.enumerate_toric_set",
    "applications.spanning_tree_count",
    "applications.build_toric_lattice",
    "applications.build_laplacian_lattice",
    "cli.main",
)
# exact counts over the count window, reported as they are
WINDOW_COUNTS = {
    "intmat.smith_normal_form.calls": "count",
    "intmat.snf_entry_bits_max": "bits",
    "intmat.hnf_transform_bits_max": "bits",
    "hilbert.monomials_counted": "count",
    "hilbert.degrees_counted": "count",
    "applications.grid_points": "count",
    "applications.subsets_tried": "count",
}
# ratio name: (numerator count, denominator count)
WINDOW_RATIOS = {
    "hilbert.useful_degree_ratio": ("hilbert.degrees_needed", "hilbert.degrees_counted"),
    "applications.point_yield": ("applications.points_found", "applications.grid_points"),
    "applications.tree_yield": ("applications.trees_found", "applications.subsets_tried"),
}


def per_layer_units() -> dict[str, str]:
    units = {f"{span}.self_s": "s" for span in SELF_TIME_SPANS}
    units["cli.interpreter_s"] = "s"
    units["cli.import_s"] = "s"
    units.update(WINDOW_COUNTS)
    units.update({name: "ratio" for name in WINDOW_RATIOS})
    units.update({f"{layer}.share": "ratio" for layer in tracing.LAYERS})
    units["trace.overhead_ratio"] = "ratio"
    return units


def require_checkout() -> None:
    """Refuse to run outside a latdeg checkout (no program to measure)."""
    needed = (SRC / "latdeg" / "__init__.py", ROOT / "data" / "example1.mat")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        raise SystemExit(f"run.py: not a latdeg checkout, missing {', '.join(missing)}")


def measure_setup(workload) -> list[float]:
    """Fresh-process set-up times, after one warm-up that writes bytecode.

    In-process workloads: the time ``import latdeg`` takes inside a new
    interpreter.  cli_data: the wall time of a whole ``python -c "import
    latdeg.cli"`` process, i.e. interpreter start plus import.
    """
    if workload.in_process:
        code = "import time; t = time.perf_counter(); import latdeg; print(time.perf_counter() - t)"
    else:
        code = "import latdeg.cli"
    cmd = [sys.executable, "-c", code]
    env = subprocess_env()
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        wall = time.perf_counter() - start
        if i:
            samples.append(float(proc.stdout) if workload.in_process else wall)
    return samples


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def attempt(workload, key, item, pins, tracer=None):
    """Run one operation; returns (latency, failure reason or None)."""
    start = time.perf_counter()
    try:
        answer = workload.run(item, tracer)
    except Exception as exc:  # a crash is a failed operation, not a failed run
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    return latency, workload.verdict(key, item, answer, pins)


def stop(start: float, pass_start: float, seconds: float) -> bool:
    """After a whole pass: stop when the run ends nearest ``seconds``.

    Runs are whole passes, at least one, so that every seed runs the same
    mix; stopping once another pass would overshoot by more than it
    falls short keeps the mean run length at ``seconds``.
    """
    now = time.perf_counter()
    return now - start + (now - pass_start) / 2 >= seconds


def untraced_run(workload, seed, seconds, pins, items):
    passes = workload.passes(seed, items)
    latencies, failures = [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for key in next(passes):
            latency, reason = attempt(workload, key, items[key], pins)
            latencies.append(latency)
            if reason:
                failures.append((key, reason))
        if stop(start, pass_start, seconds):
            break
    elapsed = time.perf_counter() - start

    setup = measure_setup(workload)
    value, percentile = tail(latencies)
    values = {
        "throughput_ops_s": len(latencies) / elapsed,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": value,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(workload),
    }
    meta = {
        "latency_samples": len(latencies),
        "latency_tail_percentile": round(percentile, 3),
        "setup_samples": setup,
    }
    return values, END_TO_END, len(latencies), failures, meta


def traced_run(workload, seed, seconds, pins, items):
    """Each operation runs traced, then untraced on the same input.

    Exact counts are taken over the first pass, which is then replayed
    with a fresh tracer; the counts must repeat.
    """
    def traced(tracer):
        return tracer.installed() if workload.in_process else nullcontext()

    passes = workload.passes(seed, items)
    tracer = tracing.Tracer()
    keys, failures = [], []
    traced_total = untraced_total = 0.0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for key in next(passes):
            tracer.op = len(keys)
            keys.append(key)
            with traced(tracer):
                latency, reason = attempt(workload, key, items[key], pins, tracer)
            traced_total += latency
            failures += [(key, reason)] if reason else []
            latency, reason = attempt(workload, key, items[key], pins)
            untraced_total += latency
            failures += [(key, reason)] if reason else []
        if stop(start, pass_start, seconds):
            break

    window = range(sum(c.strata for c in workload.classes))  # the first pass
    replay = tracing.Tracer()
    for op in window:
        replay.op = op
        with traced(replay):
            workload.run(items[keys[op]], replay)
    repeat = all(replay.counts[op] == tracer.counts[op] for op in window)

    ops = len(keys)
    self_times = tracer.self_times()
    counts = tracer.window_counts(window)
    values = {f"{span}.self_s": self_times.get(span, 0.0) / ops for span in SELF_TIME_SPANS}
    values["cli.interpreter_s"] = self_times.get("cli.interpreter", 0.0) / ops
    values["cli.import_s"] = self_times.get("cli.import", 0.0) / ops
    values.update({name: counts[name] for name in WINDOW_COUNTS})
    for name, (num, den) in WINDOW_RATIOS.items():
        values[name] = counts[num] / counts[den] if counts[den] else 0.0
    for layer in tracing.LAYERS:
        layer_self = sum(t for span, t in self_times.items() if span.split(".")[0] == layer)
        values[f"{layer}.share"] = layer_self / traced_total
    values["trace.overhead_ratio"] = traced_total / untraced_total - 1.0
    meta = {"traced_ops": ops, "count_window": len(window), "counts_repeat": repeat}
    return values, per_layer_units(), 2 * ops, failures, meta


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": nproc,
        "src_lines": src_lines,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, pins: dict | None = None):
    """Measure one workload; returns (result object, meta dict)."""
    workload = WORKLOADS[name]
    pins = load_pins()[name] if pins is None else pins
    if workload.in_process:
        import latdeg  # noqa: F401  (import before timing; setup_s measures it)
    items = {key: workload.item(key) for key in workload.keys()}
    measure = traced_run if trace else untraced_run
    values, units, attempted, failures, meta = measure(workload, seed, seconds, pins, items)
    result = {
        "correct": not failures and meta.get("counts_repeat", True),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    meta.update(
        workload=name, seed=seed, seconds=seconds, trace=int(trace),
        fail_ratio=len(failures) / attempted, failures=failures[:5], **environment(),
    )
    return result, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_checkout()
    sys.path.insert(0, str(SRC))
    result, meta = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:42s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'fail_ratio':42s} {meta['fail_ratio']:.6g} ({result['failed']}/{result['attempted']})")
    for key, reason in meta["failures"]:
        print(f"FAILED {key}: {reason}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
