"""Benchmark of the intervalcoloring library, from a checkout of the repo.

    python3 bench/run.py --workload k2n-pipeline --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Workloads: k2n-pipeline, verify-reject, search-exact (see workloads.py),
or ``all`` to run the three in turn.  The library is imported from the
checkout's ``src``; without it the benchmark exits with code 2.

With ``--trace 0`` every op is a timed, checked CLI call sequence and
the end-to-end metrics are reported.  With ``--trace 1`` the run first
times each layer at fixed sizes (reference.py), then repeats the
workload's ops with spans around the CLI calls and around direct calls
to each module on the same inputs, and reports the per-layer metrics.
Spans are written to ``.bench_out/``.  Human-readable lines come first;
the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import time
from collections import Counter
from statistics import median

import harness
import reference
from harness import LoopResult, Tracer, check_op, percentile, run_rounds
from workloads import WORKLOADS

# Set-up is repeated at least SETUP_MIN_REPS and at most SETUP_MAX_REPS
# times, stopping once SETUP_BUDGET_S has been spent; the median is reported.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 9
SETUP_BUDGET_S = 2.0
OUT_DIR = harness.REPO_ROOT / ".bench_out"
# op_ms_p90 is printed only when at least ten samples lie beyond it.
P90_MIN_OPS = 100
# Throughput takes each op's median over the rounds, so it needs three.
MIN_ROUNDS = 3

LAYERS = (
    "io.parse_coloring",
    "io.parse_graph",
    "io.emit_coloring",
    "graph.complete_graph",
    "construction.construct",
    "bounds.bounds_for_k2n",
    "coloring.verify_interval",
    "search.find",
)
ROUND_COUNTS = (
    "io.bytes_in",
    "io.format_errors",
    "io.format_errors.color-out-of-range",
    "io.format_errors.bad-token",
    "io.format_errors.duplicate-edge",
    "coloring.violations",
    "search.nodes",
    "search.budget_stops",
    "search.witnesses_verified",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "edges_per_s": "1/s",
    "ok_ratio": "ratio",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}


PER_LAYER_UNITS = {
    "io.parse_mb_per_s": "MB/s",
    "search.nodes_per_s": "1/s",
    "io.bytes_in": "B",
    "trace.overhead_pct": "%",
}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS or name in PER_LAYER_UNITS:
        return {**END_TO_END_UNITS, **PER_LAYER_UNITS}[name]
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def setup(name: str, seed: int, workdir, sizes=None):
    """Import, input generation and warm-up, repeated; returns the median time."""
    build = WORKLOADS[name]
    times: list[float] = []
    while len(times) < SETUP_MIN_REPS or (
        len(times) < SETUP_MAX_REPS and sum(times) < SETUP_BUDGET_S
    ):
        gc.collect()
        start = time.perf_counter()
        lib = harness.load_library()
        prepared = build(lib, seed, workdir) if sizes is None else build(lib, seed, workdir, sizes)
        for op in prepared.warmup:
            op.run()
        times.append(time.perf_counter() - start)
    gc.collect()
    return lib, prepared, median(times)


def end_to_end(loop: LoopResult, setup_s: float) -> tuple[dict[str, float], list[str]]:
    seconds = [r.seconds for r in loop.records]
    total = sum(seconds)
    counts: Counter = Counter()
    for r in loop.records:
        counts.update(r.counts)
    attempted = len(loop.records)
    failed = len(loop.failures)
    undecided = counts["search.budget_stops"] / max(counts["questions"], 1)
    per_round = loop.records[: attempted // loop.rounds]
    round_seconds = loop.round_seconds()
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(per_round) / round_seconds,
        "op_ms_p50": median(seconds) * 1000,
        "edges_per_s": sum(r.op.edges for r in per_round) / round_seconds,
        "ok_ratio": (attempted - failed) / attempted,
        "decided_ratio": 1 - undecided,
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    inflated = sum(r.seconds for r in loop.records if "inflated" in r.op.tags)
    notes = [
        f"ops {attempted} in {loop.rounds} round(s), {total:.3f} s inside ops",
        f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted})",
        f"undecided_ratio {undecided:.4f} ({counts['search.budget_stops']} budget stops"
        f" of {counts['questions']} questions)",
        f"header-inflated share of op time {inflated / total:.4f}",
    ]
    if attempted >= P90_MIN_OPS:
        notes.append(f"op_ms_p90 {percentile(seconds, 0.9) * 1000:.3f} ms")
    else:
        notes.append(f"op_ms_p90 n/a: {attempted} ops, op_ms_p50 is the median of {attempted}")
    return metrics, notes


def traced(lib, prepared, seconds: float, reference_n: int):
    """Reference layer timings, then the ops with spans and direct layer calls."""
    tr = Tracer()
    metrics: dict[str, float] = {}
    problems: list[str] = []
    gc.collect()
    values, found = reference.layer_timings(lib, tr, reference_n)
    metrics.update(values)
    problems += found
    gc.collect()
    values, found = reference.search_timings(lib, tr)
    metrics.update(values)
    problems += found
    gc.collect()

    plain_seconds: list[float] = []
    per_op: list[tuple[float, dict[str, float]]] = []

    def step(index, op, first_round):
        tr.op_id = len(per_op)
        plain_first = tr.op_id % 2 == 0
        if plain_first:
            plain = op.run()
        with tr.span("op") as span:
            results = op.run()
        if not plain_first:
            plain = op.run()
        record = check_op(op, results, first_round)
        printed = harness.fingerprint(results)
        if record.problem is None and harness.fingerprint(plain) != printed:
            record.problem = "output differs between two calls in one round"
        start = len(tr.spans)
        with tr.span("direct"):
            try:
                direct_problem, counts = op.direct(tr)
            except Exception as exc:  # a library defect; counted, not fatal
                direct_problem, counts = f"direct calls raised {exc!r}", {}
        record.problem = record.problem or direct_problem
        record.counts = {**record.counts, **counts}
        layers = tr.self_times(range(start + 1, len(tr.spans)))
        record.seconds = span[2] - span[1]
        plain_seconds.append(sum(r.seconds for r in plain))
        per_op.append((record.seconds, layers))
        return record, printed

    loop = run_rounds(prepared.ops, seconds, step)
    op_total = sum(s for s, _ in per_op)
    for layer in LAYERS:
        metrics[f"{layer}_share"] = sum(l.get(layer, 0.0) for _, l in per_op) / op_total
    overheads = [s - sum(l.values()) for s, l in per_op]
    metrics["cli.overhead_s"] = median(overheads)
    metrics["cli.overhead_share"] = sum(overheads) / op_total
    counts: Counter = Counter()
    for r in loop.records:
        counts.update(r.counts)
    for name in ROUND_COUNTS:
        metrics[name] = counts[name] / loop.rounds
    plain_total = sum(plain_seconds)
    inflated = sum(
        p for p, r in zip(plain_seconds, loop.records) if "inflated" in r.op.tags
    )
    metrics["input.inflated_time_share"] = inflated / plain_total
    metrics["trace.overhead_pct"] = 100 * (op_total - plain_total) / plain_total
    metrics["trace.spans"] = len(tr.spans)

    notes = [
        f"traced ops {len(loop.records)} in {loop.rounds} round(s);"
        " cli.overhead_s is computed: op time minus the direct layer calls",
    ]
    for name, base in reference.ROADMAP_BASELINE_S.items():
        line = f"K_{2 * reference_n} {name} {metrics[name]:.3f} s"
        if reference_n == reference.K1000_N:
            line += f" vs ROADMAP Baseline {base:.2f} s (ratio {metrics[name] / base:.2f})"
        notes.append(line)
    notes.append(f"peak RSS of the traced run {harness.peak_rss_mb():.1f} MB")
    return metrics, loop, problems, notes, tr


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes=None,
    reference_n: int = reference.K1000_N,
) -> dict:
    """One workload run: the result object, human-readable notes and failures.

    ``sizes`` and ``reference_n`` shrink the inputs for the self-tests.
    """
    workdir = OUT_DIR / f"work-{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        lib, prepared, setup_s = setup(name, seed, workdir, sizes)
        if trace:
            metrics, loop, problems, notes, tr = traced(lib, prepared, seconds, reference_n)
            tr.dump(OUT_DIR / f"spans-{name}-seed{seed}.json")
        else:
            loop = run_rounds(prepared.ops, seconds, min_rounds=MIN_ROUNDS)
            metrics, notes = end_to_end(loop, setup_s)
            problems = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = loop.failures + problems
    return {
        "correct": not failures,
        "attempted": len(loop.records) + (1 if trace else 0),
        "failed": len(loop.failures) + (1 if problems else 0),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "notes": notes,
        "failures": failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except harness.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name}  {metric}  {m['value']:.6g} {m['unit']}")
        for note in result["notes"]:
            print(f"{name}  # {note}")
        for failure in result["failures"][:20]:
            print(f"{name}  FAILED {failure}", file=sys.stderr)
    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
