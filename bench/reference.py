"""Layer timings at fixed sizes, run at the start of every traced run.

The inputs do not depend on the workload or the seed, so these numbers
compare directly across runs and commits: each library layer once at
K_1000 (n = 500), the size of the ROADMAP Baseline, and the exact
search on the named instances that it decides.
"""

from __future__ import annotations

from harness import Tracer
from workloads import NAMED_INSTANCES, load_digests, sha256

K1000_N = 500

# ROADMAP Baseline at K_1000: Python 3.11.7, one run, wall clock.
ROADMAP_BASELINE_S = {
    "graph.complete_graph_s": 0.43,
    "construction.construct_s": 0.33,
    "io.emit_coloring_s": 1.02,
    "io.parse_coloring_s": 4.58,
    "coloring.verify_interval_s": 0.40,
    "bounds.bounds_for_k2n_s": 0.73,
}


def _timed(tr: Tracer, name: str, fn, *args):
    with tr.span(name) as record:
        value = fn(*args)
    return value, record[2] - record[1]


def layer_timings(lib, tr: Tracer, n: int = K1000_N) -> tuple[dict[str, float], list[str]]:
    """Seconds per layer on K_2n, plus any mismatch found on the way.

    References are dropped as soon as a step is done so that at most
    one copy of the 2n(2n-1)/2-edge structures is alive at a time.
    """
    metrics: dict[str, float] = {}
    problems: list[str] = []
    graph, metrics["graph.complete_graph_s"] = _timed(
        tr, "ref.graph.complete_graph", lib.graph.complete_graph, 2 * n
    )
    coloring, metrics["construction.construct_s"] = _timed(
        tr, "ref.construction.construct", lib.construction.construct, n
    )
    text, metrics["io.emit_coloring_s"] = _timed(
        tr, "ref.io.emit_coloring", lib.io.emit_coloring, graph, coloring
    )
    graph_text = lib.io.emit_graph(graph)
    del graph, coloring
    if sha256(text) != load_digests().get(n):
        problems.append(f"K_{2 * n}: emitted coloring differs from the recorded digest")
    (parsed_graph, parsed), metrics["io.parse_coloring_s"] = _timed(
        tr, "ref.io.parse_coloring", lib.io.parse_coloring_with_graph, text
    )
    metrics["io.parse_mb_per_s"] = len(text) / 1e6 / metrics["io.parse_coloring_s"]
    del text
    report, metrics["coloring.verify_interval_s"] = _timed(
        tr, "ref.coloring.verify_interval", lib.coloring.verify_interval, parsed_graph, parsed
    )
    if not report.verdict:
        problems.append(f"K_{2 * n}: the construction does not verify")
    del parsed_graph, parsed, report
    _, metrics["io.parse_graph_s"] = _timed(
        tr, "ref.io.parse_graph", lib.io.parse_graph, graph_text
    )
    del graph_text
    bounds, metrics["bounds.bounds_for_k2n_s"] = _timed(
        tr, "ref.bounds.bounds_for_k2n", lib.bounds.bounds_for_k2n, n
    )
    if bounds.best_lower != 3 * n - 2:
        problems.append(f"K_{2 * n}: best lower bound {bounds.best_lower}")
    return metrics, problems


def search_timings(lib, tr: Tracer) -> tuple[dict[str, float], list[str]]:
    """Node counts per decided named instance, their total time and rate."""
    metrics: dict[str, float] = {}
    problems: list[str] = []
    nodes = 0
    seconds = 0.0
    for m, t, budget, allowed in NAMED_INSTANCES:
        if budget is not None:
            continue
        graph = lib.graph.complete_graph(m)
        config = lib.search.SearchConfig(t=t)
        outcome, elapsed = _timed(
            tr, "ref.search.find", lib.search.find_interval_coloring, graph, config
        )
        seconds += elapsed
        nodes += outcome.nodes_explored
        metrics[f"search.nodes.k{m}_t{t}"] = outcome.nodes_explored
        if outcome.status.value not in allowed:
            problems.append(f"K_{m} t={t}: {outcome.status.value}")
        if outcome.coloring is not None and not lib.coloring.verify_interval(
            graph, outcome.coloring
        ).verdict:
            problems.append(f"K_{m} t={t}: witness fails verify_interval")
    metrics["search.find_s"] = seconds
    metrics["search.nodes_per_s"] = nodes / seconds
    return metrics, problems
