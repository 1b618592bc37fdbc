import io
import random
import time
import tracemalloc
from collections import Counter
from itertools import combinations, islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_labeled_graphs,
    bound,
    brute_force_exists,
    canonical_graphs_upto,
    edge_search,
    reference_sweep_tables,
    reflect,
    tree_max_span,
)
from intervalcoloring import (
    Graph,
    SearchConfig,
    SearchStatus,
    bounds_for_graph,
    bounds_for_k2n,
    complete_graph,
    compute_max_span,
    emit_graph,
    find_interval_coloring,
    graph_from_edges,
    span_cap,
    verify_interval,
)
from intervalcoloring import cli, search
from intervalcoloring.search import _PaletteSweep, _may_match, _twin_classes


def decide(g, t):
    return find_interval_coloring(g, SearchConfig(t=t, node_budget=0))


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(t=0)
    with pytest.raises(ValueError):
        SearchConfig(t=1, node_budget=-1)
    with pytest.raises(ValueError, match="node_budget must be >= 0"):
        compute_max_span(complete_graph(4), 5, node_budget=-1)
    with pytest.raises(ValueError, match="t_cap must be >= 1"):
        compute_max_span(complete_graph(4), 0)


def test_k2_t1_found():
    out = decide(complete_graph(2), 1)
    assert out.status is SearchStatus.FOUND
    assert dict(out.coloring.assignment) == {(1, 2): 1}


def test_k4_t4_found_and_verifies():
    g = complete_graph(4)
    out = decide(g, 4)
    assert out.status is SearchStatus.FOUND
    assert out.coloring.span_t == 4
    assert verify_interval(g, out.coloring).verdict


def test_k4_t5_exhausted():
    out = decide(complete_graph(4), 5)
    assert out.status is SearchStatus.EXHAUSTED_NO_SOLUTION
    assert out.coloring is None
    assert out.nodes_explored > 0


def test_span_below_max_degree_is_hopeless():
    out = decide(complete_graph(4), 2)
    assert out.status is SearchStatus.EXHAUSTED_NO_SOLUTION
    assert out.nodes_explored == 0


def test_edgeless_graph_has_no_interval_coloring():
    out = decide(graph_from_edges(3, []), 1)
    assert out.status is SearchStatus.EXHAUSTED_NO_SOLUTION


def test_budget_exceeded_is_not_a_claim():
    g = complete_graph(6)
    out = edge_search(g, 8, 50)
    assert out.status is SearchStatus.BUDGET_EXCEEDED
    assert out.nodes_explored == 50
    assert out.coloring is None


def test_search_is_deterministic():
    g = complete_graph(6)
    a = decide(g, 8)
    b = decide(g, 8)
    assert a.status == b.status
    assert a.nodes_explored == b.nodes_explored


def test_found_at_budget_boundary_still_found():
    g = complete_graph(2)
    out = edge_search(g, 1, 1)
    assert out.status is SearchStatus.FOUND
    assert out.nodes_explored == 1


def test_find_at_budget_boundary_still_found():
    # One start decision, then one edge placement: found on the budget-th node.
    g = complete_graph(2)
    out = find_interval_coloring(g, SearchConfig(1, 2))
    assert (out.status, out.nodes_explored) == (SearchStatus.FOUND, 2)
    out = find_interval_coloring(g, SearchConfig(1, 1))
    assert (out.status, out.nodes_explored, out.coloring) == (
        SearchStatus.BUDGET_EXCEEDED,
        1,
        None,
    )


def test_hopeless_span_does_no_set_up(monkeypatch):
    n = 4401
    path = graph_from_edges(n, [(i, i + 1) for i in range(1, n)])

    def no_set_up(nbr):
        raise AssertionError("the sweep was prepared for a hopeless span")

    monkeypatch.setattr(search, "_twin_classes", no_set_up)
    for t in (1, n):  # below the maximum degree, above the edge count
        out = find_interval_coloring(path, SearchConfig(t, 0))
        assert (out.status, out.nodes_explored) == (SearchStatus.EXHAUSTED_NO_SOLUTION, 0)


# Witnesses list the edges in sorted order.
def test_decisions_agree_across_edge_orders():
    for g in canonical_graphs_upto(4):
        for t in range(1, 6):
            out = decide(g, t)
            assert (out.status is SearchStatus.FOUND) == brute_force_exists(g, t)
            if out.status is SearchStatus.FOUND:
                assert list(out.coloring.assignment) == sorted(g.edges), g


# Node counts are evidence for the K_m brackets: a change to either
# engine's state or prunes must leave every one of them as it is.  First
# the edge-search oracle (conftest.edge_search) ...
@pytest.mark.parametrize(
    "m, t, budget, status, nodes",
    [
        (4, 4, 0, SearchStatus.FOUND, 6),
        (5, 7, 0, SearchStatus.EXHAUSTED_NO_SOLUTION, 1202),
        (6, 7, 0, SearchStatus.FOUND, 35),
        (6, 8, 0, SearchStatus.EXHAUSTED_NO_SOLUTION, 56350),
        (8, 11, 0, SearchStatus.FOUND, 522),
        (7, 10, 50_000, SearchStatus.BUDGET_EXCEEDED, 50_000),
        (8, 12, 50_000, SearchStatus.BUDGET_EXCEEDED, 50_000),
    ],
)
def test_node_counts_are_pinned(m, t, budget, status, nodes):
    out = edge_search(complete_graph(m), t, budget)
    assert (out.status, out.nodes_explored) == (status, nodes)


# ... then find_interval_coloring, on the palette sweep, on the same probes.
@pytest.mark.parametrize(
    "m, t, budget, status, nodes",
    [
        (4, 4, 0, SearchStatus.FOUND, 8),
        (5, 7, 0, SearchStatus.EXHAUSTED_NO_SOLUTION, 4),
        (6, 7, 0, SearchStatus.FOUND, 23),
        (6, 8, 0, SearchStatus.EXHAUSTED_NO_SOLUTION, 14),
        (8, 11, 0, SearchStatus.FOUND, 35),
        (7, 10, 50_000, SearchStatus.EXHAUSTED_NO_SOLUTION, 16),
        (8, 12, 50_000, SearchStatus.EXHAUSTED_NO_SOLUTION, 62),
    ],
)
def test_find_node_counts_are_pinned(m, t, budget, status, nodes):
    g = complete_graph(m)
    out = find_interval_coloring(g, SearchConfig(t, budget))
    assert (out.status, out.nodes_explored) == (status, nodes)
    if out.status is SearchStatus.FOUND:
        assert verify_interval(g, out.coloring).verdict


def test_node_total_over_small_graphs_is_pinned():
    pairs = [(g, t) for g in canonical_graphs_upto(5) for t in range(1, 7)]
    assert len(pairs) == 312
    assert sum(edge_search(g, t, 0).nodes_explored for g, t in pairs) == 5674


def test_search_work_is_not_sized_by_the_header():
    g = Graph(10**6, frozenset({(1, 2)}))
    tracemalloc.start()
    try:
        assert g.max_degree == 1
        out = find_interval_coloring(g, SearchConfig(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One start decision (both ends start at color 1), one edge placement.
    assert (out.status, out.nodes_explored) == (SearchStatus.FOUND, 2)
    assert peak < 1 << 20


def test_pruning_sound_on_all_small_graphs():
    """Decisions match a pruning-free brute force: <= 5 vertices, t <= 6."""
    for g in canonical_graphs_upto(5):
        for t in range(1, 7):
            out = decide(g, t)
            assert (out.status is SearchStatus.FOUND) == brute_force_exists(g, t), (g, t)
            if out.status is SearchStatus.FOUND:
                assert out.coloring.span_t == t
                assert verify_interval(g, out.coloring).verdict, (g, t)


def test_pruning_sound_under_relabeling():
    # labeled 4-vertex graphs exercise orderings canonical forms miss
    for g in all_labeled_graphs(4):
        for t in range(1, 6):
            out = decide(g, t)
            assert (out.status is SearchStatus.FOUND) == brute_force_exists(g, t)


@settings(max_examples=60, deadline=None)
@given(
    bits=st.integers(0, (1 << 10) - 1),
    t=st.integers(1, 6),
)
def test_pruning_sound_on_random_labeled_5_vertex_graphs(bits, t):
    from itertools import combinations

    pairs = list(combinations(range(1, 6), 2))
    g = graph_from_edges(5, [p for k, p in enumerate(pairs) if bits >> k & 1])
    out = decide(g, t)
    assert (out.status is SearchStatus.FOUND) == brute_force_exists(g, t)


def test_found_witness_reflects_to_a_witness():
    g = complete_graph(6)
    out = decide(g, 7)
    assert out.status is SearchStatus.FOUND
    assert verify_interval(g, reflect(out.coloring)).verdict


def test_k8_admits_span_beyond_the_built_construction():
    # the explicit construction gives span 10 on K_8; search finds 11
    g = complete_graph(8)
    out = decide(g, 11)
    assert out.status is SearchStatus.FOUND
    assert verify_interval(g, out.coloring).verdict


def test_compute_max_span_k2():
    result = compute_max_span(complete_graph(2), 10)
    assert result.max_span == 1
    assert result.complete
    assert result.witness is not None


def test_compute_max_span_k4():
    g = complete_graph(4)
    result = compute_max_span(g, 10)
    assert result.max_span == 4
    assert result.complete
    assert verify_interval(g, result.witness).verdict
    # cap was tightened to the closed-form upper bound before probing
    assert result.probes[0].t == 4 == span_cap(g, 10)


def test_compute_max_span_agrees_with_bounds():
    for n in (1, 2):
        g = complete_graph(2 * n)
        result = compute_max_span(g, 2 * g.vertex_count)
        assert result.complete
        assert result.max_span >= bound(bounds_for_k2n(n), "construction")
        if n >= 2:
            assert result.max_span <= bound(bounds_for_graph(g), "refined")


def test_compute_max_span_edgeless():
    result = compute_max_span(graph_from_edges(4, []), 5)
    assert result.max_span == 0
    assert result.complete
    assert result.probes == ()


def test_compute_max_span_respects_cap():
    result = compute_max_span(complete_graph(4), 3)
    assert result.max_span == 3
    assert result.complete


def test_compute_max_span_budget_gap_reported():
    g = complete_graph(10)
    result = compute_max_span(g, 16, node_budget=200)
    assert result.max_span == 14
    assert not result.complete
    assert [(p.t, p.status) for p in result.probes[:2]] == [
        (16, SearchStatus.BUDGET_EXCEEDED),
        (15, SearchStatus.BUDGET_EXCEEDED),
    ]
    assert verify_interval(g, result.witness).verdict


def test_compute_max_span_no_feasible_span_within_cap():
    # path on 3 vertices has max degree 2; t=1 cannot be proper
    path = graph_from_edges(3, [(1, 2), (2, 3)])
    result = compute_max_span(path, 1)
    assert result.max_span == 0
    assert result.complete


def test_max_span_of_path_is_vertex_bound():
    path = graph_from_edges(4, [(1, 2), (2, 3), (3, 4)])
    result = compute_max_span(path, 10)
    assert result.complete
    assert result.max_span == 3  # hits the triangle-free |V|-1 bound


# Both find_interval_coloring and the --max sweep run on the palette-start
# engine; the tests above check it against the brute force, the tests
# below against the edge-search oracle.


# The --max sweep reuses one _PaletteSweep for every probe of a graph.
def test_sweep_engine_agrees_with_brute_force():
    for g in canonical_graphs_upto(5):
        if not g.edges:
            continue
        sweep = _PaletteSweep(g)
        for t in range(1, 7):
            out = sweep.probe(t, 0)
            assert (out.status is SearchStatus.FOUND) == brute_force_exists(g, t), (g, t)
            if out.status is SearchStatus.FOUND:
                assert out.coloring.span_t == t
                assert verify_interval(g, out.coloring).verdict, (g, t)


def _assert_engines_agree(g, ts, budget):
    """find_interval_coloring and one _PaletteSweep reused over ts, as the
    --max sweep reuses it, against the edge-search oracle."""
    sweep = _PaletteSweep(g)
    for t in ts:
        edge = edge_search(g, t, budget)
        for out in (find_interval_coloring(g, SearchConfig(t, budget)), sweep.probe(t, budget)):
            if SearchStatus.BUDGET_EXCEEDED not in (out.status, edge.status):
                assert out.status is edge.status, (g, t)
            if out.status is SearchStatus.FOUND:
                assert verify_interval(g, out.coloring).verdict, (g, t)
            if out.status is SearchStatus.BUDGET_EXCEEDED:
                assert (out.nodes_explored, out.coloring) == (budget, None)


def test_sweep_engine_agrees_with_edge_search_on_labeled_5_vertex_graphs():
    for g in all_labeled_graphs(5):
        if g.edges:
            _assert_engines_agree(g, range(1, 8), 0)


def test_sweep_engine_agrees_with_edge_search_on_random_graphs():
    rng = random.Random(20261018)
    for _ in range(24):
        v = rng.randint(6, 8)
        pairs = list(combinations(range(1, v + 1), 2))
        g = graph_from_edges(v, rng.sample(pairs, rng.randint(1, len(pairs))))
        _assert_engines_agree(g, range(1, 2 * v - 3), 20_000)
    # Labels that are not contiguous: both engines index the touched vertices.
    _assert_engines_agree(Graph(10**6, frozenset({(2, 5), (5, 999999)})), range(1, 4), 0)


def test_sweep_decides_every_span_of_random_graphs():
    # 40 graphs on 8-9 vertices with edge probability 1/2, at every span
    # from the max degree to 2|V| - 3: the edge-search oracle decides only
    # 217 of these 369 probes at this budget (never disagreeing with the sweep).
    rng = random.Random(7)
    probes = nodes = 0
    for _ in range(40):
        v = rng.randint(8, 9)
        g = graph_from_edges(v, [p for p in combinations(range(1, v + 1), 2) if rng.random() < 0.5])
        sweep = _PaletteSweep(g)
        for t in range(g.max_degree, 2 * v - 2):
            out = sweep.probe(t, 100_000)
            assert out.status is not SearchStatus.BUDGET_EXCEEDED, (g, t)
            if out.status is SearchStatus.FOUND:
                assert verify_interval(g, out.coloring).verdict, (g, t)
            probes += 1
            nodes += out.nodes_explored
    assert (probes, nodes) == (369, 246_146)


# Sweep node counts, like the oracle's, are evidence for the K_m
# answers: a change to the engine's prunes must leave them as they are.
@pytest.mark.parametrize(
    "m, probes",
    [
        (4, [(4, SearchStatus.FOUND, 8)]),
        (5, [(6, SearchStatus.EXHAUSTED_NO_SOLUTION, 4),
             (5, SearchStatus.EXHAUSTED_NO_SOLUTION, 2),
             (4, SearchStatus.EXHAUSTED_NO_SOLUTION, 0)]),
        (6, [(8, SearchStatus.EXHAUSTED_NO_SOLUTION, 14), (7, SearchStatus.FOUND, 23)]),
        (7, [(10, SearchStatus.EXHAUSTED_NO_SOLUTION, 16),
             (9, SearchStatus.EXHAUSTED_NO_SOLUTION, 12),
             (8, SearchStatus.EXHAUSTED_NO_SOLUTION, 8),
             (7, SearchStatus.EXHAUSTED_NO_SOLUTION, 3),
             (6, SearchStatus.EXHAUSTED_NO_SOLUTION, 0)]),
        (8, [(12, SearchStatus.EXHAUSTED_NO_SOLUTION, 62), (11, SearchStatus.FOUND, 35)]),
    ],
)
def test_sweep_node_counts_are_pinned(m, probes):
    result = compute_max_span(complete_graph(m), 2 * m)
    assert [(p.t, p.status, p.nodes_explored) for p in result.probes] == probes
    assert result.complete


# Deeper probes, run one by one: compute_max_span on K_12 would go on to
# t=18, which stops only on a budget.
@pytest.mark.parametrize(
    "m, t, status, nodes",
    [
        (10, 16, SearchStatus.EXHAUSTED_NO_SOLUTION, 281),
        (10, 15, SearchStatus.EXHAUSTED_NO_SOLUTION, 258),
        (10, 14, SearchStatus.FOUND, 124),
        (10, 13, SearchStatus.FOUND, 90),
        (12, 20, SearchStatus.EXHAUSTED_NO_SOLUTION, 1332),
        (12, 19, SearchStatus.EXHAUSTED_NO_SOLUTION, 1153),
    ],
)
def test_deep_sweep_node_counts_are_pinned(m, t, status, nodes):
    g = complete_graph(m)
    out = _PaletteSweep(g).probe(t, 0)
    assert (out.status, out.nodes_explored) == (status, nodes)
    if out.status is SearchStatus.FOUND:
        assert out.coloring.span_t == t
        assert verify_interval(g, out.coloring).verdict


def test_max_span_of_k16_is_26_and_complete():
    # W(K_16) = 26, above the construction's 3n - 2 = 22, with no budget
    # stop: the sweep from the refined bound 2|V| - 4 = 28 exhausts 28
    # and 27 and finds 26 (~4-5 s).
    g = complete_graph(16)
    result = compute_max_span(g, 10**9)
    assert [(p.t, p.status, p.nodes_explored) for p in result.probes] == [
        (28, SearchStatus.EXHAUSTED_NO_SOLUTION, 32_771),
        (27, SearchStatus.EXHAUSTED_NO_SOLUTION, 28_858),
        (26, SearchStatus.FOUND, 470_618),
    ]
    assert (result.max_span, result.complete) == (26, True)
    assert result.witness.span_t == 26
    assert verify_interval(g, result.witness).verdict


def test_sweep_node_total_over_small_graphs_is_pinned():
    graphs = canonical_graphs_upto(5)
    results = [compute_max_span(g, 2 * g.vertex_count) for g in graphs]
    assert all(r.complete for r in results)
    assert sum(len(r.probes) for r in results) == 147
    assert sum(p.nodes_explored for r in results for p in r.probes) == 775


def test_sweep_node_total_over_random_5_to_7_vertex_graphs_is_pinned():
    # The shape family of the search-exact benchmark: 40 random edge sets
    # on each of 5, 6 and 7 vertices, swept from 2|V| at its node budget.
    rng = random.Random(2121)
    probes = nodes = 0
    spans = Counter()
    for v in (5, 6, 7):
        pairs = list(combinations(range(1, v + 1), 2))
        for _ in range(40):
            g = graph_from_edges(v, rng.sample(pairs, rng.randint(1, len(pairs))))
            result = compute_max_span(g, 2 * v, node_budget=5_000)
            assert result.complete, g
            if result.witness is not None:
                assert verify_interval(g, result.witness).verdict, g
            probes += len(result.probes)
            nodes += sum(p.nodes_explored for p in result.probes)
            spans[result.max_span] += 1
    assert (probes, nodes) == (559, 19_130)
    assert spans == {0: 21, 1: 15, 2: 10, 3: 11, 4: 15, 5: 16, 6: 16, 7: 12, 8: 4}


def test_sweep_work_is_not_sized_by_the_header():
    g = Graph(10**6, frozenset({(1, 2)}))
    tracemalloc.start()
    try:
        result = compute_max_span(g, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.max_span, result.complete) == (1, True)
    assert peak < 1 << 20


def test_sweep_on_a_large_complete_graph_stops_on_the_budget():
    g = complete_graph(46)  # 1,035 edges
    result = compute_max_span(g, 45, node_budget=2_000)
    assert [(p.t, p.status, p.nodes_explored) for p in result.probes] == [
        (45, SearchStatus.BUDGET_EXCEEDED, 2_000)
    ]
    assert not result.complete


def _has_perfect_matching(nbr, mask):
    if not mask:
        return True
    v = (mask & -mask).bit_length() - 1
    rest = mask ^ 1 << v
    return any(
        nbr[v] >> w & 1 and _has_perfect_matching(nbr, rest ^ 1 << w)
        for w in range(v + 1, len(nbr))
        if rest >> w & 1
    )


def _nbr(n, edges):
    nbr = [0] * n
    for i, j in edges:
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
    return nbr


def test_sweep_matching_test_is_sound():
    # The check is necessary, not exact: it must accept every set that has
    # a perfect matching.  Every labeled graph on 6 vertices ...
    pairs = list(combinations(range(6), 2))
    accepted_without = 0
    for bits in range(1 << len(pairs)):
        nbr = _nbr(6, [p for b, p in enumerate(pairs) if bits >> b & 1])
        if _has_perfect_matching(nbr, 63):
            assert _may_match(nbr, 63), bits
        elif _may_match(nbr, 63):
            accepted_without += 1
    # ... of which 30 have no perfect matching but pass (K_{2,4} and kin).
    assert accepted_without == 30
    # ... and random vertex sets of random graphs on 10 vertices.
    rng = random.Random(7)
    pairs = list(combinations(range(1, 11), 2))
    for _ in range(300):
        g = graph_from_edges(10, rng.sample(pairs, rng.randint(5, 25)))
        sweep = _PaletteSweep(g)
        k = len(sweep.nbr)
        for s in (rng.getrandbits(k) for _ in range(8)):
            if _has_perfect_matching(sweep.nbr, s):
                assert _may_match(sweep.nbr, s), (g, s)


def test_sweep_matching_test_named_cases():
    # Star K_{1,3}: even and connected, so only the forced pair rejects it.
    assert not _may_match(_nbr(4, [(0, 1), (0, 2), (0, 3)]), 15)
    # Two disjoint triangles: no vertex is forced, both parts are odd.
    assert not _may_match(_nbr(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), 63)
    # K_{2,4}: no perfect matching, but neither rule sees it.
    k24 = _nbr(6, [(i, j) for i in (0, 1) for j in (2, 3, 4, 5)])
    assert not _has_perfect_matching(k24, 63)
    assert _may_match(k24, 63)


def test_twin_classes_match_the_definition_and_partition():
    # On every labeled graph on 5 and 6 vertices, u's class is exactly the
    # w with N(u) - {w} == N(w) - {u} (u included), and every member of a
    # class has that same class.
    for n in (5, 6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            nbr = _nbr(n, [p for b, p in enumerate(pairs) if bits >> b & 1])
            twins = _twin_classes([[w for w in range(n) if nbr[v] >> w & 1] for v in range(n)])
            for u in range(n):
                expected = sum(
                    1 << w
                    for w in range(n)
                    if nbr[u] & ~(1 << w) == nbr[w] & ~(1 << u)
                )
                assert twins[u] == expected, (n, bits, u)
                assert all(twins[w] == expected for w in range(n) if expected >> w & 1)


def test_sweep_set_up_equals_the_reference():
    # The one pass over the edges and the tuple-keyed twin classes give
    # the tables that neighbor sets and mask-keyed classes gave.
    rng = random.Random(30)
    shapes = [
        Graph(10**6, frozenset({(2, 5), (5, 999999)})),
        graph_from_edges(1101, [(i, i + 1) for i in range(1, 1101)]),
    ]
    for _ in range(500):
        v = rng.randint(2, 12)
        pairs = list(combinations(range(1, v + 1), 2))
        shapes.append(graph_from_edges(v, rng.sample(pairs, rng.randint(0, len(pairs)))))
    for g in shapes:
        sweep = _PaletteSweep(g)
        reference = reference_sweep_tables(g)
        assert {name: getattr(sweep, name) for name in reference} == reference, g
        assert (sweep.max_degree, sweep.edge_count) == (max(sweep.deg, default=0), g.edge_count)


def test_search_reads_no_graph_view():
    # The library calls and the CLI, which read only the graph's edge
    # set, give the pinned answers, node counts and witnesses (in sorted
    # edge order); test_graph.py checks that they cache nothing on it.
    k6 = complete_graph(6)
    text = emit_graph(k6)
    g = Graph(6, k6.edges)
    found, exhausted = [find_interval_coloring(g, SearchConfig(t, 0)) for t in (7, 8)]
    result = compute_max_span(g, 10**9)
    stdout = io.StringIO()
    argv = ["search", "-", "--t", "7"]
    code = cli.run(argv, stdin=io.StringIO(text), stdout=stdout, stderr=io.StringIO())
    out = stdout.getvalue()
    assert (found.status, found.nodes_explored) == (SearchStatus.FOUND, 23)
    assert (exhausted.status, exhausted.nodes_explored) == (SearchStatus.EXHAUSTED_NO_SOLUTION, 14)
    assert (result.max_span, result.complete) == (7, True)
    for witness in (found.coloring, result.witness):
        assert list(witness.assignment) == sorted(k6.edges)
    assert code == 0
    assert out.startswith("search t=7 on 6 vertices, 15 edges: found (nodes=23)\nc 6 7\ne 1 2 ")
    n = 1101
    path = graph_from_edges(n, [(i, i + 1) for i in range(1, n)])
    assert find_interval_coloring(path, SearchConfig(n - 1, 0)).status is SearchStatus.FOUND


def _reference_start_sets(twins, optional, left):
    # itertools.product over the classes of optional, by lowest vertex,
    # each class's prefixes ascending.  The probe skips the sets that
    # leave |S_c| odd; the pinned node counts cover that filter.
    classes, seen = [], 0
    for v in range(len(twins)):
        if optional >> v & 1 and not seen >> v & 1:
            members = twins[v] & left
            seen |= members
            prefixes = [0]
            for w in range(v, len(twins)):
                if members >> w & 1:
                    prefixes.append(prefixes[-1] | 1 << w)
            classes.append(prefixes)
    return [sum(combo) for combo in product(*classes)]


def test_start_sets_are_the_product_of_class_prefixes():
    # Random graphs: left keeps an upper suffix of each twin class (lower
    # twins start first), and optional is a union of whole class & left sets.
    rng = random.Random(5)
    for _ in range(300):
        v = rng.randint(2, 9)
        pairs = list(combinations(range(1, v + 1), 2))
        sweep = _PaletteSweep(graph_from_edges(v, rng.sample(pairs, rng.randint(1, len(pairs)))))
        left = optional = 0
        for cls in set(sweep.twins):
            members = [u for u in range(len(sweep.twins)) if cls >> u & 1]
            kept = sum(1 << u for u in members[rng.randint(0, len(members)):])
            left |= kept
            if rng.random() < 0.7:
                optional |= kept
        expected = _reference_start_sets(sweep.twins, optional, left)
        assert list(sweep._product(optional, left)) == expected
    # Deep: on a long path every class is one vertex, so the sets count in
    # binary with the highest vertex as the fastest digit.  The first 8,192
    # sets reach 13 classes, at the default recursion limit.
    n = 1101
    sweep = _PaletteSweep(graph_from_edges(n, [(i, i + 1) for i in range(1, n)]))
    everyone = (1 << n) - 1
    counting = (sum(1 << n - 1 - b for b in range(13) if i >> b & 1) for i in range(1 << 13))
    assert list(islice(sweep._product(everyone, everyone), 8192)) == list(counting)


def test_sweep_matching_test_is_polynomial():
    # Two disjoint K_31: at t = 30 every vertex must start at color 1, and
    # S_1, all 62 vertices, has two odd components.  A search over
    # pairings would visit ~2^29 vertex sets before it gave up.
    m = 31
    cliques = [(i + o, j + o) for o in (0, m) for i, j in combinations(range(1, m + 1), 2)]
    g = graph_from_edges(2 * m, cliques)
    start = time.perf_counter()
    probe = _PaletteSweep(g).probe(m - 1, 1)
    result = compute_max_span(g, 4 * m, node_budget=1)
    elapsed = time.perf_counter() - start
    assert (probe.status, probe.nodes_explored) == (SearchStatus.EXHAUSTED_NO_SOLUTION, 1)
    assert (result.max_span, result.complete) == (0, False)
    assert elapsed < 1.0


def test_sweep_depth_does_not_grow_the_call_stack():
    # Both phases go 1,100 levels deep, past the default recursion limit.
    n = 1101
    path = graph_from_edges(n, [(i, i + 1) for i in range(1, n)])
    result = compute_max_span(path, n - 1)
    assert (result.max_span, result.complete) == (n - 1, True)
    assert verify_interval(path, result.witness).verdict


# The path is the sweep's worst case against the oracle: each node does
# k-bit mask work.  Pinning the node counts keeps that work proportional
# to the path's length.
@pytest.mark.parametrize("t, nodes", [(2, 1102), (1100, 2200)])
def test_find_on_a_long_path_is_pinned(t, nodes):
    n = 1101
    path = graph_from_edges(n, [(i, i + 1) for i in range(1, n)])
    out = find_interval_coloring(path, SearchConfig(t, 0))
    assert (out.status, out.nodes_explored) == (SearchStatus.FOUND, nodes)
    assert verify_interval(path, out.coloring).verdict


def _recursive_tree(rng, n):
    """A random recursive tree: vertex v joins a uniform earlier vertex."""
    return graph_from_edges(n, [(v, rng.randint(1, v - 1)) for v in range(2, n + 1)])


def test_tree_max_span_is_the_closed_form():
    # Kamalian (1989): W(T) = 1 + the heaviest path under weights d(v) - 1.
    path = graph_from_edges(6, [(i, i + 1) for i in range(1, 6)])
    star = graph_from_edges(5, [(1, x) for x in range(2, 6)])
    assert (tree_max_span(path), tree_max_span(star)) == (5, 4)
    rng = random.Random(1989)
    for _ in range(150):
        g = _recursive_tree(rng, rng.randint(2, 10))
        result = compute_max_span(g, 10**9, node_budget=0)
        assert result.complete and result.max_span == tree_max_span(g), g
        assert verify_interval(g, result.witness).verdict


def test_tree_spans_are_contiguous_up_to_the_closed_form():
    # Asratian & Kamalian (1994): a tree has an interval t-coloring for
    # every t from its maximum degree up to W(T).
    rng = random.Random(1994)
    for _ in range(60):
        g = _recursive_tree(rng, rng.randint(2, 10))
        for t in range(g.max_degree, tree_max_span(g) + 1):
            out = decide(g, t)
            assert out.status is SearchStatus.FOUND, (g, t)
            assert verify_interval(g, out.coloring).verdict
