import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_labeled_graphs, brute_force_exists, canonical_graphs_upto
from intervalcoloring import (
    SearchConfig,
    SearchStatus,
    complete_graph,
    compute_max_span,
    construction_lower_bound,
    find_interval_coloring,
    graph_from_edges,
    refined_upper_bound,
    reflect,
    span_cap,
    verify_interval,
)


def decide(g, t):
    return find_interval_coloring(g, SearchConfig(t=t, node_budget=0))


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(t=0)
    with pytest.raises(ValueError):
        SearchConfig(t=1, node_budget=-1)


def test_k2_t1_found():
    out = decide(complete_graph(2), 1)
    assert out.status is SearchStatus.FOUND
    assert dict(out.coloring.assignment) == {(1, 2): 1}


def test_k4_t4_found_and_verifies():
    g = complete_graph(4)
    out = decide(g, 4)
    assert out.found
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
    out = find_interval_coloring(g, SearchConfig(t=8, node_budget=50))
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
    out = find_interval_coloring(g, SearchConfig(t=1, node_budget=1))
    assert out.found
    assert out.nodes_explored == 1


# "lex" is the one branching order: the search walks g.sorted_edges.
@pytest.mark.parametrize("order", ["lex"])
def test_decisions_agree_across_edge_orders(order):
    for g in canonical_graphs_upto(4):
        for t in range(1, 6):
            out = decide(g, t)
            assert (out.status is SearchStatus.FOUND) == brute_force_exists(g, t)
            if out.found:
                assert list(out.coloring.assignment) == sorted(g.edges), order


def test_pruning_sound_on_all_small_graphs():
    """Decisions match a pruning-free brute force: <= 5 vertices, t <= 6."""
    for g in canonical_graphs_upto(5):
        for t in range(1, 7):
            out = decide(g, t)
            assert (out.status is SearchStatus.FOUND) == brute_force_exists(g, t), (
                g,
                t,
            )
            if out.found:
                report = verify_interval(g, out.coloring)
                assert report.verdict


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
    assert out.found
    assert verify_interval(g, reflect(out.coloring)).verdict


def test_k8_admits_span_beyond_the_built_construction():
    # the explicit construction gives span 10 on K_8; search finds 11
    g = complete_graph(8)
    out = decide(g, 11)
    assert out.found
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
        assert result.max_span >= construction_lower_bound(n)
        if n >= 2:
            assert result.max_span <= refined_upper_bound(g)


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
    g = complete_graph(6)
    result = compute_max_span(g, 8, node_budget=50)
    assert result.max_span == 7
    assert not result.complete
    assert result.probes[0].status is SearchStatus.BUDGET_EXCEEDED


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
