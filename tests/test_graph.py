import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import graphs, neighbor_sets
from intervalcoloring import (
    Graph,
    SearchConfig,
    bounds_for_graph,
    complete_graph,
    compute_max_span,
    emit_graph,
    find_interval_coloring,
    graph_from_edges,
    is_triangle_free,
    parse_graph,
    verify_interval,
)
from intervalcoloring.graph import _canonical_graph


def test_complete_graph_smallest():
    g = complete_graph(2)
    assert g.vertex_count == 2
    assert g.edges == frozenset({(1, 2)})


def test_complete_graph_edge_counts():
    assert complete_graph(4).edge_count == 6
    assert complete_graph(8).edge_count == 28


def test_complete_graph_rejects_zero():
    with pytest.raises(ValueError):
        complete_graph(0)


@pytest.mark.parametrize("m", range(1, 65))
def test_complete_graph_is_regular(m):
    g = complete_graph(m)
    assert g.edge_count == m * (m - 1) // 2
    neighbors = neighbor_sets(g)
    assert all(len(neighbors.get(x, ())) == m - 1 for x in range(1, m + 1))


def test_degree_of_isolated_vertex_is_zero():
    g = Graph(4, frozenset({(1, 2)}))
    assert not any(x in e for e in g.edges for x in (3, 4))
    assert g.max_degree == 1


def test_edges_normalized_to_min_max():
    g = graph_from_edges(4, [(3, 1), (4, 2)])
    assert g.edges == frozenset({(1, 3), (2, 4)})
    assert all(i < j for i, j in g.edges)
    assert (1, 3) in g.edges and (3, 1) not in g.edges
    assert (1, 2) not in g.edges


def test_rejects_loops_and_out_of_range():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 2)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 4)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 1)}))
    with pytest.raises(ValueError):
        Graph(0)


def test_constructor_takes_canonical_pairs_only():
    with pytest.raises(ValueError):
        Graph(4, frozenset({(3, 1)}))
    assert graph_from_edges(4, [(3, 1)]).edges == frozenset({(1, 3)})


def test_constructor_keeps_the_given_edge_set():
    edges = frozenset({(1, 2), (2, 4), (1, 4)})
    assert Graph(4, edges).edges is edges
    assert complete_graph(5).edges == frozenset(
        (i, j) for i in range(1, 6) for j in range(i + 1, 6)
    )


def test_graph_is_immutable():
    g = complete_graph(3)
    with pytest.raises(AttributeError):
        g.vertex_count = 5


def test_is_triangle_free():
    assert not is_triangle_free(complete_graph(3))
    assert is_triangle_free(complete_graph(2))
    four_cycle = graph_from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert is_triangle_free(four_cycle)
    assert not is_triangle_free(complete_graph(5))


def test_is_triangle_free_stops_at_the_first_triangle():
    # It walks the edges and stops when a triangle closes.
    assert not is_triangle_free(complete_graph(40))
    six_cycle = graph_from_edges(6, [(i, i % 6 + 1) for i in range(1, 7)])
    assert is_triangle_free(six_cycle)


def test_incident_edges_and_adjacency():
    g = graph_from_edges(4, [(1, 2), (1, 3), (2, 4)])
    assert sorted(e for e in g.edges if 1 in e) == [(1, 2), (1, 3)]
    assert sum(2 in e for e in g.edges) == 2
    assert g.max_degree == 2
    assert graph_from_edges(5, [(1, 2)]).max_degree == 1


def test_max_degree_counts_edge_ends():
    # Against neighbor sets built from the edges, on random graphs with
    # and without isolated vertices (up to three top vertices never get
    # an edge).
    rng = random.Random(30)
    isolated = 0
    for _ in range(300):
        v = rng.randint(2, 12)
        pairs = list(combinations(range(1, v + 1), 2))
        g = Graph(v + rng.randint(0, 3), frozenset(rng.sample(pairs, rng.randint(1, len(pairs)))))
        neighbors = neighbor_sets(g)
        assert g.max_degree == max(len(a) for a in neighbors.values()), g
        isolated += len(neighbors) < g.vertex_count
    assert 100 < isolated < 300
    assert Graph(5).max_degree == 0


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_unchecked_graph_equals_the_checked_one(g):
    checked = Graph(g.vertex_count, g.edges)
    unchecked = _canonical_graph(g.vertex_count, g.edges)
    assert unchecked == checked
    assert hash(unchecked) == hash(checked)
    assert unchecked.edges is g.edges


@pytest.mark.parametrize("m", range(1, 21))
def test_complete_graph_equals_its_checked_twin(m):
    twin = Graph(m, frozenset(combinations(range(1, m + 1), 2)))
    assert complete_graph(m) == twin
    assert hash(complete_graph(m)) == hash(twin)


def test_a_graph_keeps_only_its_fields():
    # A graph is its vertex count and edge set; of what the library
    # derives from them, it keeps only max_degree.  The 6-cycle is
    # triangle-free, so is_triangle_free walks every edge.
    g = parse_graph("p 6 6\ne 1 2\ne 1 6\ne 2 3\ne 3 4\ne 4 5\ne 5 6\n")
    assert emit_graph(g) == "p 6 6\ne 1 2\ne 1 6\ne 2 3\ne 3 4\ne 4 5\ne 5 6\n"
    assert is_triangle_free(g)
    assert bounds_for_graph(g).best_upper is not None
    found = find_interval_coloring(g, SearchConfig(3, 0))
    assert found.coloring is not None
    assert compute_max_span(g, 10**9).complete
    assert verify_interval(g, found.coloring).verdict
    assert set(vars(g)) <= {"vertex_count", "edges", "max_degree"}
