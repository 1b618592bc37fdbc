import pytest

from intervalcoloring import Graph, complete_graph, graph_from_edges, is_triangle_free


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
    assert all(g.degree(x) == m - 1 for x in g.vertices())


def test_degree_in_k6():
    assert complete_graph(6).degree(3) == 5


def test_degree_single_edge():
    g = Graph(2, frozenset({(1, 2)}))
    assert g.degree(1) == 1
    assert g.degree(2) == 1


def test_degree_of_isolated_vertex_is_zero():
    g = Graph(4, frozenset({(1, 2)}))
    assert g.degree(3) == g.degree(4) == 0
    assert g.max_degree == 1


def test_degree_rejects_out_of_range_vertex():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        g.degree(0)
    with pytest.raises(ValueError):
        g.degree(4)


def test_edges_normalized_to_min_max():
    g = graph_from_edges(4, [(3, 1), (4, 2)])
    assert g.edges == frozenset({(1, 3), (2, 4)})
    assert all(i < j for i, j in g.edges)
    assert g.has_edge(3, 1) and g.has_edge(1, 3)
    assert not g.has_edge(1, 2)


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


def test_incident_edges_and_adjacency():
    g = graph_from_edges(4, [(1, 2), (1, 3), (2, 4)])
    assert g.incident_edges(1) == [(1, 2), (1, 3)]
    assert g.adjacency[2] == frozenset({1, 4})
    assert g.max_degree == 2
