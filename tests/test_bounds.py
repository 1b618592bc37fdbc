import math

import pytest

from conftest import bound
from intervalcoloring import graph as graph_module
from intervalcoloring import (
    Graph,
    bounds_for_graph,
    bounds_for_k2n,
    complete_graph,
    construct,
    graph_from_edges,
    parse_graph,
    span_cap,
)


@pytest.mark.parametrize("n,value", [(1, 1), (4, 10), (10, 28)])
def test_construction_lower_bound(n, value):
    assert bound(bounds_for_k2n(n), "construction") == value


@pytest.mark.parametrize("n,value", [(1, 1), (3, 7), (4, 9)])
def test_log_lower_bound(n, value):
    assert bound(bounds_for_k2n(n), "log2") == value


def test_log_lower_bound_exact_near_powers_of_two():
    # floor(log2) via bit_length: 2n-1 is odd, so probe both odd
    # neighbors of 2**exp, where float log2 would be least trustworthy
    for exp in range(2, 60):
        n = 2 ** (exp - 1) + 1  # 2n-1 == 2**exp + 1
        assert bound(bounds_for_k2n(n), "log2") == 2 * n - 1 + exp
        n = 2 ** (exp - 1)  # 2n-1 == 2**exp - 1
        assert bound(bounds_for_k2n(n), "log2") == 2 * n - 1 + exp - 1


def test_lower_bounds_reject_zero():
    with pytest.raises(ValueError, match="n must be >= 1"):
        bounds_for_k2n(0)


@pytest.mark.parametrize("m,value", [(4, 5), (2, 1), (6, 9)])
def test_general_upper_bound(m, value):
    assert bound(bounds_for_graph(complete_graph(m)), "general") == value


def test_general_upper_bound_needs_an_edge():
    for g in (complete_graph(1), graph_from_edges(3, [])):
        general = next(e for e in bounds_for_graph(g).upper if e.name == "general")
        assert (general.applicable, general.value) == (False, None)
        assert general.reason == "requires at least one edge"


@pytest.mark.parametrize("m,value", [(4, 4), (6, 8), (8, 12)])
def test_refined_upper_bound(m, value):
    assert bound(bounds_for_graph(complete_graph(m)), "refined") == value


def test_refined_upper_bound_needs_three_vertices():
    report = bounds_for_graph(complete_graph(2))
    refined = next(e for e in report.upper if e.name == "refined")
    assert (refined.applicable, refined.value) == (False, None)
    assert refined.reason == "requires |V| >= 3"


def test_triangle_free_upper_bound():
    four_cycle = graph_from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert bound(bounds_for_graph(four_cycle), "triangle-free") == 3
    assert bound(bounds_for_graph(complete_graph(4)), "triangle-free") is None
    assert bound(bounds_for_graph(complete_graph(2)), "triangle-free") == 1


def test_lower_bounds_coincide_only_up_to_n3():
    for n in (1, 2, 3):
        assert bound(bounds_for_k2n(n), "construction") == bound(bounds_for_k2n(n), "log2")
    for n in range(4, 257):
        assert bound(bounds_for_k2n(n), "construction") > bound(bounds_for_k2n(n), "log2")


def test_lower_bound_below_upper_bounds():
    assert bound(bounds_for_k2n(1), "construction") <= bound(bounds_for_k2n(1), "general")
    for n in range(2, 257):
        report = bounds_for_k2n(n)
        assert bound(report, "construction") <= bound(report, "refined")


@pytest.mark.parametrize("n", [1, 2, 3, 8, 21])
def test_construct_span_matches_lower_bound(n):
    assert construct(n).span_t == bound(bounds_for_k2n(n), "construction")


def test_bounds_report_k4():
    report = bounds_for_k2n(2)
    assert report.label == "K_4"
    assert report.best_lower == 4
    assert report.best_upper == 4


def test_bounds_report_k6():
    report = bounds_for_k2n(3)
    values = {(e.name): e.value for e in report.lower + report.upper}
    assert values["construction"] == 7
    assert values["log2"] == 7
    assert values["refined"] == 8
    assert values["general"] == 9
    assert report.best_lower == 7
    assert report.best_upper == 8


def test_bounds_report_k2():
    report = bounds_for_k2n(1)
    assert report.best_lower == 1
    assert report.best_upper == 1
    refined = next(e for e in report.upper if e.name == "refined")
    assert not refined.applicable and refined.value is None and refined.reason
    triangle = next(e for e in report.upper if e.name == "triangle-free")
    assert triangle.applicable and triangle.value == 1


@pytest.mark.parametrize("n", range(1, 65))
def test_applicable_lower_bounds_never_exceed_uppers(n):
    report = bounds_for_k2n(n)
    assert report.best_lower is not None and report.best_upper is not None
    assert report.best_lower <= report.best_upper


def test_bounds_for_graph_detects_even_complete():
    report = bounds_for_graph(complete_graph(6))
    assert report.label == "K_6"
    assert report.best_lower == 7

    path = graph_from_edges(3, [(1, 2), (2, 3)])
    report = bounds_for_graph(path)
    assert report.best_lower is None
    assert all(not e.applicable for e in report.lower)
    values = {e.name: e.value for e in report.upper if e.applicable}
    assert values == {"refined": 2, "general": 3, "triangle-free": 2}


def test_bounds_for_graph_edgeless():
    report = bounds_for_graph(graph_from_edges(4, []))
    general = next(e for e in report.upper if e.name == "general")
    assert not general.applicable
    assert report.best_upper == 3  # triangle-free |V|-1 and refined 2|V|-4


def test_k2n_closed_form_matches_graph_path():
    for n in range(1, 65):
        assert bounds_for_k2n(n) == bounds_for_graph(complete_graph(2 * n)), n


@pytest.mark.parametrize("n", [1, 2, 3, 500])
def test_bounds_for_k2n_builds_no_graph(monkeypatch, n):
    def no_graph(self):
        raise AssertionError("bounds_for_k2n built a Graph")

    monkeypatch.setattr(Graph, "__post_init__", no_graph)
    report = bounds_for_k2n(n)
    entries = report.lower + report.upper
    assert report.label == f"K_{2 * n}"
    assert [(e.name, e.value) for e in entries] == [
        ("construction", 3 * n - 2),
        ("log2", 2 * n - 1 + int(math.log2(2 * n - 1))),
        ("refined", 4 * n - 4 if n > 1 else None),
        ("general", 4 * n - 3),
        ("triangle-free", 1 if n == 1 else None),
    ]
    assert all(e.applicable == (e.value is not None) for e in entries)


@pytest.mark.parametrize("n", [1, 2, 500])
def test_bounds_for_k2n_builds_no_graph_unchecked_either(monkeypatch, n):
    # complete_graph and the parsers build graphs without Graph.__post_init__.
    def no_graph(*args):
        raise AssertionError("bounds_for_k2n built a Graph")

    monkeypatch.setattr(Graph, "__post_init__", no_graph)
    monkeypatch.setattr(graph_module, "_canonical_graph", no_graph)
    with pytest.raises(AssertionError):
        complete_graph(2)
    assert bounds_for_k2n(n).best_lower == 3 * n - 2


def test_bounds_for_graph_work_is_not_sized_by_the_header():
    g = parse_graph("p 1000000 1\ne 1 2\n")
    report = bounds_for_graph(g)
    values = {e.name: e.value for e in report.upper}
    assert values == {"refined": 1999996, "general": 1999997, "triangle-free": 999999}
    assert report.best_lower is None


@pytest.mark.parametrize("m", range(1, 8))
def test_span_cap_is_the_reports_refined_and_general_bounds(m):
    # Edgeless, one edge, a path and complete on m vertices; t_cap runs
    # from below every bound to above them all.
    shapes = [graph_from_edges(m, []), complete_graph(m)]
    if m >= 2:
        path = [(i, i + 1) for i in range(1, m)]
        shapes += [graph_from_edges(m, [(1, 2)]), graph_from_edges(m, path)]
    for g in shapes:
        report = bounds_for_graph(g)
        caps = [bound(report, name) for name in ("refined", "general")]
        for t in range(1, 2 * m + 2):
            assert span_cap(g, t) == min([t, *(c for c in caps if c is not None)]), (g, t)
