import tracemalloc

import pytest
from hypothesis import given, settings

from conftest import colored_graphs, neighbor_sets, palettes, reflect, round_robin
from intervalcoloring import (
    EdgeColoring,
    Graph,
    Violation,
    ViolationKind,
    complete_graph,
    construct,
    graph_from_edges,
    verify_interval,
)
from intervalcoloring.coloring import _check_palettes

# Frozen by hand-evaluating the eight clauses at n=2: region checks give
# cases 1, 4, 4, 6, 4, 8 for the six edges in lexicographic order.
CONSTRUCT_2 = {(1, 2): 1, (1, 3): 2, (1, 4): 3, (2, 3): 3, (2, 4): 2, (3, 4): 4}


def test_edge_coloring_validation():
    with pytest.raises(ValueError):
        EdgeColoring({(1, 2): 1}, span_t=0)
    with pytest.raises(ValueError):
        EdgeColoring({(2, 1): 1}, span_t=1)
    with pytest.raises(ValueError):
        EdgeColoring({(1, 2): 0}, span_t=1)


def test_edge_coloring_is_immutable_and_comparable():
    c = EdgeColoring({(1, 2): 1}, span_t=1)
    with pytest.raises(TypeError):
        c.assignment[(1, 2)] = 2
    assert c == EdgeColoring({(1, 2): 1}, span_t=1)
    assert c != EdgeColoring({(1, 2): 1}, span_t=2)
    assert c != {(1, 2): 1}
    assert c.assignment[(1, 2)] == 1
    assert len(c) == 1 and len(construct(2)) == 6


def test_verify_constructed_k4():
    g = complete_graph(4)
    c = construct(2)
    assert dict(c.assignment) == CONSTRUCT_2
    report = verify_interval(g, c)
    assert report.verdict and not report.violations
    expected = {1: (1, 2, 3), 2: (1, 2, 3), 3: (2, 3, 4), 4: (2, 3, 4)}
    assert palettes(c) == expected


def test_verify_all_edges_same_color():
    g = complete_graph(4)
    c = EdgeColoring({e: 1 for e in g.edges}, span_t=1)
    report = verify_interval(g, c)
    assert not report.verdict
    not_proper = {v.vertex for v in report.violations if v.kind is ViolationKind.NOT_PROPER}
    assert not_proper == {1, 2, 3, 4}


def test_verify_unused_color():
    g = complete_graph(2)
    c = EdgeColoring({(1, 2): 2}, span_t=2)
    report = verify_interval(g, c)
    assert not report.verdict
    assert [(v.kind, v.color) for v in report.violations] == [
        (ViolationKind.COLOR_UNUSED, 1)
    ]


def test_verify_uncolored_edge():
    g = complete_graph(3)
    c = EdgeColoring({(1, 2): 1, (1, 3): 2}, span_t=3)
    report = verify_interval(g, c)
    kinds = {v.kind for v in report.violations}
    assert ViolationKind.EDGE_UNCOLORED in kinds
    uncolored = [v for v in report.violations if v.kind is ViolationKind.EDGE_UNCOLORED]
    assert uncolored[0].edge == (2, 3)


def test_verify_unknown_edge():
    # A colored pair that is not an edge of g fails the coloring.
    report = verify_interval(complete_graph(2), EdgeColoring({(1, 2): 1, (3, 9): 1}, 1))
    assert not bool(report)
    assert report.violations == (Violation(ViolationKind.EDGE_UNKNOWN, edge=(3, 9)),)
    # Unknown pairs come right after the uncolored edges, sorted, and count
    # toward no palette and no color use: color 3 sits only on (2, 5).
    c = EdgeColoring({(1, 2): 1, (1, 3): 2, (4, 6): 1, (2, 5): 3}, span_t=3)
    assert [str(v) for v in verify_interval(complete_graph(3), c).violations] == [
        "edge-uncolored at edge (2, 3)",
        "edge-unknown at edge (2, 5)",
        "edge-unknown at edge (4, 6)",
        "color-unused at color 3",
    ]


def test_verify_color_out_of_range():
    g = complete_graph(2)
    c = EdgeColoring({(1, 2): 7}, span_t=4)
    report = verify_interval(g, c)
    kinds = [v.kind for v in report.violations]
    assert ViolationKind.COLOR_OUT_OF_RANGE in kinds


def test_verify_reports_every_finding_in_order():
    # Vertex 1 sees {1, 3} but has the uncolored edge (1, 3), so its gap is
    # not reported; vertex 2 sees {1, 5}, 5 being one above the span.
    g = graph_from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3)])
    c = EdgeColoring({(1, 2): 1, (1, 4): 3, (2, 3): 5, (3, 4): 2}, span_t=4)
    assert [str(v) for v in verify_interval(g, c).violations] == [
        "edge-uncolored at edge (1, 3)",
        "edge-unknown at edge (3, 4)",
        "color-out-of-range at edge (2, 3), color 5",
        "not-consecutive at vertex 2",
        "color-unused at color 2",
        "color-unused at color 4",
    ]


def test_verify_gap_palette():
    # path 1-2-3 colored 1, 3: vertex 2 sees {1, 3}, a gap
    g = graph_from_edges(3, [(1, 2), (2, 3)])
    c = EdgeColoring({(1, 2): 1, (2, 3): 3}, span_t=3)
    report = verify_interval(g, c)
    gaps = [v.vertex for v in report.violations if v.kind is ViolationKind.NOT_CONSECUTIVE]
    assert gaps == [2]


def test_violation_renders_its_location():
    # A violation names its vertex, its edge, its color, or an edge and a color.
    cases = [
        (Violation(ViolationKind.NOT_PROPER, vertex=3), "not-proper at vertex 3"),
        (Violation(ViolationKind.NOT_CONSECUTIVE, vertex=12), "not-consecutive at vertex 12"),
        (Violation(ViolationKind.COLOR_UNUSED, color=2), "color-unused at color 2"),
        (Violation(ViolationKind.COLOR_OUT_OF_RANGE, edge=(1, 4), color=9),
         "color-out-of-range at edge (1, 4), color 9"),
        (Violation(ViolationKind.EDGE_UNCOLORED, edge=(2, 5)), "edge-uncolored at edge (2, 5)"),
        (Violation(ViolationKind.EDGE_UNKNOWN, edge=(3, 9)), "edge-unknown at edge (3, 9)"),
    ]
    assert {v.kind for v, _ in cases} == set(ViolationKind)
    for violation, text in cases:
        assert str(violation) == text


def test_verify_ignores_degree_zero_vertices():
    g = graph_from_edges(3, [(1, 2)])
    c = EdgeColoring({(1, 2): 1}, span_t=1)
    assert verify_interval(g, c).verdict


def test_verify_work_is_not_sized_by_the_header():
    # One case per violation kind, with isolated vertices and an uncolored
    # edge, each under a header that names 10**6 vertices.
    big = 10**6
    k4, path = complete_graph(4), graph_from_edges(big, [(2, 5), (5, 7), (7, 8)])
    cases = [
        (Graph(big, complete_graph(6).edges), construct(3)),
        (Graph(big, k4.edges), EdgeColoring({e: 1 for e in k4.edges}, span_t=1)),
        (path, EdgeColoring({(1, 2): 2, (2, 5): 1, (5, 7): 3}, span_t=4)),
        (
            graph_from_edges(big, [(1, 2), (1, 3)]),
            EdgeColoring({(1, 2): 1, (1, 3): 9}, span_t=3),
        ),
        (graph_from_edges(big, [(1, 2)]), EdgeColoring({(1, 2): 1}, span_t=1)),
    ]
    tracemalloc.start()
    try:
        reports = [verify_interval(g, c) for g, c in cases]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.verdict for r in reports] == [True, False, False, False, True]
    assert {v.kind for r in reports for v in r.violations} == set(ViolationKind)
    assert peak < 1 << 20


def test_unused_color_runs_are_not_sized_by_the_span():
    tracemalloc.start()
    try:
        assert _check_palettes({1: [1], 2: [1]}, {1}, 10**9, ()) == ([], [(2, 10**9)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _matching(colors):
    """Edges (1, 2), (3, 4), ... with the given colors, in that order."""
    return {(2 * i + 1, 2 * i + 2): c for i, c in enumerate(colors)}


@pytest.mark.parametrize(
    "assignment, span, graph_edges, runs",
    [
        pytest.param(_matching([2]), 2, None, [(1, 1)], id="color-1-unused"),
        pytest.param(_matching([2, 5, 9]), 10, None, [(1, 1), (3, 4), (6, 8), (10, 10)],
                     id="inner-gaps"),
        pytest.param(_matching([1, 2]), 5, None, [(3, 5)], id="run-at-the-top"),
        pytest.param(_matching([3, 1, 2]), 3, None, [], id="no-gap"),
        pytest.param(_matching([1, 1, 3]), 4, None, [(2, 2), (4, 4)], id="repeated-colors"),
        pytest.param(_matching([1, 7, 9]), 3, None, [(2, 3)], id="colors-above-span-ignored"),
        pytest.param(_matching([1, 2, 3]), 3, [(1, 2), (3, 4)], [(3, 3)],
                     id="edge-unknown-colors-unused"),
    ],
)
def test_unused_color_runs(assignment, span, graph_edges, runs):
    g = graph_from_edges(6, assignment if graph_edges is None else graph_edges)
    c = EdgeColoring(assignment, span)
    # Only the colors on edges of the graph are in use.
    used = [color for e, color in assignment.items() if e in g.edges]
    assert _check_palettes({}, used, span, ())[1] == runs
    # verify_interval lists the same colors, one violation each, last.
    violations = verify_interval(g, c).violations
    tail = tuple(
        Violation(ViolationKind.COLOR_UNUSED, color=x) for lo, hi in runs for x in range(lo, hi + 1)
    )
    found = violations[: len(violations) - len(tail)]
    assert violations == found + tail
    assert ViolationKind.COLOR_UNUSED not in {v.kind for v in found}


@settings(max_examples=120, deadline=None)
@given(colored_graphs())
def test_unused_color_runs_match_the_definition(gc):
    g, c = gc
    _, unused = _check_palettes({}, c.assignment.values(), c.span_t, ())
    colors = [x for lo, hi in unused for x in range(lo, hi + 1)]
    assert colors == sorted(set(range(1, c.span_t + 1)) - set(c.assignment.values()))
    assert all(hi + 1 < lo for (_, hi), (lo, _) in zip(unused, unused[1:]))
    violations = verify_interval(g, c).violations
    tail = [v.color for v in violations if v.kind is ViolationKind.COLOR_UNUSED]
    assert tail == colors
    assert violations[len(violations) - len(tail) :] == tuple(
        Violation(ViolationKind.COLOR_UNUSED, color=x) for x in colors
    )


def test_duplicate_color_flips_verdict():
    g = complete_graph(4)
    base = dict(construct(2).assignment)
    base[(3, 4)] = base[(2, 4)]  # clash at vertex 4
    report = verify_interval(g, EdgeColoring(base, span_t=4))
    assert not report.verdict
    assert any(
        v.kind is ViolationKind.NOT_PROPER and v.vertex == 4 for v in report.violations
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_passing_palettes_span_equals_degree(n):
    g = complete_graph(2 * n)
    c = construct(n)
    assert verify_interval(g, c).verdict
    at = palettes(c)
    neighbors = neighbor_sets(g)
    assert set(at) == set(neighbors)
    for x, colors in at.items():
        assert colors[-1] - colors[0] + 1 == len(neighbors[x]) == len(colors)


@pytest.mark.parametrize("make", [construct, round_robin])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_reflection_preserves_passing_verdict(make, n):
    g = complete_graph(2 * n)
    c = make(n)
    assert verify_interval(g, reflect(c)).verdict


@settings(max_examples=120, deadline=None)
@given(colored_graphs())
def test_reflection_preserves_any_verdict(gc):
    g, c = gc
    assert verify_interval(g, reflect(c)).verdict == verify_interval(g, c).verdict


@settings(max_examples=120, deadline=None)
@given(colored_graphs())
def test_verdict_matches_reported_violations(gc):
    g, c = gc
    report = verify_interval(g, c)
    assert report.verdict == (len(report.violations) == 0)


def _independent_interval_check(g, coloring):
    """The definition restated from scratch, for total in-range colorings."""
    incident = {x: [] for x in range(1, g.vertex_count + 1)}
    for (u, v), c in coloring.assignment.items():
        incident[u].append(c)
        incident[v].append(c)
    used = set()
    for colors in incident.values():
        if len(set(colors)) != len(colors):
            return False
        if colors and max(colors) - min(colors) + 1 != len(colors):
            return False
        used.update(colors)
    return used == set(range(1, coloring.span_t + 1))


@settings(max_examples=200, deadline=None)
@given(colored_graphs())
def test_verdict_matches_independent_definition(gc):
    g, c = gc
    assert verify_interval(g, c).verdict == _independent_interval_check(g, c)
