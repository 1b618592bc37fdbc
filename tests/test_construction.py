from itertools import combinations

import pytest

from conftest import (
    bound,
    case_color,
    classifier_twin,
    classify_edge,
    palettes,
    round_robin,
)
from intervalcoloring import (
    CASE_COUNT,
    bounds_for_k2n,
    case_statistics,
    complete_graph,
    construct,
    verify_interval,
)
from intervalcoloring.construction import _runs

# Hand-evaluated clause table at n=3 (all 15 edges of K_6): left region
# (j <= 3) splits on i+j vs 4/5, the cross region on j-i vs 1/2/3, and
# all right-region pairs have i+j >= 9 = 3n, so clause 7 stays empty.
CONSTRUCT_3 = {
    (1, 2): 1, (1, 3): 2, (2, 3): 5,
    (1, 4): 3, (1, 5): 4, (1, 6): 5,
    (2, 4): 2, (2, 5): 3, (2, 6): 4,
    (3, 4): 4, (3, 5): 6, (3, 6): 3,
    (4, 5): 5, (4, 6): 6, (5, 6): 7,
}


@pytest.mark.parametrize(
    "n,i,j,case",
    [
        (4, 1, 2, 1),
        (4, 2, 5, 5),
        (2, 3, 4, 8),
        (4, 3, 6, 6),
        (4, 5, 6, 7),
        (4, 5, 8, 8),
        (4, 3, 4, 2),
        (4, 1, 5, 4),
        (4, 2, 4, 2),
        (4, 4, 5, 3),
        (4, 7, 8, 8),
        (1, 1, 2, 4),
    ],
)
def test_classify_edge_cases(n, i, j, case):
    assert classify_edge(n, i, j) == case


def test_classify_edge_rejects_bad_pairs():
    with pytest.raises(ValueError):
        classify_edge(2, 2, 2)
    with pytest.raises(ValueError):
        classify_edge(2, 3, 2)
    with pytest.raises(ValueError):
        classify_edge(2, 1, 5)
    with pytest.raises(ValueError):
        classify_edge(0, 1, 2)


def test_case_color_formulas():
    assert case_color(4, 1, 2, 1) == 1
    assert case_color(4, 3, 4, 2) == 8
    assert case_color(4, 4, 5, 3) == 5
    assert case_color(4, 1, 5, 4) == 4
    assert case_color(4, 2, 5, 5) == 2
    assert case_color(4, 3, 6, 6) == 7
    assert case_color(4, 5, 6, 7) == 3
    assert case_color(4, 7, 8, 8) == 10
    with pytest.raises(ValueError):
        case_color(4, 1, 2, 9)


def test_construct_n1():
    c = construct(1)
    assert dict(c.assignment) == {(1, 2): 1}
    assert c.span_t == 1


def test_construct_n2_exact():
    c = construct(2)
    assert dict(c.assignment) == {
        (1, 2): 1, (1, 3): 2, (1, 4): 3, (2, 3): 3, (2, 4): 2, (3, 4): 4
    }
    assert c.span_t == 4


def test_construct_n3_exact():
    c = construct(3)
    assert dict(c.assignment) == CONSTRUCT_3
    assert c.span_t == 7
    assert set(c.assignment.values()) == set(range(1, 8))


def test_construct_rejects_zero():
    with pytest.raises(ValueError):
        construct(0)
    with pytest.raises(ValueError):
        round_robin(0)


@pytest.mark.parametrize("n", list(range(1, 41)) + [64, 100])
def test_partition_every_pair_matches_exactly_one_case(n):
    # classify_edge raises PartitionError on zero or multiple matches
    for i, j in combinations(range(1, 2 * n + 1), 2):
        classify_edge(n, i, j)


@pytest.mark.parametrize("n", list(range(1, 41)) + [64, 100])
def test_construct_agrees_with_classifier(n):
    c = construct(n)
    for (i, j), color in c.assignment.items():
        assert color == case_color(n, i, j, classify_edge(n, i, j))
    for case, i, lo, hi, shift in _runs(n):
        for j in range(lo, hi):
            assert classify_edge(n, i, j) == case, (i, j)
            assert case_color(n, i, j, case) == j + shift, (i, j)


def test_runs_tile_every_row():
    for n in range(1, 201):
        rows: dict[int, list[tuple[int, int]]] = {}
        for _, i, lo, hi, _ in _runs(n):
            rows.setdefault(i, []).append((lo, hi))
        assert list(rows) == list(range(1, 2 * n)), n
        for i, spans in rows.items():
            assert len(spans) <= 5 and all(lo < hi for lo, hi in spans), (n, i)
            ends = [i + 1] + [hi for _, hi in spans]
            assert [lo for lo, _ in spans] == ends[:-1] and ends[-1] == 2 * n + 1, (n, i)
        assert sum(hi - lo for spans in rows.values() for lo, hi in spans) == n * (2 * n - 1)


@pytest.mark.parametrize("n", range(1, 33))
def test_construct_verifies_with_exact_span(n):
    g = complete_graph(2 * n)
    c = construct(n)
    assert c.span_t == 3 * n - 2 == bound(bounds_for_k2n(n), "construction")
    assert verify_interval(g, c).verdict
    assert set(c.assignment.values()) == set(range(1, 3 * n - 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16])
def test_case_colors_stay_in_range_and_hit_max(n):
    for i, j in combinations(range(1, 2 * n + 1), 2):
        color = case_color(n, i, j, classify_edge(n, i, j))
        assert 1 <= color <= 3 * n - 2
    top = (2 * n - 1, 2 * n)
    assert classify_edge(n, *top) == (8 if n > 1 else 4)
    assert construct(n).assignment[top] == (3 * n - 2 if n > 1 else 1)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 20])
def test_constructed_palettes_are_regular(n):
    g = complete_graph(2 * n)
    c = construct(n)
    colors = palettes(c)
    assert set(colors) == set(range(1, 2 * n + 1))
    assert all(len(colors[x]) == len(g.adjacency[x]) == 2 * n - 1 for x in colors)


def test_construct_is_deterministic():
    assert construct(6) == construct(6)
    assert round_robin(6) == round_robin(6)


def test_round_robin_n1():
    c = round_robin(1)
    assert dict(c.assignment) == {(1, 2): 1}


def test_round_robin_color_classes_are_perfect_matchings():
    c = round_robin(2)
    assert c.span_t == 3
    classes: dict[int, list] = {}
    for e, color in c.assignment.items():
        classes.setdefault(color, []).append(e)
    assert set(classes) == {1, 2, 3}
    for edges in classes.values():
        seen = [x for e in edges for x in e]
        assert sorted(seen) == [1, 2, 3, 4]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 25])
def test_round_robin_verifies_and_palettes_are_full(n):
    g = complete_graph(2 * n)
    c = round_robin(n)
    assert c.span_t == 2 * n - 1
    assert verify_interval(g, c).verdict
    full = tuple(range(1, 2 * n))
    assert palettes(c) == {x: full for x in range(1, 2 * n + 1)}


def test_case_statistics_cover_all_edges():
    for n in (1, 2, 3, 4, 9):
        stats = case_statistics(n)
        assert len(stats) == CASE_COUNT
        assert sum(s.edge_count for s in stats) == n * (2 * n - 1)
        for s in stats:
            if s.edge_count == 0:
                assert s.min_color is None and s.max_color is None
            else:
                assert 1 <= s.min_color <= s.max_color <= 3 * n - 2
    with pytest.raises(ValueError, match="n must be >= 1"):
        case_statistics(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13, 30])
def test_case_statistics_match_the_classifier(n):
    colors: dict[int, list[int]] = {case: [] for case in range(1, CASE_COUNT + 1)}
    for i, j in combinations(range(1, 2 * n + 1), 2):
        case = classify_edge(n, i, j)
        colors[case].append(case_color(n, i, j, case))
    expected = [
        (case, len(c), min(c, default=None), max(c, default=None))
        for case, c in colors.items()
    ]
    stats = case_statistics(n)
    assert [(s.case, s.edge_count, s.min_color, s.max_color) for s in stats] == expected


def test_empty_cases_at_small_n():
    # clause 7 needs i in [n+1, n + n//2 - 1], empty until n >= 4
    stats = {s.case: s.edge_count for s in case_statistics(2)}
    assert stats[7] == 0
    assert stats[2] == 0 and stats[3] == 0 and stats[5] == 0


@pytest.mark.parametrize("n", range(1, 21))
def test_construct_equals_its_checked_twin(n):
    assert construct(n) == classifier_twin(n)
