"""Exact backtracking search for interval edge colorings.

`find_interval_coloring` decides, for a fixed span t, whether a graph
admits an interval t-coloring.  Edges are colored one at a time in
lexicographic (i, j) order; every prune is a necessary condition, so an
exhausted search is a proof of nonexistence:

* properness  -- a color may not repeat at a vertex;
* gap filling -- at each endpoint, the holes inside the current
  [min, max] color range must be coverable by the still-uncolored
  incident edges (each contributes exactly one new color).  When the
  last incident edge is placed this forces the palette to be a
  consecutive block of exactly degree colors, and it subsumes the
  weaker "range span <= degree" check;
* color usage -- colors still unused must not outnumber the edges still
  uncolored (at completion this forces every color 1..t onto an edge);
* reflection symmetry breaking -- valid colorings map onto valid
  colorings under c -> t+1-c, so the first edge only tries the lower
  half of the palette.

`compute_max_span` probes spans downward from `span_cap` (the refined
and general upper bounds) to find the largest feasible one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .bounds import _GENERAL, _REFINED, _graph_invariants
from .coloring import EdgeColoring
from .graph import Graph

# Two orders of magnitude above the ~5.7e4 nodes a full K_6 span-8
# exhaustion takes, so stock settings settle every desk-scale workload.
DEFAULT_NODE_BUDGET = 5_000_000


class SearchStatus(Enum):
    FOUND = "found"
    EXHAUSTED_NO_SOLUTION = "exhausted-no-solution"
    BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class SearchConfig:
    """Span target plus node budget.

    node_budget counts edge placements; 0 means unlimited.
    """

    t: int
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t}")
        if self.node_budget < 0:
            raise ValueError(f"node_budget must be >= 0, got {self.node_budget}")


@dataclass(frozen=True)
class SearchOutcome:
    status: SearchStatus
    coloring: EdgeColoring | None
    nodes_explored: int

    @property
    def found(self) -> bool:
        return self.status is SearchStatus.FOUND


def find_interval_coloring(g: Graph, cfg: SearchConfig) -> SearchOutcome:
    """Decide whether g admits an interval coloring with span exactly cfg.t.

    FOUND outcomes carry a witness coloring (it verifies by
    construction of the prunes).  EXHAUSTED_NO_SOLUTION means the full
    tree was searched: no interval t-coloring exists.  BUDGET_EXCEEDED
    means the node budget ran out first and proves nothing.  Identical
    inputs give identical outcomes and node counts.
    """
    t = cfg.t
    edges = g.sorted_edges
    num_edges = len(edges)
    # Degree and color-count prerequisites; both are necessary conditions.
    if t < g.max_degree or num_edges < t:
        return SearchOutcome(SearchStatus.EXHAUSTED_NO_SOLUTION, None, 0)

    budget = cfg.node_budget
    size = g.vertex_count + 1
    used = [0] * size  # per-vertex bitmask of incident colors
    mn = [0] * size
    mx = [0] * size
    cnt = [0] * size
    rem = [0] * size
    for x in g.vertices():
        rem[x] = g.degree(x)
    use_cnt = [0] * (t + 1)
    unused = t

    placed = [0] * num_edges
    saved = [(0, 0, 0, 0)] * num_edges
    nodes = 0
    depth = 0
    start_color = 1

    while True:
        u, v = edges[depth]
        cnt_u = cnt[u]
        cnt_v = cnt[v]
        lo = start_color
        hi = (t + 1) // 2 if depth == 0 else t
        # Window outside which the gap-filling prune must fail.
        if cnt_u:
            lo = max(lo, mx[u] - (cnt_u + rem[u]) + 1)
            hi = min(hi, mn[u] + (cnt_u + rem[u]) - 1)
        if cnt_v:
            lo = max(lo, mx[v] - (cnt_v + rem[v]) + 1)
            hi = min(hi, mn[v] + (cnt_v + rem[v]) - 1)

        edges_left = num_edges - depth
        used_uv = used[u] | used[v]
        chosen = 0
        for c in range(lo, hi + 1):
            if used_uv >> c & 1:
                continue
            if unused + (use_cnt[c] > 0) > edges_left:
                continue
            if cnt_u:
                new_mn = mn[u] if mn[u] < c else c
                new_mx = mx[u] if mx[u] > c else c
                if new_mx - new_mn - cnt_u > rem[u] - 1:
                    continue
            if cnt_v:
                new_mn = mn[v] if mn[v] < c else c
                new_mx = mx[v] if mx[v] > c else c
                if new_mx - new_mn - cnt_v > rem[v] - 1:
                    continue
            chosen = c
            break

        if chosen:
            if budget and nodes == budget:
                return SearchOutcome(SearchStatus.BUDGET_EXCEEDED, None, nodes)
            nodes += 1
            saved[depth] = (mn[u], mx[u], mn[v], mx[v])
            placed[depth] = chosen
            bit = 1 << chosen
            used[u] |= bit
            used[v] |= bit
            if cnt_u:
                if chosen < mn[u]:
                    mn[u] = chosen
                elif chosen > mx[u]:
                    mx[u] = chosen
            else:
                mn[u] = mx[u] = chosen
            if cnt_v:
                if chosen < mn[v]:
                    mn[v] = chosen
                elif chosen > mx[v]:
                    mx[v] = chosen
            else:
                mn[v] = mx[v] = chosen
            cnt[u] = cnt_u + 1
            cnt[v] = cnt_v + 1
            rem[u] -= 1
            rem[v] -= 1
            if use_cnt[chosen] == 0:
                unused -= 1
            use_cnt[chosen] += 1
            depth += 1
            if depth == num_edges:
                witness = EdgeColoring(dict(zip(edges, placed)), span_t=t)
                return SearchOutcome(SearchStatus.FOUND, witness, nodes)
            start_color = 1
        else:
            if depth == 0:
                return SearchOutcome(SearchStatus.EXHAUSTED_NO_SOLUTION, None, nodes)
            depth -= 1
            u, v = edges[depth]
            c = placed[depth]
            bit = 1 << c
            used[u] &= ~bit
            used[v] &= ~bit
            mn[u], mx[u], mn[v], mx[v] = saved[depth]
            cnt[u] -= 1
            cnt[v] -= 1
            rem[u] += 1
            rem[v] += 1
            use_cnt[c] -= 1
            if use_cnt[c] == 0:
                unused += 1
            start_color = c + 1


@dataclass(frozen=True)
class ProbeRecord:
    t: int
    status: SearchStatus
    nodes_explored: int


@dataclass(frozen=True)
class MaxSpanResult:
    """Outcome of the downward sweep for the largest feasible span.

    max_span is 0 when no feasible span <= the cap was found.  complete
    is True only when every span above max_span (up to the cap) was
    exhausted, never abandoned on budget: a budget gap is reported, not
    converted into a claim.
    """

    max_span: int
    complete: bool
    witness: EdgeColoring | None
    probes: tuple[ProbeRecord, ...] = field(default=())


def span_cap(g: Graph, t_cap: int) -> int:
    """t_cap tightened by the refined and general bounds, not the triangle-free one."""
    inv = _graph_invariants(g)
    return min([t_cap, *(b.value(inv) for b in (_REFINED, _GENERAL) if b.applies(inv))])


def compute_max_span(
    g: Graph,
    t_cap: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> MaxSpanResult:
    """Largest t <= t_cap for which g has an interval t-coloring.

    Spans are probed downward from the tightened cap to the maximum
    degree (smaller spans cannot be proper).  Each probe gets
    node_budget nodes.
    """
    if t_cap < 1:
        raise ValueError(f"t_cap must be >= 1, got {t_cap}")
    if g.edge_count == 0:
        # No edge can realize color 1, so no span is feasible.
        return MaxSpanResult(0, True, None, ())
    probes: list[ProbeRecord] = []
    budget_gap = False
    floor_t = max(g.max_degree, 1)
    for t in range(span_cap(g, t_cap), floor_t - 1, -1):
        outcome = find_interval_coloring(g, SearchConfig(t, node_budget))
        probes.append(ProbeRecord(t, outcome.status, outcome.nodes_explored))
        if outcome.status is SearchStatus.FOUND:
            return MaxSpanResult(t, not budget_gap, outcome.coloring, tuple(probes))
        if outcome.status is SearchStatus.BUDGET_EXCEEDED:
            budget_gap = True
    return MaxSpanResult(0, not budget_gap, None, tuple(probes))
