"""Exact backtracking search for interval edge colorings.

`find_interval_coloring` decides, for a fixed span t, whether a graph
admits an interval t-coloring.  Edges are colored one at a time in
lexicographic (i, j) order; every prune is a necessary condition, so an
exhausted search is a proof of nonexistence:

* properness  -- a color may not repeat at a vertex;
* gap filling -- a vertex's palette is deg consecutive colors that
  cover the colors already placed there, so a new color must lie in
  [max - deg + 1, min + deg - 1].  This window is the "range span <=
  degree" check, and once the last incident edge is placed it forces
  the palette to be a consecutive block of exactly deg colors;
* color usage -- colors still unused must not outnumber the edges still
  uncolored (at completion this forces every color 1..t onto an edge);
* reflection symmetry breaking -- valid colorings map onto valid
  colorings under c -> t+1-c, so the first edge only tries the lower
  half of the palette.

Per-vertex state is one bitmask of placed colors (its highest and
lowest set bits are the max and min) plus the degree, kept only for
the vertices that have an edge.

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
    # State is indexed 1..k over the k vertices that have an edge, in
    # ascending order, so isolated vertices named by the header cost nothing.
    index = {x: k for k, x in enumerate(sorted({x for e in edges for x in e}), 1)}
    pairs = [(index[i], index[j]) for i, j in edges]
    deg = [0] * (len(index) + 1)
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    # Degree and color-count prerequisites; both are necessary conditions.
    if t < max(deg) or num_edges < t:
        return SearchOutcome(SearchStatus.EXHAUSTED_NO_SOLUTION, None, 0)

    budget = cfg.node_budget
    used = [0] * len(deg)  # per-vertex bitmask of incident colors
    use_cnt = [0] * (t + 1)
    unused = t

    placed = [0] * num_edges
    nodes = 0
    depth = 0
    start_color = 1

    while True:
        u, v = pairs[depth]
        used_u = used[u]
        used_v = used[v]
        lo = start_color
        hi = (t + 1) // 2 if depth == 0 else t
        # Gap-filling window: [max - deg + 1, min + deg - 1] at each endpoint
        # that already has a color (bit_length() - 1 is the max color, the
        # lowest set bit the min).
        if used_u:
            lo = max(lo, used_u.bit_length() - deg[u])
            hi = min(hi, (used_u & -used_u).bit_length() + deg[u] - 2)
        if used_v:
            lo = max(lo, used_v.bit_length() - deg[v])
            hi = min(hi, (used_v & -used_v).bit_length() + deg[v] - 2)

        edges_left = num_edges - depth
        used_uv = used_u | used_v
        chosen = 0
        for c in range(lo, hi + 1):
            if used_uv >> c & 1:
                continue
            if unused + (use_cnt[c] > 0) > edges_left:
                continue
            chosen = c
            break

        if chosen:
            if budget and nodes == budget:
                return SearchOutcome(SearchStatus.BUDGET_EXCEEDED, None, nodes)
            nodes += 1
            placed[depth] = chosen
            bit = 1 << chosen
            used[u] = used_u | bit
            used[v] = used_v | bit
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
            u, v = pairs[depth]
            c = placed[depth]
            bit = 1 << c
            used[u] ^= bit
            used[v] ^= bit
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
    for t in range(span_cap(g, t_cap), g.max_degree - 1, -1):
        outcome = find_interval_coloring(g, SearchConfig(t, node_budget))
        probes.append(ProbeRecord(t, outcome.status, outcome.nodes_explored))
        if outcome.status is SearchStatus.FOUND:
            return MaxSpanResult(t, not budget_gap, outcome.coloring, tuple(probes))
        if outcome.status is SearchStatus.BUDGET_EXCEEDED:
            budget_gap = True
    return MaxSpanResult(0, not budget_gap, None, tuple(probes))
