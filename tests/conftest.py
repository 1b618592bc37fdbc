"""Shared test helpers: reference oracles, the per-edge clause
specification of `construct`, and hypothesis strategies."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterator

from hypothesis import strategies as st

from intervalcoloring import (
    CASE_COUNT,
    BoundsReport,
    EdgeColoring,
    FormatError,
    Graph,
    SearchOutcome,
    SearchStatus,
)
from intervalcoloring.construction import CaseId


def bound(report: BoundsReport, name: str) -> int | None:
    """The value of the named row of a bounds report, None where it does not apply."""
    (value,) = [e.value for e in report.lower + report.upper if e.name == name]
    return value


class PartitionError(RuntimeError):
    """Raised when an edge matches zero or several clauses (unreachable)."""


def _check_pair(n: int, i: int, j: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 1 <= i < j <= 2 * n:
        raise ValueError(f"need 1 <= i < j <= 2n = {2 * n}, got ({i}, {j})")


def classify_edge(n: int, i: int, j: int) -> CaseId:
    """Return the unique clause (1..8) that edge (i, j) of K_2n satisfies.

    Clause conditions, for 1 <= i < j <= 2n (empty ranges match nothing):

    1. i in [1, n//2],            j in [2, n],                  i+j <= n+1
    2. i in [2, n-1],             j in [n//2 + 2, n],           i+j >= n+2
    3. i in [3, n],               j in [n+1, 2n-2],             j-i <= n-2
    4. i in [1, n],               j in [n+1, 2n],               j-i >= n
    5. i in [2, 1 + (n-1)//2],    j in [n+1, n + (n-1)//2],     j-i == n-1
    6. i in [(n-1)//2 + 2, n],    j in [n+1 + (n-1)//2, 2n-1],  j-i == n-1
    7. i in [n+1, n + n//2 - 1],  j in [n+2, 2n-2],             i+j <= 3n-1
    8. i in [n+1, 2n-1],          j in [n + n//2 + 1, 2n],      i+j >= 3n

    Clauses 1-2 require j <= n, 3-6 require j >= n+1 with i <= n, and
    7-8 require i >= n+1, so only the clauses of the pair's region need
    evaluating; within a region every clause is checked in full.

    Raises PartitionError if zero or several clauses match.
    """
    _check_pair(n, i, j)
    s = i + j
    d = j - i
    hn = n // 2
    hm = (n - 1) // 2

    if j <= n:
        c1 = i <= hn and 2 <= j and s <= n + 1
        c2 = 2 <= i <= n - 1 and hn + 2 <= j and s >= n + 2
        matched = [case for case, hit in ((1, c1), (2, c2)) if hit]
    elif i <= n:
        c3 = 3 <= i and j <= 2 * n - 2 and d <= n - 2
        c4 = d >= n
        c5 = 2 <= i <= 1 + hm and j <= n + hm and d == n - 1
        c6 = hm + 2 <= i and n + 1 + hm <= j <= 2 * n - 1 and d == n - 1
        matched = [case for case, hit in ((3, c3), (4, c4), (5, c5), (6, c6)) if hit]
    else:
        c7 = i <= n + hn - 1 and n + 2 <= j <= 2 * n - 2 and s <= 3 * n - 1
        c8 = n + hn + 1 <= j and s >= 3 * n
        matched = [case for case, hit in ((7, c7), (8, c8)) if hit]

    if len(matched) != 1:
        raise PartitionError(
            f"edge ({i}, {j}) of K_{2 * n} matches clauses {matched or 'none'}"
        )
    return matched[0]


def case_color(n: int, i: int, j: int, case: CaseId) -> int:
    """Evaluate the color formula of the given clause at edge (i, j)."""
    if case in (1, 6):
        return i + j - 2
    if case == 2:
        return i + j + n - 3
    if case == 3:
        return n + j - i
    if case == 4:
        return j - i
    if case == 5:
        return 2 * (i - 1)
    if case == 7:
        return i + j - 2 * n
    if case == 8:
        return i + j - n - 1
    raise ValueError(f"case must be 1..{CASE_COUNT}, got {case}")


def round_robin(n: int) -> EdgeColoring:
    """Proper coloring of K_2n with span 2n-1; every color class is a
    perfect matching and every vertex palette is exactly {1, .., 2n-1}."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    m1 = 2 * n - 1
    assignment: dict[tuple[int, int], int] = {}
    for r in range(m1):
        assignment[(r % m1 + 1, 2 * n)] = r + 1
        for k in range(1, n):
            a = (r + k) % m1 + 1
            b = (r - k) % m1 + 1
            assignment[(a, b) if a < b else (b, a)] = r + 1
    return EdgeColoring(assignment, span_t=m1)


def reflect(coloring: EdgeColoring) -> EdgeColoring:
    """Map every color c to span_t + 1 - c.

    Interval colorings are closed under this reflection: each vertex
    palette [a, b] becomes [t+1-b, t+1-a].
    """
    t1 = coloring.span_t + 1
    return EdgeColoring(
        {e: t1 - c for e, c in coloring.assignment.items()}, coloring.span_t
    )


def brute_force_exists(g: Graph, t: int) -> bool:
    """Pruning-free reference: does g admit an interval t-coloring?

    Depth-first enumeration of all proper edge colorings (properness is
    part of the definition, not a pruning heuristic), checking the full
    interval condition at every complete assignment with an inline
    definition check.  Deliberately shares no code with the search
    module or the verifier.
    """
    edges = sorted(g.edges)
    num_edges = len(edges)
    vc = g.vertex_count
    at: list[set[int]] = [set() for _ in range(vc + 1)]
    assign: dict[tuple[int, int], int] = {}

    def leaf_ok() -> bool:
        if set(assign.values()) != set(range(1, t + 1)):
            return False
        for x in range(1, vc + 1):
            cols = at[x]
            if cols and max(cols) - min(cols) + 1 != len(cols):
                return False
        return True

    def rec(k: int) -> bool:
        if k == num_edges:
            return leaf_ok()
        u, v = edges[k]
        for c in range(1, t + 1):
            if c in at[u] or c in at[v]:
                continue
            at[u].add(c)
            at[v].add(c)
            assign[(u, v)] = c
            if rec(k + 1):
                return True
            at[u].discard(c)
            at[v].discard(c)
            del assign[(u, v)]
        return False

    return rec(0)


def palettes(coloring: EdgeColoring) -> dict[int, tuple[int, ...]]:
    """Sorted distinct colors at each vertex that has a colored edge,
    read straight from the assignment."""
    at: dict[int, set[int]] = {}
    for (i, j), c in coloring.assignment.items():
        at.setdefault(i, set()).add(c)
        at.setdefault(j, set()).add(c)
    return {x: tuple(sorted(colors)) for x, colors in at.items()}


def classifier_twin(n: int) -> EdgeColoring:
    """The span-(3n-2) coloring of K_2n, each edge colored through the
    clause classifier above and built by the checking constructor."""
    return EdgeColoring(
        {
            (i, j): case_color(n, i, j, classify_edge(n, i, j))
            for i, j in combinations(range(1, 2 * n + 1), 2)
        },
        3 * n - 2,
    )


def tree_max_span(g: Graph) -> int:
    """Closed-form maximum interval span W(T) of a tree (Kamalian 1989).

    W(T) is 1 plus the heaviest path weight when each vertex v weighs
    d(v) - 1.  Two passes over the tree: one orders the vertices from a
    root outward, the other folds each vertex's heaviest downward path
    into its parent's, scoring the best path that bends at each vertex.
    """
    nbrs: dict[int, list[int]] = {}
    for i, j in g.edges:
        nbrs.setdefault(i, []).append(j)
        nbrs.setdefault(j, []).append(i)
    assert len(g.edges) == len(nbrs) - 1, "g must be a tree"
    root = min(nbrs)
    parent = {root: 0}
    order = [root]
    for x in order:
        for y in nbrs[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    assert len(order) == len(nbrs), "g must be connected"
    down: dict[int, int] = {}  # heaviest path from x down into its subtree
    best = 0
    for x in reversed(order):
        legs = sorted((down[y] for y in nbrs[x] if y != parent[x]), reverse=True)
        weight = len(nbrs[x]) - 1
        down[x] = weight + (legs[0] if legs else 0)
        best = max(best, weight + sum(legs[:2]))
    return 1 + best


def neighbor_sets(g: Graph) -> dict[int, frozenset[int]]:
    """The neighbor set of each vertex of g that has an edge; isolated
    vertices are absent."""
    neighbors: dict[int, set[int]] = {}
    for i, j in g.edges:
        neighbors.setdefault(i, set()).add(j)
        neighbors.setdefault(j, set()).add(i)
    return {x: frozenset(s) for x, s in neighbors.items()}


def reference_sweep_tables(g: Graph) -> dict[str, object]:
    """The palette sweep's set-up tables, built as the sweep built them
    before its one pass over the edges: from the neighbor sets, with the
    twin classes keyed by k-bit neighbor masks."""
    adjacency = neighbor_sets(g)
    labels = sorted(adjacency)
    index = {x: k for k, x in enumerate(labels)}
    adj = [sorted(index[y] for y in adjacency[x]) for x in labels]
    deg = [len(a) for a in adj]
    nbr = [sum(1 << w for w in a) for a in adj]
    by_open: dict[int, int] = {}
    by_closed: dict[int, int] = {}
    for w, n in enumerate(nbr):
        by_open[n] = by_open.get(n, 0) | 1 << w
        by_closed[n | 1 << w] = by_closed.get(n | 1 << w, 0) | 1 << w
    by_degree: dict[int, int] = {}
    for v, d in enumerate(deg):
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    at_most = [0]
    for d in range(1, max(deg, default=0) + 1):
        at_most.append(at_most[-1] | by_degree.get(d, 0))
    return {
        "labels": labels,
        "adj": adj,
        "nbr": nbr,
        "deg": deg,
        "twins": [by_open[n] | by_closed[n | 1 << w] for w, n in enumerate(nbr)],
        "by_degree": by_degree,
        "at_most": at_most,
    }


def edge_search(g: Graph, t: int, budget: int) -> SearchOutcome:
    """Reference engine: the edge search that `search --t` ran before it
    moved onto the palette sweep.  Shares no code with the search module.

    Edges are colored one at a time in lexicographic (i, j) order; a node
    is one edge placement and budget caps the nodes (0 means unlimited).
    Prunes, each a necessary condition:

    * properness  -- a color may not repeat at a vertex;
    * gap filling -- a vertex's palette is deg consecutive colors that
      cover the colors already placed there, so a new color must lie in
      [max - deg + 1, min + deg - 1];
    * color usage -- colors still unused must not outnumber the edges
      still uncolored (at completion every color 1..t is on an edge);
    * reflection symmetry breaking -- valid colorings map onto valid
      colorings under c -> t+1-c, so the first edge only tries the lower
      half of the palette.

    Per-vertex state is one bitmask of placed colors (its highest and
    lowest set bits are the max and min) plus the degree, kept only for
    the vertices that have an edge.
    """
    edges = sorted(g.edges)
    num_edges = len(edges)
    # State is indexed 1..k over the k vertices that have an edge, in
    # ascending order, so isolated vertices named by the header cost nothing.
    adjacency = neighbor_sets(g)
    index = {x: k for k, x in enumerate(sorted(adjacency), 1)}
    pairs = [(index[i], index[j]) for i, j in edges]
    deg = [0, *(len(adjacency[x]) for x in index)]
    # Degree and color-count prerequisites; both are necessary conditions.
    if t < max(deg) or num_edges < t:
        return SearchOutcome(SearchStatus.EXHAUSTED_NO_SOLUTION, None, 0)

    used = [0] * len(deg)  # per-vertex bitmask of incident colors
    use_cnt = [0] * (t + 1)
    fresh = (1 << t + 1) - 2  # bitmask of colors on no edge yet

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

        # Colors lo..hi free at both ends; when the unused colors match the
        # edges left, each remaining edge must take a color not yet placed.
        cand = ((1 << hi + 1) - 1) >> lo << lo & ~(used_u | used_v)
        if fresh.bit_count() == num_edges - depth:
            cand &= fresh
        if cand:
            chosen = (cand & -cand).bit_length() - 1
            if budget and nodes == budget:
                return SearchOutcome(SearchStatus.BUDGET_EXCEEDED, None, nodes)
            nodes += 1
            placed[depth] = chosen
            bit = 1 << chosen
            used[u] = used_u | bit
            used[v] = used_v | bit
            if use_cnt[chosen] == 0:
                fresh ^= bit
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
                fresh |= bit
            start_color = c + 1


def _int_token(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(
            "bad-token", f"{what} must be an integer, got {token!r}", lineno
        ) from None


def _records(
    text: str, tag: str, second_field: str, arity: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Read a file in one pass, yielding (line number, integer fields).

    The first item is the header's (vertex_count, second_field); every
    later one is an 'e' line's `arity` fields, whose endpoints (i, j) are
    in range and canonical.  Blank and '#' lines are skipped.
    """
    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:
        tokens = raw.split()
        if tokens and tokens[0][0] != "#":
            break
    else:
        raise FormatError("missing-header", f"empty input, expected '{tag}' header")
    if tokens[0] != tag:
        raise FormatError(
            "missing-header", f"expected '{tag}' header, got {tokens[0]!r}", lineno
        )
    if len(tokens) != 3:
        raise FormatError(
            "malformed-header",
            f"header needs '{tag} <vertex_count> <{second_field}>'",
            lineno,
        )
    vertex_count = _int_token(tokens[1], "vertex count", lineno)
    second = _int_token(tokens[2], second_field, lineno)
    if vertex_count < 1:
        raise FormatError("malformed-header", "vertex count must be >= 1", lineno)
    yield lineno, (vertex_count, second)

    for lineno, raw in lines:
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if tokens[0] != "e":
            raise FormatError(
                "unknown-directive", f"expected an 'e' line, got {tokens[0]!r}", lineno
            )
        if len(tokens) != arity + 1:
            raise FormatError(
                "malformed-edge", f"'e' line needs {arity} integer fields", lineno
            )
        try:
            fields = tuple(map(int, tokens[1:]))
        except ValueError:  # re-read to name the first bad token
            fields = tuple([_int_token(t, "edge field", lineno) for t in tokens[1:]])
        i, j = fields[0], fields[1]
        if not (1 <= i <= vertex_count and 1 <= j <= vertex_count):
            raise FormatError(
                "id-out-of-range",
                f"vertex ids ({i}, {j}) out of range 1..{vertex_count}",
                lineno,
            )
        if i >= j:
            raise FormatError(
                "noncanonical-edge", f"edge ({i}, {j}) must satisfy i < j", lineno
            )
        yield lineno, fields


def reference_parse_graph(text: str) -> Graph:
    """Reference graph-file parser: a generator of checked records, then the
    public, checking constructor.  Shares no parsing code with the library."""
    records = _records(text, "p", "edge_count", 2)
    header_line, (vertex_count, edge_count) = next(records)
    if edge_count < 0:
        raise FormatError("malformed-header", "edge count must be >= 0", header_line)
    edges: set[tuple[int, int]] = set()
    for lineno, edge in records:
        if edge in edges:
            raise FormatError("duplicate-edge", f"duplicate edge {edge}", lineno)
        edges.add(edge)
    if len(edges) != edge_count:
        raise FormatError(
            "count-mismatch",
            f"header declares {edge_count} edges but file has {len(edges)}",
            header_line,
        )
    return Graph(vertex_count, frozenset(edges))


def reference_parse_coloring_with_graph(
    text: str, graph: Graph | None = None
) -> tuple[Graph, EdgeColoring]:
    """Reference coloring-file parser, built like reference_parse_graph."""
    records = _records(text, "c", "span_t", 3)
    header_line, (vertex_count, span_t) = next(records)
    if span_t < 1:
        raise FormatError("malformed-header", "span must be >= 1", header_line)
    if graph is not None and graph.vertex_count != vertex_count:
        raise FormatError(
            "graph-mismatch",
            f"file has {vertex_count} vertices, graph has {graph.vertex_count}",
            header_line,
        )
    assignment: dict[tuple[int, int], int] = {}
    for lineno, (i, j, color) in records:
        edge = (i, j)
        if edge in assignment:
            raise FormatError("duplicate-edge", f"duplicate edge {edge}", lineno)
        if not 1 <= color <= span_t:
            raise FormatError(
                "color-out-of-range", f"color {color} outside 1..{span_t}", lineno
            )
        if graph is not None and edge not in graph.edges:
            raise FormatError(
                "unknown-edge", f"edge {edge} is not in the graph", lineno
            )
        assignment[edge] = color
    if graph is None:
        graph = Graph(vertex_count, frozenset(assignment))
    elif len(assignment) != graph.edge_count:  # every line named a graph edge
        missing = min(graph.edges - assignment.keys())
        raise FormatError(
            "missing-edge", f"graph edge {missing} has no line in the file", header_line
        )
    return graph, EdgeColoring(assignment, span_t)


@lru_cache(maxsize=None)
def canonical_graphs_upto(nv_max: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class, all graphs <= nv_max vertices."""
    out: list[Graph] = []
    for nv in range(1, nv_max + 1):
        pairs = list(combinations(range(1, nv + 1), 2))
        maps = [dict(zip(range(1, nv + 1), p)) for p in permutations(range(1, nv + 1))]
        seen: set[tuple] = set()
        for bits in range(1 << len(pairs)):
            edges = [p for k, p in enumerate(pairs) if bits >> k & 1]
            canon = min(
                tuple(sorted((min(m[i], m[j]), max(m[i], m[j])) for i, j in edges))
                for m in maps
            )
            if canon not in seen:
                seen.add(canon)
                out.append(Graph(nv, frozenset(canon)))
    return tuple(out)


def all_labeled_graphs(nv: int) -> list[Graph]:
    """Every labeled graph on exactly nv vertices."""
    pairs = list(combinations(range(1, nv + 1), 2))
    return [
        Graph(nv, frozenset(p for k, p in enumerate(pairs) if bits >> k & 1))
        for bits in range(1 << len(pairs))
    ]


@st.composite
def graphs(draw, min_vertices: int = 1, max_vertices: int = 6):
    nv = draw(st.integers(min_vertices, max_vertices))
    pairs = list(combinations(range(1, nv + 1), 2))
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    return Graph(nv, frozenset(edges))


@st.composite
def colored_graphs(draw, max_vertices: int = 6, max_span: int = 9):
    """A graph plus an arbitrary total assignment (not necessarily interval)."""
    g = draw(graphs(max_vertices=max_vertices))
    span = draw(st.integers(1, max_span))
    assignment = {e: draw(st.integers(1, span)) for e in sorted(g.edges)}
    return g, EdgeColoring(assignment, span)
