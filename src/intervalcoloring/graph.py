"""Immutable simple undirected graphs on vertices 1..vertex_count."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph: no loops, no multi-edges.

    Vertices are the integers 1..vertex_count.  Every edge must be a
    canonical pair (i, j) with 1 <= i < j <= vertex_count; the
    constructor checks this and keeps the frozenset it is given (use
    `graph_from_edges` for pairs in either order).  Instances are
    immutable and safe to share across threads.
    """

    vertex_count: int
    edges: frozenset[Edge] = frozenset()

    def __post_init__(self) -> None:
        m = self.vertex_count
        if m < 1:
            raise ValueError(f"vertex_count must be >= 1, got {m}")
        edges = frozenset(self.edges)  # the same object when given a frozenset
        for pair in edges:
            i, j = pair
            if not 1 <= i < j <= m:
                raise ValueError(f"edge {pair} must satisfy 1 <= i < j <= {m}")
        object.__setattr__(self, "edges", edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(1, self.vertex_count + 1)

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def _degrees(self) -> Counter[int]:
        """Degree of each vertex that has an edge; isolated vertices are absent."""
        return Counter(x for e in self.edges for x in e)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Neighbor sets indexed by vertex id; index 0 is unused."""
        neighbors: list[set[int]] = [set() for _ in range(self.vertex_count + 1)]
        for i, j in self.edges:
            neighbors[i].add(j)
            neighbors[j].add(i)
        return tuple(frozenset(s) for s in neighbors)

    def _check_vertex(self, x: int) -> None:
        if not 1 <= x <= self.vertex_count:
            raise ValueError(f"vertex {x} out of range 1..{self.vertex_count}")

    def degree(self, x: int) -> int:
        self._check_vertex(x)
        return self._degrees[x]

    @cached_property
    def max_degree(self) -> int:
        return max(self._degrees.values(), default=0)

    def has_edge(self, x: int, y: int) -> bool:
        if x > y:
            x, y = y, x
        return (x, y) in self.edges

    def incident_edges(self, x: int) -> list[Edge]:
        self._check_vertex(x)
        return sorted(
            (min(x, y), max(x, y)) for y in self.adjacency[x]
        )


def complete_graph(m: int) -> Graph:
    """The complete graph K_m on vertices 1..m (all m(m-1)/2 pairs)."""
    if m < 1:
        raise ValueError(f"complete graph needs m >= 1, got {m}")
    return Graph(m, frozenset(combinations(range(1, m + 1), 2)))


def graph_from_edges(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from vertex pairs in either order; each is put as (min, max)."""
    return Graph(vertex_count, frozenset((i, j) if i < j else (j, i) for i, j in edges))


def is_triangle_free(g: Graph) -> bool:
    """True iff no three vertices of g are pairwise adjacent.

    Walks the edges once, with neighbor sets only for vertices met so far:
    a triangle shows when its last edge arrives.  The work is bounded by
    |E| and the degrees, never by vertex_count.
    """
    neighbors: dict[int, set[int]] = {}
    for i, j in g.edges:
        ni = neighbors.setdefault(i, set())
        nj = neighbors.setdefault(j, set())
        if not ni.isdisjoint(nj):
            return False
        ni.add(j)
        nj.add(i)
    return True
