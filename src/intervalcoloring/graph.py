"""Immutable simple undirected graphs: a vertex count and a set of edges."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph: no loops, no multi-edges.

    Vertices are the integers 1..vertex_count.  Every edge must be a
    canonical pair (i, j) with 1 <= i < j <= vertex_count; the
    constructor checks this and keeps the frozenset it is given (use
    `graph_from_edges` for pairs in either order).  Graphs the library
    builds from pairs it has just checked, or that are canonical by
    construction, are not checked again.  Instances are immutable and
    safe to share across threads.  A graph is its two fields; the one
    fact derived from them and kept, `max_degree`, counts edge ends, so
    reading it builds no neighbor sets.
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

    @cached_property
    def max_degree(self) -> int:
        return max(Counter(chain.from_iterable(self.edges)).values(), default=0)


def _canonical_graph(vertex_count: int, edges: frozenset[Edge]) -> Graph:
    """A Graph whose fields the caller vouches for, built without the checks.

    For library code only, where vertex_count >= 1 and every pair was
    just checked or is canonical by construction; the result equals (and
    hashes like) ``Graph(vertex_count, edges)``.
    """
    g = object.__new__(Graph)
    object.__setattr__(g, "vertex_count", vertex_count)
    object.__setattr__(g, "edges", edges)
    return g


def complete_graph(m: int) -> Graph:
    """The complete graph K_m on vertices 1..m (all m(m-1)/2 pairs)."""
    if m < 1:
        raise ValueError(f"complete graph needs m >= 1, got {m}")
    return _canonical_graph(m, frozenset(combinations(range(1, m + 1), 2)))


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
