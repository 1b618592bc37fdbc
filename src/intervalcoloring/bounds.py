"""Bounds on the maximum span of an interval edge coloring.

The *maximum span* of an interval-colorable graph is the largest t for
which it has an interval coloring with colors 1..t.  Every value comes
from three invariants, (|V|, |E|, triangle-free), so K_2n reports are
O(1): no graph is built.  Each bound is one `_Bound` row; reports list
every row with its applicability, so an aggregate view always renders,
and a single bound is read from its row of `bounds_for_k2n` or
`bounds_for_graph` (`value` is None where the row does not apply).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .graph import Graph, is_triangle_free


@dataclass(frozen=True)
class BoundEntry:
    name: str
    formula: str
    value: int | None
    applicable: bool
    reason: str = ""


@dataclass(frozen=True)
class BoundsReport:
    """All bound values for one graph, lower and upper, with applicability."""

    label: str
    lower: tuple[BoundEntry, ...]
    upper: tuple[BoundEntry, ...]

    @property
    def best_lower(self) -> int | None:
        values = [e.value for e in self.lower if e.applicable]
        return max(values) if values else None

    @property
    def best_upper(self) -> int | None:
        values = [e.value for e in self.upper if e.applicable]
        return min(values) if values else None


class _Invariants(NamedTuple):
    vertex_count: int
    edge_count: int
    triangle_free: Callable[[], bool]  # run only by the row that reads it

    @property
    def even_complete(self) -> bool:
        m = self.vertex_count
        return m % 2 == 0 and self.edge_count == m * (m - 1) // 2


def _k2n(n: int) -> _Invariants:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _Invariants(2 * n, n * (2 * n - 1), lambda: n == 1)


def _graph_invariants(g: Graph) -> _Invariants:
    return _Invariants(g.vertex_count, g.edge_count, lambda: is_triangle_free(g))


class _Bound(NamedTuple):
    name: str
    formula: str
    value: Callable[[_Invariants], int]
    applies: Callable[[_Invariants], bool]
    reason: str  # shown when the bound does not apply

    def entry(self, inv: _Invariants) -> BoundEntry:
        if self.applies(inv):
            return BoundEntry(self.name, self.formula, self.value(inv), True)
        return BoundEntry(self.name, self.formula, None, False, self.reason)


# The lower rows hold for K_2n only, where |V| = 2n.
_EVEN_COMPLETE = "known lower bounds apply to complete graphs of even order"
_CONSTRUCTION = _Bound("construction", "3n-2", lambda x: 3 * x.vertex_count // 2 - 2,
                       lambda x: x.even_complete, _EVEN_COMPLETE)
_LOG2 = _Bound("log2", "2n-1+floor(log2(2n-1))",
               lambda x: x.vertex_count - 1 + (x.vertex_count - 1).bit_length() - 1,
               lambda x: x.even_complete, _EVEN_COMPLETE)
_REFINED = _Bound("refined", "2|V|-4", lambda x: 2 * x.vertex_count - 4,
                  lambda x: x.vertex_count >= 3, "requires |V| >= 3")
_GENERAL = _Bound("general", "2|V|-3", lambda x: 2 * x.vertex_count - 3,
                  lambda x: x.edge_count > 0, "requires at least one edge")
_TRIANGLE_FREE = _Bound("triangle-free", "|V|-1", lambda x: x.vertex_count - 1,
                        lambda x: x.triangle_free(), "graph contains a triangle")


def span_cap(g: Graph, t_cap: int) -> int:
    """t_cap tightened by the refined and general bounds, not the triangle-free one."""
    inv = _graph_invariants(g)
    return min([t_cap, *(b.value(inv) for b in (_REFINED, _GENERAL) if b.applies(inv))])


def _report(inv: _Invariants) -> BoundsReport:
    m = inv.vertex_count
    return BoundsReport(
        f"K_{m}" if inv.even_complete else f"graph on {m} vertices",
        tuple(b.entry(inv) for b in (_CONSTRUCTION, _LOG2)),
        tuple(b.entry(inv) for b in (_REFINED, _GENERAL, _TRIANGLE_FREE)),
    )


def bounds_for_k2n(n: int) -> BoundsReport:
    """Every bound evaluated for the complete graph K_2n, without building it."""
    return _report(_k2n(n))


def bounds_for_graph(g: Graph) -> BoundsReport:
    """Every bound evaluated for g; the lower ones apply only if g is K_2n."""
    return _report(_graph_invariants(g))
