"""Bounds on the maximum span of an interval edge coloring.

The *maximum span* of an interval-colorable graph is the largest t for
which it has an interval coloring with colors 1..t.  Every value comes
from three invariants, (|V|, |E|, triangle-free), so K_2n reports are
O(1): no graph is built.  ``_report`` writes each bound's `BoundEntry`
once, from those invariants, the upper ones through ``_upper``, which
``span_cap`` reads alone; reports list every bound with its
applicability, so an aggregate view always renders, and a single bound
is read from its entry of `bounds_for_k2n` or `bounds_for_graph`
(`value` is None where the bound does not apply).  Both records are
NamedTuples.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, is_triangle_free


class BoundEntry(NamedTuple):
    name: str
    formula: str
    value: int | None
    applicable: bool
    reason: str = ""


class BoundsReport(NamedTuple):
    """All bound values for one graph, lower and upper, with applicability."""

    label: str
    lower: tuple[BoundEntry, ...]
    upper: tuple[BoundEntry, ...]

    @property
    def best_lower(self) -> int | None:
        return max((e.value for e in self.lower if e.applicable), default=None)

    @property
    def best_upper(self) -> int | None:
        return min((e.value for e in self.upper if e.applicable), default=None)


def _entry(name: str, formula: str, value: int, applies: bool, reason: str) -> BoundEntry:
    """The bound's entry; where it does not apply, no value and the reason why."""
    if applies:
        return BoundEntry(name, formula, value, True)
    return BoundEntry(name, formula, None, False, reason)


def _upper(m: int, edge_count: int, triangle_free: bool) -> tuple[BoundEntry, ...]:
    """The upper bounds' entries for m vertices, for _report and span_cap."""
    return (
        _entry("refined", "2|V|-4", 2 * m - 4, m >= 3, "requires |V| >= 3"),
        _entry("general", "2|V|-3", 2 * m - 3, edge_count > 0, "requires at least one edge"),
        _entry("triangle-free", "|V|-1", m - 1, triangle_free, "graph contains a triangle"),
    )


def span_cap(g: Graph, t_cap: int) -> int:
    """t_cap tightened by the refined and general bounds, not the triangle-free one."""
    caps = [e.value for e in _upper(g.vertex_count, g.edge_count, False) if e.applicable]
    return min([t_cap, *caps])


# The lower bounds hold for K_2n only, where |V| = 2n.
_EVEN_COMPLETE = "known lower bounds apply to complete graphs of even order"


def _report(vertex_count: int, edge_count: int, triangle_free: bool) -> BoundsReport:
    m = vertex_count
    k2n = m % 2 == 0 and edge_count == m * (m - 1) // 2
    return BoundsReport(
        f"K_{m}" if k2n else f"graph on {m} vertices",
        (
            _entry("construction", "3n-2", 3 * m // 2 - 2, k2n, _EVEN_COMPLETE),
            _entry("log2", "2n-1+floor(log2(2n-1))", m - 1 + (m - 1).bit_length() - 1,
                   k2n, _EVEN_COMPLETE),
        ),
        _upper(m, edge_count, triangle_free),
    )


def bounds_for_k2n(n: int) -> BoundsReport:
    """Every bound evaluated for the complete graph K_2n, without building it."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _report(2 * n, n * (2 * n - 1), n == 1)


def bounds_for_graph(g: Graph) -> BoundsReport:
    """Every bound evaluated for g; the lower ones apply only if g is K_2n."""
    return _report(g.vertex_count, g.edge_count, is_triangle_free(g))
