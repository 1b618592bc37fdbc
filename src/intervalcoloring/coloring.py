"""Edge-coloring data model and the gap-free ("interval") coloring verifier.

A coloring with span t is *interval* when it is a proper edge coloring
with colors 1..t, every color in 1..t appears on at least one edge, and
the colors incident to each vertex x form a consecutive block of exactly
degree(x) integers.  ``_check_palettes`` reads each vertex's colors and
the colors in use, so ``verify_interval`` and the CLI's ``verify`` share it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Container, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .graph import Edge, Graph


class ViolationKind(Enum):
    NOT_PROPER = "not-proper"
    NOT_CONSECUTIVE = "not-consecutive"
    COLOR_UNUSED = "color-unused"
    COLOR_OUT_OF_RANGE = "color-out-of-range"
    EDGE_UNCOLORED = "edge-uncolored"
    EDGE_UNKNOWN = "edge-unknown"


class Violation(NamedTuple):
    """One verifier finding, located at a vertex, an edge, or a color."""

    kind: ViolationKind
    vertex: int | None = None
    edge: Edge | None = None
    color: int | None = None

    def __str__(self) -> str:
        where = []
        if self.vertex is not None:
            where.append(f"vertex {self.vertex}")
        if self.edge is not None:
            where.append(f"edge ({self.edge[0]}, {self.edge[1]})")
        if self.color is not None:
            where.append(f"color {self.color}")
        return f"{self.kind.value} at {', '.join(where)}"


class IntervalReport(NamedTuple):
    """verify_interval's findings; the coloring is interval exactly when there are none."""

    violations: tuple[Violation, ...]

    @property
    def verdict(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.verdict


@dataclass(frozen=True)
class EdgeColoring:
    """An edge -> color map together with its declared span.

    Keys must be canonical edges (i, j) with i < j and colors must be
    positive integers.  Colors above span_t are representable (the
    verifier reports them); the container itself is presentation-neutral
    and immutable.
    """

    assignment: Mapping[Edge, int]
    span_t: int

    def __post_init__(self) -> None:
        if self.span_t < 1:
            raise ValueError(f"span_t must be >= 1, got {self.span_t}")
        mapping = dict(self.assignment)
        if mapping:
            if not all(i < j for i, j in mapping):
                raise ValueError("assignment keys must be canonical (i, j) with i < j")
            if min(mapping.values()) < 1:
                raise ValueError("colors must be positive integers")
        object.__setattr__(self, "assignment", MappingProxyType(mapping))

    def __len__(self) -> int:
        return len(self.assignment)


def _canonical_coloring(assignment: dict[Edge, int], span_t: int) -> EdgeColoring:
    """An EdgeColoring over `assignment` itself, built without the checks.

    For library code only, where span_t >= 1, every key is canonical and
    every color positive.  The caller hands the dict over: it is wrapped
    read-only, not copied, so no other reference to it may be kept.
    """
    c = object.__new__(EdgeColoring)
    object.__setattr__(c, "assignment", MappingProxyType(assignment))
    object.__setattr__(c, "span_t", span_t)
    return c


def _palettes(edges: Iterable[Edge], colors: Iterable[int]) -> Mapping[int, list[int]]:
    """Each end's colors of `edges`, colored by `colors` in order (lists: colors may pass 2**63)."""
    palettes: defaultdict[int, list[int]] = defaultdict(list)
    for (u, v), c in zip(edges, colors):
        palettes[u].append(c)
        palettes[v].append(c)
    return palettes


def _check_palettes(
    palettes: Mapping[int, Sequence[int]], used: Iterable[int], t: int, incomplete: Container[int]
) -> tuple[list[Violation], list[tuple[int, int]]]:
    """The not-proper and not-consecutive violations of the vertices, each
    passed when its sorted colors are range(lo, lo + degree), and the gaps
    between the `used` colors as runs (lo, hi) of unused ones: the work is
    bounded by the edges, not by t.  Vertices in `incomplete` have an
    uncolored edge and are not tested for consecutive colors."""
    violations: list[Violation] = []
    for x in sorted(palettes):
        colors = sorted(palettes[x])
        lo = colors[0]
        if colors != list(range(lo, lo + len(colors))):
            distinct = set(colors)
            if len(distinct) != len(colors):
                violations.append(Violation(ViolationKind.NOT_PROPER, vertex=x))
            if x not in incomplete and colors[-1] - lo + 1 != len(distinct):
                violations.append(Violation(ViolationKind.NOT_CONSECUTIVE, vertex=x))
    cuts = [0, *sorted(c for c in used if c <= t), t + 1]
    unused = [(a + 1, b - 1) for a, b in zip(cuts, cuts[1:]) if b > a + 1]
    return violations, unused


def _fail_listing(
    violations: list[Violation], unused: list[tuple[int, int]], piece_bytes: int
) -> Iterator[str]:
    """The FAIL listing from _check_palettes' result, in pieces of whole lines.

    First `FAIL: N violation(s)`, then `  {v}` for each violation that
    verify_interval reports, in its order, one line per piece.  An
    unused color c gives the line of str(Violation(COLOR_UNUSED, color=c))
    without making one; a run of them is joined into pieces of at most
    piece_bytes characters, so the listing costs one string per piece.
    """
    count = len(violations) + sum(hi - lo + 1 for lo, hi in unused)
    yield f"FAIL: {count} violation(s)\n"
    for violation in violations:
        yield f"  {violation}\n"
    unused_at = f"  {ViolationKind.COLOR_UNUSED.value} at color "
    glue = "\n" + unused_at
    for lo, hi in unused:
        per = max(1, piece_bytes // (len(unused_at) + len(str(hi)) + 1))
        for first in range(lo, hi + 1, per):
            colors = range(first, min(first + per, hi + 1))
            yield unused_at + glue.join(map(str, colors)) + "\n"


def verify_interval(g: Graph, coloring: EdgeColoring) -> IntervalReport:
    """Check whether `coloring` is an interval coloring of g with span span_t.

    All conditions are evaluated and every failure is reported:

    * edge-uncolored   -- an edge of g has no color;
    * edge-unknown     -- a colored pair is not an edge of g (it counts
      toward no palette and no color use);
    * color-out-of-range -- an assigned color lies outside 1..span_t;
    * not-proper       -- two edges at one vertex share a color;
    * not-consecutive  -- the distinct colors at a vertex have a gap
      (skipped for vertices with an uncolored incident edge, which are
      already reported);
    * color-unused     -- some color in 1..span_t is on no edge, one
      violation per color, ascending, after all the others.

    Never raises; a failing coloring yields verdict False plus the list.
    The checks are bounded by the edges, not by vertex_count or span_t:
    only vertices with a colored edge are visited, in ascending order,
    and unused colors are found as runs between the colors in use.  Only
    the report grows with the span, by one color-unused entry per color.
    """
    t, assignment = coloring.span_t, coloring.assignment
    uncolored = sorted(g.edges - assignment.keys())
    violations = [Violation(ViolationKind.EDGE_UNCOLORED, edge=e) for e in uncolored]
    violations += [
        Violation(ViolationKind.EDGE_UNKNOWN, edge=e) for e in sorted(assignment.keys() - g.edges)
    ]
    edges = g.edges & assignment.keys() if violations else assignment.keys()
    colors = list(map(assignment.__getitem__, edges))
    if max(colors, default=0) > t:  # colors are positive, so only > t is out of range
        violations.extend(
            Violation(ViolationKind.COLOR_OUT_OF_RANGE, edge=e, color=assignment[e])
            for e in sorted(edges)
            if assignment[e] > t
        )
    incomplete = {x for e in uncolored for x in e}
    found, unused = _check_palettes(_palettes(edges, colors), set(colors), t, incomplete)
    violations += found
    violations.extend(
        Violation(ViolationKind.COLOR_UNUSED, color=c)
        for lo, hi in unused
        for c in range(lo, hi + 1)
    )
    return IntervalReport(tuple(violations))
