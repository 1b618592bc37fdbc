"""Line-based text formats for graphs and colorings.

Graph file::

    p <vertex_count> <edge_count>
    e <i> <j>              # one line per edge, 1-based ids, i < j

Coloring file::

    c <vertex_count> <span_t>
    e <i> <j> <color>      # one line per edge

Tokens are whitespace-separated; blank lines and lines starting with
``#`` are ignored.  Emission is canonical (edges sorted, single trailing
newline) and byte-stable, so emitted files are usable as goldens.
"""

from __future__ import annotations

from typing import Iterator

from .coloring import EdgeColoring
from .graph import Edge, Graph


class FormatError(ValueError):
    """A parse failure with a machine-checkable kind and a 1-based line."""

    def __init__(self, kind: str, message: str, line: int | None = None):
        self.kind = kind
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(f"{prefix}{message}")


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


def parse_graph(text: str) -> Graph:
    """Parse a graph file; all malformations raise FormatError."""
    records = _records(text, "p", "edge_count", 2)
    header_line, (vertex_count, edge_count) = next(records)
    if edge_count < 0:
        raise FormatError("malformed-header", "edge count must be >= 0", header_line)
    edges: set[Edge] = set()
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


def emit_graph(g: Graph) -> str:
    """Canonical graph-file text for g."""
    lines = [f"p {g.vertex_count} {g.edge_count}"]
    lines.extend(f"e {i} {j}" for i, j in g.sorted_edges)
    return "\n".join(lines) + "\n"


def parse_coloring_with_graph(
    text: str, graph: Graph | None = None
) -> tuple[Graph, EdgeColoring]:
    """Parse a coloring file, returning the graph it colors.

    With `graph` given, the file's edge set must match it exactly
    (unknown-edge / missing-edge errors otherwise).  Without it, the
    graph is reconstructed from the edge lines themselves.
    """
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
    assignment: dict[Edge, int] = {}
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


def parse_coloring(text: str, graph: Graph | None = None) -> EdgeColoring:
    """Parse a coloring file (see parse_coloring_with_graph)."""
    return parse_coloring_with_graph(text, graph)[1]


def emit_coloring(g: Graph, coloring: EdgeColoring) -> str:
    """Canonical coloring-file text; requires exactly the edges of g colored."""
    assignment = coloring.assignment
    lines = [f"c {g.vertex_count} {coloring.span_t}"]
    for i, j in g.sorted_edges:
        c = assignment.get((i, j))
        if c is None:
            raise ValueError(f"edge ({i}, {j}) has no color")
        lines.append(f"e {i} {j} {c}")
    if len(assignment) != g.edge_count:  # every edge was found, so some pair is extra
        extra = min(assignment.keys() - g.edges)
        raise ValueError(f"colored pair {extra} is not an edge of the graph")
    return "\n".join(lines) + "\n"
