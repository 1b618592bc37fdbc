"""Line-based text formats for graphs and colorings.

Graph file::

    p <vertex_count> <edge_count>
    e <i> <j>              # one line per edge, 1-based ids, i < j

Coloring file::

    c <vertex_count> <span_t>
    e <i> <j> <color>      # one line per edge

Tokens are whitespace-separated; blank lines and lines starting with
``#`` are ignored.

Text as the emitters write it (canonical: a header line, then edge
lines, each line ended by one newline, fields split by one space,
numbers with no sign or leading zero) is read by one chunked reader,
``_canonical_chunks``: it decodes the header once, then each chunk of
whole edge lines with one regex scan for a stray line break and one
``json`` decode.  Each caller checks ids and colors and rules out
duplicates with what it builds: the parsers call ``_in_range`` on each
chunk and compare the size of their frozenset or dict with the number
of edge lines decoded; the CLI's ``verify`` (``_coloring_palettes``,
which keeps only each vertex's colors, in an ``array('Q')``) walks each
chunk once, requiring the pairs to ascend, checking ids once per row
and colors once per chunk as it fills the palettes; a canonical graph
file's text is read in lockstep, each chunk's pairs against its next
ones, so no Graph is built.  Other text, and canonical text that fails a
check, goes to the parser's line loop, which names every error.  Where
verify's reader stops, at a chunk of either text, it drops its arrays and
parses the graph text; every coloring line before the chunk is a graph
edge, given once, so the line loop starts there and decodes the lines
before it into its dict only if a later line's edge is at or below their
last, or at the end of the text; the palettes are read from the dict.

Each line loop is one pass over the lines: a shared ``_header`` reads
the header, then the parser's own loop accepts a well-formed edge line
with one length test, ``int`` on each field and one range test.  Any
other line goes to the shared ``_reject``, which skips blank and comment
lines and raises the line's FormatError, so the checks and their order
live in one place.  The parsed data is checked here once and handed to
``Graph`` and ``EdgeColoring`` without a second check; verify builds
neither.

Emission is canonical (pairs sorted, single trailing newline) and
byte-stable, so emitted files are usable as goldens.  A coloring is
emitted from its own sorted colored pairs once they are known to be the
graph's edges; ``_write_runs`` yields the same text, in pieces of whole
rows, from a coloring's runs of consecutive edges in a row (construct's
clause runs).
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from itertools import chain, islice, repeat
from operator import lt
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .coloring import EdgeColoring, _canonical_coloring, _palettes
from .graph import Edge, Graph, _canonical_graph


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


def _header(
    lines: Iterator[tuple[int, str]], tag: str, second_field: str
) -> tuple[int, int, int]:
    """Consume `lines` up to the header; return (its line, vertex_count, second field).

    Blank and '#' lines before the header are skipped.
    """
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
    return lineno, vertex_count, second


def _reject(tokens: list[str], lineno: int, vertex_count: int, arity: int) -> None:
    """Diagnose a line that a parser's fast path did not accept.

    Returns for a blank or '#' line; otherwise raises the FormatError of
    the first check the line fails: unknown-directive, malformed-edge,
    bad-token (naming the first bad token), id-out-of-range, and last
    noncanonical-edge, the one failure the fast path's test
    ``0 < i < j <= vertex_count`` leaves once both ids are in range.
    """
    if not tokens or tokens[0][0] == "#":
        return
    if tokens[0] != "e":
        raise FormatError(
            "unknown-directive", f"expected an 'e' line, got {tokens[0]!r}", lineno
        )
    if len(tokens) != arity + 1:
        raise FormatError(
            "malformed-edge", f"'e' line needs {arity} integer fields", lineno
        )
    i, j = [_int_token(t, "edge field", lineno) for t in tokens[1:]][:2]
    if not (1 <= i <= vertex_count and 1 <= j <= vertex_count):
        raise FormatError(
            "id-out-of-range",
            f"vertex ids ({i}, {j}) out of range 1..{vertex_count}",
            lineno,
        )
    raise FormatError(
        "noncanonical-edge", f"edge ({i}, {j}) must satisfy i < j", lineno
    )


_NUMBER = "[1-9][0-9]*"
# (canonical header line, a line break that no canonical edge line or
# the end of the text follows).  The break is searched, not matched over
# the body: a repeated group would make sre keep backtracking state in
# proportion to the line count.
_GRAPH_SHAPE = (
    re.compile(f"p ({_NUMBER}) (0|{_NUMBER})\n"),
    re.compile(f"\n(?!e {_NUMBER} {_NUMBER}\n|\\Z)"),
)
_COLORING_SHAPE = (
    re.compile(f"c ({_NUMBER}) ({_NUMBER})\n"),
    re.compile(f"\n(?!e {_NUMBER} {_NUMBER} {_NUMBER}\n|\\Z)"),
)
# Text per chunk that _canonical_chunks decodes; strings per _write_runs piece.
_CHUNK_CHARS = 1 << 14
_PIECE_PARTS = 1 << 14


def _canonical_chunks(
    text: str, shape: tuple[re.Pattern[str], re.Pattern[str]], until: int | None = None
) -> Iterator[tuple[int, list[int]]]:
    """Yield the offset where the header of canonical `text` ends and its two
    numbers, then for each chunk of whole edge lines before offset `until` (the
    end of the text), ended by the line that takes it to _CHUNK_CHARS, the offset
    it ends at and its numbers, once its shape holds; raise ValueError at the
    first chunk that fails.  The numbers are positive; the caller checks ids and
    colors and rules out duplicates."""
    header, stray_break = shape
    match = header.match(text)
    if match is None:
        raise ValueError("not canonical")
    start, until = match.end(), len(text) if until is None else until
    # int raises ValueError past its digit limit, as the json decode does.
    yield start, [int(match[1]), int(match[2])]
    while start < until:
        end = text.find("\n", min(start + _CHUNK_CHARS, until) - 1) + 1 or until
        if stray_break.search(text, start - 1, end):
            raise ValueError("not canonical")
        # "e 1 2 1\ne 1 3 2\n" -> "[1,2,1,1,3,2\n]": no string is made per token.
        numbers = text[start + 2 : end].replace("\ne ", " ").replace(" ", ",")
        yield end, json.loads(f"[{numbers}]")
        start = end


def _in_range(flat: list[int], arity: int, vertex_count: int, span_t: int) -> list[int]:
    """`flat`, the numbers of a chunk of edge lines, once i < j <= vertex_count
    and, for a coloring (arity 3), color <= span_t hold; else ValueError."""
    vs = flat[1::arity]
    if max(vs) > vertex_count or not all(map(lt, flat[::arity], vs)) or (
        arity == 3 and max(flat[2::3]) > span_t
    ):
        raise ValueError("out of range")
    return flat


def parse_graph(text: str) -> Graph:
    """Parse a graph file; all malformations raise FormatError."""
    try:
        chunks = _canonical_chunks(text, _GRAPH_SHAPE)
        _, (vertex_count, edge_count) = next(chunks)
        flat: list[int] = []
        for _, chunk in chunks:
            flat += _in_range(chunk, 2, vertex_count, 0)
        it = iter(flat)
        edges = frozenset(zip(it, it))
        if len(edges) == edge_count == len(flat) // 2:  # one pair per edge line
            return _canonical_graph(vertex_count, edges)
    except ValueError:  # not canonical: the line loop names the error
        pass
    return _parse_graph_lines(text)


def _parse_graph_lines(text: str) -> Graph:
    """parse_graph's line loop: any text, naming the first error."""
    lines = enumerate(text.splitlines(), start=1)
    header_line, vertex_count, edge_count = _header(lines, "p", "edge_count")
    if edge_count < 0:
        raise FormatError("malformed-header", "edge count must be >= 0", header_line)
    edges: set[Edge] = set()
    for lineno, raw in lines:
        tokens = raw.split()
        if len(tokens) == 3 and tokens[0] == "e":
            try:
                i = int(tokens[1])
                j = int(tokens[2])
            except ValueError:
                i = 0  # fails the range test, so _reject names the bad token
            if 0 < i < j <= vertex_count:
                edge = (i, j)
                if edge in edges:
                    raise FormatError(
                        "duplicate-edge", f"duplicate edge {edge}", lineno
                    )
                edges.add(edge)
                continue
        _reject(tokens, lineno, vertex_count, 2)
    if len(edges) != edge_count:
        raise FormatError(
            "count-mismatch",
            f"header declares {edge_count} edges but file has {len(edges)}",
            header_line,
        )
    return _canonical_graph(vertex_count, frozenset(edges))


def emit_graph(g: Graph) -> str:
    """Canonical graph-file text for g."""
    lines = [f"p {g.vertex_count} {g.edge_count}"]
    lines.extend(f"e {i} {j}" for i, j in sorted(g.edges))
    return "\n".join(lines) + "\n"


def _coloring_palettes(
    text: str, graph_text: str | None, load_graph: Callable[[], Graph]
) -> tuple[int, int, int, Mapping[int, Sequence[int]], set[int]]:
    """(vertex_count, span_t, edge_count, palettes, used colors) of coloring `text`;
    the line loop names its first error.  `graph_text`, a graph file's text or
    None, is read in lockstep: each chunk's pairs must be its next ones, and it
    must end with the coloring, its header counting the edges.

    Each chunk is walked once: the pairs must ascend (u never drops, v rises within
    a row), so ids are checked once per row (its first v is above u, its last v,
    as each chunk's last, at most vertex_count), and each color goes to the
    array('Q') of both ends (unsigned items append faster) once the chunk's colors
    are in range.  At the first chunk not accepted (or a header that is not
    canonical, or a span reaching 2**63) what it read goes, `load_graph()` parses
    `graph_text` (its errors come first), and the line loop reads the coloring
    from that chunk: each line before it is canonical, passes the line loop's
    checks and, with `graph_text`, is a graph edge, given once."""
    from array import array  # a shared library that only verify loads
    palettes: defaultdict[int, array[int]] = defaultdict(lambda: array("Q"))
    used: set[int] = set()
    edge_count = row = last = 0
    stop = None  # (vertex_count, span_t, offset, line, last pair) of that chunk
    try:
        chunks = _canonical_chunks(text, _COLORING_SHAPE)
        start, (vertex_count, span_t) = next(chunks)
        if span_t >> 63:
            raise ValueError("a color may not fit a machine word, signed or not")
        stop = vertex_count, span_t, start, 2, (0, 0)
        if graph_text is not None:
            graph_chunks = _canonical_chunks(graph_text, _GRAPH_SHAPE)
            _, (graph_vertices, graph_edges) = next(graph_chunks)
            pairs = chain.from_iterable(numbers for _, numbers in graph_chunks)
            if graph_vertices != vertex_count:
                raise ValueError("the vertex counts differ")
        for end, flat in chunks:
            cs = flat[2::3]
            if max(cs) > span_t:
                raise ValueError("out of range")
            it = iter(flat)
            for u, v, c in zip(it, it, it):
                if u == row:
                    if v <= last:
                        raise ValueError("not ascending")
                elif u > row and v > u and last <= vertex_count:
                    row, append = u, palettes[u].append
                else:
                    raise ValueError("not ascending")
                append(c)
                palettes[v].append(c)
                last = v
            if last > vertex_count:
                raise ValueError("out of range")
            if graph_text is not None:
                del flat[2::3]
                if list(islice(pairs, len(flat))) != flat:
                    raise ValueError("not the graph's edges")
            used.update(cs)
            edge_count += len(cs)
            stop = vertex_count, span_t, end, edge_count + 2, (row, last)
        if graph_text is not None and (graph_edges != edge_count or next(pairs, None) is not None):
            raise ValueError("a missing edge or a bad count")
        return vertex_count, span_t, edge_count, palettes, used
    except ValueError:  # not canonical, the graph text included
        # All the reader holds goes before the line loop runs, as if it returned.
        palettes = used = chunks = flat = cs = it = append = graph_chunks = pairs = None
    vertex_count, span_t, assignment = _parse_coloring_lines(
        text, None if graph_text is None else load_graph(), stop
    )
    colors = assignment.values()
    return vertex_count, span_t, len(assignment), _palettes(assignment, colors), set(colors)


def parse_coloring_with_graph(
    text: str, graph: Graph | None = None
) -> tuple[Graph, EdgeColoring]:
    """Parse a coloring file, returning the graph it colors.

    With `graph` given, the file's edge set must match it exactly
    (unknown-edge / missing-edge errors otherwise).  Without it, the
    graph is reconstructed from the edge lines themselves.
    """
    read = None
    try:
        chunks = _canonical_chunks(text, _COLORING_SHAPE)
        _, (vertex_count, span_t) = next(chunks)
        if graph is None or graph.vertex_count == vertex_count:  # else graph-mismatch
            assignment: dict[Edge, int] = {}
            lines = 0  # one triple per edge line
            for _, chunk in chunks:
                it = iter(_in_range(chunk, 3, vertex_count, span_t))
                assignment.update(zip(zip(it, it), it))
                lines += len(chunk) // 3
            if len(assignment) == lines and (  # no duplicate, unknown or missing edge
                graph is None or graph.edge_count == lines and graph.edges.issuperset(assignment)
            ):
                read = vertex_count, span_t, assignment
    except ValueError:  # not canonical: the line loop names the error
        pass
    vertex_count, span_t, assignment = read or _parse_coloring_lines(text, graph)
    if graph is None:
        graph = _canonical_graph(vertex_count, frozenset(assignment))
    return graph, _canonical_coloring(assignment, span_t)


def _parse_coloring_lines(
    text: str, graph: Graph | None, stop: tuple[int, int, int, int, Edge] | None = None
) -> tuple[int, int, dict[Edge, int]]:
    """parse_coloring_with_graph's line loop: any text, naming the first error;
    returns (vertex_count, span_t, the colors of the edges).  Given
    _coloring_palettes' `stop` for `text` and the text `graph` was parsed from,
    it starts there; the lines before it go to its dict only once a line's edge
    is at or below their last or the text ends."""
    if stop is None:
        lines = enumerate(text.splitlines(), start=1)
        header_line, vertex_count, span_t = _header(lines, "c", "span_t")
        top = 0  # the row of the last line before the start, 0 for none
    else:
        vertex_count, span_t, offset, lineno, last = stop
        header_line, lines = 1, enumerate(text[offset:].splitlines(), start=lineno)
        top = last[0]
    if span_t < 1:
        raise FormatError("malformed-header", "span must be >= 1", header_line)
    if graph is not None and graph.vertex_count != vertex_count:
        raise FormatError(
            "graph-mismatch",
            f"file has {vertex_count} vertices, graph has {graph.vertex_count}",
            header_line,
        )
    known = None if graph is None else graph.edges
    assignment: dict[Edge, int] = {}
    for lineno, raw in lines:
        tokens = raw.split()
        if len(tokens) == 4 and tokens[0] == "e":
            try:
                i = int(tokens[1])
                j = int(tokens[2])
                color = int(tokens[3])
            except ValueError:
                i = 0  # fails the range test, so _reject names the bad token
            if 0 < i < j <= vertex_count:
                edge = (i, j)
                if i <= top and edge <= last:  # it may repeat a line before the stop
                    assignment, top = _colors_before(text, offset) | assignment, 0
                if edge in assignment:
                    raise FormatError(
                        "duplicate-edge", f"duplicate edge {edge}", lineno
                    )
                if not 0 < color <= span_t:
                    raise FormatError(
                        "color-out-of-range",
                        f"color {color} outside 1..{span_t}",
                        lineno,
                    )
                if known is not None and edge not in known:
                    raise FormatError(
                        "unknown-edge", f"edge {edge} is not in the graph", lineno
                    )
                assignment[edge] = color
                continue
        _reject(tokens, lineno, vertex_count, 3)
    if top:
        assignment = _colors_before(text, offset) | assignment
    if graph is not None and len(assignment) != graph.edge_count:  # each line is a graph edge
        missing = min(graph.edges - assignment.keys())
        raise FormatError(
            "missing-edge", f"graph edge {missing} has no line in the file", header_line
        )
    return vertex_count, span_t, assignment


def _colors_before(text: str, offset: int) -> dict[Edge, int]:
    """The colors of canonical coloring `text`'s edge lines before `offset`."""
    chunks = _canonical_chunks(text, _COLORING_SHAPE, offset)
    next(chunks)
    it = chain.from_iterable(flat for _, flat in chunks)
    return dict(zip(zip(it, it), it))


def parse_coloring(text: str, graph: Graph | None = None) -> EdgeColoring:
    """Parse a coloring file (see parse_coloring_with_graph)."""
    return parse_coloring_with_graph(text, graph)[1]


def emit_coloring(g: Graph, coloring: EdgeColoring) -> str:
    """Canonical coloring-file text; requires exactly the edges of g colored."""
    assignment = coloring.assignment
    if assignment.keys() != g.edges:
        missing = g.edges - assignment.keys()
        if missing:
            raise ValueError(f"edge {min(missing)} has no color")
        extra = min(assignment.keys() - g.edges)
        raise ValueError(f"colored pair {extra} is not an edge of the graph")
    lines = [f"c {g.vertex_count} {coloring.span_t}"]
    lines.extend([f"e {i} {j} {assignment[i, j]}" for i, j in sorted(assignment)])
    return "\n".join(lines) + "\n"


def _write_runs(
    vertex_count: int, span_t: int, runs: Iterable[tuple[int, int, int, int, int]]
) -> Iterator[str]:
    """Canonical text of a coloring given as runs (tag, i, lo, hi, shift),
    in pieces of whole rows, each cut at the first row end past _PIECE_PARTS strings.

    Each run colors the edges (i, j), lo <= j < hi, with j + shift; the
    runs must come in canonical edge order, cover the graph's edges once
    and keep every color in 1..span_t.  Lines are joined from tables of
    the number strings, so no string is built per edge.
    """
    num = list(map(str, range(vertex_count + 1)))
    tail = [f" {c}\n" for c in range(span_t + 1)]
    parts, row = [f"c {vertex_count} {span_t}\n"], 0
    for _, i, lo, hi, shift in runs:
        if i != row and len(parts) >= _PIECE_PARTS:
            yield "".join(parts)
            parts = []
        row = i
        parts += chain.from_iterable(
            zip(repeat(f"e {i} "), num[lo:hi], tail[lo + shift : hi + shift])
        )
    yield "".join(parts)
