import gc
import io
import tracemalloc
from itertools import combinations
from types import FrameType, MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    colored_graphs,
    graphs,
    reference_parse_coloring_with_graph,
    reference_parse_graph,
    round_robin,
)
from intervalcoloring import (
    EdgeColoring,
    FormatError,
    Graph,
    complete_graph,
    construct,
    emit_coloring,
    emit_graph,
    graph_from_edges,
    parse_coloring,
    parse_coloring_with_graph,
    parse_graph,
)
from intervalcoloring import cli
from intervalcoloring import io as formats


def test_parse_graph_k2():
    assert parse_graph("p 2 1\ne 1 2") == complete_graph(2)


def test_parse_graph_k4():
    text = "p 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4"
    assert parse_graph(text) == complete_graph(4)


def test_parse_graph_comments_and_blank_lines():
    text = "# a complete graph\n\np 3 3\ne 1 2\n# middle\ne 1 3\ne 2 3\n"
    assert parse_graph(text) == complete_graph(3)


GRAPH_REJECTS = [
    ("", "missing-header", None, "empty input, expected 'p' header"),
    ("e 1 2", "missing-header", 1, "line 1: expected 'p' header, got 'e'"),
    ("p 2\ne 1 2", "malformed-header", 1,
     "line 1: header needs 'p <vertex_count> <edge_count>'"),
    ("p two 1\ne 1 2", "bad-token", 1,
     "line 1: vertex count must be an integer, got 'two'"),
    ("p 0 0", "malformed-header", 1, "line 1: vertex count must be >= 1"),
    ("p 2 -1", "malformed-header", 1, "line 1: edge count must be >= 0"),
    ("p 2 1\ne 1 2\ne 1 2", "duplicate-edge", 3, "line 3: duplicate edge (1, 2)"),
    ("p 2 1\ne 1 3", "id-out-of-range", 2,
     "line 2: vertex ids (1, 3) out of range 1..2"),
    ("p 2 1\ne 2 1", "noncanonical-edge", 2, "line 2: edge (2, 1) must satisfy i < j"),
    ("p 2 1\ne 1 1", "noncanonical-edge", 2, "line 2: edge (1, 1) must satisfy i < j"),
    ("p 2 1\ne 1", "malformed-edge", 2, "line 2: 'e' line needs 2 integer fields"),
    ("p 2 1\ne 1 x", "bad-token", 2, "line 2: edge field must be an integer, got 'x'"),
    ("p 2 2\ne 1 2", "count-mismatch", 1,
     "line 1: header declares 2 edges but file has 1"),
    ("p 2 1\nq 1 2", "unknown-directive", 2, "line 2: expected an 'e' line, got 'q'"),
]


def _ids(rows):
    return [f"{text}-{kind}-{line}" for text, kind, line, _ in rows]


@pytest.mark.parametrize(
    "text,kind,line,message", GRAPH_REJECTS, ids=_ids(GRAPH_REJECTS)
)
def test_parse_graph_rejects(text, kind, line, message):
    with pytest.raises(FormatError) as exc:
        parse_graph(text)
    assert exc.value.kind == kind
    assert exc.value.line == line
    assert str(exc.value) == message


def test_emit_graph_round_trip():
    g = graph_from_edges(5, [(4, 5), (1, 3), (2, 3)])
    text = emit_graph(g)
    assert text == "p 5 3\ne 1 3\ne 2 3\ne 4 5\n"
    assert parse_graph(text) == g


def test_emit_coloring_smallest():
    assert emit_coloring(complete_graph(2), construct(1)) == "c 2 1\ne 1 2 1\n"


def test_emit_coloring_k4():
    text = emit_coloring(complete_graph(4), construct(2))
    lines = text.splitlines()
    assert lines[0] == "c 4 4"
    assert len(lines) == 7
    assert lines[1] == "e 1 2 1"


def test_emit_round_robin_header():
    text = emit_coloring(complete_graph(4), round_robin(2))
    assert text.splitlines()[0] == "c 4 3"


def test_emit_coloring_requires_total_assignment():
    g = complete_graph(3)
    c = EdgeColoring({(1, 2): 1, (1, 3): 2}, span_t=3)
    with pytest.raises(ValueError):
        emit_coloring(g, c)


def test_emit_coloring_rejects_pairs_that_are_not_edges():
    # verify_interval reports such a pair, so dropping it on the way out
    # would turn a failing coloring into a passing file.
    c = EdgeColoring({(1, 2): 1, (3, 9): 1}, span_t=1)
    with pytest.raises(ValueError, match=r"\(3, 9\)"):
        emit_coloring(complete_graph(2), c)


def test_round_trip_construct_3():
    g = complete_graph(6)
    c = construct(3)
    text = emit_coloring(g, c)
    parsed_graph, parsed = parse_coloring_with_graph(text)
    assert parsed_graph == g
    assert parsed == c
    assert emit_coloring(parsed_graph, parsed) == text


def test_parse_coloring_against_given_graph():
    g = complete_graph(2)
    c = parse_coloring("c 2 1\ne 1 2 1", g)
    assert dict(c.assignment) == {(1, 2): 1}


COLORING_REJECTS = [
    ("c 2 1\ne 1 2 0", "color-out-of-range", 2, "line 2: color 0 outside 1..1"),
    ("c 2 2\ne 1 2 3", "color-out-of-range", 2, "line 2: color 3 outside 1..2"),
    ("c 2 0\ne 1 2 1", "malformed-header", 1, "line 1: span must be >= 1"),
    ("c 2 1\ne 1 2 1\ne 1 2 1", "duplicate-edge", 3, "line 3: duplicate edge (1, 2)"),
    ("c 2 1\ne 1 2", "malformed-edge", 2, "line 2: 'e' line needs 3 integer fields"),
    ("p 2 1\ne 1 2 1", "missing-header", 1, "line 1: expected 'c' header, got 'p'"),
]


@pytest.mark.parametrize(
    "text,kind,line,message", COLORING_REJECTS, ids=_ids(COLORING_REJECTS)
)
def test_parse_coloring_rejects(text, kind, line, message):
    with pytest.raises(FormatError) as exc:
        parse_coloring(text)
    assert exc.value.kind == kind
    assert exc.value.line == line
    assert str(exc.value) == message


def test_parse_coloring_unknown_edge():
    g = graph_from_edges(3, [(1, 2)])
    with pytest.raises(FormatError) as exc:
        parse_coloring("c 3 1\ne 1 2 1\ne 1 3 1", g)
    assert exc.value.kind == "unknown-edge"
    assert exc.value.line == 3


def test_parse_coloring_missing_edge():
    g = complete_graph(4)
    text = "c 4 4\ne 1 2 1\ne 1 3 2\ne 1 4 3\ne 2 3 3\ne 2 4 2"
    with pytest.raises(FormatError) as exc:
        parse_coloring(text, g)
    assert exc.value.kind == "missing-edge"
    assert "(3, 4)" in str(exc.value)


def test_parse_coloring_vertex_count_mismatch():
    with pytest.raises(FormatError) as exc:
        parse_coloring("c 3 1\ne 1 2 1", complete_graph(2))
    assert exc.value.kind == "graph-mismatch"


def test_emission_matches_golden_file():
    from pathlib import Path

    golden = Path(__file__).parent / "golden" / "k8_span10.coloring"
    text = emit_coloring(complete_graph(8), construct(4))
    assert text == golden.read_text()


@pytest.mark.parametrize("n", range(1, 13))
def test_round_trip_constructed(n):
    g = complete_graph(2 * n)
    c = construct(n)
    text = emit_coloring(g, c)
    assert parse_coloring(text) == c
    assert emit_coloring(g, parse_coloring(text)) == text


@settings(max_examples=120, deadline=None)
@given(colored_graphs())
def test_round_trip_arbitrary_colorings(gc):
    g, c = gc
    text = emit_coloring(g, c)
    parsed_graph, parsed = parse_coloring_with_graph(text)
    assert parsed == c
    assert emit_coloring(parsed_graph, parsed) == text


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_graph_file_round_trip(g):
    assert parse_graph(emit_graph(g)) == g


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_parsers_reject_noise_with_format_errors_only(text):
    for parser in (parse_graph, parse_coloring):
        try:
            parser(text)
        except FormatError:
            pass


def test_emit_coloring_sorts_pairs_inserted_in_any_order():
    for n in range(1, 8):
        g = complete_graph(2 * n)
        c = construct(n)
        backwards = EdgeColoring(dict(reversed(c.assignment.items())), c.span_t)
        assert emit_coloring(g, backwards) == emit_coloring(g, c)


def test_emit_coloring_names_the_smallest_missing_edge_before_any_extra_pair():
    # (1, 2) is not an edge and sorts first; (2, 4) and (3, 4) have no color.
    g = graph_from_edges(4, [(1, 3), (2, 3), (2, 4), (3, 4)])
    c = EdgeColoring({(1, 2): 1, (1, 3): 1, (2, 3): 2}, span_t=2)
    with pytest.raises(ValueError) as exc:
        emit_coloring(g, c)
    assert str(exc.value) == "edge (2, 4) has no color"


def test_emit_coloring_names_the_smallest_extra_pair():
    c = EdgeColoring({(1, 2): 1, (3, 9): 1, (2, 5): 1}, span_t=1)
    with pytest.raises(ValueError) as exc:
        emit_coloring(complete_graph(2), c)
    assert str(exc.value) == "colored pair (2, 5) is not an edge of the graph"


@pytest.mark.parametrize(
    "make",
    [lambda: parse_coloring(emit_coloring(complete_graph(6), construct(3))),
     lambda: construct(3)],
    ids=["parse_coloring", "construct"],
)
def test_unchecked_coloring_is_read_only_and_holds_the_only_reference(make):
    c = make()
    assert type(c.assignment) is MappingProxyType
    with pytest.raises(TypeError):
        c.assignment[(1, 2)] = 1  # type: ignore[index]
    (inner,) = [r for r in gc.get_referents(c.assignment) if type(r) is dict]
    holders = [r for r in gc.get_referrers(inner) if not isinstance(r, FrameType)]
    assert len(holders) == 1 and holders[0] is c.assignment


# ------------------------------------------------------------------ oracle
# The library's parsers against the reference parsers in conftest.py, on
# valid files with a few lines mutated.  Either both return equal values
# or both raise a FormatError with the same kind, line and message.

MUTATIONS = (
    "drop", "extra", "swap", "plus", "underscore", "bad-token", "separator",
    "comment", "blank", "id-range", "color-range", "repeat", "delete", "directive",
    "leading-zero", "non-ascii-digit", "trailing-space", "crlf", "no-header",
)
SEPARATORS = ("\t", "\x0c", "\xa0", "  ", " \t ")
ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                             "\u0665\u0666\u0667\u0668\u0669")


@st.composite
def mutated(draw, text: str, vertex_count: int, span: int) -> str:
    """`text` with up to four mutations, each at a drawn line.

    The header is drawn one time in eight, so most files get past it.
    """
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 4))):
        at_header = len(lines) == 1 or draw(st.integers(0, 7)) == 7
        k = 0 if at_header else draw(st.integers(1, len(lines) - 1))
        tokens = lines[k].split()
        index = draw(st.integers(0, max(len(tokens) - 1, 0)))
        sep = " "
        kind = draw(st.sampled_from(MUTATIONS))
        if kind == "comment":
            lines.insert(k, "# " + draw(st.sampled_from(["note", "e 1 2", ""])))
            continue
        if kind == "blank":
            lines.insert(k, draw(st.sampled_from(["", "  ", "\t"])))
            continue
        if kind == "repeat":
            lines.insert(k, lines[k])
            continue
        if kind == "delete" and len(lines) > 1:
            del lines[k]
            continue
        if kind == "no-header":  # the edge lines after it stay canonical
            lines[0] = draw(st.sampled_from(["# header", "", " "]))
            continue
        if kind == "trailing-space":
            lines[k] += " "
            continue
        if kind == "crlf":
            lines[k] += "\r"
            continue
        if kind == "drop" and tokens:
            del tokens[index]
        elif kind == "extra":
            tokens.insert(index + 1, draw(st.sampled_from(["1", "0", "x", "e", "#"])))
        elif kind == "swap" and len(tokens) >= 3:
            tokens[1], tokens[2] = tokens[2], tokens[1]
        elif kind == "plus" and tokens:
            tokens[index] = "+" + tokens[index]
        elif kind == "underscore" and tokens:
            tokens[index] = draw(st.sampled_from(["1_0", "1_" + tokens[index]]))
        elif kind == "bad-token" and tokens:
            tokens[index] = draw(st.sampled_from(["x", "1.0", "0x1", "2e0", "1-"]))
        elif kind == "separator":
            sep = draw(st.sampled_from(SEPARATORS))
        elif kind == "id-range" and len(tokens) >= 3:
            bad = draw(st.sampled_from([0, -1, vertex_count + 1]))
            tokens[draw(st.sampled_from([1, 2]))] = str(bad)
        elif kind == "color-range" and len(tokens) == 4:
            tokens[3] = str(draw(st.sampled_from([0, -2, span + 1])))
        elif kind == "directive" and tokens:
            tokens[0] = draw(st.sampled_from(["q", "E", "ee"]))
        elif kind == "leading-zero" and tokens:
            tokens[index] = "0" + tokens[index]
        elif kind == "non-ascii-digit" and tokens:
            tokens[index] = draw(st.sampled_from(
                ["\u0661", tokens[index].translate(ARABIC_INDIC)]
            ))
        lines[k] = sep.join(tokens)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _outcome(parse, *args):
    try:
        return "ok", parse(*args)
    except FormatError as exc:
        return "error", exc.kind, exc.line, str(exc)


@st.composite
def sources(draw):
    """A graph with at least one edge, and an arbitrary coloring of it."""
    nv = draw(st.integers(2, 7))
    pairs = list(combinations(range(1, nv + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    span = draw(st.integers(1, 9))
    assignment = {e: draw(st.integers(1, span)) for e in sorted(edges)}
    return Graph(nv, frozenset(edges)), EdgeColoring(assignment, span)


@st.composite
def mutated_graph_files(draw):
    g, _ = draw(sources())
    text = emit_graph(g)
    return draw(st.one_of(st.just(text), mutated(text, g.vertex_count, 0)))


@st.composite
def mutated_coloring_files(draw):
    g, c = draw(sources())
    text = emit_coloring(g, c)
    text = draw(st.one_of(st.just(text), mutated(text, g.vertex_count, c.span_t)))
    given = draw(st.sampled_from(["none", "same", "other"]))
    if given == "none":
        return text, None
    if given == "same":
        return text, g
    m = g.vertex_count
    return text, draw(graphs(min_vertices=m, max_vertices=m + draw(st.integers(0, 1))))


@settings(max_examples=400, deadline=None)
@given(mutated_graph_files())
def test_parse_graph_agrees_with_the_reference_parser(text):
    assert _outcome(parse_graph, text) == _outcome(reference_parse_graph, text)


@settings(max_examples=400, deadline=None)
@given(mutated_coloring_files())
def test_parse_coloring_agrees_with_the_reference_parser(case):
    text, graph = case
    assert _outcome(parse_coloring_with_graph, text, graph) == _outcome(
        reference_parse_coloring_with_graph, text, graph
    )


# ------------------------------------------------------- bulk accept path
# Canonical text (as emitted) is read without the line loop; any error in
# it is named by the line loop, exactly as the reference parser names it.


def _construct_text(n):
    out = io.StringIO()
    assert cli.run(["construct", "--n", str(n)], stdout=out) == 0
    return out.getvalue()


def test_canonical_text_takes_the_bulk_path(monkeypatch, tmp_path):
    text = _construct_text(60)
    graph_text = emit_graph(complete_graph(120))
    (tmp_path / "k120.graph").write_text(graph_text)

    def no_line_loop(*args):
        raise AssertionError("canonical text went to the line loop")

    monkeypatch.setattr(formats, "_parse_graph_lines", no_line_loop)
    monkeypatch.setattr(formats, "_parse_coloring_lines", no_line_loop)
    assert parse_coloring_with_graph(text) == (complete_graph(120), construct(60))
    assert parse_graph(graph_text) == complete_graph(120)
    out = io.StringIO()
    argv = ["verify", "-", "--graph", str(tmp_path / "k120.graph")]
    assert cli.run(argv, stdin=io.StringIO(text), stdout=out) == 0
    assert out.getvalue().startswith("PASS: interval coloring of 120 vertices")


def _edit_line(text, lineno, new=None):
    """`text` with line `lineno` replaced by `new`, or deleted if it is None."""
    lines = text.split("\n")
    lines[lineno - 1 : lineno] = [] if new is None else [new]
    return "\n".join(lines)


K120 = complete_graph(120)
# (name, edit of the K_120 coloring text, graph given, kind).  Lines 7139
# to 7141 hold edges (118, 119), (118, 120) and (119, 120).  Each edit
# keeps the text canonical, so the bulk path reads it before declining.
BULK_REJECTS = [
    ("duplicate", lambda t: t + t.splitlines()[-3] + "\n", None, "duplicate-edge"),
    ("color", lambda t: _edit_line(t, 7139, "e 118 119 179"), None,
     "color-out-of-range"),
    ("i>j", lambda t: _edit_line(t, 7139, "e 119 118 3"), None, "noncanonical-edge"),
    ("id", lambda t: _edit_line(t, 7139, "e 118 121 3"), None, "id-out-of-range"),
    # As many lines as the graph has edges, one of them not in it.
    ("unknown", lambda t: _edit_line(t, 7140), Graph(120, K120.edges - {(118, 119)}),
     "unknown-edge"),
    ("missing", lambda t: _edit_line(t, 7139), K120, "missing-edge"),
    ("mismatch", lambda t: t, Graph(121, K120.edges), "graph-mismatch"),
]


@pytest.mark.parametrize(
    "edit,graph,kind", [row[1:] for row in BULK_REJECTS],
    ids=[row[0] for row in BULK_REJECTS],
)
def test_errors_in_canonical_text_are_named_as_the_reference_names_them(
    edit, graph, kind
):
    text = edit(_construct_text(60))
    want = _outcome(reference_parse_coloring_with_graph, text, graph)
    assert want[:2] == ("error", kind)
    assert _outcome(parse_coloring_with_graph, text, graph) == want


@pytest.mark.parametrize(
    "edit,kind",
    [(lambda t: t + "e 118 119\n", "duplicate-edge"),
     (lambda t: _edit_line(t, 7140, "e 120 119"), "noncanonical-edge"),
     (lambda t: _edit_line(t, 7140, "e 119 121"), "id-out-of-range"),
     (lambda t: _edit_line(t, 7140), "count-mismatch")],
    ids=["duplicate", "i>j", "id", "count"],
)
def test_errors_in_canonical_graph_text_are_named_as_the_reference_names_them(
    edit, kind
):
    text = edit(emit_graph(K120))
    want = _outcome(reference_parse_graph, text)
    assert want[:2] == ("error", kind)
    assert _outcome(parse_graph, text) == want


@pytest.mark.parametrize(
    "text,parse",
    [(_construct_text(100), parse_coloring_with_graph),
     (emit_graph(complete_graph(200)), parse_graph)],
    ids=["coloring", "graph"],
)
def test_parse_peak_memory_is_bounded_by_its_result(text, parse):
    tracemalloc.start()
    try:
        result = parse(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result
    assert peak - held < 1 << 20
