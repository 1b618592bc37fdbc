import io
import os
import random
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import accumulate
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import classifier_twin
from test_io import mutated_coloring_files
from intervalcoloring import (
    FormatError,
    Graph,
    complete_graph,
    emit_coloring,
    emit_graph,
    graph_from_edges,
    parse_coloring,
    parse_coloring_with_graph,
    parse_graph,
    verify_interval,
)
import intervalcoloring
from intervalcoloring import graph as graph_module
from intervalcoloring import cli as cli_module
from intervalcoloring import io as coloring_io
from intervalcoloring.cli import main, run


def run_cli(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_construct_writes_coloring_file():
    code, out, err = run_cli(["construct", "--n", "4"])
    assert code == 0 and not err
    lines = out.splitlines()
    assert lines[0] == "c 8 10"
    assert len(lines) == 1 + 28
    coloring = parse_coloring(out)
    assert coloring.span_t == 10


def test_construct_to_file(tmp_path):
    path = tmp_path / "k4.coloring"
    code, out, _ = run_cli(["construct", "--n", "2", "--out", str(path)])
    assert code == 0 and out == ""
    assert path.read_text().splitlines()[0] == "c 4 4"


def test_construct_builds_no_graph_and_writes_the_checked_text(monkeypatch):
    # n = 4, 5, 8, 64, 100: odd and even n, and both sides of the
    # clause-5/6 split.
    expected = {
        n: emit_coloring(complete_graph(2 * n), classifier_twin(n))
        for n in (1, 2, 3, 4, 5, 7, 8, 60, 64, 100)
    }

    def no_graph(*args):
        raise AssertionError("construct built a Graph")

    monkeypatch.setattr(Graph, "__post_init__", no_graph)
    monkeypatch.setattr(graph_module, "_canonical_graph", no_graph)
    for n, text in expected.items():
        assert run_cli(["construct", "--n", str(n)]) == (0, text, ""), n


def test_write_failure_is_usage_error(tmp_path):
    target = tmp_path / "missing" / "x.coloring"
    code, out, err = run_cli(["construct", "--n", "2", "--out", str(target)])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write")


def test_verify_pass_and_exit_zero(tmp_path):
    _, text, _ = run_cli(["construct", "--n", "5"])
    path = tmp_path / "k10.coloring"
    path.write_text(text)
    code, out, _ = run_cli(["verify", str(path)])
    assert code == 0
    assert out.startswith("PASS")


def test_verify_from_stdin():
    _, text, _ = run_cli(["construct", "--n", "3"])
    code, out, _ = run_cli(["verify", "-"], stdin_text=text)
    assert code == 0 and out.startswith("PASS")


def test_verify_fail_lists_violations(tmp_path):
    bad = "c 2 2\ne 1 2 2\n"
    path = tmp_path / "bad.coloring"
    path.write_text(bad)
    code, out, _ = run_cli(["verify", str(path)])
    assert code == 1
    assert out.startswith("FAIL: 1 violation")
    assert "color-unused at color 1" in out


def test_verify_fail_listing_is_byte_exact():
    # Vertex 1 repeats color 1, vertex 3 sees {1, 3}, and colors 2 and 4
    # are on no edge.
    code, out, err = run_cli(["verify", "-"], "c 4 4\ne 1 2 1\ne 1 3 1\ne 3 4 3\n")
    assert (code, err) == (1, "")
    assert out == (
        "FAIL: 4 violation(s)\n"
        "  not-proper at vertex 1\n"
        "  not-consecutive at vertex 3\n"
        "  color-unused at color 2\n"
        "  color-unused at color 4\n"
    )
    # Vertex 1 sees {3, 5}; the unused colors form runs at 1..2, 4, 6
    # and 8..9, the first starting at color 1 and the last ending at the span.
    code, out, err = run_cli(["verify", "-"], "c 5 9\ne 1 2 3\ne 1 3 5\ne 4 5 7\n")
    assert (code, err) == (1, "")
    assert out == (
        "FAIL: 7 violation(s)\n"
        "  not-consecutive at vertex 1\n"
        "  color-unused at color 1\n"
        "  color-unused at color 2\n"
        "  color-unused at color 4\n"
        "  color-unused at color 6\n"
        "  color-unused at color 8\n"
        "  color-unused at color 9\n"
    )


class _Writes(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text.encode()))
        return super().write(text)


@pytest.mark.parametrize("span", [2, 3, 12_345, 100_000])
def test_verify_writes_the_listing_in_whole_lines_of_at_most_pipe_buf(span):
    out, err = _Writes(), io.StringIO()
    stdin = io.StringIO(f"c 2 {span}\ne 1 2 1\n")
    code = run(["verify", "-"], stdin=stdin, stdout=out, stderr=err)
    assert (code, err.getvalue()) == (1, "")
    assert out.getvalue() == f"FAIL: {span - 1} violation(s)\n" + "".join(
        f"  color-unused at color {c}\n" for c in range(2, span + 1)
    )
    assert max(out.sizes) <= cli_module._PIPE_BUF
    # Every write ends a line, so no line is split between two writes.
    ends = list(accumulate(out.sizes))
    assert all(out.getvalue()[end - 1] == "\n" for end in ends)


def _library_verdict(text, graph=None):
    """verify's (exit code, stdout, stderr) on stdin `text`, from the library,
    and the FormatError that the line loop raises on it, if any."""
    try:
        graph, coloring = parse_coloring_with_graph(text, graph)
    except FormatError:
        with pytest.raises(FormatError) as info:
            coloring_io._parse_coloring_lines(text, graph)
        return (2, "", f"error: -: {info.value}\n"), info.value
    v = verify_interval(graph, coloring).violations
    if not v:
        out = (
            f"PASS: interval coloring of {graph.vertex_count} vertices, "
            f"span {coloring.span_t}, {graph.edge_count} edges\n"
        )
        return (0, out, ""), None
    return (1, f"FAIL: {len(v)} violation(s)\n" + "".join(f"  {x}\n" for x in v), ""), None


def test_verify_listing_is_the_library_report(tmp_path):
    # Random colorings of small graphs, colors within the span, some spans
    # raised, some colors repeated: the CLI writes verify_interval's report.
    # Each file is also read with its lines in edge order, against a graph
    # file of its edges, of one edge more, less or swapped, and with a line
    # repeated.
    rng = random.Random(15)
    gpath = tmp_path / "g.graph"
    for _ in range(300):
        n = rng.randint(2, 7)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        edges = rng.sample(pairs, rng.randint(1, len(pairs)))
        span = rng.randint(1, 2 * n) + rng.choice([0, 0, rng.randint(1, 40)])
        palette = rng.sample(range(1, span + 1), min(span, rng.randint(1, 4)))
        lines = [f"e {i} {j} {rng.choice(palette)}\n" for i, j in edges]
        text = f"c {n} {span}\n" + "".join(lines)
        expected, _ = _library_verdict(text)
        assert expected[0] != 2
        assert run_cli(["verify", "-"], text) == expected
        in_order = [line for _, line in sorted(zip(edges, lines))]
        ordered = f"c {n} {span}\n" + "".join(in_order)
        assert run_cli(["verify", "-"], ordered) == _library_verdict(ordered)[0]

        graph = graph_from_edges(n, edges)
        gpath.write_text(emit_graph(graph))
        assert run_cli(["verify", "-", "--graph", str(gpath)], text) == _library_verdict(
            text, graph
        )[0]
        other = sorted(set(pairs) - set(edges))
        changes = [(set(edges) - {rng.choice(edges)}, "unknown-edge")]
        if other:  # one edge more, and one edge swapped for another
            added = rng.choice(other)
            changes.append((set(edges) | {added}, "missing-edge"))
            changes.append((set(edges) - {rng.choice(edges)} | {added}, "unknown-edge"))
        for changed, kind in changes:
            changed = graph_from_edges(n, changed)
            gpath.write_text(emit_graph(changed))
            expected, exc = _library_verdict(text, changed)
            assert exc.kind == kind
            assert run_cli(["verify", "-", "--graph", str(gpath)], text) == expected

        # A repeat in edge order fails the ascending test on the repeat alone.
        body, k = rng.choice([lines, in_order]), rng.randrange(len(lines))
        repeated = f"c {n} {span}\n" + "".join(body[: k + 1] + body[k:])
        expected, exc = _library_verdict(repeated)
        assert (exc.kind, exc.line) == ("duplicate-edge", k + 3)
        assert run_cli(["verify", "-"], repeated) == expected


def test_canonical_text_takes_the_column_path(monkeypatch, tmp_path):
    # Canonical text is read in chunks into per-vertex palettes: neither
    # parser, nor the dict-to-palettes step, is called for a PASS or a FAIL,
    # and an emit_graph file is read in lockstep.  A graph file that is not emit_graph
    # text (its edge lines reversed, or a comment line past its first chunk) is
    # parsed, and the coloring goes to the line loop from where the reader
    # stopped: it still passes.
    _, text, _ = run_cli(["construct", "--n", "60"])
    graph_text = emit_graph(complete_graph(120))
    (tmp_path / "k120.graph").write_text(graph_text)
    header, *edge_lines = graph_text.splitlines(keepends=True)
    (tmp_path / "k120r.graph").write_text(header + "".join(edge_lines[::-1]))
    (tmp_path / "k120c.graph").write_text(
        header + "".join(edge_lines[:5000] + ["# a comment\n"] + edge_lines[5000:])
    )
    lines = text.split("\n")
    assert lines[1:3] == ["e 1 2 1", "e 1 3 2"]  # adjacent at vertex 1
    not_proper = "\n".join([lines[0], lines[1], "e 1 3 1", *lines[3:]])
    assert lines[0] == "c 120 178"
    raised = "c 120 183" + text[len(lines[0]):]
    expected = {t: _library_verdict(t)[0] for t in (not_proper, raised)}
    assert all(code == 1 for code, _, _ in expected.values())
    pass_line = "PASS: interval coloring of 120 vertices, span 178, 7140 edges\n"
    for name in ("k120r.graph", "k120c.graph"):
        assert run_cli(["verify", "-", "--graph", str(tmp_path / name)], text) == (0, pass_line, "")

    def refuse(*args):
        raise AssertionError("canonical text left the column path")

    monkeypatch.setattr(coloring_io, "_parse_coloring_lines", refuse)
    monkeypatch.setattr(coloring_io, "parse_coloring_with_graph", refuse)
    monkeypatch.setattr(coloring_io, "_palettes", refuse)
    assert run_cli(["verify", "-"], text) == (0, pass_line, "")
    assert run_cli(["verify", "-", "--graph", str(tmp_path / "k120.graph")], text) == (
        0, pass_line, ""
    )
    for edited, want in expected.items():
        assert run_cli(["verify", "-"], edited) == want


def test_out_of_order_text_is_verified_without_records(monkeypatch, tmp_path):
    # K_40 text with its edge lines reversed goes to the line loop, whose dict
    # gives the palettes: no EdgeColoring is built, nor, without --graph, a
    # Graph.  Its PASS, and its FAIL for a clash, are those of the text in order.
    _, text, _ = run_cli(["construct", "--n", "20"])
    clashing = text.replace("\ne 1 3 2\n", "\ne 1 3 1\n", 1)
    assert clashing != text
    reversed_texts = []
    for t in (text, clashing):
        header, *lines = t.splitlines(keepends=True)
        reversed_texts.append(header + "".join(lines[::-1]))
    expected = [run_cli(["verify", "-"], t) for t in (text, clashing)]
    assert [code for code, _, _ in expected] == [0, 1]
    graph_path = tmp_path / "k40.graph"
    graph_path.write_text(emit_graph(complete_graph(40)))

    def refuse(*args):
        raise AssertionError("the line path built a record")

    monkeypatch.setattr(coloring_io, "_canonical_coloring", refuse)
    argv = ["verify", "-", "--graph", str(graph_path)]
    assert [run_cli(argv, t) for t in reversed_texts] == expected
    monkeypatch.setattr(coloring_io, "_canonical_graph", refuse)
    assert [run_cli(["verify", "-"], t) for t in reversed_texts] == expected


def test_verify_peak_memory_is_bounded():
    # The column path holds the text's numbers and the palettes, and no
    # per-edge tuple, dict or set: 2.2 MB here, against 3.9 MB for the
    # coloring's dict and graph.
    _, text, _ = run_cli(["construct", "--n", "100"])
    tracemalloc.start()
    try:
        code, out, _ = run_cli(["verify", "-"], text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and out.startswith("PASS")
    assert peak < 3 << 20


def test_verify_peak_memory_is_the_text_and_the_palettes():
    # The stdin buffer is made before tracing starts, so the peak is the
    # text verify reads, its palettes (2|E| machine words) and one chunk.
    _, text, _ = run_cli(["construct", "--n", "200"])
    stdin, out, err = io.StringIO(text), io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        code = run(["verify", "-"], stdin=stdin, stdout=out, stderr=err)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue() == "PASS: interval coloring of 400 vertices, span 598, 79800 edges\n"
    assert peak < 4 << 20


def test_verify_graph_peak_memory_is_the_texts_and_the_palettes(tmp_path):
    # The K_400 graph file is read in lockstep with the coloring, so no
    # edge set is built: the peak is the two texts, the palettes and a few
    # chunks (13.7 MiB when the graph was parsed into a frozenset).
    _, text, _ = run_cli(["construct", "--n", "200"])
    graph_path = tmp_path / "k400.graph"
    graph_path.write_text(emit_graph(complete_graph(400)))
    stdin, out, err = io.StringIO(text), io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        code = run(["verify", "-", "--graph", str(graph_path)], stdin=stdin, stdout=out, stderr=err)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue() == "PASS: interval coloring of 400 vertices, span 598, 79800 edges\n"
    assert peak < 5 << 20


@pytest.mark.parametrize("size", [1, 8, 20, 64, None])
def test_chunked_verify_is_the_line_loop_across_chunk_boundaries(monkeypatch, tmp_path, size):
    # size None keeps the default chunk; K_80's text spans several of them.
    if size is not None:
        monkeypatch.setattr(coloring_io, "_CHUNK_CHARS", size)
    size = coloring_io._CHUNK_CHARS
    _, text, _ = run_cli(["construct", "--n", "40"])
    header, *lines = text.splitlines(keepends=True)
    assert header == "c 80 118\n"

    def chunk_ends(edge_lines):
        """The index of the last line of each chunk, as _canonical_chunks cuts
        them (each chunk ends at the first line that takes it to `size` chars)."""
        filled, ends = 0, []
        for k, line in enumerate(edge_lines):
            filled += len(line)
            if filled >= size:
                ends.append(k)
                filled = 0
        return ends

    def body(edited):
        return header + "".join(edited)

    # The last line of the first chunk whose next line has its length, so
    # swapping the two moves no cut.
    k = next(k for k in chunk_ends(lines) if len(lines[k]) == len(lines[k + 1]))
    _, i, j, c = lines[k + 1].split()
    # A row that starts at a chunk cut, in the text without its first d lines.
    rows = [line.split()[1] for line in lines]
    d, r = next(
        (d, k + 1)
        for d in range(len(lines))
        for k in [d + end for end in chunk_ends(lines[d:])]
        if k + 1 < len(lines) and rows[k] != rows[k + 1]
    )
    _, u, _, uc = lines[r].split()
    _, p, _, pc = lines[r - 1].split()
    # A chunk's last line with a two-digit j, so an id of 81 moves no cut.
    e = next(e for e in chunk_ends(lines) if e > 80 and len(lines[e].split()[2]) == 2)
    _, ei, _, ec = lines[e].split()
    _, fi, fj, _ = lines[e + 1].split()
    _, i_k, j_k, _ = lines[k].split()

    # Row 1 ends at lines[78], row 2 starts at lines[79].
    assert lines[78].startswith("e 1 80 ") and lines[79].startswith("e 2 3 ")
    assert lines[-1].startswith("e 79 80 ")
    k80 = complete_graph(80)
    short = graph_from_edges(80, k80.edges - {(int(i), int(j))})
    cases = [  # (text, graph, whether the chunk reader accepts it)
        (text, None, True),
        (body([lines[0], "e 1 3 1\n", *lines[2:]]), None, True),  # not proper at 1
        ("c 80 121" + text[len("c 80 118"):], None, True),  # span raised
        (body(lines[: k + 1] + lines[k:]), None, False),  # a repeat starts chunk 2
        (body(lines[:k] + [lines[k + 1], lines[k]] + lines[k + 2 :]), None, False),
        (body(lines[: k + 1] + [f"e {i} {j} 119\n"] + lines[k + 2 :]), None, False),
        (body(lines[: k + 1] + [f"e {i} x {c}\n"] + lines[k + 2 :]), None, False),
        (text, k80, True),
        (text, short, False),  # the file's line k + 2 is not a graph edge
        # Ids out of range where the reader checks them once per row.
        (body(lines[:78] + [f"e 1 81 {lines[78].split()[3]}\n"] + lines[79:]), None, False),
        (body(lines[:-1] + [f"e 79 81 {lines[-1].split()[3]}\n"]), None, False),
        (body(lines[:79] + [f"e 2 2 {lines[79].split()[3]}\n"] + lines[80:]), None, False),
        (body(lines[:80] + [lines[78]] + lines[80:]), None, False),  # back to row 1
        # The row at a chunk cut: as is, i == j on its first line, and an id
        # out of range on the line before the cut.
        (body(lines[d:]), None, True),
        (body(lines[d:r] + [f"e {u} {u} {uc}\n"] + lines[r + 1 :]), None, False),
        (body(lines[d : r - 1] + [f"e {p} 81 {pc}\n"] + lines[r:]), None, False),
        # Where the reader stops, the line loop resumes; each case needs the lines
        # before the stop.  The stop's first line repeats the last accepted pair
        # with another color; an id past |V| on a chunk's last line comes before a
        # bad token in the next chunk; a line below the stop repeats line 2; and
        # line 2 moved past the stop repeats nothing, as is (PASS) or with its
        # color changed (FAIL: not proper at 1); and a comment line is the
        # stop, with no edge line below it after.
        (body(lines[: k + 1] + [lines[k].rsplit(" ", 1)[0] + " 1\n"] + lines[k + 1 :]),
         None, False),
        (body(lines[:e] + [f"e {ei} 81 {ec}\n", f"e {fi} {fj} x\n"] + lines[e + 2 :]),
         None, False),
        (body(lines[: k + 2] + [lines[0]] + lines[k + 2 :]), None, False),
        (body(lines[1 : k + 2] + [lines[0]] + lines[k + 2 :]), None, False),
        (body(lines[1 : k + 2] + ["e 1 2 2\n"] + lines[k + 2 :]), None, False),
        (body(lines[: k + 1] + ["# a comment\n"] + lines[k + 1 :]), None, False),
    ]
    line_loop = []
    parse_lines = coloring_io._parse_coloring_lines
    monkeypatch.setattr(
        coloring_io, "_parse_coloring_lines", lambda *a: line_loop.append(a) or parse_lines(*a)
    )
    for edited, graph, accepted in cases:
        argv = ["verify", "-"]
        if graph is not None:
            (tmp_path / "g.graph").write_text(emit_graph(graph))
            argv += ["--graph", str(tmp_path / "g.graph")]
        line_loop.clear()
        verdict = run_cli(argv, edited)
        assert (not line_loop) == accepted
        assert verdict == _library_verdict(edited, graph)[0]
    # What the line loop names in the resumed cases.
    repeat_p, past, repeat_2, moved, not_proper, comment = [
        _library_verdict(t)[0] for t, _, _ in cases[-6:]
    ]
    assert repeat_p[2] == f"error: -: line {k + 3}: duplicate edge ({i_k}, {j_k})\n"
    assert past[2] == f"error: -: line {e + 2}: vertex ids ({ei}, 81) out of range 1..80\n"
    assert repeat_2[2] == f"error: -: line {k + 4}: duplicate edge (1, 2)\n"
    assert (moved[0], not_proper[0]) == (0, 1)
    assert comment == _library_verdict(text)[0]


def test_the_line_loop_resumes_where_the_chunk_reader_stopped(monkeypatch):
    # With the header reader gone, a bad token on the last line is still
    # named: the line loop starts at the chunk the reader did not accept.
    _, text, _ = run_cli(["construct", "--n", "100"])
    edited = text[: text.rindex(" ") + 1] + "x\n"
    assert edited.endswith("\ne 199 200 x\n")

    def refuse(*args):
        raise AssertionError("the line loop read the header")

    monkeypatch.setattr(coloring_io, "_header", refuse)
    assert run_cli(["verify", "-"], edited) == (
        2, "", "error: -: line 19901: edge field must be an integer, got 'x'\n"
    )


def test_verify_reads_the_coloring_in_bulk_once(monkeypatch, tmp_path):
    # A lockstep stop, at a coloring line the graph text does not match or at
    # a graph file emit_graph did not write, goes to the line loop from the
    # stop inside the one _coloring_palettes call, which parses the graph file
    # once: the chunk reader runs once per command.
    _, text, _ = run_cli(["construct", "--n", "60"])
    graph_text = emit_graph(complete_graph(120))
    header, *lines = text.splitlines(keepends=True)
    missing = header + "".join(lines[:5000] + lines[5001:])
    assert 5000 * len(lines[0]) > coloring_io._CHUNK_CHARS  # past the first chunk
    graph_header, *edge_lines = graph_text.splitlines(keepends=True)
    reversed_graph = graph_header + "".join(edge_lines[::-1])
    calls = []

    def count(name):
        real = getattr(coloring_io, name)
        monkeypatch.setattr(coloring_io, name, lambda *args: calls.append(name) or real(*args))

    count("_coloring_palettes")
    count("parse_graph")
    for coloring_text, graph_file, code in ((missing, graph_text, 2), (text, reversed_graph, 0)):
        (tmp_path / "g.graph").write_text(graph_file)
        calls.clear()
        verdict = run_cli(["verify", "-", "--graph", str(tmp_path / "g.graph")], coloring_text)
        assert calls == ["_coloring_palettes", "parse_graph"]
        assert verdict == _library_verdict(coloring_text, parse_graph(graph_file))[0]
        assert verdict[0] == code


def _graph_files(graph, at):
    """The emit_graph text of `graph`, then graph files that are not: its edge
    lines reversed, one repeated, one missing (both at edge line `at`), its
    count off by one, and a comment line before edge line `at`."""
    header, *lines = emit_graph(graph).splitlines(keepends=True)
    k = at % (len(lines) + 1)
    count = f"p {graph.vertex_count} {graph.edge_count + 1 - 2 * (at % 2)}\n"
    return [header + "".join(edited) for edited in (
        lines, lines[::-1], lines[: k + 1] + lines[k:], lines[:k] + lines[k + 1 :]
    )] + [count + "".join(lines), header + "".join(lines[:k] + ["# e 1 2\n"] + lines[k:])]


@settings(max_examples=500, deadline=None)
@given(mutated_coloring_files(), st.integers(0, 100))
def test_chunked_verify_is_the_line_loop_on_mutated_files(tmp_path_factory, case, at):
    # An edge line has at least 8 chars, so at sizes 1 and 7 each line is a
    # chunk, and at 16 each chunk holds two.  A graph file is read in lockstep
    # when it is emit_graph text, else parsed; the oracle parses it.
    text, graph = case
    graph_path = str(tmp_path_factory.getbasetemp() / "mutated.graph")
    runs = [(["verify", "-"], None, _library_verdict(text)[0])]
    for graph_text in _graph_files(graph, at) if graph is not None else ():
        try:
            expected = _library_verdict(text, parse_graph(graph_text))[0]
        except FormatError as exc:
            expected = (2, "", f"error: {graph_path}: {exc}\n")
        runs.append((["verify", "-", "--graph", graph_path], graph_text, expected))
    for argv, graph_text, expected in runs:
        if graph_text is not None:
            with open(graph_path, "w") as fh:
                fh.write(graph_text)
        for size in (coloring_io._CHUNK_CHARS, 1, 7, 16):
            with patch.object(coloring_io, "_CHUNK_CHARS", size):
                assert run_cli(argv, text) == expected, (size, graph_text)


def test_a_color_past_a_machine_word_never_reaches_an_array(monkeypatch):
    # A span of 2**63 or more sends the text to the line loop, which names
    # the repeat, as the whole-text decode did; no array item overflows.
    monkeypatch.setattr(coloring_io, "_CHUNK_CHARS", 1)
    text = "c 3 100000000000000000000\ne 1 2 10000000000000000000\ne 1 3 1\ne 1 3 1\n"
    assert run_cli(["verify", "-"], text) == (
        2, "", "error: -: line 4: duplicate edge (1, 3)\n"
    )
    # Colors of 2**63 and 2**66 in text the chunk reader would otherwise take:
    # the line loop reads them, into palettes of Python ints.
    for color in (1 << 63, 1 << 66):
        wide = f"c 3 {1 << 66}\ne 1 2 {color}\ne 1 3 1\n"
        assert coloring_io._coloring_palettes(wide, None, None) == (
            3, 1 << 66, 2, {1: [color, 1], 2: [color], 3: [1]}, {color, 1}
        )


def test_verify_against_graph_file(tmp_path):
    gpath = tmp_path / "k4.graph"
    gpath.write_text(emit_graph(complete_graph(4)))
    _, text, _ = run_cli(["construct", "--n", "2"])
    cpath = tmp_path / "k4.coloring"
    cpath.write_text(text)
    code, out, _ = run_cli(["verify", str(cpath), "--graph", str(gpath)])
    assert code == 0 and out.startswith("PASS")


def test_verify_malformed_file_is_usage_error(tmp_path):
    path = tmp_path / "junk.coloring"
    path.write_text("c 2 1\ne 1 2 1\ne 1 2 1\n")
    code, out, err = run_cli(["verify", str(path)])
    assert code == 2
    assert "duplicate edge" in err


def test_verify_work_is_bounded_by_the_edges_not_the_header():
    start = time.perf_counter()
    code, out, _ = run_cli(["verify", "-"], stdin_text="c 1000000000 1\ne 1 2 1\n")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out == "PASS: interval coloring of 1000000000 vertices, span 1, 1 edges\n"
    assert elapsed < 1.0


def test_search_work_is_bounded_by_the_edges_not_the_header():
    start = time.perf_counter()
    code, out, _ = run_cli(["search", "-", "--t", "1"], stdin_text="p 1000000000 1\ne 1 2\n")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out.splitlines()[0] == (
        "search t=1 on 1000000000 vertices, 1 edges: found (nodes=2)"
    )
    assert elapsed < 1.0


def test_missing_file_is_usage_error():
    code, _, err = run_cli(["verify", "/nonexistent/file"])
    assert code == 2
    assert "cannot read" in err


def test_verify_names_a_bad_graph_file_before_the_coloring(tmp_path):
    # The K_240 graph file without its line 20000: its error comes first,
    # whether the coloring is missing, canonical or bad on a later line.
    lines = emit_graph(complete_graph(240)).splitlines(keepends=True)
    graph_path = tmp_path / "k240.graph"
    graph_path.write_text("".join(lines[:19999] + lines[20000:]))
    error = f"error: {graph_path}: line 1: header declares 28680 edges but file has 28679\n"
    _, text, _ = run_cli(["construct", "--n", "120"])
    lines = text.splitlines(keepends=True)
    bad_line = "".join(lines[:24999] + [lines[24999].rsplit(" ", 1)[0] + " 999\n"] + lines[25000:])
    for name, content in [("missing", None), ("good", text), ("bad", bad_line)]:
        path = tmp_path / f"{name}.coloring"
        if content is not None:
            path.write_text(content)
        assert run_cli(["verify", str(path), "--graph", str(graph_path)]) == (2, "", error)
    # With the graph file whole, the coloring's errors are its own.
    graph_path.write_text(emit_graph(complete_graph(240)))
    code, _, err = run_cli(["verify", str(tmp_path / "missing.coloring"), "--graph", str(graph_path)])
    assert code == 2 and err.startswith(f"error: cannot read {tmp_path / 'missing.coloring'}:")
    assert run_cli(["verify", str(tmp_path / "bad.coloring"), "--graph", str(graph_path)]) == (
        2, "", f"error: {tmp_path / 'bad.coloring'}: line 25000: color 999 outside 1..358\n"
    )


@pytest.mark.parametrize("command", [["verify"], ["search", "--t", "1"]])
def test_non_utf8_file_is_usage_error_naming_the_path(tmp_path, command):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"c 2 1\ne 1 2 1\n\xff\n")
    code, out, err = run_cli([command[0], str(path), *command[1:]])
    assert code == 2 and not out
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")


def _cli_child(*argv, env=None):
    # The installed entry point, cli.main, in a child process reading stdin.
    src = os.path.dirname(os.path.dirname(intervalcoloring.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.Popen(
        [sys.executable, "-c", "from intervalcoloring.cli import main; main()", *argv],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path, **(env or {})},
    )


def test_non_utf8_stdin_is_usage_error_as_for_a_file():
    # The bytes that test_non_utf8_file_is_usage_error_naming_the_path
    # writes to a file, through stdin: the same decode error, naming '-'.
    child = _cli_child("verify", "-")
    out, err = child.communicate(b"c 2 1\ne 1 2 1\n\xff\n", timeout=60)
    assert (child.returncode, out) == (2, b"")
    assert err.startswith(b"error: cannot read -: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("k", [1, 2, 3, 7, 25, 60])
def test_pipeline_construct_then_verify(k):
    _, text, _ = run_cli(["construct", "--n", str(k)])
    code, out, _ = run_cli(["verify", "-"], stdin_text=text)
    assert code == 0 and out.startswith("PASS")


def test_pipeline_closure_full_range():
    for k in range(1, 201):
        _, text, _ = run_cli(["construct", "--n", str(k)])
        code, _, _ = run_cli(["verify", "-"], stdin_text=text)
        assert code == 0, k


BOUNDS_N1 = """\
K_2: bounds on the maximum interval-coloring span
  lower  construction   3n-2                       1
  lower  log2           2n-1+floor(log2(2n-1))     1
  upper  refined        2|V|-4                     -  (requires |V| >= 3)
  upper  general        2|V|-3                     1
  upper  triangle-free  |V|-1                      1
  best: lower 1, upper 1
#data
lower construction 1
lower log2 1
upper refined na
upper general 1
upper triangle-free 1
best-lower 1
best-upper 1
"""

BOUNDS_N3 = """\
K_6: bounds on the maximum interval-coloring span
  lower  construction   3n-2                       7
  lower  log2           2n-1+floor(log2(2n-1))     7
  upper  refined        2|V|-4                     8
  upper  general        2|V|-3                     9
  upper  triangle-free  |V|-1                      -  (graph contains a triangle)
  best: lower 7, upper 8
#data
lower construction 7
lower log2 7
upper refined 8
upper general 9
upper triangle-free na
best-lower 7
best-upper 8
"""

BOUNDS_SQUARE = """\
graph on 4 vertices: bounds on the maximum interval-coloring span
  lower  construction   3n-2                       -  \
(known lower bounds apply to complete graphs of even order)
  lower  log2           2n-1+floor(log2(2n-1))     -  \
(known lower bounds apply to complete graphs of even order)
  upper  refined        2|V|-4                     4
  upper  general        2|V|-3                     5
  upper  triangle-free  |V|-1                      3
  best: lower -, upper 3
#data
lower construction na
lower log2 na
upper refined 4
upper general 5
upper triangle-free 3
best-lower na
best-upper 3
"""


def test_bounds_for_n1():
    assert run_cli(["bounds", "--n", "1"]) == (0, BOUNDS_N1, "")


def test_bounds_for_n3():
    assert run_cli(["bounds", "--n", "3"]) == (0, BOUNDS_N3, "")


def test_bounds_for_graph_file(tmp_path):
    square = graph_from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    path = tmp_path / "square.graph"
    path.write_text(emit_graph(square))
    assert run_cli(["bounds", "--graph", str(path)]) == (0, BOUNDS_SQUARE, "")


def test_bounds_requires_exactly_one_input():
    code, _, _ = run_cli(["bounds"])
    assert code == 2
    code, _, _ = run_cli(["bounds", "--n", "2", "--graph", "x"])
    assert code == 2


def test_search_found_emits_witness(tmp_path):
    gpath = tmp_path / "k4.graph"
    gpath.write_text(emit_graph(complete_graph(4)))
    wpath = tmp_path / "witness.coloring"
    code, out, _ = run_cli(["search", str(gpath), "--t", "4", "--out", str(wpath)])
    assert code == 0
    assert "found" in out
    witness = parse_coloring(wpath.read_text(), complete_graph(4))
    assert witness.span_t == 4
    code, out, _ = run_cli(["verify", str(wpath), "--graph", str(gpath)])
    assert code == 0


def test_search_exhausted_exits_one(tmp_path):
    gpath = tmp_path / "k4.graph"
    gpath.write_text(emit_graph(complete_graph(4)))
    code, out, _ = run_cli(["search", str(gpath), "--t", "5"])
    assert code == 1
    assert "exhausted-no-solution" in out


def test_search_max_reports_probes(tmp_path):
    gpath = tmp_path / "k4.graph"
    gpath.write_text(emit_graph(complete_graph(4)))
    code, out, _ = run_cli(["search", str(gpath), "--max"])
    assert code == 0
    assert "probe t=4: found" in out
    assert "max span: 4 (complete)" in out


def test_search_max_with_cap(tmp_path):
    gpath = tmp_path / "k4.graph"
    gpath.write_text(emit_graph(complete_graph(4)))
    code, out, _ = run_cli(["search", str(gpath), "--max", "--cap", "3"])
    assert code == 0
    assert "max span: 3 (complete)" in out


def test_search_max_reports_budget_gap_honestly(tmp_path):
    # The sweep exhausts K_10 at t=16 and t=15 in 281 and 258 nodes, so at
    # budget 200 both stop on the budget above the span-14 witness.
    gpath = tmp_path / "k10.graph"
    gpath.write_text(emit_graph(complete_graph(10)))
    code, out, _ = run_cli(["search", str(gpath), "--max", "--budget", "200"])
    assert code == 0
    assert "probe t=16: budget-exceeded (nodes=200)" in out
    assert "probe t=15: budget-exceeded (nodes=200)" in out
    assert "max span: 14 (incomplete: budget gap above)" in out


def test_search_budget_flag(tmp_path):
    gpath = tmp_path / "k6.graph"
    gpath.write_text(emit_graph(complete_graph(6)))
    # K_6 span 8 exhausts in 14 nodes, so a budget of 5 stops first.
    code, out, _ = run_cli(["search", str(gpath), "--t", "8", "--budget", "5"])
    assert code == 1
    assert "budget-exceeded (nodes=5)" in out


def test_search_reads_graph_from_stdin():
    code, out, _ = run_cli(
        ["search", "-", "--t", "1"], stdin_text="p 2 1\ne 1 2\n"
    )
    assert code == 0
    assert "found" in out
    assert "e 1 2 1" in out


def test_cases_counts_sum_to_edge_count():
    code, out, _ = run_cli(["cases", "--n", "4"])
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("case ")]
    assert len(lines) == 8
    counts = [int(l.split()[2]) for l in lines]
    assert sum(counts) == 4 * 7  # n(2n-1) edges in K_8
    assert out.strip().endswith("total 28 edges")


@pytest.mark.parametrize(
    "n, golden",
    [
        (1, ["case 1: 0 edges", "case 2: 0 edges", "case 3: 0 edges",
             "case 4: 1 edges, colors 1..1", "case 5: 0 edges", "case 6: 0 edges",
             "case 7: 0 edges", "case 8: 0 edges", "total 1 edges"]),
        (3, ["case 1: 2 edges, colors 1..2", "case 2: 1 edges, colors 5..5",
             "case 3: 1 edges, colors 4..4", "case 4: 6 edges, colors 3..5",
             "case 5: 1 edges, colors 2..2", "case 6: 1 edges, colors 6..6",
             "case 7: 0 edges", "case 8: 3 edges, colors 5..7", "total 15 edges"]),
    ],
)
def test_cases_output_is_byte_exact(n, golden):
    # Below n = 4 some clauses cover no edge and print without a color range.
    code, out, err = run_cli(["cases", "--n", str(n)])
    assert (code, err) == (0, "")
    assert out == "\n".join([f"edge-formula clauses for K_{2 * n} (n={n})", *golden, ""])


def test_usage_errors_exit_two():
    # argparse's usage errors land in the stderr given to run, not sys.stderr.
    for argv, message in (
        (["construct"], "error: the following arguments are required: --n"),
        (["construct", "--n", "0"], "error: argument --n: must be >= 1, got 0"),
        (["bogus"], "error: argument command: invalid choice: 'bogus'"),
        ([], "error: the following arguments are required: command"),
        (["search", "-", "--t", "0"], "error: argument --t: must be >= 1, got 0"),
    ):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("usage: intervalcoloring"), argv
        assert message in err, argv
    assert run_cli(["search", "-", "--t", "1", "--budget", "-2"])[0] == 2
    k10 = emit_graph(complete_graph(10))
    for flag in (["--t", "14"], ["--max"]):
        code, out, err = run_cli(["search", "-", *flag, "--budget", "-1"], k10)
        assert (code, out) == (2, "")
        assert "node_budget must be >= 0" in err
    assert run_cli(["search", "-", "--t", "1", "--cap", "5"])[0] == 2
    assert run_cli(["verify", "-", "--graph", "-"])[0] == 2


def test_help_exits_zero():
    code, out, err = run_cli(["--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: intervalcoloring")
    assert "exit codes:" in out


# Every command name and option string, values that do and do not
# convert, and tokens only argparse reads (help, an abbreviation,
# --opt=value, the end-of-options marker).
_OPTIONS_OF = {
    "construct": ("--n", "--out"),
    "verify": ("--graph",),
    "bounds": ("--n", "--graph"),
    "search": ("--t", "--max", "--budget", "--cap", "--out"),
    "cases": ("--n",),
}
_VALUES = ("-", "0", "5", "05", "-3", "x")
_token = st.sampled_from((
    *_OPTIONS_OF, "--n", "--out", "--graph", "--t", "--max", "--budget", "--cap",
    *_VALUES, "--help", "-h", "--bud", "--n=4", "--",
))


@st.composite
def _argv(draw):
    # Mostly near-canonical, so that both parsers often succeed: a command,
    # some of its options with values (--max mostly without), a positional
    # where it takes one, and now and then a stray token anywhere; a value
    # or positional is now and then any token.
    command = draw(st.sampled_from(list(_OPTIONS_OF)))
    own, value = st.sampled_from(_OPTIONS_OF[command]), st.sampled_from(_VALUES + ("5", "05"))
    some_value = lambda: draw(_token if draw(st.integers(0, 5)) == 0 else value)
    groups = []
    for _ in range(draw(st.integers(0, 3))):
        option = draw(own if draw(st.integers(0, 4)) else _token)
        flag = option == "--max" and draw(st.integers(0, 3)) > 0
        groups.append([option] if flag else [option, some_value()])
    if draw(st.integers(0, 7)) < (6 if command in ("verify", "search") else 1):
        groups.insert(draw(st.integers(0, len(groups))), [some_value()])
    if draw(st.integers(0, 3)) == 0:
        groups.insert(draw(st.integers(0, len(groups))), [draw(_token)])
    first = command if draw(st.integers(0, 7)) > 0 else draw(_token)
    return [first, *(token for group in groups for token in group)]


@settings(max_examples=1500, deadline=None)
@given(_argv())
def test_canonical_args_are_what_argparse_returns(argv):
    fast = cli_module._canonical_args(argv)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            parsed = cli_module._build_parser().parse_args(argv)
    except SystemExit:
        assert fast is None, argv
        return
    if fast is not None:  # with each value's type: True is not 1
        typed = [{k: (type(v), v) for k, v in vars(ns).items()} for ns in (fast, parsed)]
        assert typed[0] == typed[1], argv


def test_canonical_argv_never_builds_the_parser(tmp_path, monkeypatch):
    # The argv shapes of the benchmark's workloads and the README's CLI
    # block: read from the command table, with the output argparse gives.
    k4 = emit_graph(complete_graph(4))
    (tmp_path / "k4.graph").write_text(k4)
    k4_coloring = run_cli(["construct", "--n", "2"])[1]
    (tmp_path / "k4.coloring").write_text(k4_coloring)
    graph, coloring = str(tmp_path / "k4.graph"), str(tmp_path / "k4.coloring")
    out_path = tmp_path / "w"
    out = str(out_path)
    calls = [
        (["construct", "--n", "4"], ""),
        (["construct", "--n", "4", "--out", out], ""),
        (["bounds", "--n", "3"], ""),
        (["bounds", "--graph", graph], ""),
        (["verify", "-"], k4_coloring),
        (["verify", "-", "--graph", graph], k4_coloring),
        (["verify", coloring], ""),
        (["verify", coloring, "--graph", graph], ""),
        (["search", "-", "--t", "4"], k4),
        (["search", "-", "--t", "5", "--budget", "100"], k4),
        (["search", "-", "--max", "--budget", "5000"], k4),
        (["search", graph, "--t", "4", "--out", out], ""),
        (["search", graph, "--max", "--out", out], ""),
        (["cases", "--n", "4"], ""),
    ]

    def results():
        got = []
        for argv, stdin_text in calls:
            out_path.unlink(missing_ok=True)
            got.append((*run_cli(argv, stdin_text), out_path.exists() and out_path.read_text()))
        monkeypatch.setattr("sys.argv", ["intervalcoloring", "cases", "--n", "3"])
        stdout = io.StringIO()
        got.append((run(None, stdout=stdout), stdout.getvalue()))
        return got

    cli_module._build_parser.cache_clear()
    fast = results()
    assert cli_module._build_parser.cache_info().currsize == 0
    monkeypatch.setattr(cli_module, "_canonical_args", lambda argv: None)
    assert results() == fast
    assert cli_module._build_parser.cache_info().currsize == 1
    assert [code for code, *_ in fast] == [0] * 9 + [1] + [0] * 5  # K_4 has no 5-coloring
    assert all(err == "" for _, _, err, _ in fast[:-1])
    assert fast[-1][1].endswith("total 15 edges\n")


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_main_exits_quietly_when_stdout_closes(monkeypatch):
    # `search - --max | head -1`: the reader goes away mid-output.
    err = io.StringIO()
    monkeypatch.setattr("sys.argv", ["intervalcoloring", "search", "-", "--max"])
    monkeypatch.setattr("sys.stdin", io.StringIO("p 100000 1\ne 1 2\n"))
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    monkeypatch.setattr("sys.stderr", err)
    with pytest.raises(SystemExit) as exc:
        main()
    sys.stdout.close()  # the devnull stream main left in place of the pipe
    assert exc.value.code == 141
    assert err.getvalue() == ""


_CYCLE_OF_ONE_COLOR = "c 5000 1\n" + "".join(
    f"e {i} {i % 5000 + 1} 1\n" if i < 5000 else "e 1 5000 1\n" for i in range(1, 5001)
)


@pytest.mark.parametrize(
    "text, first",
    [
        pytest.param("c 2 1000000\ne 1 2 1\n", "FAIL: 999999 violation(s)\n", id="unused-colors"),
        # 5,000 not-proper lines, about 130 KB: more than a pipe holds.
        pytest.param(_CYCLE_OF_ONE_COLOR, "FAIL: 5000 violation(s)\n", id="not-proper"),
    ],
)
def test_verify_exits_quietly_when_a_real_pipe_closes(text, first):
    # `verify - | head -1` on a long listing, through an OS pipe and an
    # unbuffered stdout, where a write that the closing pipe cuts short
    # returns without raising: the exit must still be 141.
    child = _cli_child("verify", "-", env={"PYTHONUNBUFFERED": "1"})
    child.stdin.write(text.encode())
    child.stdin.close()
    line = child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (line, child.wait(timeout=60), err) == (first.encode(), 141, b"")


def test_each_call_gets_its_own_parser_output():
    # The parser is built once; each call's streams still get its output.
    first, second = run_cli(["construct"]), run_cli(["bogus"])
    assert first[:2] == second[:2] == (2, "")
    assert "required: --n" in first[2] and "bogus" not in first[2]
    assert "invalid choice: 'bogus'" in second[2] and "--n" not in second[2]
    first, second = run_cli(["--help"]), run_cli(["search", "--help"])
    assert first[0] == second[0] == 0 and first[2] == second[2] == ""
    assert first[1].startswith("usage: intervalcoloring [-h]")
    assert second[1].startswith("usage: intervalcoloring search")
