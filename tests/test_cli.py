import io
import time

import pytest

from intervalcoloring import complete_graph, emit_graph, graph_from_edges, parse_coloring
from intervalcoloring.cli import run


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
        "search t=1 on 1000000000 vertices, 1 edges: found (nodes=1)"
    )
    assert elapsed < 1.0


def test_missing_file_is_usage_error():
    code, _, err = run_cli(["verify", "/nonexistent/file"])
    assert code == 2
    assert "cannot read" in err


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
    gpath = tmp_path / "k6.graph"
    gpath.write_text(emit_graph(complete_graph(6)))
    code, out, _ = run_cli(["search", str(gpath), "--max", "--budget", "50"])
    assert code == 0
    assert "probe t=8: budget-exceeded" in out
    assert "max span: 7 (incomplete: budget gap above)" in out


def test_search_budget_flag(tmp_path):
    gpath = tmp_path / "k6.graph"
    gpath.write_text(emit_graph(complete_graph(6)))
    code, out, _ = run_cli(["search", str(gpath), "--t", "8", "--budget", "50"])
    assert code == 1
    assert "budget-exceeded" in out


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


def test_usage_errors_exit_two():
    assert run_cli(["construct"])[0] == 2
    assert run_cli(["construct", "--n", "0"])[0] == 2
    assert run_cli(["bogus"])[0] == 2
    assert run_cli([])[0] == 2
    assert run_cli(["search", "-", "--t", "1", "--budget", "-2"])[0] == 2
    assert run_cli(["search", "-", "--t", "1", "--cap", "5"])[0] == 2
    assert run_cli(["verify", "-", "--graph", "-"])[0] == 2


def test_help_exits_zero(capsys):
    assert run_cli(["--help"])[0] == 0
    capsys.readouterr()
