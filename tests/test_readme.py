import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    section = text[text.index("## Library example"):]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(example, str(README), "exec"), {})


def test_public_names_are_pinned():
    # The README's module table documents these; adding or removing a
    # public name is a deliberate change to this list and to that table.
    import intervalcoloring

    assert sorted(intervalcoloring.__all__) == [
        "BoundEntry",
        "BoundsReport",
        "CASE_COUNT",
        "CaseStats",
        "DEFAULT_NODE_BUDGET",
        "Edge",
        "EdgeColoring",
        "FormatError",
        "Graph",
        "IntervalReport",
        "MaxSpanResult",
        "ProbeRecord",
        "SearchConfig",
        "SearchOutcome",
        "SearchStatus",
        "Violation",
        "ViolationKind",
        "__version__",
        "bounds_for_graph",
        "bounds_for_k2n",
        "case_statistics",
        "complete_graph",
        "compute_max_span",
        "construct",
        "emit_coloring",
        "emit_graph",
        "find_interval_coloring",
        "graph_from_edges",
        "is_triangle_free",
        "parse_coloring",
        "parse_coloring_with_graph",
        "parse_graph",
        "span_cap",
        "verify_interval",
    ]
