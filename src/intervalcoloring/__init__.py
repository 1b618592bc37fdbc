"""Interval (consecutive) edge colorings of simple graphs.

A proper edge coloring with colors 1..t is *interval* when every color
is used and the colors at each vertex form a consecutive block of
exactly degree-many integers.  This package constructs such colorings
for complete graphs K_2n (span 3n-2), verifies colorings of arbitrary
graphs, evaluates the known closed-form span bounds, and determines the
exact maximum span of small graphs by exhaustive search.
"""

from .bounds import (
    BoundEntry,
    BoundsReport,
    bounds_for_graph,
    bounds_for_k2n,
    span_cap,
)
from .coloring import (
    EdgeColoring,
    IntervalReport,
    Violation,
    ViolationKind,
    verify_interval,
)
from .construction import CASE_COUNT, CaseStats, case_statistics, construct
from .graph import Edge, Graph, complete_graph, graph_from_edges, is_triangle_free
from .io import (
    FormatError,
    emit_coloring,
    emit_graph,
    parse_coloring,
    parse_coloring_with_graph,
    parse_graph,
)
from .search import (
    DEFAULT_NODE_BUDGET,
    MaxSpanResult,
    ProbeRecord,
    SearchConfig,
    SearchOutcome,
    SearchStatus,
    compute_max_span,
    find_interval_coloring,
)

__version__ = "0.1.0"

__all__ = [
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
    "__version__",
]
