"""Interval (consecutive) edge colorings of simple graphs.

A proper edge coloring with colors 1..t is *interval* when every color
is used and the colors at each vertex form a consecutive block of
exactly degree-many integers.  This package constructs such colorings
for complete graphs K_2n (span 3n-2, and a round-robin baseline with
span 2n-1), verifies colorings of arbitrary graphs, evaluates the known
closed-form span bounds, and determines the exact maximum span of small
graphs by exhaustive search.
"""

from .bounds import (
    BoundEntry,
    BoundsReport,
    bounds_for_graph,
    bounds_for_k2n,
    construction_lower_bound,
    general_upper_bound,
    log_lower_bound,
    refined_upper_bound,
    span_cap,
    triangle_free_upper_bound,
)
from .coloring import (
    EdgeColoring,
    IntervalReport,
    Violation,
    ViolationKind,
    reflect,
    verify_interval,
)
from .construction import (
    CASE_COUNT,
    CaseStats,
    PartitionError,
    case_color,
    case_statistics,
    classify_edge,
    construct,
    round_robin,
)
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
    "PartitionError",
    "ProbeRecord",
    "SearchConfig",
    "SearchOutcome",
    "SearchStatus",
    "Violation",
    "ViolationKind",
    "bounds_for_graph",
    "bounds_for_k2n",
    "case_color",
    "case_statistics",
    "classify_edge",
    "complete_graph",
    "compute_max_span",
    "construct",
    "construction_lower_bound",
    "emit_coloring",
    "emit_graph",
    "find_interval_coloring",
    "general_upper_bound",
    "graph_from_edges",
    "is_triangle_free",
    "log_lower_bound",
    "parse_coloring",
    "parse_coloring_with_graph",
    "parse_graph",
    "reflect",
    "refined_upper_bound",
    "round_robin",
    "span_cap",
    "triangle_free_upper_bound",
    "verify_interval",
    "__version__",
]
