"""Command-line interface.

Subcommands: construct, verify, bounds, search, cases.  Every command
is deterministic.  Exit codes: 0 success / verified / found, 1 a check
failed (verification FAIL, or a requested coloring was not found), 2
usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import TextIO

from . import bounds as bounds_mod
from . import io as formats
from .coloring import verify_interval
from .construction import case_statistics, construct
from .graph import Graph, complete_graph
from .search import (
    DEFAULT_NODE_BUDGET,
    SearchConfig,
    SearchStatus,
    compute_max_span,
    find_interval_coloring,
    span_cap,
)

_USAGE_ERROR = 2
_CHECK_FAILED = 1


class _CliError(Exception):
    """Input or file problem; message printed to stderr, exit 2."""


def _read_text(path: str, stdin: TextIO) -> str:
    if path == "-":
        return stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror or exc}") from None


def _write_output(text: str, out_path: str | None, stdout: TextIO) -> None:
    if out_path is None or out_path == "-":
        stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(f"cannot write {out_path}: {exc.strerror or exc}") from None


def _load_graph(path: str, stdin: TextIO) -> Graph:
    try:
        return formats.parse_graph(_read_text(path, stdin))
    except formats.FormatError as exc:
        raise _CliError(f"{path}: {exc}") from None


def _positive(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _cmd_construct(args: argparse.Namespace, stdout: TextIO, stdin: TextIO) -> int:
    coloring = construct(args.n)
    text = formats.emit_coloring(complete_graph(2 * args.n), coloring)
    _write_output(text, args.out, stdout)
    return 0


def _cmd_verify(args: argparse.Namespace, stdout: TextIO, stdin: TextIO) -> int:
    if args.coloring == "-" and args.graph == "-":
        raise _CliError("only one of the inputs can read stdin")
    graph = _load_graph(args.graph, stdin) if args.graph else None
    try:
        graph, coloring = formats.parse_coloring_with_graph(
            _read_text(args.coloring, stdin), graph
        )
    except formats.FormatError as exc:
        raise _CliError(f"{args.coloring}: {exc}") from None
    report = verify_interval(graph, coloring)
    if report.verdict:
        stdout.write(
            f"PASS: interval coloring of {graph.vertex_count} vertices, "
            f"span {coloring.span_t}, {graph.edge_count} edges\n"
        )
        return 0
    stdout.write(f"FAIL: {len(report.violations)} violation(s)\n")
    for violation in report.violations:
        stdout.write(f"  {violation}\n")
    return _CHECK_FAILED


def _render_bounds(report: bounds_mod.BoundsReport, stdout: TextIO) -> None:
    stdout.write(f"{report.label}: bounds on the maximum interval-coloring span\n")
    rows = [("lower", e) for e in report.lower] + [("upper", e) for e in report.upper]
    for side, entry in rows:
        value = str(entry.value) if entry.applicable else "-"
        note = "" if entry.applicable else f"  ({entry.reason})"
        stdout.write(
            f"  {side}  {entry.name:<13}  {entry.formula:<22}  {value:>4}{note}\n"
        )
    best_lower = "-" if report.best_lower is None else report.best_lower
    best_upper = "-" if report.best_upper is None else report.best_upper
    stdout.write(f"  best: lower {best_lower}, upper {best_upper}\n")
    stdout.write("#data\n")
    for side, entry in rows:
        value = entry.value if entry.applicable else "na"
        stdout.write(f"{side} {entry.name} {value}\n")
    stdout.write(f"best-lower {best_lower if report.best_lower is not None else 'na'}\n")
    stdout.write(f"best-upper {best_upper if report.best_upper is not None else 'na'}\n")


def _cmd_bounds(args: argparse.Namespace, stdout: TextIO, stdin: TextIO) -> int:
    if args.n is not None:
        report = bounds_mod.bounds_for_k2n(args.n)
    else:
        report = bounds_mod.bounds_for_graph(_load_graph(args.graph, stdin))
    _render_bounds(report, stdout)
    return 0


def _cmd_search(args: argparse.Namespace, stdout: TextIO, stdin: TextIO) -> int:
    if args.cap is not None and not args.max:
        raise _CliError("--cap only applies with --max")
    graph = _load_graph(args.graph, stdin)
    if args.max:
        cap = args.cap if args.cap is not None else span_cap(graph, 10**9)
        result = compute_max_span(graph, cap, node_budget=args.budget)
        for probe in result.probes:
            stdout.write(
                f"probe t={probe.t}: {probe.status.value} "
                f"(nodes={probe.nodes_explored})\n"
            )
        state = "complete" if result.complete else "incomplete: budget gap above"
        stdout.write(f"max span: {result.max_span} ({state})\n")
        if result.witness is not None:
            _write_output(
                formats.emit_coloring(graph, result.witness), args.out, stdout
            )
        return 0
    cfg = SearchConfig(t=args.t, node_budget=args.budget)
    outcome = find_interval_coloring(graph, cfg)
    stdout.write(
        f"search t={args.t} on {graph.vertex_count} vertices, "
        f"{graph.edge_count} edges: {outcome.status.value} "
        f"(nodes={outcome.nodes_explored})\n"
    )
    if outcome.status is SearchStatus.FOUND:
        _write_output(formats.emit_coloring(graph, outcome.coloring), args.out, stdout)
        return 0
    return _CHECK_FAILED


def _cmd_cases(args: argparse.Namespace, stdout: TextIO, stdin: TextIO) -> int:
    stats = case_statistics(args.n)
    total = sum(s.edge_count for s in stats)
    stdout.write(f"edge-formula clauses for K_{2 * args.n} (n={args.n})\n")
    for s in stats:
        if s.edge_count:
            stdout.write(
                f"case {s.case}: {s.edge_count} edges, "
                f"colors {s.min_color}..{s.max_color}\n"
            )
        else:
            stdout.write(f"case {s.case}: 0 edges\n")
    stdout.write(f"total {total} edges\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intervalcoloring",
        description=(
            "Interval (gap-free) edge colorings: construct colorings of "
            "complete graphs K_2n, verify colorings, evaluate span bounds, "
            "and search exactly for colorings of small graphs."
        ),
        epilog=(
            "exit codes: 0 ok; 1 verification failed or no coloring found; "
            "2 usage or input error"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "construct", help="emit the span-(3n-2) coloring of K_2n as a coloring file"
    )
    p.add_argument("--n", type=_positive, required=True, help="half the vertex count")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="verify a coloring file ('-' reads stdin)")
    p.add_argument("coloring", help="coloring file path or '-'")
    p.add_argument("--graph", help="graph file the coloring must match")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="evaluate span bounds for K_2n or a graph file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=_positive, help="evaluate for K_2n")
    group.add_argument("--graph", help="graph file path or '-'")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser(
        "search", help="backtracking search for an interval t-coloring"
    )
    p.add_argument("graph", help="graph file path or '-'")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=_positive, help="span to decide")
    group.add_argument(
        "--max", action="store_true", help="compute the largest feasible span"
    )
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_NODE_BUDGET,
        help=f"node budget per probe, 0 = unlimited (default {DEFAULT_NODE_BUDGET})",
    )
    p.add_argument(
        "--cap", type=_positive, help="with --max: do not probe spans above this"
    )
    p.add_argument("--out", help="write the witness coloring here")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "cases", help="per-clause edge counts and color ranges for K_2n"
    )
    p.add_argument("--n", type=_positive, required=True)
    p.set_defaults(func=_cmd_cases)

    return parser


def run(
    argv: list[str] | None = None,
    *,
    stdin: TextIO | None = None,
    stdout: TextIO | None = None,
    stderr: TextIO | None = None,
) -> int:
    """Parse argv and execute; returns the process exit code."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _USAGE_ERROR
    try:
        return args.func(args, stdout, stdin)
    except _CliError as exc:
        stderr.write(f"error: {exc}\n")
        return _USAGE_ERROR
    except ValueError as exc:
        stderr.write(f"error: {exc}\n")
        return _USAGE_ERROR


def main() -> None:
    sys.exit(run())
