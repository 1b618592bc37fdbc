"""Command-line interface.

Subcommands: construct, verify, bounds, search, cases.  Every command
is deterministic.  Exit codes: 0 success / verified / found, 1 a check
failed (verification FAIL, or a requested coloring was not found), 2
usage or input errors, 141 (the shell's SIGPIPE status) when stdout is
closed early, with no traceback.  ``verify`` gets each vertex's colors
from one ``io._coloring_palettes`` call, with no graph or coloring
object, and checks them with ``verify_interval``'s ``_check_palettes``.
io reads canonical text with ascending edge lines in chunks, and a
``--graph`` file as ``emit_graph`` writes it in lockstep; other text
stops that reader, and io parses the graph file and reads the coloring
on with its line loop.  A graph file that does not parse is named before
any error of the coloring file.  ``construct`` writes its text in pieces.

Each subcommand is declared once, in ``_COMMANDS``.  Canonical argv is
read from that table directly; argparse, built from it for other argv
only, prints help and names every usage error, so abbreviations and
``--opt=value`` still work.
"""

from __future__ import annotations

import argparse
import io
import os
import select
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache, partial
from typing import Callable, Iterable, NamedTuple, TextIO

from . import bounds as bounds_mod
from . import io as formats
from .coloring import _check_palettes, _fail_listing
from .construction import _runs, case_statistics
from .graph import Graph
from .search import (
    DEFAULT_NODE_BUDGET,
    SearchConfig,
    SearchStatus,
    compute_max_span,
    find_interval_coloring,
)

_USAGE_ERROR = 2
_CHECK_FAILED = 1
# The shell's status for a process killed by SIGPIPE (128 + 13).
_BROKEN_PIPE = 141
# Writes up to this size are atomic on a pipe; POSIX guarantees 512, and
# select has no PIPE_BUF where pipes are not POSIX (Windows).
_PIPE_BUF = getattr(select, "PIPE_BUF", 512)


def _read_text(path: str, stdin: TextIO) -> str:
    try:
        if path == "-":
            return stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _write_output(pieces: Iterable[str], out_path: str | None, stdout: TextIO) -> None:
    if out_path is None or out_path == "-":
        stdout.writelines(pieces)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise ValueError(f"cannot write {out_path}: {exc.strerror or exc}") from None


def _load_graph(path: str, stdin: TextIO, text: str | None = None) -> Graph:
    try:
        return formats.parse_graph(_read_text(path, stdin) if text is None else text)
    except formats.FormatError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _positive(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _cmd_construct(args: argparse.Namespace, stdout: TextIO, stdin: TextIO) -> int:
    # The clause runs tile the pairs of K_2n, so there is nothing to check.
    n = args.n
    _write_output(formats._write_runs(2 * n, 3 * n - 2, _runs(n)), args.out, stdout)
    return 0


def _cmd_verify(args: argparse.Namespace, stdout: TextIO, stdin: TextIO) -> int:
    if args.coloring == "-" and args.graph == "-":
        raise ValueError("only one of the inputs can read stdin")
    graph_text = _read_text(args.graph, stdin) if args.graph else None
    load_graph = partial(_load_graph, args.graph, stdin, graph_text)
    try:
        text = _read_text(args.coloring, stdin)
    except ValueError:
        if graph_text is not None:  # the graph's errors come first
            load_graph()
        raise
    try:
        vertex_count, span_t, edge_count, palettes, used = formats._coloring_palettes(
            text, graph_text, load_graph
        )
    except formats.FormatError as exc:  # the graph's errors are ValueErrors naming it
        raise ValueError(f"{args.coloring}: {exc}") from None
    del text  # freed before the palettes are checked
    violations, unused = _check_palettes(palettes, used, span_t, ())
    if not violations and not unused:
        stdout.write(
            f"PASS: interval coloring of {vertex_count} vertices, "
            f"span {span_t}, {edge_count} edges\n"
        )
        return 0
    # Each write is whole lines of at most PIPE_BUF bytes (all ASCII), so
    # each is atomic on a pipe.  With an unbuffered stdout (python -u,
    # PYTHONUNBUFFERED) a longer write that the reader's close cuts short
    # returns without raising, and `verify ... | head` could exit 1, not 141.
    stdout.writelines(_fail_listing(violations, unused, _PIPE_BUF))
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
    best_lower, best_upper = report.best_lower, report.best_upper
    stdout.write(
        f"  best: lower {'-' if best_lower is None else best_lower}, "
        f"upper {'-' if best_upper is None else best_upper}\n"
    )
    stdout.write("#data\n")
    for side, entry in rows:
        value = entry.value if entry.applicable else "na"
        stdout.write(f"{side} {entry.name} {value}\n")
    stdout.write(f"best-lower {'na' if best_lower is None else best_lower}\n")
    stdout.write(f"best-upper {'na' if best_upper is None else best_upper}\n")


def _cmd_bounds(args: argparse.Namespace, stdout: TextIO, stdin: TextIO) -> int:
    if args.n is not None:
        report = bounds_mod.bounds_for_k2n(args.n)
    else:
        report = bounds_mod.bounds_for_graph(_load_graph(args.graph, stdin))
    _render_bounds(report, stdout)
    return 0


def _cmd_search(args: argparse.Namespace, stdout: TextIO, stdin: TextIO) -> int:
    if args.cap is not None and not args.max:
        raise ValueError("--cap only applies with --max")
    graph = _load_graph(args.graph, stdin)
    if args.max:
        cap = args.cap if args.cap is not None else 10**9
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
                [formats.emit_coloring(graph, result.witness)], args.out, stdout
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
        _write_output([formats.emit_coloring(graph, outcome.coloring)], args.out, stdout)
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


class _Option(NamedTuple):
    string: str  # exact option string; its dest is the string without "--"
    type: Callable[[str], object]  # _positive, int, str, or bool for a flag
    help: str | None = None
    group: str | None = None  # _REQUIRED, or _ONE_OF: exactly one per command
    default: object = None


_REQUIRED, _ONE_OF = "required", "one-of"
# Each subcommand once: handler, positional (dest, help) or None, options, help.
_COMMANDS = {
    "construct": (_cmd_construct, None, (
        _Option("--n", _positive, "half the vertex count", _REQUIRED),
        _Option("--out", str, "output path (default: stdout)"),
    ), "emit the span-(3n-2) coloring of K_2n as a coloring file"),
    "verify": (_cmd_verify, ("coloring", "coloring file path or '-'"), (
        _Option("--graph", str, "graph file the coloring must match"),
    ), "verify a coloring file ('-' reads stdin)"),
    "bounds": (_cmd_bounds, None, (
        _Option("--n", _positive, "evaluate for K_2n", _ONE_OF),
        _Option("--graph", str, "graph file path or '-'", _ONE_OF),
    ), "evaluate span bounds for K_2n or a graph file"),
    "search": (_cmd_search, ("graph", "graph file path or '-'"), (
        _Option("--t", _positive, "span to decide", _ONE_OF),
        _Option("--max", bool, "compute the largest feasible span", _ONE_OF, False),
        _Option("--budget", int, "node budget per probe, 0 = unlimited "
                f"(default {DEFAULT_NODE_BUDGET})", default=DEFAULT_NODE_BUDGET),
        _Option("--cap", _positive, "with --max: do not probe spans above this"),
        _Option("--out", str, "write the witness coloring here"),
    ), "backtracking search for an interval t-coloring"),
    "cases": (_cmd_cases, None, (
        _Option("--n", _positive, group=_REQUIRED),
    ), "per-clause edge counts and color ranges for K_2n"),
}


@cache  # built only for argv that is not canonical; nothing changes it afterwards
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
    for name, (func, positional, options, help_) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        if positional:
            p.add_argument(positional[0], help=positional[1])
        if any(o.group == _ONE_OF for o in options):
            one_of = p.add_mutually_exclusive_group(required=True)
        for o in options:
            kind = {"action": "store_true"} if o.type is bool else {
                "type": o.type, "default": o.default, "required": o.group == _REQUIRED}
            (one_of if o.group == _ONE_OF else p).add_argument(o.string, help=o.help, **kind)
        p.set_defaults(func=func)
    return parser


def _canonical_args(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace argparse would return for canonical argv, else None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, positional, options, _ = _COMMANDS[argv[0]]
    left = {o.string: o for o in options}  # popped when given, so given once
    values = {o.string[2:]: o.default for o in options}
    dest = positional[0] if positional else None
    tokens = iter(argv[1:])
    for token in tokens:
        option = left.pop(token, None)
        if option is None:  # the positional, unless it looks like an option
            if dest is None or dest in values or (token.startswith("-") and token != "-"):
                return None
            values[dest] = token
        elif option.type is bool:
            values[token[2:]] = True
        else:
            value = next(tokens, "--")  # "--": no value follows
            if value.startswith("-") and value != "-":  # argparse may read an option
                return None
            try:
                values[token[2:]] = option.type(value)
            except (ValueError, argparse.ArgumentTypeError):
                return None
    unset = [o.group for o in left.values()]
    one_of = [o.group for o in options].count(_ONE_OF)
    if (dest and dest not in values) or _REQUIRED in unset:
        return None
    if one_of and unset.count(_ONE_OF) != one_of - 1:
        return None
    return argparse.Namespace(command=argv[0], **values, func=func)


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
    argv = sys.argv[1:] if argv is None else argv
    args = _canonical_args(argv)
    if args is None:
        try:
            # argparse prints usage errors and --help to sys.stderr / sys.stdout,
            # looked up when it prints, so the shared parser writes to these.
            with redirect_stdout(stdout), redirect_stderr(stderr):
                args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else _USAGE_ERROR
    try:
        return args.func(args, stdout, stdin)
    except ValueError as exc:  # input or file problems, FormatError included
        stderr.write(f"error: {exc}\n")
        return _USAGE_ERROR


def main() -> None:
    # Decode stdin as strictly as a named file, whatever the locale says.
    if isinstance(sys.stdin, io.TextIOWrapper):
        sys.stdin.reconfigure(encoding="utf-8", errors="strict")
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (e.g. `| head`).  Later writes,
        # the flush at exit included, go to devnull, so none raises again.
        sys.stdout = open(os.devnull, "w")
        sys.exit(_BROKEN_PIPE)
    sys.exit(code)
