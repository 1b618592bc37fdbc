"""Timing, tracing and statistics shared by the benchmark workloads.

Everything runs in one process on one thread.  Each operation drives
the library through ``intervalcoloring.cli.run`` with real file text in
``StringIO`` stdin/stdout, exactly as a user of the CLI would, and the
harness checks every output against an expectation fixed when the
input was made.
"""

from __future__ import annotations

import gc
import importlib
import io
import json
import resource
import statistics
from statistics import median
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"
PACKAGE = "intervalcoloring"
MODULES = ("cli", "io", "graph", "construction", "bounds", "coloring", "search")


class SourceMissing(RuntimeError):
    """The library's source tree is not next to the benchmark."""


def load_library() -> SimpleNamespace:
    """Import the library from this checkout's ``src``, afresh each call.

    Earlier imports are dropped from ``sys.modules`` first so that the
    import cost can be measured more than once in a process.
    """
    if not (SRC_DIR / PACKAGE / "__init__.py").is_file():
        raise SourceMissing(f"no {PACKAGE} package under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    root = importlib.import_module(PACKAGE)
    loaded = Path(root.__file__).resolve()
    if SRC_DIR not in loaded.parents:
        raise SourceMissing(f"{PACKAGE} was imported from {loaded}, not {SRC_DIR}")
    return SimpleNamespace(
        root=root,
        **{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES},
    )


@dataclass
class CallResult:
    argv: list[str]
    code: int
    out: str
    err: str
    seconds: float


# Exit code recorded when ``cli.run`` raises instead of returning one.
CRASHED = -1


def cli_call(lib: SimpleNamespace, argv: list[str], stdin_text: str = "") -> CallResult:
    """One in-process CLI invocation; only ``cli.run`` is inside the timer.

    An exception escaping ``cli.run`` is a defect of the program under
    test: it is recorded as exit code CRASHED with the traceback on
    stderr, so the op's check fails and the run goes on.
    """
    stdin, stdout, stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        code = lib.cli.run(argv, stdin=stdin, stdout=stdout, stderr=stderr)
    except Exception:
        code = CRASHED
        stderr.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return CallResult(argv, code, stdout.getvalue(), stderr.getvalue(), seconds)


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id].

    Spans are recorded only by the benchmark's own code, around its
    calls into each library module; nothing inside the library is
    instrumented.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: int | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self, indices: range | None = None) -> dict[str, float]:
        """Seconds per span name, each span minus the time its children cover."""
        chosen = range(len(self.spans)) if indices is None else indices
        child_time = [0.0] * len(self.spans)
        for i in chosen:
            name, start, end, parent, _ = self.spans[i]
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for i in chosen:
            name, start, end, _, _ = self.spans[i]
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[i]
        return totals

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


Counts = dict[str, int]


@dataclass
class Op:
    """One user-visible operation: a short sequence of CLI calls.

    ``run`` performs the calls and returns their results.  ``check``
    compares them with the expectation fixed when the input was made
    and returns (first mismatch or None, counts read from the output).
    ``direct`` repeats the same work through direct calls to the
    library's public functions, each inside a tracer span, and returns
    the same pair.
    """

    label: str
    edges: int
    run: Callable[[], list[CallResult]]
    check: Callable[[list[CallResult]], tuple[str | None, Counts]]
    direct: Callable[[Tracer], tuple[str | None, Counts]]
    tags: frozenset[str] = frozenset()


@dataclass
class OpRecord:
    op: Op
    seconds: float
    problem: str | None
    counts: Counts


@dataclass
class LoopResult:
    records: list[OpRecord]
    rounds: int

    @property
    def failures(self) -> list[str]:
        return [f"{r.op.label}: {r.problem}" for r in self.records if r.problem]

    def round_seconds(self) -> float:
        """Time of one round with each op at its median over the rounds.

        Per-op medians keep a burst of load on the shared machine, which
        hits one repetition of an op, out of the throughput figures.
        """
        size = len(self.records) // self.rounds
        return sum(
            median([self.records[r * size + i].seconds for r in range(self.rounds)])
            for i in range(size)
        )


def fingerprint(results: list[CallResult]) -> tuple:
    # String hashes are stable within one process, which is all that is
    # compared; keeping hashes instead of texts keeps the first round's
    # outputs out of peak_rss_mb.
    return tuple((r.code, hash(r.out), hash(r.err)) for r in results)


def check_op(op: Op, results: list[CallResult], reference: tuple | None) -> OpRecord:
    """Check one op's results; ``reference`` is the first round's output."""
    try:
        problem, counts = op.check(results)
    except (ValueError, IndexError, KeyError) as exc:  # output too malformed to read
        problem, counts = f"unreadable output: {exc!r}", {}
    if problem is None and reference is not None and fingerprint(results) != reference:
        problem = "output differs from the first round"
    return OpRecord(op, sum(r.seconds for r in results), problem, counts)


def run_rounds(
    ops: list[Op],
    seconds: float,
    step: Callable[[int, Op, tuple | None], tuple] | None = None,
    min_rounds: int = 1,
) -> LoopResult:
    """Run whole rounds of ``ops`` until ``seconds`` of wall time have passed.

    At least ``min_rounds`` rounds run, and a round once started is
    finished, so every run measures whole copies of the same input set.
    ``gc.collect()`` runs between operations, outside the timed region.
    Outputs of later rounds must repeat the first round's byte for byte.
    ``step`` replaces the plain run-and-check of one op; it returns
    (OpRecord, fingerprint of its outputs).
    """
    records: list[OpRecord] = []
    first: list[tuple] = []
    rounds = 0
    start = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        for index, op in enumerate(ops):
            reference = first[index] if rounds else None
            gc.collect()
            if step is None:
                results = op.run()
                record, printed = check_op(op, results, reference), fingerprint(results)
            else:
                record, printed = step(index, op, reference)
            if not rounds:
                first.append(printed)
            records.append(record)
        rounds += 1
    return LoopResult(records, rounds)


def percentile(values: list[float], q: float) -> float:
    """Inclusive-method quantile q in (0, 1) of at least two values."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
