"""The three benchmark workloads: inputs, expected outcomes and checks.

* ``k2n-pipeline`` -- one user question per op: ``bounds --n k``, then
  ``construct --n k``, then ``verify -`` on the emitted text, for a
  seeded, stratified draw of k in the low hundreds.  Per-edge cost in
  ``io`` dominates; it runs only the accept path.
* ``verify-reject`` -- ``verify`` on small-to-mid K_2n coloring files,
  valid and corrupted in ways whose outcome follows from how they were
  made, plus a few one-edge files whose header inflates the span or
  the vertex count.  It runs the FAIL and error paths, per-call CLI
  overhead and ``parse_graph``.
* ``search-exact`` -- ``search --t`` on fixed named complete graphs and
  ``search --max`` with a fixed budget on small graphs of fixed shapes
  under a seeded vertex labelling.  Only the ``search`` module does
  real work here.

Every expectation is fixed when the input is made, never read back
from the program under test: exit codes, verdict lines, violation
kinds and counts, ``FormatError`` kinds and lines, digests of emitted
files, and known answers of the search.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

from harness import CallResult, Counts, Op, Tracer, cli_call

DIGESTS_PATH = Path(__file__).resolve().parent / "k2n_digests.json"


def load_digests() -> dict[int, str]:
    """sha256 of ``construct --n k`` output, recorded at the benchmark's commit."""
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return {int(k): v for k, v in json.load(fh)["sha256"].items()}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One value from each of ``count`` equal strata of [lo, hi], shuffled.

    Stratifying keeps the size distribution, and so the op-time
    quantiles, nearly the same from seed to seed.
    """
    width = (hi - lo + 1) / count
    values = [lo + int((i + rng.random()) * width) for i in range(count)]
    rng.shuffle(values)
    return values


def reference_violations(span: int, colors: dict[tuple[int, int], int]) -> Counter:
    """Violation kinds of a fully colored graph, by the definition alone.

    Independent of the library's verifier; colors must lie in 1..span.
    """
    at: dict[int, list[int]] = {}
    for (i, j), c in colors.items():
        at.setdefault(i, []).append(c)
        at.setdefault(j, []).append(c)
    kinds: Counter = Counter()
    for cs in at.values():
        distinct = set(cs)
        if len(distinct) != len(cs):
            kinds["not-proper"] += 1
        if max(distinct) - min(distinct) + 1 != len(distinct):
            kinds["not-consecutive"] += 1
    used = set(colors.values())
    unused = sum(1 for c in range(1, span + 1) if c not in used)
    if unused:
        kinds["color-unused"] = unused
    return kinds


def read_coloring(text: str) -> tuple[int, int, dict[tuple[int, int], int]]:
    """(vertex count, span, colors) of well-formed coloring text, by split alone."""
    lines = text.split("\n")
    _, vertices, span = lines[0].split()
    colors = {}
    for line in lines[1:]:
        if line:
            _, i, j, c = line.split()
            colors[(int(i), int(j))] = int(c)
    return int(vertices), int(span), colors


def pass_line(vertices: int, span: int, edges: int) -> str:
    return f"PASS: interval coloring of {vertices} vertices, span {span}, {edges} edges\n"


def check_fail_output(result: CallResult, kinds: Counter) -> str | None:
    """A FAIL report must list exactly the expected violation kinds."""
    lines = result.out.split("\n")
    total = sum(kinds.values())
    if lines[0] != f"FAIL: {total} violation(s)":
        return f"expected 'FAIL: {total} violation(s)', got {lines[0][:60]!r}"
    got = Counter(line.strip().split(" at ", 1)[0] for line in lines[1:] if line)
    if got != kinds:
        return f"violation kinds {dict(got)} != expected {dict(kinds)}"
    return None


def validate_witness(lib: SimpleNamespace, graph, text: str, span: int) -> str | None:
    """A FOUND witness must verify, by the library and by the definition."""
    try:
        _, coloring = lib.io.parse_coloring_with_graph(text, graph)
    except lib.io.FormatError as exc:
        return f"witness does not parse: {exc}"
    if coloring.span_t != span:
        return f"witness span {coloring.span_t} != {span}"
    if not lib.coloring.verify_interval(graph, coloring).verdict:
        return "witness fails verify_interval"
    if reference_violations(span, dict(coloring.assignment)):
        return "witness fails the reference check"
    return None


def _one_call(lib, argv: list[str], text: str) -> list[CallResult]:
    return [cli_call(lib, argv, text)]


@dataclass
class Prepared:
    ops: list[Op]
    warmup: list[Op]


# ---------------------------------------------------------------- k2n-pipeline


@dataclass(frozen=True)
class K2nSizes:
    n_lo: int = 100
    n_hi: int = 200
    per_round: int = 12
    warmup_n: int = 20


def expected_bounds(n: int) -> dict[str, str]:
    """The ``#data`` rows of ``bounds --n n``, from the closed forms."""
    m = 2 * n
    log2 = 0
    while 2 ** (log2 + 1) <= 2 * n - 1:
        log2 += 1
    lower = {"construction": 3 * n - 2, "log2": 2 * n - 1 + log2}
    upper = {
        "refined": 2 * m - 4 if m >= 3 else None,
        "general": 2 * m - 3,
        "triangle-free": m - 1 if m < 3 else None,
    }
    rows = {f"lower {k}": str(v) for k, v in lower.items()}
    rows.update({f"upper {k}": "na" if v is None else str(v) for k, v in upper.items()})
    rows["best-lower"] = str(max(lower.values()))
    rows["best-upper"] = str(min(v for v in upper.values() if v is not None))
    return rows


def _k2n_run(lib, n: int) -> list[CallResult]:
    bounds = cli_call(lib, ["bounds", "--n", str(n)])
    built = cli_call(lib, ["construct", "--n", str(n)])
    verified = cli_call(lib, ["verify", "-"], built.out)
    return [bounds, built, verified]


def _k2n_check(n: int, digest: str | None, results: list[CallResult]) -> tuple[str | None, Counts]:
    counts = {"questions": 1}
    bounds, built, verified = results
    codes = [r.code for r in results]
    if codes != [0, 0, 0]:
        return f"exit codes {codes}", counts
    data = bounds.out.split("#data\n", 1)
    rows = dict(line.rsplit(" ", 1) for line in data[-1].splitlines()) if len(data) == 2 else {}
    if rows != expected_bounds(n):
        return f"bounds data {rows} != {expected_bounds(n)}", counts
    if digest is None:
        return f"no recorded digest for n={n}", counts
    if sha256(built.out) != digest:
        return "construct output differs from the recorded digest", counts
    if verified.out != pass_line(2 * n, 3 * n - 2, n * (2 * n - 1)):
        return f"verify said {verified.out[:80]!r}", counts
    return None, counts


def _k2n_direct(lib, n: int, digest: str | None, tr: Tracer) -> tuple[str | None, Counts]:
    with tr.span("bounds.bounds_for_k2n"):
        report = lib.bounds.bounds_for_k2n(n)
    with tr.span("graph.complete_graph"):
        graph = lib.graph.complete_graph(2 * n)
    with tr.span("construction.construct"):
        coloring = lib.construction.construct(n)
    with tr.span("io.emit_coloring"):
        text = lib.io.emit_coloring(graph, coloring)
    with tr.span("io.parse_coloring"):
        parsed_graph, parsed = lib.io.parse_coloring_with_graph(text)
    with tr.span("coloring.verify_interval"):
        report_ok = lib.coloring.verify_interval(parsed_graph, parsed).verdict
    counts = {"questions": 1, "io.bytes_in": len(text)}
    if report.best_lower != 3 * n - 2 or sha256(text) != digest or not report_ok:
        return "direct layer calls disagree with the expectation", counts
    return None, counts


def _k2n_op(lib, n: int, digests: dict[int, str]) -> Op:
    digest = digests.get(n)
    return Op(
        label=f"k2n n={n}",
        edges=n * (2 * n - 1),
        run=partial(_k2n_run, lib, n),
        check=partial(_k2n_check, n, digest),
        direct=partial(_k2n_direct, lib, n, digest),
    )


def build_k2n(lib, seed: int, workdir: Path, sizes: K2nSizes = K2nSizes()) -> Prepared:
    rng = random.Random(seed)
    digests = load_digests()
    ns = stratified(rng, sizes.n_lo, sizes.n_hi, sizes.per_round)
    return Prepared(
        ops=[_k2n_op(lib, n, digests) for n in ns],
        warmup=[_k2n_op(lib, sizes.warmup_n, digests)],
    )


# --------------------------------------------------------------- verify-reject


@dataclass(frozen=True)
class VerifySizes:
    n_lo: int = 10
    n_hi: int = 60
    # Ops per round of each kind made from a K_2n coloring file.
    mix: tuple[tuple[str, int], ...] = (
        ("valid", 24),
        ("not-proper", 24),
        ("span-raised", 24),
        ("color-out-of-range", 12),
        ("bad-token", 12),
        ("duplicate-edge", 12),
    )
    # One-edge files whose header alone sets the verifier's work.
    inflated_spans: tuple[int, ...] = (100_000, 100_000)
    inflated_vertices: tuple[int, ...] = (200_000, 200_000)


# One verify call in GRAPH_EVERY also reads the K_2n graph file; a
# raised header adds 1..MAX_RAISE unused colors.
GRAPH_EVERY = 3
MAX_RAISE = 8

# Phrases of the CLI's error line that identify each FormatError kind.
ERROR_PHRASES = {
    "color-out-of-range": "outside 1..",
    "bad-token": "must be an integer",
    "duplicate-edge": "duplicate edge",
}


@dataclass(frozen=True)
class VerifyExpect:
    code: int
    stdout: str | None = None  # exact text of a PASS
    kinds: Counter | None = None  # violation kinds of a FAIL
    error_kind: str | None = None
    error_line: int | None = None


def _verify_check(expect: VerifyExpect, results: list[CallResult]) -> tuple[str | None, Counts]:
    (result,) = results
    counts: Counts = {"questions": 1}
    if result.code != expect.code:
        return f"exit {result.code} != {expect.code}: {result.err[:80]!r}", counts
    if expect.code == 0:
        return (None if result.out == expect.stdout else f"stdout {result.out[:80]!r}"), counts
    if expect.code == 1:
        counts["coloring.violations"] = sum(expect.kinds.values())
        return check_fail_output(result, expect.kinds), counts
    prefix = f"error: -: line {expect.error_line}: "
    if result.out or not result.err.startswith(prefix):
        return f"expected {prefix!r}, got {result.err[:80]!r}", counts
    if ERROR_PHRASES[expect.error_kind] not in result.err:
        return f"error is not {expect.error_kind}: {result.err[:80]!r}", counts
    return None, counts


def _verify_direct(
    lib, expect: VerifyExpect, text: str, graph_text: str | None, tr: Tracer
) -> tuple[str | None, Counts]:
    counts: Counts = {"questions": 1, "io.bytes_in": len(text) + len(graph_text or "")}
    graph = None
    if graph_text is not None:
        with tr.span("io.parse_graph"):
            graph = lib.io.parse_graph(graph_text)
    try:
        with tr.span("io.parse_coloring"):
            graph, coloring = lib.io.parse_coloring_with_graph(text, graph)
    except lib.io.FormatError as exc:
        counts["io.format_errors"] = 1
        counts[f"io.format_errors.{exc.kind}"] = 1
        if (exc.kind, exc.line) != (expect.error_kind, expect.error_line):
            return f"FormatError {exc.kind} at line {exc.line}", counts
        return None, counts
    if expect.code == 2:
        return "expected a FormatError", counts
    with tr.span("coloring.verify_interval"):
        report = lib.coloring.verify_interval(graph, coloring)
    counts["coloring.violations"] = len(report.violations)
    got = Counter(v.kind.value for v in report.violations)
    if got != (expect.kinds or Counter()):
        return f"violation kinds {dict(got)}", counts
    return None, counts


def _verify_op(lib, label, text, expect, edges, graph_path=None, graph_text=None, tags=()):
    argv = ["verify", "-"] + (["--graph", str(graph_path)] if graph_path else [])
    return Op(
        label=label,
        edges=edges,
        run=partial(_one_call, lib, argv, text),
        check=partial(_verify_check, expect),
        direct=partial(_verify_direct, lib, expect, text, graph_text),
        tags=frozenset(tags),
    )


def _corrupt(rng: random.Random, kind: str, text: str):
    """A corrupted copy of a valid K_2n coloring file and its expected outcome."""
    vertices, span, colors = read_coloring(text)
    lines = text.split("\n")[:-1]
    edge_count = len(lines) - 1
    if kind == "valid":
        return text, VerifyExpect(0, stdout=pass_line(vertices, span, edge_count))
    if kind == "not-proper":
        x = rng.randint(1, vertices)
        a, b = rng.sample([v for v in range(1, vertices + 1) if v != x], 2)
        e1, e2 = (min(x, a), max(x, a)), (min(x, b), max(x, b))
        changed = dict(colors)
        changed[e2] = colors[e1]
        index = sorted(colors).index(e2) + 1
        lines[index] = f"e {e2[0]} {e2[1]} {colors[e1]}"
        kinds = reference_violations(span, changed)
        if not kinds["not-proper"]:
            raise RuntimeError(f"corruption at vertex {x} made no not-proper violation")
        return "\n".join(lines) + "\n", VerifyExpect(1, kinds=kinds)
    if kind == "span-raised":
        k = rng.randint(1, MAX_RAISE)
        lines[0] = f"c {vertices} {span + k}"
        kinds = Counter({"color-unused": k})
        if reference_violations(span + k, colors) != kinds:
            raise RuntimeError(f"base file for {vertices} vertices is not an interval coloring")
        return "\n".join(lines) + "\n", VerifyExpect(1, kinds=kinds)
    lineno = rng.randint(2, edge_count + 1)
    tokens = lines[lineno - 1].split()
    if kind == "color-out-of-range":
        tokens[3] = str(span + rng.randint(1, 50))
        lines[lineno - 1] = " ".join(tokens)
    elif kind == "bad-token":
        tokens[rng.randint(1, 3)] = rng.choice(["x", "1.5", "7a", "-"])
        lines[lineno - 1] = " ".join(tokens)
    elif kind == "duplicate-edge":
        lines.insert(lineno, lines[lineno - 1])
        lineno += 1
    else:
        raise ValueError(f"unknown corruption {kind!r}")
    return "\n".join(lines) + "\n", VerifyExpect(2, error_kind=kind, error_line=lineno)


class _VerifyInputs:
    """Coloring and graph files of K_2n, each made once per n."""

    def __init__(self, lib, workdir: Path):
        self.lib, self.workdir = lib, workdir
        self.colorings: dict[int, str] = {}
        self.graphs: dict[int, tuple[Path, str]] = {}

    def op(self, rng: random.Random, kind: str, n: int, with_graph: bool) -> Op:
        lib = self.lib
        if n not in self.colorings:
            graph = lib.graph.complete_graph(2 * n)
            self.colorings[n] = lib.io.emit_coloring(graph, lib.construction.construct(n))
        text, expect = _corrupt(rng, kind, self.colorings[n])
        graph_path = graph_text = None
        if with_graph:
            if n not in self.graphs:
                path = self.workdir / f"k{2 * n}.graph"
                graph_text = lib.io.emit_graph(lib.graph.complete_graph(2 * n))
                path.write_text(graph_text, encoding="utf-8")
                self.graphs[n] = (path, graph_text)
            graph_path, graph_text = self.graphs[n]
        label = f"verify {kind} n={n}" + (" --graph" if with_graph else "")
        return _verify_op(lib, label, text, expect, n * (2 * n - 1), graph_path, graph_text)


def build_verify(lib, seed: int, workdir: Path, sizes: VerifySizes = VerifySizes()) -> Prepared:
    rng = random.Random(seed)
    inputs = _VerifyInputs(lib, workdir)
    ops: list[Op] = []
    for kind, count in sizes.mix:
        for n in stratified(rng, sizes.n_lo, sizes.n_hi, count):
            ops.append(inputs.op(rng, kind, n, rng.randrange(GRAPH_EVERY) == 0))
    for span in sizes.inflated_spans:
        kinds = Counter({"color-unused": span - 1})
        ops.append(
            _verify_op(lib, f"verify header span {span}", f"c 2 {span}\ne 1 2 1\n",
                       VerifyExpect(1, kinds=kinds), 1, tags=("inflated",))
        )
    for vertices in sizes.inflated_vertices:
        expect = VerifyExpect(0, stdout=pass_line(vertices, 1, 1))
        ops.append(
            _verify_op(lib, f"verify header vertices {vertices}", f"c {vertices} 1\ne 1 2 1\n",
                       expect, 1, tags=("inflated",))
        )
    rng.shuffle(ops)
    # Warm-up runs every kind once on the smallest size, the same for every seed.
    fixed = random.Random(0)
    warmup = [inputs.op(fixed, kind, sizes.n_lo, with_graph=True) for kind, _ in sizes.mix]
    return Prepared(ops=ops, warmup=warmup)


# ---------------------------------------------------------------- search-exact


# (vertices of K_m, span t, node budget or None for the CLI default,
#  the statuses that are correct answers).  K_m with m odd has no
# interval coloring at all.  The edge search stops on the budget in the
# last two; a faster engine may decide them, and any decision is checked.
NAMED_INSTANCES: tuple[tuple[int, int, int | None, frozenset[str]], ...] = (
    (4, 4, None, frozenset({"found"})),
    (5, 7, None, frozenset({"exhausted-no-solution"})),
    (6, 7, None, frozenset({"found"})),
    (6, 8, None, frozenset({"exhausted-no-solution"})),
    (8, 11, None, frozenset({"found"})),
    (7, 10, 50_000, frozenset({"budget-exceeded", "exhausted-no-solution"})),
    (8, 12, 50_000, frozenset({"budget-exceeded", "exhausted-no-solution", "found"})),
)


# Seed of the fixed graph shapes behind the ``search --max`` ops.
SHAPE_SEED = 0


@dataclass(frozen=True)
class SearchSizes:
    named: tuple[tuple[int, int, int | None, frozenset[str]], ...] = NAMED_INSTANCES
    max_graphs: int = 120
    max_budget: int = 5_000
    v_lo: int = 5
    v_hi: int = 7


_SEARCH_LINE = re.compile(
    r"search t=(\d+) on (\d+) vertices, (\d+) edges: ([a-z-]+) \(nodes=(\d+)\)"
)
_PROBE_LINE = re.compile(r"probe t=(\d+): ([a-z-]+) \(nodes=(\d+)\)")
_MAX_LINE = re.compile(r"max span: (\d+) \((complete|incomplete: budget gap above)\)")


def _named_check(lib, graph, results, *, t, budget, allowed) -> tuple[str | None, Counts]:
    (result,) = results
    counts: Counts = {"questions": 1}
    head, _, witness = result.out.partition("\n")
    match = _SEARCH_LINE.fullmatch(head)
    if not match:
        return f"unexpected output {head[:80]!r}", counts
    got_t, vertices, edges, status, nodes = match.groups()
    counts["search.nodes"] = int(nodes)
    counts["search.budget_stops"] = int(status == "budget-exceeded")
    if (int(got_t), int(vertices), int(edges)) != (t, graph.vertex_count, graph.edge_count):
        return f"wrong instance in {head!r}", counts
    if status not in allowed:
        return f"status {status}, expected one of {sorted(allowed)}", counts
    if result.code != (0 if status == "found" else 1):
        return f"exit {result.code} for {status}", counts
    if status == "budget-exceeded" and budget is not None and int(nodes) != budget:
        return f"budget stop after {nodes} nodes, budget {budget}", counts
    if status == "found":
        problem = validate_witness(lib, graph, witness, t)
        if problem:
            return problem, counts
        counts["search.witnesses_verified"] = 1
    elif witness:
        return "a witness was printed without a FOUND", counts
    return None, counts


def _max_check(lib, graph, results, *, budget) -> tuple[str | None, Counts]:
    (result,) = results
    lines = result.out.split("\n")
    probes = []
    while lines and _PROBE_LINE.fullmatch(lines[0]):
        t, status, nodes = _PROBE_LINE.fullmatch(lines.pop(0)).groups()
        probes.append((int(t), status, int(nodes)))
    stops = sum(status == "budget-exceeded" for _, status, _ in probes)
    counts: Counts = {
        "questions": len(probes),
        "search.nodes": sum(nodes for _, _, nodes in probes),
        "search.budget_stops": stops,
    }
    if result.code != 0:
        return f"exit {result.code}", counts
    summary = _MAX_LINE.fullmatch(lines[0]) if lines else None
    if not probes or summary is None:
        return f"unexpected output {result.out[:80]!r}", counts
    max_span, state = int(summary.group(1)), summary.group(2)
    cap = 2 * graph.vertex_count - 4
    if [t for t, _, _ in probes] != list(range(cap, cap - len(probes), -1)):
        return "probes do not descend from the cap 2|V|-4", counts
    if any(status == "found" for _, status, _ in probes[:-1]):
        return "probing continued after a FOUND", counts
    if any(status == "budget-exceeded" and nodes != budget for _, status, nodes in probes):
        return "a budget stop did not spend the budget", counts
    if (state == "complete") != (stops == 0):
        return f"'{state}' with {stops} budget stops", counts
    last_t, last_status, _ = probes[-1]
    witness = "\n".join(lines[1:])
    if max_span:
        if (last_t, last_status) != (max_span, "found"):
            return f"max span {max_span} without a FOUND probe at it", counts
        problem = validate_witness(lib, graph, witness, max_span)
        if problem:
            return problem, counts
        counts["search.witnesses_verified"] = 1
    elif last_status == "found" or last_t != max(graph.max_degree, 1) or witness:
        return "max span 0 but the sweep did not exhaust every span", counts
    return None, counts


def _search_direct(lib, text, tr: Tracer, *, t, budget, max_cap) -> tuple[str | None, Counts]:
    with tr.span("io.parse_graph"):
        graph = lib.io.parse_graph(text)
    counts: Counts = {"io.bytes_in": len(text)}
    with tr.span("search.find"):
        if max_cap is None:
            outcome = lib.search.find_interval_coloring(
                graph, lib.search.SearchConfig(t=t, node_budget=budget)
            )
            witness = outcome.coloring
            counts["search.nodes"] = outcome.nodes_explored
        else:
            result = lib.search.compute_max_span(graph, max_cap, node_budget=budget)
            witness = result.witness
            counts["search.nodes"] = sum(p.nodes_explored for p in result.probes)
    if witness is not None:
        with tr.span("io.emit_coloring"):
            lib.io.emit_coloring(graph, witness)
        if not lib.coloring.verify_interval(graph, witness).verdict:
            return "direct search witness fails verify_interval", counts
    return None, counts


def _search_op(lib, graph, argv, check, direct) -> Op:
    text = lib.io.emit_graph(graph)
    return Op(
        label=" ".join(argv[2:]) + f" on {graph.vertex_count} vertices {graph.edge_count} edges",
        edges=graph.edge_count,
        run=partial(_one_call, lib, argv, text),
        check=partial(check, lib, graph),
        direct=partial(direct, lib, text),
    )


def _named_op(lib, m: int, t: int, budget: int | None, allowed: frozenset[str]) -> Op:
    argv = ["search", "-", "--t", str(t)] + (["--budget", str(budget)] if budget else [])
    direct_budget = budget if budget is not None else lib.search.DEFAULT_NODE_BUDGET
    return _search_op(
        lib,
        lib.graph.complete_graph(m),
        argv,
        partial(_named_check, t=t, budget=budget, allowed=allowed),
        partial(_search_direct, t=t, budget=direct_budget, max_cap=None),
    )


def _max_op(lib, graph, budget: int) -> Op:
    argv = ["search", "-", "--max", "--budget", str(budget)]
    return _search_op(
        lib,
        graph,
        argv,
        partial(_max_check, budget=budget),
        partial(_search_direct, t=0, budget=budget, max_cap=2 * graph.vertex_count - 4),
    )


def graph_shapes(sizes: SearchSizes) -> list[tuple[int, list[tuple[int, int]]]]:
    """The fixed edge sets behind the ``--max`` ops, stratified by size.

    Vertex count cycles through v_lo..v_hi and, within each vertex
    count, the edge count takes one value from each of equal strata.
    The shapes do not depend on the workload seed, so the answers and
    probe counts stay the same from seed to seed; the seed draws the
    vertex labelling, which sets the search order and so the node
    counts and budget stops.
    """
    rng = random.Random(SHAPE_SEED)
    classes = list(range(sizes.v_lo, sizes.v_hi + 1))
    per_class = -(-sizes.max_graphs // len(classes))
    shapes = []
    for v in classes:
        pairs = list(combinations(range(1, v + 1), 2))
        for m in stratified(rng, 1, len(pairs), per_class):
            shapes.append((v, rng.sample(pairs, m)))
    rng.shuffle(shapes)
    return shapes[: sizes.max_graphs]


def build_search(lib, seed: int, workdir: Path, sizes: SearchSizes = SearchSizes()) -> Prepared:
    rng = random.Random(seed)
    ops = [_named_op(lib, *instance) for instance in sizes.named]
    for v, edges in graph_shapes(sizes):
        label = list(range(1, v + 1))
        rng.shuffle(label)
        relabelled = [(label[i - 1], label[j - 1]) for i, j in edges]
        ops.append(_max_op(lib, lib.graph.graph_from_edges(v, relabelled), sizes.max_budget))
    rng.shuffle(ops)
    warmup = [
        _named_op(lib, 4, 4, None, frozenset({"found"})),
        _max_op(lib, lib.graph.complete_graph(4), sizes.max_budget),
    ]
    return Prepared(ops=ops, warmup=warmup)


WORKLOADS = {
    "k2n-pipeline": build_k2n,
    "verify-reject": build_verify,
    "search-exact": build_search,
}
