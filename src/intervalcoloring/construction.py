"""An explicit interval edge coloring of the complete graph K_2n.

``construct(n)`` colors K_2n with span 3n - 2, the widest this library
builds explicitly.  Each edge (i, j), i < j, gets its color from one of
eight index-range clauses (a piecewise-linear formula in i, j, n).  The
clauses tile the edge set: every pair satisfies exactly one clause.
That partition property is the load-bearing claim.  ``_runs`` reads the
clauses row by row, as runs; the per-edge statement of the clauses
(``classify_edge`` and ``case_color`` in ``tests/conftest.py``) is the
specification the test suite checks the runs against, exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterator

from .coloring import EdgeColoring, _canonical_coloring

# A case id is an integer 1..8 naming the clause an edge falls under.
CaseId = int

CASE_COUNT = 8


def _runs(n: int) -> Iterator[tuple[CaseId, int, int, int, int]]:
    """The clause runs of K_2n, row by row: (case, i, lo, hi, shift).

    Edges (i, j) with lo <= j < hi fall under clause `case` and get
    color j + shift.  For a fixed i every clause's color is j plus a
    constant (clause 5 holds one edge per row), so row i is at most five
    runs, none empty; they are ascending and tile j = i+1 .. 2n.
    """
    m = 2 * n
    split = 1 + (n - 1) // 2  # below/at: clause 5; above: clause 6
    for i in range(1, m):
        if i > n:
            mid = max(i + 1, 3 * n - i)  # i + j <= 3n - 1 below mid
            row = [(7, i + 1, mid, i - m), (8, mid, m + 1, i - n - 1)]
        else:
            mid = max(i + 1, n + 2 - i)  # i + j <= n + 1 below mid
            d = n - 1 + i  # the pair with j - i == n - 1, if j > n
            if i <= split:
                pair = (5, max(d, n + 1), d + 1, i - n - 1)  # color 2(i - 1)
            else:
                pair = (6, d, d + 1, i - 2)
            row = [
                (1, i + 1, mid, i - 2),
                (2, mid, n + 1, i + n - 3),
                (3, n + 1, d, n - i),
                pair,
                (4, n + i, m + 1, -i),
            ]
        for case, lo, hi, shift in row:
            if lo < hi:
                yield case, i, lo, hi, shift


def construct(n: int) -> EdgeColoring:
    """Interval coloring of K_2n with colors exactly 1..3n-2.

    Every edge gets the color of the one clause it satisfies; the
    colors are read off ``_runs`` so large sweeps stay cheap.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # The runs tile the rows in order, so their colors follow the pairs.
    colors = chain.from_iterable(
        range(lo + shift, hi + shift) for _, _, lo, hi, shift in _runs(n)
    )
    assignment = dict(zip(combinations(range(1, 2 * n + 1), 2), colors))
    return _canonical_coloring(assignment, 3 * n - 2)


@dataclass(frozen=True)
class CaseStats:
    """Edge count and color range of one clause over a whole K_2n."""

    case: CaseId
    edge_count: int
    min_color: int | None
    max_color: int | None


def case_statistics(n: int) -> list[CaseStats]:
    """Per-clause edge counts and color ranges for K_2n (CLI `cases`)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    counts = [0] * (CASE_COUNT + 1)
    lo = [None] * (CASE_COUNT + 1)
    hi = [None] * (CASE_COUNT + 1)
    for case, _, first, stop, shift in _runs(n):
        counts[case] += stop - first
        low, high = first + shift, stop - 1 + shift
        if lo[case] is None or low < lo[case]:
            lo[case] = low
        if hi[case] is None or high > hi[case]:
            hi[case] = high
    return [
        CaseStats(case, counts[case], lo[case], hi[case])
        for case in range(1, CASE_COUNT + 1)
    ]
