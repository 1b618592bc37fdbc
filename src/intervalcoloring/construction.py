"""Explicit interval edge colorings of the complete graph K_2n.

Two constructions live here:

* ``construct(n)`` colors K_2n with span 3n - 2, the widest this
  library builds explicitly.  Each edge (i, j), i < j, gets its color
  from one of eight index-range clauses (a piecewise-linear formula in
  i, j, n).  The clauses tile the edge set: every pair satisfies
  exactly one clause.  That partition property is the load-bearing
  claim, so the classifier is public and the test suite checks it
  exhaustively.

* ``round_robin(n)`` colors K_2n with the minimal span 2n - 1 by the
  classic circle method: fix vertex 2n, rotate 1..2n-1, one color per
  round.  Every color class is a perfect matching, so each vertex sees
  all of 1..2n-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterator

from .coloring import EdgeColoring, _canonical_coloring

# A case id is an integer 1..8 naming the clause an edge falls under.
CaseId = int

CASE_COUNT = 8


class PartitionError(RuntimeError):
    """Raised when an edge matches zero or several clauses (unreachable)."""


def _check_pair(n: int, i: int, j: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 1 <= i < j <= 2 * n:
        raise ValueError(f"need 1 <= i < j <= 2n = {2 * n}, got ({i}, {j})")


def classify_edge(n: int, i: int, j: int) -> CaseId:
    """Return the unique clause (1..8) that edge (i, j) of K_2n satisfies.

    Clause conditions, for 1 <= i < j <= 2n (empty ranges match nothing):

    1. i in [1, n//2],            j in [2, n],                  i+j <= n+1
    2. i in [2, n-1],             j in [n//2 + 2, n],           i+j >= n+2
    3. i in [3, n],               j in [n+1, 2n-2],             j-i <= n-2
    4. i in [1, n],               j in [n+1, 2n],               j-i >= n
    5. i in [2, 1 + (n-1)//2],    j in [n+1, n + (n-1)//2],     j-i == n-1
    6. i in [(n-1)//2 + 2, n],    j in [n+1 + (n-1)//2, 2n-1],  j-i == n-1
    7. i in [n+1, n + n//2 - 1],  j in [n+2, 2n-2],             i+j <= 3n-1
    8. i in [n+1, 2n-1],          j in [n + n//2 + 1, 2n],      i+j >= 3n

    Clauses 1-2 require j <= n, 3-6 require j >= n+1 with i <= n, and
    7-8 require i >= n+1, so only the clauses of the pair's region need
    evaluating; within a region every clause is checked in full.

    Raises PartitionError if zero or several clauses match.
    """
    _check_pair(n, i, j)
    s = i + j
    d = j - i
    hn = n // 2
    hm = (n - 1) // 2

    if j <= n:
        c1 = i <= hn and 2 <= j and s <= n + 1
        c2 = 2 <= i <= n - 1 and hn + 2 <= j and s >= n + 2
        matched = [case for case, hit in ((1, c1), (2, c2)) if hit]
    elif i <= n:
        c3 = 3 <= i and j <= 2 * n - 2 and d <= n - 2
        c4 = d >= n
        c5 = 2 <= i <= 1 + hm and j <= n + hm and d == n - 1
        c6 = hm + 2 <= i and n + 1 + hm <= j <= 2 * n - 1 and d == n - 1
        matched = [case for case, hit in ((3, c3), (4, c4), (5, c5), (6, c6)) if hit]
    else:
        c7 = i <= n + hn - 1 and n + 2 <= j <= 2 * n - 2 and s <= 3 * n - 1
        c8 = n + hn + 1 <= j and s >= 3 * n
        matched = [case for case, hit in ((7, c7), (8, c8)) if hit]

    if len(matched) != 1:
        raise PartitionError(
            f"edge ({i}, {j}) of K_{2 * n} matches clauses {matched or 'none'}"
        )
    return matched[0]


def case_color(n: int, i: int, j: int, case: CaseId) -> int:
    """Evaluate the color formula of the given clause at edge (i, j)."""
    if case in (1, 6):
        return i + j - 2
    if case == 2:
        return i + j + n - 3
    if case == 3:
        return n + j - i
    if case == 4:
        return j - i
    if case == 5:
        return 2 * (i - 1)
    if case == 7:
        return i + j - 2 * n
    if case == 8:
        return i + j - n - 1
    raise ValueError(f"case must be 1..{CASE_COUNT}, got {case}")


def _runs(n: int) -> Iterator[tuple[CaseId, int, int, int, int]]:
    """The clause runs of K_2n, row by row: (case, i, lo, hi, shift).

    Edges (i, j) with lo <= j < hi fall under clause `case` and get
    color j + shift.  For a fixed i every clause's color is j plus a
    constant (clause 5 holds one edge per row), so row i is at most five
    runs, none empty; they are ascending and tile j = i+1 .. 2n.
    classify_edge and case_color remain the specification the tests
    check these runs against.
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

    Equivalent to coloring every edge with
    ``case_color(n, i, j, classify_edge(n, i, j))``; the colors are
    read off ``_runs`` so large sweeps stay cheap.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # The runs tile the rows in order, so their colors follow the pairs.
    colors = chain.from_iterable(
        range(lo + shift, hi + shift) for _, _, lo, hi, shift in _runs(n)
    )
    assignment = dict(zip(combinations(range(1, 2 * n + 1), 2), colors))
    return _canonical_coloring(assignment, 3 * n - 2)


def round_robin(n: int) -> EdgeColoring:
    """Proper coloring of K_2n with span 2n-1; every color class is a
    perfect matching and every vertex palette is exactly {1, .., 2n-1}."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    m1 = 2 * n - 1
    assignment: dict[tuple[int, int], int] = {}
    for r in range(m1):
        assignment[(r % m1 + 1, 2 * n)] = r + 1
        for k in range(1, n):
            a = (r + k) % m1 + 1
            b = (r - k) % m1 + 1
            assignment[(a, b) if a < b else (b, a)] = r + 1
    return EdgeColoring(assignment, span_t=m1)


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
