"""Exact search for interval edge colorings on the palette-start engine.

Every prune is a necessary condition, so an exhausted search is a proof
of nonexistence; a budget stop proves nothing.

`find_interval_coloring` (CLI `search --t`) decides, for a fixed span
t, whether a graph admits an interval t-coloring.  `compute_max_span`
(CLI `search --max`) probes spans downward from `span_cap` (the refined
and general upper bounds), with the engine prepared once per sweep.
Both run every probe on `_PaletteSweep`.  Vertex v's palette is
[a_v, e_v] with e_v = a_v + deg(v) - 1, so color c is a perfect
matching on S_c = {v : a_v <= c <= e_v}.  Phase A picks the starts a_v
one color at a time; phase B then colors the edges one color at a time.
A node is one start decision (the set of vertices that start at one
color) or one edge placement.  Phase A keeps one start and one lim
(start deadline) list for the whole probe; each level logs the
deadlines its choice lowered and restores them before its next choice
(a start is read only once its vertex has started, so starts need no
undo).  A node's work is bounded by S_c, the unstarted neighbors of
started vertices and the twin classes its start set reaches, not by
every vertex; entering phase B costs O(|E|) plus one matching check per
color.  Prunes:

* matching -- every S_c is non-empty and even (tested before the node
  is counted), and G[S_c] passes a necessary check for a perfect
  matching (forced pairs, then even components:
  O(|S_c| + |E(G[S_c])|) bitmask steps, memoized by vertex set for the
  sweep in a plain dict that phase A reads inline);
* start deadlines -- an unstarted vertex must start by t - deg + 1 and
  by the end of every started neighbor's palette;
* color t -- some edge vw takes color t, and no palette goes past t, so
  both palettes end at t.  Hence some edge must join two vertices whose
  palettes can still end at t: a started v with a_v + deg(v) - 1 = t,
  or an unstarted w whose start deadline is still t - deg(w) + 1 (the
  deadlines only drop).  Phase A keeps that vertex set and the count of
  edges inside it.  The vertices a start set drops from it are found
  from bitmasks before anything is written (a starter v lowers the
  deadline t - deg(w) + 1 of an unstarted neighbor w exactly when
  deg(w) <= t - e_v), so a node that leaves no such edge is rejected
  with nothing to undo;
* earliest deadline first -- edge vw takes a color in
  [max(a_v, a_w), min(e_v, e_w)], distinct at each vertex: checked in
  full for each vertex that starts and, in phase B, for each vertex of
  S_c after color c; other started vertices get a count check;
* twins -- the twin classes partition the vertices and are computed
  once per sweep; in phase A a class's lower-numbered vertices start first.
  A level's start sets are a lazy recursive product over the classes; a
  class is found only when a carry first reaches it (_product).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .bounds import span_cap
from .coloring import EdgeColoring, _canonical_coloring
from .graph import Graph

# About six times the ~8.8e5 nodes that exhaust K_20 span 36, so stock
# settings settle every desk-scale workload.
DEFAULT_NODE_BUDGET = 5_000_000


class SearchStatus(Enum):
    FOUND = "found"
    EXHAUSTED_NO_SOLUTION = "exhausted-no-solution"
    BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class SearchConfig:
    """Span target plus node budget.

    node_budget counts start decisions and edge placements; 0 means
    unlimited.
    """

    t: int
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t}")
        if self.node_budget < 0:
            raise ValueError(f"node_budget must be >= 0, got {self.node_budget}")


class SearchOutcome(NamedTuple):
    status: SearchStatus
    coloring: EdgeColoring | None
    nodes_explored: int


def find_interval_coloring(g: Graph, cfg: SearchConfig) -> SearchOutcome:
    """Decide whether g admits an interval coloring with span exactly cfg.t.

    FOUND outcomes carry a witness coloring (it verifies by
    construction of the prunes).  EXHAUSTED_NO_SOLUTION means the full
    tree was searched: no interval t-coloring exists.  BUDGET_EXCEEDED
    means the node budget ran out first and proves nothing.  Identical
    inputs give identical outcomes and node counts.
    """
    if cfg.t < g.max_degree or g.edge_count < cfg.t:  # hopeless: no set-up
        return SearchOutcome(SearchStatus.EXHAUSTED_NO_SOLUTION, None, 0)
    return _PaletteSweep(g).probe(cfg.t, cfg.node_budget)


def _twin_classes(adj: list[list[int]]) -> list[int]:
    """Mask of each vertex's twin class, the vertex included; adj[w] is w's sorted neighbors.

    u and w are twins when N(u) - {w} == N(w) - {u}: equal open (false
    twins) or closed (true twins) neighborhoods; swapping them is an
    automorphism.  The classes partition the vertices: if u had a false
    twin w and a true twin x, then x is in N(u) = N(w), so w is in
    N[x] = N[u], a contradiction.  Keys are sorted neighbor tuples: no k-bit mask is hashed.
    """
    keys = [(tuple(a), tuple(sorted([*a, w]))) for w, a in enumerate(adj)]
    by_open: dict[tuple[int, ...], int] = {}
    by_closed: dict[tuple[int, ...], int] = {}
    for w, (n, c) in enumerate(keys):
        by_open[n] = by_open.get(n, 0) | 1 << w
        by_closed[c] = by_closed.get(c, 0) | 1 << w
    return [by_open[n] | by_closed[c] for n, c in keys]


def _fits(lo: int, hi: int, windows: list[tuple[int, int]]) -> bool:
    """Can each (deadline, release) window take its own color in lo..hi?

    Windows in deadline order each take the lowest free color at or after
    their release (earliest deadline first); that greedy succeeds whenever
    any assignment does.  Callers leave out windows that cover all of
    lo..hi: with one window per color, those take whatever is left.
    """
    free = (1 << hi + 1) - (1 << lo)
    for deadline, release in sorted(windows):
        low = free >> release << release
        low &= -low
        if not low or low >> deadline > 1:
            return False
        free ^= low
    return True


def _may_match(nbr: list[int], s: int) -> bool:
    """A necessary test for G[S] to have a perfect matching, for a vertex mask S.

    A vertex with one neighbor left in S must be matched to it, so the
    pair is removed, repeatedly; a vertex with no neighbor left fails.
    Then every connected component of what remains must have even size,
    since a perfect matching pairs vertices inside their component
    (Tutte).  It never rejects a set that has a perfect matching, but
    may accept one that has none (K_{2,4}).
    """
    pending = s
    while pending:
        low = pending & -pending
        pending ^= low
        if s & low:
            rest = nbr[low.bit_length() - 1] & s
            if not rest:
                return False
            if not rest & rest - 1:  # one neighbor left: a forced pair
                s ^= low | rest
                pending |= nbr[rest.bit_length() - 1] & s
    while s:
        part = grow = s & -s
        while grow:
            reach = 0
            while grow:
                low = grow & -grow
                grow ^= low
                reach |= nbr[low.bit_length() - 1]
            grow = reach & s & ~part
            part |= grow
        if part.bit_count() & 1:
            return False
        s ^= part
    return True


class _PaletteSweep:
    """The palette-start engine, prepared once for every probe of a sweep.

    Vertices that have an edge are relabelled 0..k-1 in ascending order;
    neighbor and vertex sets are bitmasks.
    """

    def __init__(self, g: Graph) -> None:
        self.edge_count = g.edge_count
        neighbors: dict[int, list[int]] = {}
        for i, j in g.edges:  # the one pass over the edges
            neighbors.setdefault(i, []).append(j)
            neighbors.setdefault(j, []).append(i)
        self.labels = sorted(neighbors)
        index = {x: k for k, x in enumerate(self.labels)}
        self.adj = adj = [sorted(map(index.__getitem__, neighbors[x])) for x in self.labels]
        self.deg = [len(a) for a in adj]
        self.max_degree = max(self.deg, default=0)
        self.nbr = [sum(map((1).__lshift__, a)) for a in adj]
        self.twins = _twin_classes(adj)  # fixed for the whole sweep
        self.by_degree: dict[int, int] = {}  # degree -> vertices of that degree
        for v, d in enumerate(self.deg):
            self.by_degree[d] = self.by_degree.get(d, 0) | 1 << v
        self.at_most = [0]  # at_most[r]: vertices of degree <= r, for r <= max degree
        for d in range(1, self.max_degree + 1):
            self.at_most.append(self.at_most[-1] | self.by_degree.get(d, 0))
        self.matched: dict[int, bool] = {}  # _may_match by vertex set, for every probe

    def probe(self, t: int, budget: int) -> SearchOutcome:
        """Decide span t; a node is one start decision or one edge placement."""
        deg, adj, nbr, at_most, matched = self.deg, self.adj, self.nbr, self.at_most, self.matched
        if t < self.max_degree or self.edge_count < t:
            return SearchOutcome(SearchStatus.EXHAUSTED_NO_SOLUTION, None, 0)
        k, top = len(deg), self.max_degree
        nodes = 0
        # start[v] is the color v starts at, read only once v has started.
        # lim[w] is the last color an unstarted w may start at: its
        # palette must end by t and reach the end of every started
        # neighbor's palette.  Both lists serve the whole probe: trail
        # logs each lowered lim as a (w, old) pair, and a level's entries
        # begin at its mark; restoring from a level's mark also undoes
        # what its popped children wrote.  frontier holds the unstarted
        # vertices with a started neighbor: any other unstarted vertex
        # still has lim t - deg + 1.  ends holds the vertices whose
        # palette can still end at t, and inside counts the edges with
        # both ends in ends (the color-t prune).  An unstarted w in ends
        # has lim[w] = t - deg(w) + 1, so a starter v lowers it, and w
        # leaves ends, exactly when deg(w) <= t - e_v.  A started vertex
        # that stays in ends has a palette from at most c to t, so its
        # degree is above t - e_v and the test needs no unstarted filter.
        # A start set's leavers are thus found from masks, and a set the
        # prune rejects writes nothing.
        start = [0] * k
        lim = [t - d + 1 for d in deg]
        trail: list[int] = []
        everyone = (1 << k) - 1
        base, choices = self._level(t, 1, start, lim, everyone, 0, 0)
        # A level: [c, left, frontier, ends, inside, base, choices, trail mark]
        levels = [[1, everyone, 0, everyone, self.edge_count, base, choices, 0]]
        while levels:
            c, left, frontier, ends, inside, base, choices, mark = levels[-1]
            room = t - c + 1  # t - e_v == room - deg(v) for a starter v
            for x in choices:
                if len(trail) > mark:  # undo the previous choice and its subtree
                    for i in range(len(trail) - 2, mark - 1, -2):
                        lim[trail[i]] = trail[i + 1]
                    del trail[mark:]
                s = base | x
                if not s or s.bit_count() & 1:  # S_c must be non-empty and even
                    continue
                if budget and nodes == budget:
                    return SearchOutcome(SearchStatus.BUDGET_EXCEEDED, None, nodes)
                nodes += 1
                if (ok := matched.get(s)) is None:
                    ok = matched[s] = _may_match(nbr, s)
                if not ok:
                    continue
                new = s & left
                # The child's left, frontier, ends and inside.
                rest, reach, out, count = left ^ new, frontier, ends, inside
                if new:
                    gone = 0  # the vertices that leave ends
                    m = new
                    while m:
                        bit = m & -m
                        m ^= bit
                        v = bit.bit_length() - 1
                        r = room - deg[v]
                        if r:
                            gone |= bit | nbr[v] & at_most[r if r < top else top]
                    gone &= ends
                    while gone:
                        bit = gone & -gone
                        gone ^= bit
                        out ^= bit
                        count -= (nbr[bit.bit_length() - 1] & out).bit_count()
                    if not count:
                        continue
                    m = new
                    while m:
                        bit = m & -m
                        m ^= bit
                        v = bit.bit_length() - 1
                        start[v] = c
                        end = c + deg[v] - 1
                        reach |= nbr[v]
                        for w in adj[v]:  # a started vertex's lim is never read again
                            if rest >> w & 1 and lim[w] > end:
                                trail += (w, lim[w])
                                lim[w] = end
                    reach &= rest
                if not self._starts_fit(c, s, start, lim, rest):
                    continue
                if rest:
                    level = self._level(t, c + 1, start, lim, rest, reach, s)
                    levels.append([c + 1, rest, reach, out, count, *level, len(trail)])
                    break
                outcome = self._color_edges(t, start, budget, nodes)
                if outcome.status is not SearchStatus.EXHAUSTED_NO_SOLUTION:
                    return outcome
                nodes = outcome.nodes_explored
            else:
                levels.pop()
        return SearchOutcome(SearchStatus.EXHAUSTED_NO_SOLUTION, None, nodes)

    def _level(
        self, t: int, c: int, start: list[int], lim: list[int], left: int, frontier: int, prev: int
    ) -> tuple:
        """Phase A at color c: base, who stays or must start, and the start sets to try.

        Every vertex of S_{c-1} (prev) whose palette goes on stays, and
        an unstarted w with lim[w] == c must start.  Each other unstarted
        vertex may start (see _product).  The work is bounded by prev
        and the frontier, not by every unstarted vertex.
        """
        deg = self.deg
        base = 0
        while prev:
            bit = prev & -prev
            prev ^= bit
            v = bit.bit_length() - 1
            if start[v] + deg[v] > c:
                base |= bit
        forced = self.by_degree.get(t - c + 1, 0) & left & ~frontier
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            if lim[bit.bit_length() - 1] == c:
                forced |= bit
        base |= forced
        return base, self._product(left & ~forced, left)

    def _product(self, rest: int, left: int):
        """The sets of optional starters (rest) to try, in order.

        The twin classes (self.twins) partition the vertices for the whole
        sweep, and unstarted twins have the same lim, so each class lies
        wholly inside or outside rest.  Starters form a prefix of each
        class (lower-numbered vertices start first).  Sets come in
        itertools.product order over the classes, by lowest vertex, last
        class fastest: this yields the empty set, then finds the top class
        of rest, scanning down to its lowest unstarted member; for each
        set low that _product yields over the classes below, it yields
        low and then low plus each non-empty prefix of the class.  A class
        is thus found only when a carry first reaches it, so a node that
        succeeds early costs no full scan.  Nesting depth d takes at least
        2^(d-1) sets: about 24 levels at the default node budget.  The
        probe skips the sets that would leave |S_c| odd.
        """
        yield 0
        twins = self.twins
        members = 0
        while rest and not members:
            v = rest.bit_length() - 1
            rest ^= 1 << v
            if not twins[v] & left & (1 << v) - 1:
                members = twins[v] & left
        if members:
            for low in self._product(rest, left):
                if low:
                    yield low
                m = members
                while m:  # low plus each non-empty prefix, ascending
                    bit = m & -m
                    m ^= bit
                    low |= bit
                    yield low

    def _starts_fit(self, c: int, s: int, start: list[int], lim: list[int], left: int) -> bool:
        """Whether every vertex of S_c can still fit its edges in its palette.

        A vertex that starts at c gets the full earliest-deadline-first
        check: edge vw may take colors [max(a_v, a_w), min(e_v, e_w)],
        where an unstarted w has a_w > c and e_w <= lim[w] + deg(w) - 1.
        Any other vertex of S_c only needs room above c for its edges to
        unstarted neighbors.  Started vertices outside S_c have finished
        their palettes.
        """
        deg, adj, nbr = self.deg, self.adj, self.nbr
        while s:
            bit = s & -s
            s ^= bit
            v = bit.bit_length() - 1
            a = start[v]
            e = a + deg[v] - 1
            if a == c:
                windows = []
                for w in adj[v]:
                    if left >> w & 1:
                        d = lim[w] + deg[w] - 1
                        windows.append((d if d < e else e, c + 1))
                    else:
                        d = start[w] + deg[w] - 1
                        if d < e:
                            windows.append((d, c))
                if windows and not _fits(c, e, windows):
                    return False
            elif e > c and (nbr[v] & left).bit_count() > e - c:
                return False
        return True

    def _color_edges(self, t: int, start: list[int], budget: int, nodes: int) -> SearchOutcome:
        """Phase B: with every start fixed, match each S_c over uncolored edges."""
        deg, nbr, matched = self.deg, self.nbr, self.matched
        end = [a + d - 1 for a, d in zip(start, deg)]
        colors = [0] * (t + 1)
        for v in range(len(deg)):
            for c in range(start[v], end[v] + 1):
                colors[c] |= 1 << v
        for s in colors[1:]:
            if s and (ok := matched.get(s)) is None:
                ok = matched[s] = _may_match(nbr, s)
            if not s or not ok:
                return SearchOutcome(SearchStatus.EXHAUSTED_NO_SOLUTION, None, nodes)
        unused = nbr.copy()  # neighbors over uncolored edges

        def frame(c: int, rem: int) -> list:
            # [color, vertices left to match, v, partners left, w placed]
            v = (rem & -rem).bit_length() - 1
            return [c, rem, v, unused[v] & rem, -1]

        frames = [frame(1, colors[1])]
        while frames:
            f = frames[-1]
            c, rem, v, partners, w = f
            if w >= 0:
                unused[v] |= 1 << w
                unused[w] |= 1 << v
            if not partners:
                frames.pop()
                continue
            bit = partners & -partners
            f[3] = partners ^ bit
            if budget and nodes == budget:
                return SearchOutcome(SearchStatus.BUDGET_EXCEEDED, None, nodes)
            nodes += 1
            w = f[4] = bit.bit_length() - 1
            unused[v] ^= bit
            unused[w] ^= 1 << v
            rem ^= bit | 1 << v
            if rem:
                frames.append(frame(c, rem))
            elif self._edges_fit(c, colors[c], start, end, unused):
                if c == t:
                    labels = self.labels  # ascending, so each placed pair is canonical
                    placed = {(labels[fr[2]], labels[fr[4]]): fr[0] for fr in frames}
                    witness = _canonical_coloring(dict(sorted(placed.items())), t)
                    return SearchOutcome(SearchStatus.FOUND, witness, nodes)
                frames.append(frame(c + 1, colors[c + 1]))
        return SearchOutcome(SearchStatus.EXHAUSTED_NO_SOLUTION, None, nodes)

    def _edges_fit(self, c: int, s: int, start: list[int], end: list[int], unused: list[int]) -> bool:
        """After color c, can each vertex of S_c still place its uncolored edges?

        Only S_c changed.  Edge vw may take colors
        [max(a_v, a_w, c + 1), min(e_v, e_w)].
        """
        while s:
            bit = s & -s
            s ^= bit
            v = bit.bit_length() - 1
            e = end[v]
            windows = []
            m = unused[v]
            while m:
                low = m & -m
                m ^= low
                w = low.bit_length() - 1
                r = start[w] if start[w] > c else c + 1
                d = end[w]
                if r > c + 1 or d < e:
                    windows.append((d if d < e else e, r))
            if windows and not _fits(c + 1, e, windows):
                return False
        return True


class ProbeRecord(NamedTuple):
    t: int
    status: SearchStatus
    nodes_explored: int


class MaxSpanResult(NamedTuple):
    """Outcome of the downward sweep for the largest feasible span.

    max_span is 0 when no feasible span <= the cap was found.  complete
    is True only when every span above max_span (up to the cap) was
    exhausted, never abandoned on budget: a budget gap is reported, not
    converted into a claim.
    """

    max_span: int
    complete: bool
    witness: EdgeColoring | None
    probes: tuple[ProbeRecord, ...]


def compute_max_span(
    g: Graph,
    t_cap: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> MaxSpanResult:
    """Largest t <= t_cap for which g has an interval t-coloring.

    Spans are probed downward from the tightened cap to the maximum
    degree (smaller spans cannot be proper) on the palette-start engine.
    Each probe gets node_budget nodes; 0 means unlimited.
    """
    if t_cap < 1:
        raise ValueError(f"t_cap must be >= 1, got {t_cap}")
    if node_budget < 0:
        raise ValueError(f"node_budget must be >= 0, got {node_budget}")
    if g.edge_count == 0:
        # No edge can realize color 1, so no span is feasible.
        return MaxSpanResult(0, True, None, ())
    probes: list[ProbeRecord] = []
    budget_gap = False
    sweep = _PaletteSweep(g)
    for t in range(span_cap(g, t_cap), sweep.max_degree - 1, -1):
        outcome = sweep.probe(t, node_budget)
        probes.append(ProbeRecord(t, outcome.status, outcome.nodes_explored))
        if outcome.status is SearchStatus.FOUND:
            return MaxSpanResult(t, not budget_gap, outcome.coloring, tuple(probes))
        if outcome.status is SearchStatus.BUDGET_EXCEEDED:
            budget_gap = True
    return MaxSpanResult(0, not budget_gap, None, tuple(probes))
