"""Unit-vertex-capacity flow over graph views.

One network, ``UnitFlowNet(view, sources, sinks, blocked)``, serves every
path-system operation: internally disjoint path bundles between two
vertices, fans from a vertex onto a set, the constructor's prescribed
pairs, and the relaxations of the packing engine (``aqpath.packing``).
Every vertex of the view outside ``blocked`` is free; the caller lists the
terminals (and any vertex a path may not cross) in ``blocked``, never the
free ones, so no network lists its view.  Each free vertex is split into
an in-node and an out-node joined by a capacity-1 arc; terminals get
source/sink arcs instead of a through arc, so fan targets and pair ends
can never be crossed as interiors.
The split-node encoding stays in this module: callers pass vertices and
get vertex tuples back.

The network is read from the view, not copied out of it: the residual row
of a node is derived the first time a search scans it, so the cost
follows the region the augmentations explore, not the size of the view.
Only an out-node's row asks the view for its neighbors; an in-node's row
starts with its through or sink arc alone.  The network keeps only
residual capacities.  No arc has an antiparallel twin, so the flow on an
arc u->v is the residual capacity of its reverse entry v->u, which is
written when flow first crosses the arc: a row holds no entry that no
flow has used.  The node encoding tells arcs from reverse entries.

Each augmenting path comes from one best-first search steered toward one
sink that still takes flow, the net's *aim* (Hart, Nilsson & Raphael
1968): a node's key is the number of residual arcs from the source plus
three times the view's distance from its vertex to the aim, and equal
keys leave the queue last in, first out.  The aim is the first of the
sinks that still take flow (``UnitFlowNet._live[0]``), read when a
search starts.  It stays until it fills, or until a search aimed at it
ends at another sink, which moves it behind the others; choosing it
reads no distance.  A search still stops at the first sink it reaches,
and the weight only chooses *which* augmenting path is found, so flow
values stay exact under any aim, but a path need not be a shortest one.
Nor does a net that can fill its sinks flood the view: the difference
between a flow that fills them and the current one splits into
augmenting paths ending at every sink still short, the aim among them.
Only a net that cannot fill its sinks explores all it reaches, as its
last, failing search must anyway.  The distance is the cube's closed
form (``aqpath.cube``), so a search reaches a far sink after scanning
little more than the region between, not the whole view; on a view with
no distance (0 everywhere) the search is breadth-first.
It is read from the view's one table per sink (``cube.sink_distances``),
which every net and search over the view shares and which computes an
entry from the view's ``distance_to`` (a few integer operations at any
width) on its first read.
Rows list their arcs in the view's neighbor order and their reverse
entries in the order flow first crossed them, and the queue order is
fixed, so identical inputs always produce identical path systems.

Every path-system call walks before it flows (``route``): the bundles of
``disjoint_paths`` (``min_vertex_cut`` counts them, the constructor's
ladders take them), ``fan`` and the constructor's prescribed pairs.
``descend`` steps from a source toward its target by
``cube.closer_words``, one closer each step; it reads a step's first
closer word in closed form and starts the generator only where that word
is refused, so most steps cost a few integer operations, an adjacency
test and two lookups, and the generator, which yields its words one at a
time, computes only the words a step tries.  A fan's source, which sends
a unit to every target, leaves by the first of its free neighbours
(closer steps as ``closer_words`` yields them, then the others nearest
the target) from which a walk arrives, handing the walk the distance it
ordered them by, so a late walk is not lost because its first closer step
is taken, and it tries no neighbour a kept walk took; and a bundle's walk
that gets stuck short of the free sinks is retried toward each of them,
nearest first, reading distances only until a retry arrives.
Only the units no walk delivers are left to a net, seeded with the walks
(``UnitFlowNet.seed``) and augmented.
Seeding asks the view for nothing: what a walk writes into the row of an
out-node no search has scanned waits as a pending entry, and joins the
row when a search derives it.  A flow augmented from any flow
reaches the maximum, so walking changes which paths are found, never how
many; a view with no distance is not walked.  Only ``route``,
``UnitFlowNet.amended`` and the packing engine build a net.  ``route``
seeds its walks, and the packing engine's relaxations seed their direct
edges and wedges before they search; only the packing engine amends a
net, seeded or not.

``UnitFlowNet.critical`` reads, from the flow already found and with no
network rebuilt, the free vertices that every flow of its value must cross.
``UnitFlowNet.amended`` copies a net with more vertices blocked, keeping
the flow that still fits, so a caller that blocks more of a saturated net
re-augments only the units the new blocks displace.
"""

from __future__ import annotations

import itertools
from typing import Callable, Collection, Container, Iterable

from .cube import check_vertices, closer_words, sink_distances

_SRC = -1
_SNK = -2
# equal-distance steps a walk may take in all, each when no closer one is free
_SIDEWAYS = 2


class Insufficient(RuntimeError):
    """A view cannot supply the requested number of disjoint paths."""

    def __init__(self, achieved: int, required: int, what: str = "paths"):
        super().__init__(f"only {achieved} of {required} {what} achievable")
        self.achieved = achieved
        self.required = required


def _in(v: int) -> int:
    return 2 * v


def _out(v: int) -> int:
    return 2 * v + 1


def _nodes(path: tuple[int, ...]) -> list[int]:
    """The split nodes a unit path crosses, source to sink."""
    nodes = [_SRC, _out(path[0])]
    for v in path[1:-1]:
        nodes += (_in(v), _out(v))
    nodes += (_in(path[-1]), _SNK)
    return nodes


def descend(view, x: int, t: int, avoid: Container[int],
            stop: Container[int], dist: Callable[[int], int] | None = None
            ) -> tuple[int, ...] | None:
    """A path of the view from x toward t to the first vertex of ``stop``
    it reaches, the others outside ``avoid``; or None.
    Each step takes the first of ``cube.closer_words`` the view has and
    ``avoid`` leaves free, else (``_SIDEWAYS`` times in all) the first
    neighbour as far from t.  The first word is read in closed form, from
    the lowest run of the gray word y, and tested once: adjacency first,
    then ``stop`` (the walk ends there), then ``avoid``, so a word that
    leaves the view costs no lookup.  The generator starts only when that
    word is refused (or y = 0), past that word, so the tries keep their
    order and none is made twice.  ``dist`` is ``view.distance_to(t)`` if
    the caller has it.  A view whose ``distance_to`` is 0 away from t, an
    adjacency list, is not walked."""
    if dist is None:
        dist = view.distance_to(t)
    if not dist(x):
        return None
    adjacent = view.is_adjacent
    gt, path, sideways, v = t ^ (t >> 1), [x], _SIDEWAYS, x
    while True:
        y = v ^ (v >> 1) ^ gt
        low = y & -y
        # closer_words(y)'s first word: 2 * low - 1 if y's lowest run is odd;
        # at y = 0 it is v itself, which no view holds adjacent to v
        u = v ^ (2 * low - (y & ~(y + low)).bit_count() % 2)
        if adjacent(v, u):
            if u in stop:
                return (*path, u)
            if u not in avoid:
                path.append(u)
                v = u
                continue
        words = closer_words(y)
        next(words, None)  # u, refused just now
        for w in words:
            u = v ^ w
            if (u in stop or u not in avoid) and adjacent(v, u):
                break
        else:
            if not sideways:
                return None
            sideways -= 1
            d = dist(v)
            u = next((u for u in view.neighbors(v) if dist(u) == d
                      and (u in stop or u not in avoid) and u not in path), None)
            if u is None:
                return None
        path.append(u)
        if u in stop:
            return tuple(path)
        v = u


class UnitFlowNet:
    """Residual split-vertex network over a view, with unit-path decomposition.

    ``sources``/``sinks`` give per-terminal capacities.  Every vertex of
    the view outside ``blocked`` is free, a possible path interior, so
    ``blocked`` must hold every terminal.  A terminal carries no through
    arc, so no path may cross it; a vertex may be both a source and a sink
    (it then has both roles but still cannot be an interior).  Blocked
    vertices that are neither are left out.  The net keeps ``blocked`` as
    a frozenset (a frozenset passed in is kept as is), so a caller that
    later grows its own set does not change the net's answers.

    ``cap[u][v]`` is the residual capacity of u->v.  The row ``cap[u]`` is
    derived by ``_row`` when node u is first scanned and holds its arcs;
    a reverse entry joins it when flow first crosses its arc, and a
    missing entry carries no flow.  Flow pushed through a row not yet
    derived (by ``seed``, into out-nodes) is kept in ``_pending[u]`` as
    changes to the entries, which ``_row`` adds in when it derives the
    row, so every row reads as if it had been derived first.  ``_live``
    lists the sinks that still take flow, the aim first: a search reads
    it when it starts, so the aim only changes between searches.
    """

    def __init__(self, view, sources: dict[int, int], sinks: dict[int, int],
                 blocked) -> None:
        self.view = view
        self.sources = sources
        self.sinks = sinks
        self.blocked = frozenset(blocked)
        # the sink is never scanned: its row holds only reverse entries
        self.cap: dict[int, dict[int, int]] = {_SNK: {}}
        self._pending: dict[int, dict[int, int]] = {}
        self._live = [t for t, c in sinks.items() if c > 0]

    def _row(self, u: int) -> dict[int, int]:
        """Store and return node u's row of the entries flow can use: an
        out-node's arcs at full capacity, in the view's neighbor order, or
        an in-node's through arc (a free vertex) and sink arc (a sink), so
        only out-nodes query the view.  Every other entry is a reverse one,
        written when flow first crosses its arc: by an augmenting path
        after the row is derived, or by a seed before, and then added in
        from ``_pending`` in the order written (the node numbers ``_in``
        and ``_out`` give are written out here)."""
        v = u // 2  # the vertex of a split node
        if u == _SRC:
            row = {2 * s + 1: c for s, c in self.sources.items()}
        elif u % 2:  # out-node of a free vertex or a source
            blocked, sinks = self.blocked, self.sinks
            row = {2 * w: 1 for w in self.view.neighbors(v)
                   if w not in blocked or w in sinks}
        else:  # in-node of a free vertex or a sink
            row = {} if v in self.blocked else {u + 1: 1}
            if v in self.sinks:
                row[_SNK] = self.sinks[v]
        if u in self._pending:
            for w, c in self._pending.pop(u).items():
                row[w] = row.get(w, 0) + c
        self.cap[u] = row
        return row

    def _search(self, parent: dict[int, int]) -> dict[int, int]:
        """Best-first search of the residual network from the source,
        recording each node's predecessor in ``parent``; nodes already in
        ``parent`` are never entered, so seeding it blocks them.  A node v
        is queued once, when discovered, as (g, v) under g + 3h (g: residual
        arcs from the source along the search tree, h: the view's distance
        to the aim ``_live[0]``, from the table every net over the view
        shares, ``cube.sink_distances``);
        ``buckets[k]`` holds the nodes under key k, popped last in, first
        out.  Stops once the sink is found and returns ``parent``."""
        cap, h = self.cap, sink_distances(self.view, self._live[0])
        parent[_SRC] = _SRC
        buckets = [[(0, _SRC)]]
        top = 1  # len(buckets)
        f = 0  # no queued node has a smaller key
        while f < top:
            bucket = buckets[f]
            if not bucket:
                f += 1
                continue
            g, u = bucket.pop()
            row = cap[u] if u in cap else self._row(u)
            g += 1  # arcs from the source to u's successors
            for v, c in row.items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    if v == _SNK:
                        return parent
                    k = g + 3 * h[v >> 1]
                    while top <= k:
                        buckets.append([])
                        top += 1
                    buckets[k].append((g, v))
                    if k < f:
                        f = k
        return parent

    def seed(self, path: tuple[int, ...]) -> None:
        """Push one unit along ``path``, a residual path of vertices from a
        source to a sink; a sink the unit fills leaves ``_live``.  Only the
        source's row and the in-nodes' rows are derived, none of which asks
        the view: what the unit writes into an out-node's row waits in
        ``_pending`` until a search scans that node."""
        nodes = _nodes(path)
        for u in nodes[::2]:  # the source and the in-nodes
            if u not in self.cap:
                self._row(u)
        self._push(nodes, 1)
        if not self.cap[_in(path[-1])][_SNK]:
            self._live.remove(path[-1])

    def _push(self, nodes: list[int], units: int) -> None:
        """Move ``units`` of flow along consecutive nodes (-1 cancels); a
        row not yet derived takes the change in ``_pending``."""
        cap, pending = self.cap, self._pending
        for u, v in zip(nodes, nodes[1:]):
            row = cap[u] if u in cap else pending.setdefault(u, {})
            row[v] = row.get(v, 0) - units
            row = cap[v] if v in cap else pending.setdefault(v, {})
            row[u] = row.get(u, 0) + units

    def _augment_once(self) -> bool:
        """Push one unit along a residual path, if there is one.  Every such
        path crosses an entry between split nodes, and those hold at most
        1, so one unit is all a path can carry, and a path ends with the
        sink arc of a sink that still takes flow: with none left, there is
        no path to search for.  No search scans the sink, so the flow into
        a sink never falls here: the sink the path ends at leaves ``_live``
        once it is full, and an aim the path missed moves behind the
        others."""
        live = self._live
        if not live:
            return False
        parent = self._search({})
        if _SNK not in parent:
            return False
        cap = self.cap
        v = _SNK
        while v != _SRC:  # every other node on the path was scanned
            u = parent[v]
            cap[u][v] -= 1
            row = cap[v]
            row[u] = row.get(u, 0) + 1
            v = u
        t = parent[_SNK]
        if t >> 1 != live[0]:
            live.append(live.pop(0))
        if not cap[t][_SNK]:
            live.remove(t >> 1)
        return True

    def max_flow(self, limit: int | None = None) -> int:
        """Push units until no augmenting path is left or ``limit`` units
        flow; return how many were pushed."""
        total = 0
        while (limit is None or total < limit) and self._augment_once():
            total += 1
        return total

    def critical(self, known: Collection[int] = frozenset()) -> set[int]:
        """The free vertices that every flow of the current value crosses.

        A vertex on no unit path is not one of them: the flow already
        avoids it, or avoids it once a cycle through it is dropped.  A
        vertex w on a unit path P lies on no other (vertex capacity 1), so
        the flow without P avoids w, and a flow of the current value avoids
        w iff that smaller flow still has an augmenting path entering
        neither split node of w.  So P is cancelled, one search runs per
        interior vertex of P with that vertex blocked, and P is pushed
        back: the net is left as it was found.  While P is cancelled its
        sink takes flow again, so it is put first in ``_live``, where the
        searches read their aim, and taken off before P is pushed back.

        A vertex in ``known`` is taken as critical without a search when a
        unit path crosses it: the caller vouches that every flow of this
        value crosses it (as when it was critical to the same demands
        under fewer blocked vertices).  A path with no other interior
        vertex is not cancelled at all.
        """
        out: set[int] = set()
        for path in self.unit_paths():
            todo = []
            for w in path[1:-1]:
                if w in known:
                    out.add(w)
                else:
                    todo.append(w)
            if not todo:
                continue
            nodes = _nodes(path)
            self._push(nodes, -1)
            self._live.insert(0, path[-1])
            for w in todo:
                if _SNK not in self._search({_in(w): _in(w), _out(w): _out(w)}):
                    out.add(w)
            del self._live[0]
            self._push(nodes, 1)
        return out

    def amended(self, blocked) -> tuple[UnitFlowNet, int]:
        """A copy of the net with the free vertices ``blocked`` blocked too,
        and the number of units it is short.  Every unit that crossed a
        newly blocked vertex is cancelled, the rest of the flow is kept,
        and the copy is short of the units lost.  So when this net carried
        its full demand, pushing that many units more
        (``max_flow(limit=short)``) carries the copy's full demand iff its
        network admits one, and a caller re-augments only those units
        instead of all of them.

        The copy takes every row this net has derived, and first derives
        the rows whose entries a seed (``seed``) left in ``_pending``, so
        the out-node of every vertex a unit crosses has its row: it lists
        no more of the view than this net did, or its seeds named.  This
        net is left as it was.  A blocked vertex keeps no through arc, so
        no search crosses it, and the sinks of the cancelled units take
        flow again after those that already did, in the net's sink order.
        A unit that runs around a cycle is cancelled too, and loses no
        value."""
        gone = frozenset(blocked)
        net = UnitFlowNet(self.view, self.sources, self.sinks, self.blocked)
        cap = net.cap = {x: row.copy() for x, row in self.cap.items()}
        net._pending = dict(self._pending)
        for u in self._pending:
            net._row(u)
        hit = set()
        short = 0
        for w in gone:
            if cap.get(_in(w), {}).get(_out(w), 1):
                continue  # no unit crosses w, or one cancelled already did
            nodes = net._unit(w)
            net._push(nodes, -1)
            if nodes[-1] == _SNK:
                hit.add(nodes[-2] // 2)
                short += 1
        net.blocked |= gone
        for w in gone:
            if _in(w) in cap:  # its entries are all 0 now
                cap[_in(w)] = {}
                cap.pop(_out(w), None)
        net._live = self._live + [t for t in self.sinks if t in hit and t not in self._live]
        return net, short

    def _unit(self, w: int) -> list[int]:
        """The split nodes, in flow order, of the unit crossing the free
        vertex w: from the source to the sink, or from w's in-node around a
        cycle back to it, in a net with nothing left in ``_pending`` (see
        ``amended``); units cancelled before, which share no vertex with
        this one, do not change its walk.
        Forward, an out-node's one arc with no residual capacity carries
        the unit; backward, an in-node's one positive entry is the reverse
        entry of the arc the unit came in on (its through arc has none
        left)."""
        cap, blocked = self.cap, self.blocked
        nodes = [_in(w), _out(w)]
        x = w
        while True:
            v = next(k for k, f in cap[_out(x)].items() if f < 1)
            nodes.append(v)
            x = v // 2
            if x == w:
                return nodes
            if x in blocked:  # a sink
                nodes.append(_SNK)
                break
            nodes.append(_out(x))
        rev = []  # back from w: out-node, in-node, ..., the source's out-node
        x = w
        while True:
            u = next(k for k, f in cap[_in(x)].items() if f > 0)
            rev.append(u)
            x = u // 2
            if x in blocked:  # the source
                return [_SRC, *reversed(rev), *nodes]
            rev.append(_in(x))

    def unit_paths(self) -> list[tuple[int, ...]]:
        """Decompose the current flow into unit source-to-sink paths, each
        given as the tuple of vertices it visits, in sorted order.

        The flow on an arc u->v is the reverse entry ``cap[v][u]``, and an
        arc from one vertex to another carries at most one unit, so each
        path is read back from the sink: a sink's in-node holds one positive
        reverse entry per unit it takes, a free vertex's in-node exactly one
        while a unit crosses it, and the walk stops at the first blocked
        vertex, the path's source.
        """
        cap, blocked = self.cap, self.blocked
        paths = []
        for t in cap[_SNK]:  # the in-node of a sink
            for u, c in cap[t].items():
                if c > 0 and u % 2:  # a unit into t from out-node u
                    path = [t // 2, u // 2]
                    while path[-1] not in blocked:
                        u = next(w for w, f in cap[u - 1].items() if f > 0)
                        path.append(u // 2)
                    paths.append(tuple(reversed(path)))
        return sorted(paths)


def _leave(view, x: int, t: int, avoid: Container[int], stop: Container[int],
           nbrs: dict[int, None]) -> tuple[int, ...] | None:
    """A walk from x toward t to the first vertex of ``stop``: ``descend``
    from the first of x's free neighbours ``nbrs`` from which it arrives,
    leaving x by the last of them the walk crosses; or None.  The closer
    steps are tried in ``cube.closer_words`` order, each as it is found,
    then the others nearest t first, from three buckets (each lies within
    one of x's distance) filled only once the closer steps are spent.
    Each walk takes the distance the buckets read, so a target's distance
    is built once.  A view with no distance is not walked."""
    dist = view.distance_to(t)
    d = dist(x) - 1
    if d < 0:
        return None

    def arrive(u: int) -> tuple[int, ...] | None:
        """x and the walk from its free neighbour u, cut at the walk's
        last vertex in ``nbrs``, if the walk arrives."""
        if u in stop:
            return (x, u)
        q = None if u in avoid else descend(view, u, t, avoid, stop, dist)
        if q is not None:
            i = len(q) - 1
            while q[i] not in nbrs:
                i -= 1
            return (x, *q[i:])

    first = set()
    for w in closer_words(x ^ (x >> 1) ^ t ^ (t >> 1)):
        if (u := x ^ w) in nbrs:
            first.add(u)
            if p := arrive(u):
                return p
    buckets: tuple[list[int], ...] = ([], [], [])  # d - 1, d, d + 1
    for u in nbrs:
        if u not in first:
            buckets[dist(u) - d].append(u)
    return next(filter(None, map(arrive, itertools.chain(*buckets))), None)


def _nearest(view, x: int, t: int, sinks: Iterable[int], free: Container[int]):
    """The ``sinks`` in ``free``, nearest x first, ties in sink order, each
    found only once reached.  By the triangle inequality none lies nearer
    than lo, x's distance to t less the farthest sink's distance to t (read
    from the view's table for t), so one pass yields each at lo as it
    meets it and buckets the others, which follow by distance."""
    near = view.distance_to(x)
    far = max(map(sink_distances(view, t).__getitem__, sinks), default=0)
    lo = near(t) - far
    later: list[list[int]] = [[] for _ in range(2 * far)]  # lo + 1, lo + 2, ...
    for s in sinks:
        if s in free:
            if (d := near(s)) == lo:
                yield s
            else:
                later[d - lo - 1].append(s)
    for bucket in later:
        yield from bucket


def route(view, sources: dict[int, int], sinks: Collection[int], blocked,
          walks: Iterable[tuple[int, int]], want: int) -> list[tuple[int, ...]]:
    """The unit paths, in sorted order, of ``want`` units of the net
    ``UnitFlowNet(view, sources, dict.fromkeys(sinks, 1), blocked)``, or of
    a maximum flow when it has fewer.  Each (x, t) of ``walks`` first
    walks from the source x to t if t is a sink no walk has reached, else
    toward t to the first such sink, avoiding ``blocked`` and the walks
    before, until ``want`` of them arrive:
    - a source that sends one unit walks by ``descend``;
    - a source that sends more (a fan's) leaves by a chosen free neighbour
      (``_leave``), its neighbour row read once per call and trimmed of
      every kept walk;
    - a walk toward the free sinks that gets stuck (a bundle's) is retried
      toward each of them, nearest x first (``_nearest``).
    Short of ``want``, the net is seeded with the walks and augmented: a
    flow augmented from any flow until no augmenting path is left is a
    maximum one, so walking first loses no unit."""
    avoid, free, walked = set(blocked), set(sinks), []
    nbrs = {x: dict.fromkeys(view.neighbors(x)) for x, c in sources.items() if c > 1}
    for x, t in walks:
        if len(walked) == want:
            break
        stop = (t,) if t in free else free
        if x in nbrs:
            p = _leave(view, x, t, avoid, stop, nbrs[x])
        else:
            p = descend(view, x, t, avoid, stop)
        if p is None and stop is free:
            p = next(filter(None, (descend(view, x, s, avoid, free)
                                   for s in _nearest(view, x, t, sinks, free))), None)
        if p is not None:
            walked.append(p)
            avoid.update(p)
            free.remove(p[-1])
            for row in nbrs.values():
                for v in p:
                    row.pop(v, None)
    if len(walked) == want:
        return sorted(walked)
    net = UnitFlowNet(view, sources, dict.fromkeys(sinks, 1), blocked)
    for p in walked:
        net.seed(p)
    net.max_flow(limit=want - len(walked))
    return net.unit_paths()


def _bundle(view, u: int, v: int, k: int | None = None) -> list[tuple[int, ...]]:
    """``disjoint_paths``' first k paths (by default one per neighbour of
    u), or a maximum bundle if fewer."""
    check_vertices(view, (u, v))
    if u == v:
        raise ValueError("endpoints must differ")
    nu, nv = view.neighbors(u), view.neighbors(v)
    k = len(nu) if k is None else k
    su, sv = set(nu), set(nv)
    ps = [(u, v)] if v in su else []
    ps += [(u, w, v) for w in nu if w in sv][:k - len(ps)]
    only_u = [w for w in nu if w != v and w not in sv]
    routed = route(view, dict.fromkeys(only_u, 1),
                   [w for w in nv if w != u and w not in su], su | sv | {u, v},
                   [(w, v) for w in only_u], k - len(ps))
    return ps + [(u, *p, v) for p in routed]


def disjoint_paths(view, u: int, v: int, k: int) -> list[tuple[int, ...]]:
    """Exactly k internally disjoint u-v paths, or Insufficient with the max.

    First the direct edge, if any, then (u, w, v) for each common neighbour
    w in ``view.neighbors(u)`` order, then, sorted, paths from N(u) - N(v)
    to N(v) - N(u) that avoid N(u), N(v), u and v, each neighbour of u
    walked toward v, or toward each free neighbour of v where that walk
    gets stuck (``route``): so every path meets N(u) and N(v) only
    next to its ends.  Cut at the last vertex in N(u) and the first after
    it in N(v), any maximum family takes this shape, so the count is exact.
    """
    if type(k) is not int or k < 1:  # a bool is not a count
        raise ValueError(f"k must be a positive integer, not {k!r}")
    paths = _bundle(view, u, v, k)
    if len(paths) < k:
        raise Insufficient(len(paths), k)
    return paths


def min_vertex_cut(view, u: int, v: int) -> int:
    """Maximum internally disjoint u-v path count (= cut size when u !~ v;
    for adjacent pairs this is the usual delete-edge cut plus one)."""
    return len(_bundle(view, u, v))


def connectivity(view) -> int:
    """Exact vertex connectivity by flooding a dominating pair set."""
    verts = sorted(view.vertices())
    if len(verts) < 2:
        return 0
    best = min(len(view.neighbors(v)) for v in verts)
    u0 = verts[0]
    probes = [u0, *view.neighbors(u0)]
    for u in probes:
        closed = {u, *view.neighbors(u)}
        for v in verts:
            if v not in closed:
                best = min(best, min_vertex_cut(view, u, v))
    return best


def fan(view, x: int, targets: Iterable[int]) -> dict[int, tuple[int, ...]]:
    """Paths from x to every target, pairwise sharing only x, interiors
    avoiding the target set.  Keyed by target."""
    targets = list(targets)
    check_vertices(view, [x, *targets])
    S = sorted(set(targets))
    if not S:
        raise ValueError("empty target set")
    if x in S:
        raise ValueError("source may not be a target")
    walks = [(x, t) for t in sorted(S, key=view.distance_to(x))]  # nearest first
    got = route(view, {x: len(S)}, S, {x, *S}, walks, len(S))
    if len(got) < len(S):
        raise Insufficient(len(got), len(S), "fan paths")
    return {p[-1]: p for p in got}
