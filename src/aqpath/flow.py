"""Unit-vertex-capacity flow over graph views.

One network, ``UnitFlowNet(view, sources, sinks, blocked)``, serves every
path-system operation: internally disjoint path bundles between two
vertices, fans from a vertex onto a set, linkages between two equal-size
sets, and the relaxations of the packing engine (``aqpath.packing``).
Every vertex of the view outside ``blocked`` is free; the caller lists the
terminals (and any vertex a path may not cross) in ``blocked``, never the
free ones, so no network lists its view.  Each free vertex is split into
an in-node and an out-node joined by a capacity-1 arc; terminals get
source/sink arcs instead of a through arc, so fan targets and linkage
endpoints can never be crossed as interiors.
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
keys leave the queue last in, first out.  The aim is the first sink in
the net's sink order that still takes flow.  It stays until it fills, or
until a search aimed at it ends at another sink, which moves it behind
the others; choosing it reads no distance.  A search still stops at the
first sink it reaches, and the weight only chooses *which* augmenting
path is found, so flow values stay exact under any aim, but a path need
not be a shortest one.  Nor does a net that can fill its sinks flood the
view: the difference between a flow that fills them and the current one
splits into augmenting paths ending at every sink still short, the aim
among them.  Only a net that cannot fill its sinks explores all it
reaches, as its last, failing search must anyway.  The distance is the
cube's closed form (``aqpath.cube``), so a search reaches a far sink
after scanning little more than the region between, not the whole view;
on a view with no distance (0 everywhere) the search is breadth-first.
It comes from the view's ``distance_to`` (a few integer operations at
any width), kept in one table per view and sink (``sink_distances``)
that every net and search over the view shares.
Rows list their arcs in the view's neighbor order and their reverse
entries in the order flow first crossed them, and the queue order is
fixed, so identical inputs always produce identical path systems.

``UnitFlowNet.critical`` reads, from the flow already found and with no
network rebuilt, the free vertices that every flow of its value must cross.
``UnitFlowNet.amended`` copies a net with more vertices blocked or more
demand, keeping the flow that still fits, so a caller that grows a
saturated net's constraints re-augments only the units they displace.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterable
from weakref import WeakKeyDictionary

_SRC = -1
_SNK = -2


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


# view -> sink -> ``sink_distances``: the distances depend on nothing else
# (views do not change), so every net and search over one view fills one
# table per sink, and it goes when the view does.  No reader refers to the
# view, which would keep the key alive.
_TO_SINK: WeakKeyDictionary = WeakKeyDictionary()


def sink_distances(view, t: int) -> tuple[dict[int, int], Callable[[int], int]]:
    """The view's shared table h of distances to the sink t and the reader
    ``dist`` that computes a missing entry: a caller that finds no h[x]
    stores ``h[x] = dist(x)``.  The key -1 (the source and sink nodes of a
    net) holds 0.  ``dist`` is the view's ``distance_to(t)`` (the cube's
    closed form for a cube view, 0 for an adjacency list)."""
    per_view = _TO_SINK.setdefault(view, {})
    got = per_view.get(t)
    if got is None:
        got = per_view[t] = ({-1: 0}, view.distance_to(t))
    return got


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
    missing entry carries no flow.  ``_live`` lists the sinks that still
    take flow, the aim ``aim`` first (None once all are full), and
    ``h[x]`` is the view's distance from vertex x to the aim, filled as
    searches discover x and shared by every net over the view
    (``sink_distances``); the source and the sink both map to the key -1
    (node >> 1) and to 0.  A search derives g from h, so the aim only
    changes between searches.
    """

    def __init__(self, view, sources: dict[int, int], sinks: dict[int, int],
                 blocked) -> None:
        self.view = view
        self.sources = sources
        self.sinks = sinks
        self.blocked = frozenset(blocked)
        # the sink is never scanned: its row holds only reverse entries
        self.cap: dict[int, dict[int, int]] = {_SNK: {}}
        self._live = [t for t, c in sinks.items() if c > 0]
        self._steer(self._live[0] if self._live else None)

    def _steer(self, t: int | None) -> None:
        """Aim later searches at the sink t (None: no search runs)."""
        self.aim = t
        if t is not None:
            self.h, self._dist = sink_distances(self.view, t)

    def _row(self, u: int) -> dict[int, int]:
        """Store and return node u's row of the entries flow can use: an
        out-node's arcs at full capacity, in the view's neighbor order, or
        an in-node's through arc (a free vertex) and sink arc (a sink), so
        only out-nodes query the view.  Every other entry is a reverse one,
        written when flow first crosses its arc; the row is derived before
        that, since a path only crosses nodes its search has scanned (the
        node numbers ``_in`` and ``_out`` give are written out here)."""
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
        self.cap[u] = row
        return row

    def _search(self, parent: dict[int, int]) -> dict[int, int]:
        """Best-first search of the residual network from the source,
        recording each node's predecessor in ``parent``; nodes already in
        ``parent`` are never entered, so seeding it blocks them.  A node is
        queued once, when discovered, under g + 3h (g: residual arcs from
        the source along the search tree, h: ``self.h``); ``buckets[k]``
        holds the nodes under key k, popped last in, first out.  Stops once
        the sink is found and returns ``parent``."""
        cap, h, dist = self.cap, self.h, self._dist
        parent[_SRC] = _SRC
        buckets = [[_SRC]]
        top = 1  # len(buckets)
        f = 0  # no queued node has a smaller key
        while f < top:
            bucket = buckets[f]
            if not bucket:
                f += 1
                continue
            u = bucket.pop()
            row = cap.get(u)
            if row is None:
                row = self._row(u)
            g = f - 3 * h[u >> 1] + 1  # arcs from the source to u's successors
            for v, c in row.items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    hv = h.get(v >> 1)
                    if hv is None:
                        hv = h[v >> 1] = dist(v >> 1)
                    k = g + 3 * hv
                    while top <= k:
                        buckets.append([])
                        top += 1
                    buckets[k].append(v)
                    if k < f:
                        f = k
            if _SNK in parent:
                break
        return parent

    def _push(self, nodes: list[int], units: int) -> None:
        """Move ``units`` of flow along consecutive nodes (-1 cancels)."""
        cap = self.cap
        for u, v in zip(nodes, nodes[1:]):
            cap[u][v] -= units
            cap[v][u] += units

    def _augment_once(self) -> bool:
        """Push one unit along a residual path, if there is one.  Every such
        path crosses an entry between split nodes, and those hold at most
        1, so one unit is all a path can carry, and a path ends with the
        sink arc of a sink that still takes flow: with none left, there is
        no path to search for.  No search scans the sink, so the flow into
        a sink never falls here: the sink the path ends at leaves ``_live``
        once it is full, and an aim the path missed moves behind the
        others."""
        aim = self.aim
        if aim is None:
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
        live = self._live
        if t >> 1 != aim:
            live.append(live.pop(0))
        if not cap[t][_SNK]:
            live.remove(t >> 1)
        nxt = live[0] if live else None
        if nxt != aim:
            self._steer(nxt)
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
        sink takes flow again, so the searches are aimed at it.

        A vertex in ``known`` is taken as critical without a search when a
        unit path crosses it: the caller vouches that every flow of this
        value crosses it (as when it was critical to the same demands
        under fewer blocked vertices).  A path with no other interior
        vertex is not cancelled at all.
        """
        out: set[int] = set()
        aim = self.aim
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
            self._steer(path[-1])
            for w in todo:
                if _SNK not in self._search({_in(w): _in(w), _out(w): _out(w)}):
                    out.add(w)
            self._push(nodes, 1)
        self._steer(aim)
        return out

    def amended(self, blocked=(), demand=None) -> tuple[UnitFlowNet, int]:
        """A copy of the net with the free vertices ``blocked`` blocked too
        and, for ``demand`` = (u, v, k), k more units of capacity at the
        terminal u as a source and at v, already a sink, as a sink; and
        the number of units it is short.  Every unit that crossed a newly
        blocked vertex is cancelled, the rest of the flow is kept, and the
        copy is short of the units lost and the k added.  So when this net
        carried its full demand, pushing that many units more
        (``max_flow(limit=short)``) carries the copy's full demand iff its
        network admits one, and a caller re-augments only those units
        instead of all of them.

        The copy takes every row this net has derived, so it lists no more
        of the view than this net did; this net is left as it was.  A
        blocked vertex keeps no through arc, so no search crosses it, and
        the sinks of the cancelled units (then v) take flow again after
        those that already did, in the net's sink order.  A unit that runs
        around a cycle is cancelled too, and loses no value."""
        gone = frozenset(blocked)
        sources, sinks = self.sources, self.sinks
        if demand is not None:
            u, v, k = demand
            if v not in sinks:  # rows derived so far have no arc into it
                raise ValueError(f"{v} is not a sink of the net")
            sources = {**sources, u: sources.get(u, 0) + k}
            sinks = {**sinks, v: sinks[v] + k}
        net = UnitFlowNet(self.view, sources, sinks, self.blocked | gone)
        cap = net.cap = {x: row.copy() for x, row in self.cap.items()}
        hit = set()
        short = 0
        for w in gone:
            if not cap.get(_out(w), {}).get(_in(w)):
                continue  # no unit crosses w, or one cancelled already did
            nodes = self._unit(w)
            net._push(nodes, -1)
            if nodes[-1] == _SNK:
                hit.add(nodes[-2] // 2)
                short += 1
        for w in gone:
            if _in(w) in cap:  # its entries are all 0 now
                cap[_in(w)] = {}
                cap.pop(_out(w), None)
        if demand is not None:
            short += k
            if _SRC in cap:
                cap[_SRC][_out(u)] = cap[_SRC].get(_out(u), 0) + k
            if _in(v) in cap:
                cap[_in(v)][_SNK] += k
            hit.add(v)
        live = net._live = self._live + [t for t in sinks
                                         if t in hit and t not in self._live]
        net._steer(live[0] if live else None)
        return net, short

    def _unit(self, w: int) -> list[int]:
        """The split nodes, in flow order, of the unit crossing the free
        vertex w: from the source to the sink, or from w's in-node around a
        cycle back to it.  Forward, an out-node's one arc with no residual
        capacity carries the unit; backward, an in-node's one positive
        entry is the reverse entry of the arc the unit came in on (its
        through arc has none left)."""
        cap, blocked = self.cap, self.blocked
        nodes = [_in(w), _out(w)]
        x = w
        while True:
            v = next(k for k, f in cap[_out(x)].items() if not f)
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


def _check_pair(view, u: int, v: int) -> None:
    if u == v:
        raise ValueError("endpoints must differ")
    for t in (u, v):
        if t not in view:
            raise ValueError(f"vertex {t} not in view")


def disjoint_paths(view, u: int, v: int, k: int) -> list[tuple[int, ...]]:
    """Exactly k internally disjoint u-v paths, or Insufficient with the max.

    The direct edge, when present, counts as one path.
    """
    _check_pair(view, u, v)
    if k < 1:
        raise ValueError("k must be positive")
    cap = max(len(view.neighbors(u)), len(view.neighbors(v)), k)
    net = UnitFlowNet(view, {u: cap}, {v: cap}, frozenset((u, v)))
    got = net.max_flow(limit=k)
    if got < k:
        got += net.max_flow()  # keep going to report the true maximum
        raise Insufficient(got, k)
    return net.unit_paths()


def min_vertex_cut(view, u: int, v: int) -> int:
    """Maximum internally disjoint u-v path count (= cut size when u !~ v;
    for adjacent pairs this is the usual delete-edge cut plus one)."""
    _check_pair(view, u, v)
    cap = max(len(view.neighbors(u)), len(view.neighbors(v)), 1)
    net = UnitFlowNet(view, {u: cap}, {v: cap}, frozenset((u, v)))
    return net.max_flow()


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
    S = sorted(set(targets))
    if not S:
        raise ValueError("empty target set")
    if x in S:
        raise ValueError("source may not be a target")
    for t in [x, *S]:
        if t not in view:
            raise ValueError(f"vertex {t} not in view")
    net = UnitFlowNet(view, {x: len(S)}, {t: 1 for t in S}, frozenset([x, *S]))
    got = net.max_flow(limit=len(S))
    if got < len(S):
        raise Insufficient(got, len(S), "fan paths")
    return {p[-1]: p for p in net.unit_paths()}


def linkage(view, side_a: Iterable[int], side_b: Iterable[int]) -> dict[int, tuple[int, ...]]:
    """Fully vertex-disjoint paths pairing A with B (pairing chosen by the
    flow, not the caller).  Keyed by the A endpoint."""
    A = sorted(set(side_a))
    B = sorted(set(side_b))
    if len(A) != len(B) or not A:
        raise ValueError("sides must be nonempty and equal-sized")
    if set(A) & set(B):
        raise ValueError("sides must be disjoint")
    for t in A + B:
        if t not in view:
            raise ValueError(f"vertex {t} not in view")
    net = UnitFlowNet(view, {a: 1 for a in A}, {b: 1 for b in B}, frozenset(A + B))
    got = net.max_flow(limit=len(A))
    if got < len(A):
        raise Insufficient(got, len(A), "linkage paths")
    return {p[0]: p for p in net.unit_paths()}
