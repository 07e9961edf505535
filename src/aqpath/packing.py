"""Exact packing of interior-disjoint terminal-to-terminal segments.

A *segment* joins two of three prescribed terminals x, y, z; its interior
uses only free vertices (no terminal), interiors are pairwise disjoint
across the whole packing, and segments between the same pair may include
the direct edge at most once.  A call asks for a count of segments per
pair x-y, y-z and x-z: the triangle of pair demands that a split profile
of the exact D-path oracle induces.  So the live demands (positive counts)
are one pair, two pairs sharing a terminal, or a triangle.

Feasibility is decided exactly, in two stages:

1. single-commodity flow relaxations (sources at first endpoints, sinks at
   second endpoints, unit capacities on free vertices), each a
   ``aqpath.flow.UnitFlowNet`` over the view, saturated by ``_saturate``.  A
   value below the total demand refutes the packing, which also caps a
   terminal's demands by its degree.  When the integral flow decomposes
   into unit paths whose endpoints match the demands, that decomposition
   *is* a packing.  Only a terminal that is both source and sink leaves
   slack, so one pair, or two pairs oriented into their shared terminal,
   are decided here; for a triangle all three orientations are tried;
2. otherwise a branch-and-bound with one branched demand, the triangle's
   smallest.  The other two, oriented out of the third terminal, form a
   single-source leaf the relaxation decides exactly (one source cannot
   loop back to itself), so every branch ends in an exact flow.  The
   branched segment sets are enumerated shortest-first (then
   lexicographically) in strictly increasing order, so no packing is
   visited twice, pruned by distance bounds and by the relaxation after
   every commitment.  Shortest lengths come from a search steered by the
   view's distance to the far endpoint (``_hops``), and a partial segment
   is dropped once that distance exceeds the edges it has left, so the
   search reads only the region around the segments it builds.  Branch
   segments route only through the leaf's spare vertices, those whose
   removal alone keeps the leaf feasible: the free vertices one saturated
   leaf flow does not need (``UnitFlowNet.critical``).
   The order also caps every segment's length by counting.  At a node
   owing k segments, the one being chosen included, let S be the spare
   vertices.  Each of the k segments has at least as many interior
   vertices as the one being chosen, the interiors are pairwise disjoint,
   and all lie in S: the blocked set only grows below the node, and so
   does the set of critical vertices, since a flow saturating the leaf
   under a larger blocked set also saturates it under a smaller one.  So a
   segment with more than |S| // k interior vertices completes no packing
   and is never listed.
   Many commitments cover the same interior vertices (u-a-b-v and u-b-a-v
   both take {a, b}, and so may two shorter segments), and within one
   search those vertices fix the free set.  So every relaxation verdict is
   cached for the search under the committed set: the leaf's feasibility
   and spare set under the set alone, the joint relaxation (the leaf with
   the segments still owed asked of the branched pair besides) under the
   set and the segments still owed.
   A child node differs from its parent only by the committed segment's
   interior, so no relaxation below the root is built from scratch.  The
   child's leaf flow is the parent's copied with the units through that
   interior cancelled, and only those are pushed again
   (``UnitFlowNet.amended``); the joint relaxation starts from the
   child's saturated leaf flow, which it admits, and pushes only the owed
   segments.  A flow is maximum iff no augmenting path is left, whatever
   flow the augmentation started from, so each verdict is exact.  The
   child's spare set searches for no vertex already critical to the
   parent, as critical vertices stay critical when the blocked set grows
   (see the length cap).  Verdicts and spare sets depend on the network
   alone, not on the flow found, so neither the caches nor the repairs
   change a visit, tick or answer, only the number and size of flows.  A
   repaired flow does depend on the nodes above it, so the leaf that
   completes a packing, whose flow gives the leaf's segments, is
   saturated afresh over the final blocked set.
   The search also follows the cube's lex-leader rule (``aqpath.cube``).
   An automorphism fixing every terminal (``cube.symmetries``) sends
   packings to packings.  Segment sets are committed in increasing order
   and every pruning step is sound, so the search returns the least set
   that completes, and no such map sends it to a lower one.  A segment is
   therefore skipped, after its tick, when a map sends the committed
   segments with it appended to a set that sorts lower: the same packing
   is returned, and a refutation stays a refutation with fewer ticks.

No stage lists the view: the free vertices are the view's vertices
outside a small blocked set (the terminals, then the committed interiors
and the vertices a branch segment must avoid), as ``UnitFlowNet`` takes
them.

The search is always budgeted, by ``DEFAULT_BUDGET`` ticks unless its
caller passes a ``Budget``; running out raises, never an approximation.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Sequence

from .cube import map_vertex, symmetries
from .flow import UnitFlowNet, sink_distances


class SearchBudgetExceeded(RuntimeError):
    """The packing search hit its node budget before reaching a verdict."""


# the ticks a search may take when its caller sets no budget
DEFAULT_BUDGET = 2_000_000


class Budget:
    def __init__(self, limit: int):
        if type(limit) is not int:  # a bool is not a budget
            raise ValueError(f"budget must be an integer, not {limit!r}")
        if limit < 0:
            raise ValueError("budget must be >= 0")
        self.limit = limit
        self.used = 0

    def tick(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise SearchBudgetExceeded(f"search budget {self.limit} exhausted")


Demand = tuple[int, int, int]  # (u, v, count)
Segment = tuple[int, ...]


def pack_segments(view, trip: Sequence[int], counts: Sequence[int],
                  budget: Budget | None = None) -> list[list[Segment]] | None:
    """For trip = (x, y, z), ``counts[i]`` segments for the i-th of the
    pairs x-y, y-z and x-z, as three sorted lists whose segments run from
    the pair's first terminal to its second; or None, which is exact: no
    packing exists.  No interior holds a terminal, even one counted 0.
    """
    if budget is None:
        budget = Budget(DEFAULT_BUDGET)
    x, y, z = trip
    if len({x, y, z}) != 3:
        raise ValueError("need three distinct terminals")
    if len(counts) != 3:
        raise ValueError(f"need three counts, not {len(counts)}")
    if any(type(c) is not int for c in counts):
        raise ValueError(f"counts must be integers, not {counts!r}")
    if min(counts) < 0:
        raise ValueError("negative demand")
    for t in trip:
        if t not in view:
            raise ValueError(f"terminal {t} not in view")
    pairs = zip(((x, y), (y, z), (x, z)), counts)
    live = [(u, v, c) for (u, v), c in pairs if c > 0]
    if not live:
        return [[], [], []]

    budget.tick()
    for oriented in _orientations(live):
        net = _saturate(view, oriented, set(trip))
        if net is None:
            return None
        segs = _classify(net, oriented)
        if segs is not None:
            return _regroup(trip, oriented, segs)

    search = _PackSearch(view, trip, counts, budget)
    if not search.rec():
        return None
    return _regroup(trip, [search.branch, *search.leaf],
                    [search.chosen, *search.leaf_found])


def _orientations(live: Sequence[Demand]) -> list[list[Demand]]:
    """Orientation variants.  For a triangle, each variant leaves a
    different terminal with the source+sink double role (the only source
    of slack in the relaxation)."""
    if len(live) == 3:
        (x, y, a), (_, z, b), (_, _, c) = live
        return [
            live,  # y double-role
            [(y, x, a), (x, z, c), (y, z, b)],  # x double-role
            [(x, y, a), (z, y, b), (x, z, c)],  # z double-role
        ]
    if len(live) == 2:
        # orient both demands into the shared terminal: one pure sink, two
        # pure sources, so this single variant is already exact
        (u1, v1, c1), (u2, v2, c2) = live
        s, = {u1, v1} & {u2, v2}
        o1 = (u1, v1, c1) if v1 == s else (v1, u1, c1)
        o2 = (u2, v2, c2) if v2 == s else (v2, u2, c2)
        return [[o1, o2]]
    return [list(live)]


def _regroup(trip, oriented, segs) -> list[list[Segment]]:
    """Per-oriented-pair segments as one sorted list per pair of ``trip``."""
    found = {frozenset((u, v)): s for (u, v, _), s in zip(oriented, segs)}
    x, y, z = trip
    return [sorted(s if s[0] == u else tuple(reversed(s))
                   for s in found.get(frozenset((u, v)), ()))
            for u, v in ((x, y), (y, z), (x, z))]


def _saturate(view, demands: Sequence[Demand], blocked: set[int]) -> UnitFlowNet | None:
    """The relaxation network with a maximum flow pushed through it, or
    None when that flow falls short of the total demand.  Each demand adds
    its count to the source capacity of its first and the sink capacity of
    its second endpoint; a zero count adds nothing."""
    sources: dict[int, int] = {}
    sinks: dict[int, int] = {}
    total = 0
    for u, v, c in demands:
        if c > 0:
            sources[u] = sources.get(u, 0) + c
            sinks[v] = sinks.get(v, 0) + c
            total += c
    net = UnitFlowNet(view, sources, sinks, blocked)
    return net if net.max_flow(limit=total) == total else None


def _classify(net, demands: Sequence[Demand]):
    """Turn a saturating flow into per-demand segments, or None if any unit
    loops back to its own source terminal or pairs endpoints no demand
    names (possible only through double roles or between distinct pairs)."""
    want = {(u, v): c for (u, v, c) in demands}
    got: dict[tuple[int, int], list[Segment]] = {p: [] for p in want}
    for seg in net.unit_paths():
        key = (seg[0], seg[-1])
        if key not in want:
            return None
        got[key].append(seg)
    if any(len(got[p]) != want[p] for p in want):
        return None
    return [got[(u, v)] for (u, v, _) in demands]


# -- exhaustive branch and bound ----------------------------------------


def _hops(view, u: int, v: int, blocked: set[int]) -> int | None:
    """The fewest edges on a u-v path with no interior vertex in
    ``blocked``, or None when there is none.

    Best-first from u under g + h, g the edges from u and h the view's
    distance to v (``flow.sink_distances``), with stale queue entries
    skipped.  Each view keeps a subset of the cube's edges, so h never
    overestimates and drops by at most one per edge: the first time v is
    popped its key is exact, and the search stays near the shortest paths.
    With no distance (0 everywhere) the search is breadth-first.
    """
    h, dist = sink_distances(view, v)
    best = {u: 0}
    heap = [(0, 0, u)]  # (g + h, -g, vertex): deepest first on a tie
    while heap:
        _, neg, w = heappop(heap)
        g = -neg
        if w == v:
            return g
        if g > best[w]:
            continue
        g += 1
        for x in view.neighbors(w):
            if x != v and x in blocked or best.get(x, g + 1) <= g:
                continue
            hx = h.get(x)
            if hx is None:
                hx = h[x] = dist(x)
            best[x] = g
            heappush(heap, (g + hx, -g, x))
    return None


def _seg_key(seg: Segment) -> tuple[int, Segment]:
    return (len(seg), seg)


def _enum_segments(view, u: int, v: int, blocked: set[int],
                   floor: Segment | None, owed: int = 1):
    """u->v segments with no interior vertex in ``blocked``, shortest first
    and within a length lexicographically, strictly above ``floor`` in that
    same order, and with at most |S| // ``owed`` interior vertices, S the
    view's vertices outside ``blocked``.

    The search asks for ``owed`` segments, this one included, and commits
    them in increasing order, so every later one has at least as many
    interior vertices as this one.  Their interiors are pairwise disjoint
    and, as the avoided set only grows down the search, all lie in S: a
    longer segment completes no packing."""
    floor_key = _seg_key(floor) if floor is not None else None
    # edges on the segment: one more than its interior vertices
    top = (view.vertex_count - len(blocked)) // owed + 2
    shortest = _hops(view, u, v, blocked)
    if shortest is None:
        return
    start = shortest
    if floor_key is not None:
        start = max(start, floor_key[0] - 1)
    to_v, dist = sink_distances(view, v)
    for length in range(start, top):
        for seg in _extend(view, [u], set(), v, blocked, to_v, dist, length):
            if floor_key is None or _seg_key(seg) > floor_key:
                yield seg


def _extend(view, path: list[int], used: set[int], v: int, blocked: set[int],
            to_v: dict[int, int], dist, length: int):
    """Completions of ``path`` into segments ending at v with ``length``
    edges, in the view's neighbor order; ``used`` holds path's interior.  A
    vertex is entered only when its distance to v (memoised in ``to_v``,
    computed by ``dist``; see ``flow.sink_distances``) fits the edges left
    after it: a lower bound on the hops, so no completion is lost.  A
    module-level generator, so a search leaves no closure cycle behind."""
    room = length - len(path)  # edges still to place after this hop
    for w in view.neighbors(path[-1]):
        if w == v:
            if room == 0:
                yield (*path, v)
        elif room > 0 and w not in blocked and w not in used:
            d = to_v.get(w)
            if d is None:
                d = to_v[w] = dist(w)
            if d <= room:
                path.append(w)
                used.add(w)
                yield from _extend(view, path, used, v, blocked, to_v, dist, length)
                path.pop()
                used.discard(w)


def _split_for_search(trip, counts) -> tuple[Demand, list[Demand]]:
    """A triangle as (the branched demand, the single-source leaf): the
    smallest demand (u, v) is branched and the other two are re-oriented
    out of the third terminal."""
    x, y, z = trip
    a, b, c = counts
    return min([((x, y, a), [(z, x, c), (z, y, b)]),
                ((y, z, b), [(x, y, a), (x, z, c)]),
                ((x, z, c), [(y, x, a), (y, z, b)])],
               key=lambda split: (split[0][2], split[0][:2]))


class _PackSearch:
    """The state of one triangle's branch-and-bound, with its relaxation
    caches keyed by the interior vertices committed so far (see the module
    docstring).  ``blocked`` holds the terminals and those interiors.  The
    caches hold booleans and vertex sets, never networks; a node's leaf
    network lives only while its subtree is searched, and nothing here
    refers back to itself, so all of it is freed on return.
    """

    def __init__(self, view, trip: Sequence[int], counts: Sequence[int],
                 budget: Budget) -> None:
        self.view = view
        self.budget = budget
        self.branch, self.leaf = _split_for_search(trip, counts)
        self.chosen: list[Segment] = []
        self.leaf_found: list[list[Segment]] | None = None
        self.blocked = set(trip)
        self.leaf_ok: dict[frozenset[int], bool] = {}
        self.joint_ok: dict[tuple[frozenset[int], int], bool] = {}
        self.avoid: dict[frozenset[int], set[int] | None] = {}
        # (g, t, the images found so far) of each map fixing every terminal
        self.maps = [(g, t, {}) for g, t, perm in symmetries(view, trip)
                     if perm == (0, 1, 2)]

    def committed(self) -> frozenset[int]:
        """The interior vertices of every segment chosen so far."""
        return frozenset(w for seg in self.chosen for w in seg[1:-1])

    def rec(self, net=None, known=frozenset()) -> bool:
        """Complete the packing; ``net`` is the saturated leaf relaxation
        over the current blocked set, if at hand, and ``known`` the avoided
        set of the parent node, whose critical vertices stay critical here.
        The leaf has one source, which no unit can loop back into, so
        saturation decides it exactly and forces the split between its
        sinks."""
        u, v, need = self.branch
        chosen = self.chosen
        if len(chosen) == need:
            # the witness comes from a fresh flow over the blocked set: a
            # repaired one depends on the nodes the search passed through
            net = _saturate(self.view, self.leaf, self.blocked)
            self.leaf_found = None if net is None else _classify(net, self.leaf)
            return self.leaf_found is not None
        # a branch segment may not cross ``blocked`` nor any free vertex
        # whose removal alone makes the leaf infeasible.  Leaf feasibility
        # is monotone in the free set, so a segment through such a vertex
        # never completes; jointly critical combinations are still caught
        # by the per-commitment leaf check.  One saturated leaf answers
        # for every vertex: a feasible leaf spares all but the vertices
        # every saturating flow crosses (``UnitFlowNet.critical``).
        key = self.committed()
        if key not in self.avoid:
            if net is None:
                net = _saturate(self.view, self.leaf, self.blocked)
            self.avoid[key] = (None if net is None
                               else self.blocked | net.critical(known))
        avoid = self.avoid[key]
        if avoid is None:
            # only at the root, as a child is entered with a feasible leaf;
            # no commitment frees a vertex, so none rescues the leaf
            return False
        floor = chosen[-1] if chosen else None
        owed = need - len(chosen)
        for seg in _enum_segments(self.view, u, v, avoid, floor, owed):
            self.budget.tick()
            if self.maps and self.dominated(seg):
                continue
            interior = seg[1:-1]
            chosen.append(seg)
            key = self.committed()
            # the leaf alone is an exact, junk-free necessary condition and
            # prunes far harder than the joint relaxation
            leaf_net = None
            ok = self.leaf_ok.get(key)
            if ok is None:
                if net is None:  # this node's verdicts were all cached
                    net = _saturate(self.view, self.leaf, self.blocked)
                leaf_net = self.repaired(net, interior)
                ok = self.leaf_ok[key] = leaf_net is not None
            self.blocked.update(interior)
            if ok and self.joint(key, leaf_net) and self.rec(leaf_net, avoid):
                return True
            chosen.pop()
            self.blocked.difference_update(interior)
        return False

    def dominated(self, seg: Segment) -> bool:
        """Whether a map fixing the terminals sends the branched segments,
        ``seg`` appended, to a set that sorts below them in ``_seg_key``
        order, so that no least packing starts with them.  The segments
        before ``seg`` were checked here first, so their images are known."""
        segs = self.chosen + [seg]
        keys = [_seg_key(s) for s in segs]
        for g, t, image in self.maps:
            for w in seg:
                if w not in image:
                    image[w] = map_vertex(g, w) ^ t
            moved = [_seg_key(tuple([image[w] for w in s])) for s in segs]
            if sorted(moved) < keys:
                return True
        return False

    def joint(self, key: frozenset[int], leaf_net: UnitFlowNet | None) -> bool:
        """Whether the joint relaxation of every segment still owed
        saturates, from ``leaf_net``, the saturated leaf over the current
        blocked set, if at hand.  With none owed it is the leaf relaxation,
        which the caller has already seen saturate (a zero count adds
        nothing)."""
        u, v, need = self.branch
        owed = need - len(self.chosen)
        if not owed:
            return True
        ok = self.joint_ok.get((key, owed))
        if ok is None:
            if leaf_net is None:
                left = [(u, v, owed), *self.leaf]
                ok = _saturate(self.view, left, self.blocked) is not None
            else:
                ok = self.repaired(leaf_net, owed=owed) is not None
            self.joint_ok[key, owed] = ok
        return ok

    def repaired(self, net: UnitFlowNet, interior: Segment = (),
                 owed: int = 0) -> UnitFlowNet | None:
        """``net``, a saturated leaf relaxation, with ``interior`` blocked
        too and, when ``owed``, that many branched segments asked besides
        (the joint relaxation), saturated again: only the units that
        crossed ``interior`` and the owed ones are pushed, and ``net`` is
        left as it was (``UnitFlowNet.amended``).  None when they do not
        all fit, exactly when a fresh ``_saturate`` would answer None."""
        u, v, _ = self.branch
        child, short = net.amended(interior, (u, v, owed) if owed else None)
        if short and child.max_flow(limit=short) < short:
            return None
        return child
