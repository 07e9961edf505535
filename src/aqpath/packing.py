"""Exact packing of interior-disjoint terminal-to-terminal segments.

A *segment* joins two of three prescribed terminals x, y, z; its interior
uses only free vertices (no terminal), interiors are pairwise disjoint
across the whole packing, and segments between the same pair may include
the direct edge at most once.  A call asks for a count of segments per
pair x-y, y-z and x-z: the triangle of pair demands that a split profile
of the exact D-path oracle induces.  So the live demands (positive counts)
are one pair, two pairs sharing a terminal, or a triangle.

Feasibility is decided exactly, in three stages, all around one blocked
set:

0. a counting presolve (``_presolve``), which commits the segments every
   packing holds.  The segments ending at a terminal t leave it by distinct
   neighbours: interiors are disjoint, and a direct edge serves one segment
   of its own pair.  So a neighbour is *usable* by t if it is a free vertex
   no committed segment takes, or a terminal s that t still owes a segment
   and whose direct edge is not committed.
   (R1) t owing more segments than it has usable neighbours refutes.
   (R2) t owing exactly as many is *full*: every usable neighbour starts
   one of its segments.  A usable terminal s then makes the direct edge t-s
   a segment of every packing.  A free vertex w usable by two full
   terminals t and s starts a segment at each, yet lies on one segment
   only, so that segment is (t, w, s), a *wedge*, and the pair must still
   owe one.  A third full terminal at w then has one usable neighbour too
   few, and (R1) refutes.  A committed segment is taken out of its pair's
   count and its interior or edge out of every terminal's usable
   neighbours, and the rules run again until nothing changes.  One pass
   commits all it finds: a commit leaves a full terminal full, or owing
   more than it can, which (R1) refutes on a later pass.  So if any
   packing exists, every packing holds every committed segment and packs
   what is still owed around them, and the call is feasible iff that rest
   is.
   The rest owes every committed direct edge again: its pair asks k + 1
   segments where k are owed besides the edge.  The two ask the same, as
   k segments avoiding the edge, with the edge, are k + 1 segments, and
   k + 1 segments, which hold the edge at most once, keep k without it.
   So the later stages block only the terminals and the wedges'
   interiors, and a packing they find, with the wedges added, meets the
   call's counts: no edge is appended;
1. when all three pairs are still owed, single-commodity flow relaxations
   (sources at first endpoints, sinks at second endpoints, unit
   capacities on free vertices), each a ``aqpath.flow.UnitFlowNet`` over
   the view, saturated by ``_saturate``.  It seeds each demand with its
   direct edge and its wedges through free common neighbours, which take
   no search, and augments only for the rest: a flow augmented from any
   feasible flow until no augmenting path is left is a maximum one, so
   the value is exact.  A value below the total demand
   refutes the packing.  When the integral flow decomposes into unit paths
   whose endpoints match the demands, that decomposition *is* a packing.
   Only a terminal that is both source and sink leaves slack, so each of
   the three orientations, one per terminal in that double role, is tried;
2. otherwise a branch-and-bound with one branched demand, the smallest.
   The other two, oriented out of the third terminal, form a single-source
   leaf the relaxation decides exactly (one source cannot loop back to
   itself), so every branch ends in an exact flow.  A pair or a wedge (two
   pairs sharing a terminal) branches its zero count, so its root leaf's
   one relaxation decides it and no segment is enumerated.  The branched
   segment sets are enumerated shortest-first (then lexicographically) in
   strictly increasing order, so no packing is visited twice, pruned by distance
   bounds and by the relaxation after every commitment.  Shortest lengths
   come from a search steered by the view's distance to the far endpoint
   (``_hops``), and a partial segment is dropped once that distance exceeds
   the edges it has left, so the search reads only the region around the
   segments it builds.  Both read the distance from the view's table for
   that endpoint (``cube.sink_distances``), which the flows share.  Branch
   segments route only through the leaf's spare vertices, those whose
   removal alone keeps the leaf feasible: the free vertices one saturated
   leaf flow does not need (``UnitFlowNet.critical``).  The order also caps
   every segment's length by counting.  At a node owing k segments, the one
   being chosen included, let S be the spare vertices.  Each of the k
   segments has at least as many interior vertices as the one being chosen,
   the interiors are pairwise disjoint, and all lie in S: the blocked set
   only grows below the node, and so does the set of critical vertices,
   since a flow saturating the leaf under a larger blocked set also
   saturates it under a smaller one.  So a segment with more than |S| // k
   interior vertices completes no packing and is never listed.
   A triangle's root leaf is always feasible (the root lemma), as the
   triangle gets here only after all three orientations saturate around
   the same blocked set, the terminals and the wedges' interiors.  Write
   (a, b, c) for the counts of x-y, y-z and x-z, and take the split that
   branches x-y: its leaf sends c units from z to x and b from z to y.
   One source with k_p units for the sink p and k_q for q saturates iff
   k_p <= r({p}), k_q <= r({q}) and k_p + k_q <= r({p, q}), r(S) the most
   interior-disjoint paths from the source to S (max-flow min-cut with
   sink capacities).  In the y-double orientation z is only a sink and
   takes b + c units, at most b of them from y: so r({x, y}) >= b + c and
   r({x}) >= c.  In the x-double one z again takes b + c, at most c from
   x: r({y}) >= b.  The other two splits follow alike from the two
   orientations in which the leaf's source has no double role.  Every net
   blocks that same set, carries at most one unit over a direct terminal
   edge and runs over an undirected view, so a unit's path, reversed if
   need be, serves the leaf.
   Many commitments cover the same interior vertices (u-a-b-v and u-b-a-v
   both take {a, b}, and so may two shorter segments), and within one
   search those vertices fix the free set.  So the leaf's two verdicts,
   its feasibility and its spare set, are cached for the search under the
   interiors it has branched.  A child is entered iff its leaf saturates: that one
   relaxation decides each node, and no flow asks for the segments still
   owed.
   A child node differs from its parent only by the committed segment's
   interior, so no relaxation below the root is built from scratch.  The
   child's leaf flow is the parent's copied with the units through that
   interior cancelled, and only those are pushed again
   (``UnitFlowNet.amended``).  A flow is maximum iff no augmenting path
   is left, whatever flow the augmentation started from, so each verdict
   is exact.  The child's spare set searches for no vertex already
   critical to the parent, as critical vertices stay critical when the
   blocked set grows (see the length cap).  Verdicts and spare sets depend
   on the network alone, not on the flow found, so neither the caches nor
   the repairs change a visit, tick or answer, only the number and size of
   flows.  A repaired flow does depend on the nodes above it, so the leaf
   that completes a packing, whose flow gives the leaf's segments, is
   saturated afresh over the final blocked set.

No stage lists the view: the free vertices are the view's vertices
outside a small blocked set (the terminals and the wedges' interiors, then
the branched interiors and the vertices a branch segment must avoid), as
``UnitFlowNet`` takes them.

The search is always budgeted, by ``DEFAULT_BUDGET`` ticks unless its
caller passes a ``Budget``; running out raises, never an approximation.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Collection, Iterable, Sequence

from .cube import check_triple, sink_distances
from .flow import UnitFlowNet


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


def pack_segments(view, trip: Sequence[int], counts: Iterable[int],
                  budget: Budget | None = None) -> list[list[Segment]] | None:
    """For trip = (x, y, z), ``counts[i]`` segments for the i-th of the
    pairs x-y, y-z and x-z, as three sorted lists whose segments run from
    the pair's first terminal to its second; or None, which is exact: no
    packing exists.  No interior holds a terminal, even one counted 0.
    Every call runs one sequence over the terminals and the interiors of
    the wedges the presolve commits: the orientation relaxations when all
    three pairs are still owed, then the branch-and-bound, whose root leaf
    flow alone decides a pair or a wedge.  The packing returned holds
    every committed segment.
    """
    if budget is None:
        budget = Budget(DEFAULT_BUDGET)
    trip = check_triple(view, trip, "terminal")
    counts = tuple(counts)  # read once: the counts may be a one-shot iterable
    if len(counts) != 3:
        raise ValueError(f"need three counts, not {len(counts)}")
    if any(type(c) is not int for c in counts):
        raise ValueError(f"counts must be integers, not {counts!r}")
    if min(counts) < 0:
        raise ValueError("negative demand")
    if not any(counts):
        return [[], [], []]

    budget.tick()
    found = _presolve(view, trip, counts)
    if found is None:
        return None
    rest, forced = found
    blocked = frozenset(trip).union(w for _, w, _ in forced)
    if min(rest) > 0:
        for oriented in _orientations(trip, rest):
            segs = _classify(view, oriented, blocked)
            if segs is None:
                return None
            if segs:
                return _regroup(trip, forced + segs)

    search = _PackSearch(view, trip, rest, budget, blocked)
    if not search.rec():
        return None
    return _regroup(trip, forced + search.chosen + search.leaf_found)


# the pair index (0 = x-y, 1 = y-z, 2 = x-z) of the terminals i and j of a
# triple; terminal i is in every pair but (i + 1) % 3
_PAIR = ((None, 0, 2), (0, None, 1), (2, 1, None))


def _presolve(view, trip: Sequence[int], counts: Sequence[int]):
    """The counting presolve (module docstring): the counts still owed per
    pair of ``trip``, each committed direct edge owed again, and the wedge
    segments every packing holds; or None, which is exact: no packing
    exists."""
    owed = list(counts)
    direct = [False, False, False]
    forced: list[Segment] = []
    blocked = set(trip)
    rows = [view.neighbors(t) for t in trip]
    # per terminal, the pairs whose other end is one of its neighbours
    ends = [[_PAIR[i][j] for j in range(3) if trip[j] in rows[i]] for i in range(3)]
    while True:
        before = len(forced) + sum(direct)
        claims: dict[int, list[int]] = {}  # free vertex -> full terminals
        for i in range(3):
            free = [w for w in rows[i] if w not in blocked]
            open_ends = [p for p in ends[i] if owed[p] and not direct[p]]
            demand = sum(owed) - owed[(i + 1) % 3]
            if demand > len(free) + len(open_ends):  # (R1)
                return None
            if demand == len(free) + len(open_ends):  # (R2): trip[i] is full
                for p in open_ends:
                    owed[p] -= 1
                    direct[p] = True
                for w in free:
                    claims.setdefault(w, []).append(i)
        for w, full in claims.items():
            if len(full) > 1:  # (R2): the wedge through w
                i, j = full[:2]
                p = _PAIR[i][j]
                if not owed[p]:
                    return None
                owed[p] -= 1
                forced.append((trip[i], w, trip[j]))
                blocked.add(w)
        if len(forced) + sum(direct) == before:
            return [k + d for k, d in zip(owed, direct)], forced


def _orientations(trip: Sequence[int], counts: Sequence[int]) -> list[list[Demand]]:
    """The triangle's three orientation variants, each leaving a different
    terminal with the source+sink double role (the only source of slack in
    the relaxation)."""
    (x, y, z), (a, b, c) = trip, counts
    return [
        [(x, y, a), (y, z, b), (x, z, c)],  # y double-role
        [(y, x, a), (x, z, c), (y, z, b)],  # x double-role
        [(x, y, a), (z, y, b), (x, z, c)],  # z double-role
    ]


def _regroup(trip, segs: Iterable[Segment]) -> list[list[Segment]]:
    """The segments as one sorted list per pair of ``trip``, each running
    from the pair's first terminal to its second, the one earlier in
    ``trip``."""
    found: list[list[Segment]] = [[], [], []]
    for s in segs:
        i, j = trip.index(s[0]), trip.index(s[-1])
        found[_PAIR[i][j]].append(s if i < j else s[::-1])
    return [sorted(f) for f in found]


def _saturate(view, demands: Sequence[Demand], blocked) -> UnitFlowNet | None:
    """The relaxation network with a maximum flow pushed through it, or
    None when that flow falls short of the total demand.  Each demand adds
    its count to the source capacity of its first and the sink capacity of
    its second endpoint; a zero count adds nothing.  The demands name
    distinct pairs.

    Each demand (u, v, c) is seeded before any search
    (``UnitFlowNet.seed``): the direct edge u-v if the view has it, then
    (u, w, v) through each common neighbour w in ``view.neighbors(u)``
    order that is free and no earlier seed took, c units at most.  That
    is a feasible flow, and one augmented until no augmenting path is
    left is a maximum one, so only the rest is pushed and the verdict
    stays exact."""
    sources: dict[int, int] = {}
    sinks: dict[int, int] = {}
    total = 0
    for u, v, c in demands:
        if c > 0:
            sources[u] = sources.get(u, 0) + c
            sinks[v] = sinks.get(v, 0) + c
            total += c
    net = UnitFlowNet(view, sources, sinks, blocked)
    taken = set(net.blocked)
    for u, v, c in demands:
        if c > 0:
            walks = [(u, v)] if view.is_adjacent(u, v) else []
            walks += [(u, w, v) for w in view.neighbors(u)
                      if w not in taken and view.is_adjacent(w, v)]
            for p in walks[:c]:
                net.seed(p)
                taken.update(p[1:-1])
                total -= 1
    return net if not total or net.max_flow(limit=total) == total else None


def _classify(view, demands: Sequence[Demand], blocked) -> list[Segment] | None:
    """The relaxation of one orientation over ``blocked``, saturated: None
    when its flow falls short of the total demand, which refutes; its unit
    paths as segments when no unit loops back to its own source terminal
    or pairs endpoints no demand names (possible only through double roles
    or between distinct pairs); otherwise [], which leaves the triangle
    open.  Unit paths that match are a packing: the flow fills every
    source and sink, a terminal with one demand as a source or as a sink
    fixes that demand's count, and every orientation here leaves at most
    one demand without such a terminal, which the total then fixes."""
    net = _saturate(view, demands, blocked)
    if net is None:
        return None
    named = {(u, v) for u, v, _ in demands}
    segs = net.unit_paths()
    return segs if all((s[0], s[-1]) in named for s in segs) else []


# -- exhaustive branch and bound ----------------------------------------


def _hops(view, u: int, v: int, blocked: Collection[int]) -> int | None:
    """The fewest edges on a u-v path with no interior vertex in
    ``blocked``, or None when there is none.

    Best-first from u under g + h, g the edges from u and h the view's
    distance to v (``cube.sink_distances``), with stale queue entries
    skipped.  Each view keeps a subset of the cube's edges, so h never
    overestimates and drops by at most one per edge: the first time v is
    popped its key is exact, and the search stays near the shortest paths.
    With no distance (0 everywhere) the search is breadth-first.
    """
    h = sink_distances(view, v)
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
            best[x] = g
            heappush(heap, (g + h[x], -g, x))
    return None


def _seg_key(seg: Segment) -> tuple[int, Segment]:
    return (len(seg), seg)


def _enum_segments(view, u: int, v: int, blocked: Collection[int],
                   floor: Segment | None, owed: int):
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
    to_v = sink_distances(view, v)
    for length in range(start, top):
        for seg in _extend(view, [u], set(), v, blocked, to_v, length):
            if floor_key is None or _seg_key(seg) > floor_key:
                yield seg


def _extend(view, path: list[int], used: set[int], v: int, blocked: Collection[int],
            to_v: dict[int, int], length: int):
    """Completions of ``path`` into segments ending at v with ``length``
    edges, in the view's neighbor order; ``used`` holds path's interior.  A
    vertex is entered only when its distance to v (``to_v``, the view's
    table, ``cube.sink_distances``) fits the edges left after it: a lower
    bound on the hops, so no completion is lost.  A module-level
    generator, so a search leaves no closure cycle behind."""
    room = length - len(path)  # edges still to place after this hop
    for w in view.neighbors(path[-1]):
        if w == v:
            if room == 0:
                yield (*path, v)
        elif room > 0 and w not in blocked and w not in used and to_v[w] <= room:
            path.append(w)
            used.add(w)
            yield from _extend(view, path, used, v, blocked, to_v, length)
            path.pop()
            used.discard(w)


def _split_for_search(trip, counts) -> tuple[Demand, list[Demand]]:
    """The demands as (the branched demand, the single-source leaf): the
    smallest demand (u, v) is branched and the other two are re-oriented
    out of the third terminal.  With a zero count that demand is branched,
    so what the presolve leaves of a pair or a wedge is its leaf alone."""
    x, y, z = trip
    a, b, c = counts
    return min([((x, y, a), [(z, x, c), (z, y, b)]),
                ((y, z, b), [(x, y, a), (x, z, c)]),
                ((x, z, c), [(y, x, a), (y, z, b)])],
               key=lambda split: (split[0][2], split[0][:2]))


class _PackSearch:
    """The state of one call's branch-and-bound, with its relaxation
    caches keyed by the interior vertices it has committed so far (see the
    module docstring).  A node's blocked set, the root's (``fixed``: the
    terminals and the presolve's wedge interiors) and those interiors, is
    derived from its commitments, never kept, and ``avoid``
    holds the set a node's branch segments avoid: the blocked set and the
    leaf's critical vertices, never None, as every node's leaf is feasible
    (``rec``).  The caches hold booleans and vertex sets, never networks;
    a node's leaf network lives only while its subtree is searched, and
    nothing here refers back to itself, so all of it is freed on return.
    """

    def __init__(self, view, trip: Sequence[int], counts: Sequence[int],
                 budget: Budget, fixed: frozenset[int]) -> None:
        self.view = view
        self.budget = budget
        self.branch, self.leaf = _split_for_search(trip, counts)
        self.chosen: list[Segment] = []
        self.leaf_found: list[Segment] | None = None
        self.fixed = fixed
        self.leaf_ok: dict[frozenset[int], bool] = {}
        self.avoid: dict[frozenset[int], frozenset[int]] = {}

    def committed(self) -> frozenset[int]:
        """The interior vertices of every segment branched so far."""
        return frozenset(w for seg in self.chosen for w in seg[1:-1])

    def rec(self, net=None, known=frozenset()) -> bool:
        """Complete the packing; ``net`` is the saturated leaf relaxation
        over the current blocked set, if at hand, and ``known`` the avoided
        set of the parent node, whose critical vertices stay critical here.
        The leaf has one source, which no unit can loop back into, so
        saturation decides it exactly and forces the split between its
        sinks.  Every node that branches has a feasible leaf: the root by
        the root lemma (module docstring), a child as it is entered only
        when its leaf saturates.  A zero count branches nothing, so the
        root's one leaf flow decides a pair or a wedge."""
        u, v, need = self.branch
        chosen = self.chosen
        key = self.committed()
        blocked = self.fixed | key
        if len(chosen) == need:
            # the witness comes from a fresh flow over the blocked set: a
            # repaired one depends on the nodes the search passed through
            net = _saturate(self.view, self.leaf, blocked)
            self.leaf_found = None if net is None else net.unit_paths()
            return self.leaf_found is not None
        # a branch segment may not cross ``blocked`` nor any free vertex
        # whose removal alone makes the leaf infeasible.  Leaf feasibility
        # is monotone in the free set, so a segment through such a vertex
        # never completes; jointly critical combinations are still caught
        # by the per-commitment leaf check.  One saturated leaf answers
        # for every vertex: a feasible leaf spares all but the vertices
        # every saturating flow crosses (``UnitFlowNet.critical``).
        if key not in self.avoid:
            if net is None:
                net = _saturate(self.view, self.leaf, blocked)
            self.avoid[key] = blocked | net.critical(known)
        avoid = self.avoid[key]
        floor = chosen[-1] if chosen else None
        owed = need - len(chosen)
        for seg in _enum_segments(self.view, u, v, avoid, floor, owed):
            self.budget.tick()
            interior = seg[1:-1]
            chosen.append(seg)
            key = self.committed()
            leaf_net = None
            ok = self.leaf_ok.get(key)
            if ok is None:
                if net is None:  # this node's verdicts were all cached
                    net = _saturate(self.view, self.leaf, blocked)
                leaf_net = self.repaired(net, interior)
                ok = self.leaf_ok[key] = leaf_net is not None
            if ok and self.rec(leaf_net, avoid):
                return True
            chosen.pop()
        return False

    def repaired(self, net: UnitFlowNet, interior: Segment) -> UnitFlowNet | None:
        """``net``, a saturated leaf relaxation, with ``interior`` blocked
        too, saturated again: only the units that crossed ``interior`` are
        pushed, and ``net`` is left as it was (``UnitFlowNet.amended``).
        None when they do not all fit, exactly when a fresh ``_saturate``
        would answer None."""
        child, short = net.amended(interior)
        if short and child.max_flow(limit=short) < short:
            return None
        return child
