"""Exact packing of interior-disjoint terminal-to-terminal segments.

A *segment* joins two prescribed terminals; its interior uses only free
vertices (no terminal of any pair), interiors are pairwise disjoint across
the whole packing, and segments between the same pair may include the
direct edge at most once, so each unordered terminal pair appears in at
most one demand.  The demands join at most three terminals: those of a
split profile, the pair demands the exact D-path oracle decides.  So the
live demands are one pair, two pairs sharing a terminal, or a triangle.

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
   Many commitments cover the same interior vertices (u-a-b-v and u-b-a-v
   both take {a, b}, and so may two shorter segments), and within one
   search those vertices fix the free set.  So every relaxation verdict is
   cached for the search under the committed set: the leaf's feasibility
   and spare set under the set alone, the joint relaxation under the set
   and the segments still owed.  Flows are deterministic, so the caches
   change no visit, tick or answer, only the number of flows.
   On a whole cube (an ``AugmentedCube`` itself, not a sub-cube view) the
   search also skips symmetric work (lex-leader pruning).  An automorphism
   fixing every terminal (``cube.symmetries``) sends packings to packings.
   Segment sets are committed in increasing order and every pruning step
   is sound, so the search returns the least set that completes, and no
   such map sends it to a lower one.  A segment is therefore skipped,
   after its tick, when a map sends the committed segments with it
   appended to a set that sorts lower: the same packing is returned, and
   a refutation stays a refutation with fewer ticks.

No stage lists the view: the free vertices are the view's vertices
outside a small blocked set (the terminals, then the committed interiors
and the vertices a branch segment must avoid), as ``UnitFlowNet`` takes
them.

The search is budgeted; exhausting the budget raises, it never degrades
to an approximation.
"""

from __future__ import annotations

from functools import cmp_to_key
from heapq import heappop, heappush
from typing import Sequence

from .cube import AugmentedCube, automorphisms, map_vertex, symmetries
from .flow import UnitFlowNet, sink_distances


class SearchBudgetExceeded(RuntimeError):
    """The packing search hit its node budget before reaching a verdict."""


class Budget:
    def __init__(self, limit: int | None):
        if limit is not None and limit < 0:
            raise ValueError("budget must be >= 0")
        self.limit = limit
        self.used = 0

    def tick(self, cost: int = 1) -> None:
        self.used += cost
        if self.limit is not None and self.used > self.limit:
            raise SearchBudgetExceeded(f"search budget {self.limit} exhausted")


Demand = tuple[int, int, int]  # (u, v, count)
Segment = tuple[int, ...]


def pack_segments(view, demands: Sequence[Demand],
                  budget: Budget | None = None) -> list[list[Segment]] | None:
    """Segments satisfying every demand, grouped per demand, or None.

    The demands may join at most three terminals, each pair in at most
    one demand.  The answer is exact: None means no packing exists.
    """
    if budget is None:
        budget = Budget(None)
    demands = [(u, v, c) for (u, v, c) in demands]
    terminals: set[int] = set()
    pairs: set[frozenset[int]] = set()
    for u, v, c in demands:
        if u == v:
            raise ValueError("segment endpoints must differ")
        if c < 0:
            raise ValueError("negative demand")
        # segments are grouped per unordered pair, and a repeated pair
        # could use its direct edge once per demand
        if frozenset((u, v)) in pairs:
            raise ValueError(f"terminal pair {u}-{v} in more than one demand")
        pairs.add(frozenset((u, v)))
        terminals.add(u)
        terminals.add(v)
    if len(terminals) > 3:
        raise ValueError(f"demands join {len(terminals)} terminals, at most 3")
    for t in terminals:
        if t not in view:
            raise ValueError(f"terminal {t} not in view")
    live = [(u, v, c) for (u, v, c) in demands if c > 0]
    if not live:
        return [[] for _ in demands]

    budget.tick()
    for oriented in _orientations(live):
        net = _saturate(view, oriented, terminals)
        if net is None:
            return None
        segs = _classify(net, oriented)
        if segs is not None:
            return _regroup(demands, oriented, segs)

    found = _dfs_pack(view, live, terminals, budget)
    return None if found is None else _regroup(demands, *found)


def _triangle(live: Sequence[Demand]):
    """(sorted terminals, count per ordered pair) of three demands, which
    on three terminals join each two of them."""
    terms = sorted({t for (u, v, _) in live for t in (u, v)})
    count: dict[tuple[int, int], int] = {}
    for u, v, c in live:
        count[(u, v)] = count[(v, u)] = c
    return terms, count


def _orientations(live: Sequence[Demand]) -> list[list[Demand]]:
    """Orientation variants.  For a triangle, each variant leaves a
    different terminal with the source+sink double role (the only source
    of slack in the relaxation)."""
    if len(live) == 3:
        (x, y, z), c = _triangle(live)
        return [
            [(x, y, c[x, y]), (y, z, c[y, z]), (x, z, c[x, z])],  # y double-role
            [(y, x, c[x, y]), (x, z, c[x, z]), (y, z, c[y, z])],  # x double-role
            [(x, y, c[x, y]), (z, y, c[y, z]), (x, z, c[x, z])],  # z double-role
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


def _regroup(demands, oriented, live_segs):
    """Map per-oriented-pair segments back onto the caller's demand list."""
    found: dict[frozenset[int], list[Segment]] = {}
    for (u, v, _), segs in zip(oriented, live_segs):
        found[frozenset((u, v))] = segs
    out: list[list[Segment]] = []
    for u, v, c in demands:
        if c == 0:
            out.append([])
            continue
        segs = found[frozenset((u, v))]
        fixed = [s if s[0] == u else tuple(reversed(s)) for s in segs]
        out.append(sorted(fixed))
    return out


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
                   floor: Segment | None):
    """u->v segments with no interior vertex in ``blocked``, shortest first
    and within a length lexicographically, strictly above ``floor`` in that
    same order."""
    floor_key = _seg_key(floor) if floor is not None else None
    # vertices on the segment
    top = view.vertex_count - len(blocked) + 2
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


def _split_for_search(live: Sequence[Demand]) -> tuple[Demand, list[Demand]]:
    """A triangle as (the branched demand, the single-source leaf): the
    smallest demand (u, v) is branched and the other two are re-oriented
    out of the third terminal."""
    terms, c = _triangle(live)
    c_uv, (u, v) = min((cnt, pair) for pair, cnt in c.items() if pair[0] < pair[1])
    w = next(t for t in terms if t not in (u, v))
    return (u, v, c_uv), [(w, u, c[w, u]), (w, v, c[w, v])]


def _leaf_solve(view, leaf: Sequence[Demand], blocked: set[int]):
    """Exact decision for single-source demands: the relaxation cannot loop
    a unit back into its source, and saturation forces the sink split."""
    net = _saturate(view, leaf, blocked)
    return None if net is None else _classify(net, leaf)


def _branch_blocked(view, leaf: Sequence[Demand],
                    blocked: set[int]) -> set[int] | None:
    """What a branch segment may not cross: ``blocked`` and every free
    vertex whose removal alone makes the leaf infeasible, so the free
    vertices outside it are the leaf's spare vertices.  None when the leaf
    is infeasible already, which spares no vertex.

    Leaf feasibility is monotone in the free set, so a branch segment may
    never route through a vertex that is not spare; jointly critical
    combinations are still caught by the per-commitment leaf check.  One
    saturated relaxation answers for every vertex: a feasible leaf spares
    all but the vertices every saturating flow crosses
    (``UnitFlowNet.critical``).
    """
    net = _saturate(view, leaf, blocked)
    return None if net is None else blocked | net.critical()


def _image_order(a: Segment, b: Segment, image: dict[int, int],
                 b_moved: bool) -> int:
    """-1, 0 or 1 as the image of ``a`` sorts below, equal to or above that
    of ``b`` (``b`` itself unless ``b_moved``) in ``_seg_key`` order, for
    segments between the same two terminals, which the map fixes, and
    ``image`` holding every interior vertex's image."""
    if len(a) != len(b):
        return -1 if len(a) < len(b) else 1
    for i in range(1, len(a) - 1):
        x = image[a[i]]
        y = image[b[i]] if b_moved else b[i]
        if x != y:
            return -1 if x < y else 1
    return 0


def _terminal_fixers(view, terminals) -> list[tuple[tuple[int, ...], int]]:
    """The automorphisms v -> map_vertex(g, v) ^ t of a whole cube that fix
    every terminal, other than the identity, as (g, t); none elsewhere."""
    if type(view) is not AugmentedCube:
        return []
    D = sorted(terminals)
    identity = automorphisms(view.n)[0]
    return [(g, t) for g, t, perm in symmetries(view.n, D)
            if perm == tuple(range(len(D))) and (g, t) != (identity, 0)]


def _dfs_pack(view, demands: Sequence[Demand], blocked: set[int], budget: Budget):
    """Complete search of a triangle: (oriented demands, their segments),
    or None.  Segments of the branched pair are committed in strictly
    increasing (length, sequence) order, so no packing is seen twice."""
    search = _PackSearch(view, demands, blocked, budget)
    if not search.rec():
        return None
    return [search.branch, *search.leaf], [search.chosen, *search.leaf_found]


class _PackSearch:
    """The state of one ``_dfs_pack`` call, with its relaxation caches keyed
    by the interior vertices committed so far (see the module docstring).
    ``blocked`` holds the terminals and those interiors.  The caches hold
    booleans and vertex sets, never networks, and nothing here refers back
    to itself, so all of it is freed on return.
    """

    def __init__(self, view, demands: Sequence[Demand], blocked: set[int],
                 budget: Budget) -> None:
        self.view = view
        self.budget = budget
        self.branch, self.leaf = _split_for_search(demands)
        self.chosen: list[Segment] = []
        self.leaf_found: list[list[Segment]] | None = None
        self.blocked = set(blocked)
        self.leaf_ok: dict[frozenset[int], bool] = {}
        self.joint_ok: dict[tuple[frozenset[int], int], bool] = {}
        self.avoid: dict[frozenset[int], set[int] | None] = {}
        # (g, t, the images found so far) of each map fixing every terminal
        self.maps = [(g, t, {}) for g, t in _terminal_fixers(view, blocked)]

    def committed(self) -> frozenset[int]:
        """The interior vertices of every segment chosen so far."""
        return frozenset(w for seg in self.chosen for w in seg[1:-1])

    def branch_blocked(self, key: frozenset[int], net) -> set[int] | None:
        """``_branch_blocked`` for the current blocked set, read from the
        saturated leaf ``net`` over it when the caller has one."""
        if key not in self.avoid:
            self.avoid[key] = (
                _branch_blocked(self.view, self.leaf, self.blocked)
                if net is None else self.blocked | net.critical())
        return self.avoid[key]

    def rec(self, net=None) -> bool:
        """Complete the packing; ``net`` is the saturated leaf relaxation
        over the current blocked set, if at hand."""
        u, v, need = self.branch
        chosen = self.chosen
        if len(chosen) == need:
            self.leaf_found = (_leaf_solve(self.view, self.leaf, self.blocked)
                               if net is None else _classify(net, self.leaf))
            return self.leaf_found is not None
        floor = chosen[-1] if chosen else None
        avoid = self.branch_blocked(self.committed(), net)
        if avoid is None:
            # only at the root, as a child is entered with a feasible leaf;
            # no commitment frees a vertex, so none rescues the leaf
            return False
        for seg in _enum_segments(self.view, u, v, avoid, floor):
            self.budget.tick()
            if self.maps and self.dominated(seg):
                continue
            interior = seg[1:-1]
            self.blocked.update(interior)
            chosen.append(seg)
            key = self.committed()
            # the leaf alone is an exact, junk-free necessary condition and
            # prunes far harder than the joint relaxation; it has one
            # source, so saturation decides it (``_leaf_solve``)
            leaf_net = None
            ok = self.leaf_ok.get(key)
            if ok is None:
                leaf_net = _saturate(self.view, self.leaf, self.blocked)
                ok = self.leaf_ok[key] = leaf_net is not None
            if ok and self.joint(key) and self.rec(leaf_net):
                return True
            chosen.pop()
            self.blocked.difference_update(interior)
        return False

    def dominated(self, seg: Segment) -> bool:
        """Whether a map fixing the terminals sends the branched segments,
        ``seg`` appended, to a set that sorts below them in ``_seg_key``
        order, so that no least packing starts with them."""
        segs = self.chosen + [seg]
        for g, t, image in self.maps:
            for s in segs:
                for i in range(1, len(s) - 1):
                    if s[i] not in image:
                        image[s[i]] = map_vertex(g, s[i]) ^ t
            moved = sorted(segs, key=cmp_to_key(
                lambda a, b: _image_order(a, b, image, True)))
            for a, s in zip(moved, segs):
                order = _image_order(a, s, image, False)
                if order:
                    if order < 0:
                        return True
                    break
        return False

    def joint(self, key: frozenset[int]) -> bool:
        """Whether the joint relaxation of every segment still owed
        saturates.  With none owed it is the leaf relaxation, which the
        caller has already seen saturate (a zero count adds nothing)."""
        u, v, need = self.branch
        owed = need - len(self.chosen)
        if not owed:
            return True
        ok = self.joint_ok.get((key, owed))
        if ok is None:
            left = [(u, v, owed), *self.leaf]
            ok = _saturate(self.view, left, self.blocked) is not None
            self.joint_ok[key, owed] = ok
        return ok
