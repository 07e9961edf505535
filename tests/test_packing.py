import gc
import random
from collections import deque

import pytest

from aqpath.cube import AdjListView, AugmentedCube, PrefixView, RestrictedView
from aqpath.flow import UnitFlowNet
from aqpath import packing
from aqpath.packing import (Budget, SearchBudgetExceeded, _enum_segments, _hops,
                            _saturate, _split_for_search, pack_segments)
from aqpath.textio import parse_graph, render_graph


@pytest.mark.parametrize("trip, counts, message", [
    ((0, 1, 0), (1, 1, 1), "three distinct terminals"),
    ((0, 1, 2), (1, -1, 1), "negative demand"),
    ((0, 1, 8), (1, 1, 1), "terminal 8 not in view"),
    ((0, 1, 2), (1, 1), "need three counts, not 2"),
    ((0, 1, 2), (1, 1, 1, 0), "need three counts, not 4"),
    ((0, 1, 2), (1.5, 1, 1), "counts must be integers"),
    ((0, 1, 2), (1, True, 1), "counts must be integers"),
], ids=["repeated", "negative", "outside", "two-counts", "four-counts",
        "fractional", "bool"])
def test_a_triangle_outside_the_contract_is_rejected(trip, counts, message):
    with pytest.raises(ValueError, match=message):
        pack_segments(AugmentedCube(3), trip, counts)


def test_a_budget_is_never_negative():
    with pytest.raises(ValueError, match="budget must be >= 0"):
        Budget(-5)
    Budget(0)
    # no budget is unbounded, and none is a bool or a fraction
    for limit in (None, True, False, 2.0, "5"):
        with pytest.raises(ValueError, match="budget must be an integer"):
            Budget(limit)


def test_one_demand_uses_the_direct_edge_once():
    segs, none_yz, none_xz = pack_segments(AugmentedCube(3), (0, 1, 2), (2, 0, 0))
    assert len(segs) == 2 and segs.count((0, 1)) == 1
    assert none_yz == none_xz == []
    # the third terminal is blocked even with no segment of its own
    assert not any(2 in seg for seg in segs)


def spare_by_rebuild(view, leaf, blocked):
    # the reference: one relaxation per free vertex, left out in turn
    return {w for w in view.vertices() if w not in blocked
            and _saturate(view, leaf, blocked | {w}) is not None}


def spare_vertices(view, leaf, blocked):
    """The free vertices the search leaves to branch segments: those one
    saturated leaf flow does not need."""
    net = _saturate(view, leaf, blocked)
    if net is None:
        return set()
    return set(view.vertices()) - blocked - net.critical()


def random_graph(seed):
    rng = random.Random(seed)
    edges = [(i, j) for i in range(12) for j in range(i + 1, 12)
             if rng.random() < 0.35]
    return parse_graph(render_graph(AdjListView(edges, bits=4)))


SPARE_VIEWS = {
    "AQ3": lambda: AugmentedCube(3),
    "AQ4": lambda: AugmentedCube(4),
    "AQ5": lambda: AugmentedCube(5),
    "AQ6": lambda: AugmentedCube(6),
    "AQ6-half": lambda: PrefixView(AugmentedCube(6), [1], 1),
    "AQ5-restricted": lambda: RestrictedView(
        AugmentedCube(5), forbidden_vertices=[3, 17, 22],
        forbidden_edges=[(0, 1), (8, 9), (4, 12)]),
    "parsed-1": lambda: random_graph(1),
    "parsed-2": lambda: random_graph(2),
    "parsed-3": lambda: random_graph(3),
}


@pytest.mark.parametrize("name", sorted(SPARE_VIEWS))
def test_spare_vertices_match_the_per_vertex_rebuild(name):
    view = SPARE_VIEWS[name]()
    rng = random.Random(name)
    verts = sorted(view.vertices())
    for _ in range(10):
        s, *sinks = rng.sample(verts, rng.choice((2, 3)))
        # totals near the source degree: some leaves infeasible, and
        # feasible ones with and without critical vertices
        total = max(len(sinks), len(view.neighbors(s)) + rng.randint(-2, 1))
        cut = rng.randint(1, total - 1) if len(sinks) == 2 else total
        leaf = [(s, t, c) for t, c in zip(sinks, (cut, total - cut))]
        blocked = {s, *sinks}
        assert spare_vertices(view, leaf, blocked) == spare_by_rebuild(view, leaf, blocked)


def test_an_infeasible_leaf_spares_nothing():
    ring = AdjListView([(i, (i + 1) % 6) for i in range(6)], bits=3)
    leaf, blocked = [(0, 3, 3)], {0, 3}
    assert spare_vertices(ring, leaf, blocked) == set()
    assert spare_by_rebuild(ring, leaf, blocked) == set()
    # 2 reaches 3 through 6 alone, as 5 leads only to the blocked 1
    view = AdjListView([(0, 1), (0, 4), (4, 3), (2, 5), (5, 1), (2, 6), (6, 3)],
                       bits=3)
    assert spare_vertices(view, [(2, 3, 2)], {0, 1, 2, 3}) == set()


def test_an_infeasible_leaf_still_tries_the_direct_edge():
    # the triangle branches on 0-1 (twice) beside the leaf 2 to 0 and 2 to
    # 1 (twice each), which needs 3, 4 and 6; every 0-1 path with an
    # interior crosses one of them and leaves the leaf infeasible, so the
    # direct edge 0-1 is the one segment enumerated and ticks once
    view = AdjListView([(0, 1), (0, 2), (0, 3), (0, 7), (1, 2), (1, 3),
                        (1, 5), (2, 4), (2, 6), (3, 6), (4, 5), (4, 7)], bits=3)
    trip, counts = (0, 1, 2), (2, 2, 2)
    leaf = [(2, 0, 2), (2, 1, 2)]
    assert _split_for_search(trip, counts) == ((0, 1, 2), leaf)
    assert spare_vertices(view, leaf, {0, 1, 2}) == {5, 7}
    assert spare_by_rebuild(view, leaf, {0, 1, 2}) == {5, 7}
    budget = Budget(packing.DEFAULT_BUDGET)
    assert pack_segments(view, trip, counts, budget) is None
    assert budget.used == 2

def test_spare_vertices_with_a_direct_terminal_edge():
    cube = AugmentedCube(4)
    leaf = [(0, 1, 3), (0, 6, 2)]
    blocked = {0, 1, 6}
    assert (0, 1) in _saturate(cube, leaf, blocked).unit_paths()
    assert spare_vertices(cube, leaf, blocked) == spare_by_rebuild(cube, leaf, blocked)


def test_spare_vertices_run_one_max_flow(monkeypatch):
    calls = []
    max_flow = UnitFlowNet.max_flow

    def counted(net, limit=None):
        calls.append(limit)
        return max_flow(net, limit)

    monkeypatch.setattr(UnitFlowNet, "max_flow", counted)
    cube = AugmentedCube(5)
    # the source's whole degree is demanded, so exactly its neighbours
    # are critical
    leaf = [(0, 21, 5), (0, 26, 4)]
    blocked = {0, 21, 26}
    spare = spare_vertices(cube, leaf, blocked)
    free = set(cube.vertices()) - blocked
    assert calls == [9]
    assert free - spare == set(cube.neighbors(0))


def dist_through(view, target, free):
    """The reference for ``_hops``: hop counts to ``target`` where every
    intermediate vertex is free, by breadth-first search over the view."""
    dist = {target: 0}
    queue = deque([target])
    while queue:
        w = queue.popleft()
        for nxt in view.neighbors(w):
            if nxt not in dist:
                dist[nxt] = dist[w] + 1
                if nxt in free:
                    queue.append(nxt)
    return dist


HOPS_VIEWS = {
    "AQ4": lambda: AugmentedCube(4),
    "AQ5": lambda: AugmentedCube(5),
    "AQ6": lambda: AugmentedCube(6),
    "AQ7": lambda: AugmentedCube(7),
    "AQ7-half": lambda: AugmentedCube(7).half_view(1),
    "AQ6-diamond": lambda: AugmentedCube(6).diamond_view(0b00, 0b11),
    "AQ5-restricted": SPARE_VIEWS["AQ5-restricted"],
    "parsed-1": lambda: random_graph(1),
    "parsed-2": lambda: random_graph(2),
    "parsed-3": lambda: random_graph(3),
}


@pytest.mark.parametrize("name", sorted(HOPS_VIEWS))
def test_shortest_hops_match_a_breadth_first_search(name):
    view = HOPS_VIEWS[name]()
    rng = random.Random(name)
    verts = sorted(view.vertices())
    seen = set()
    for _ in range(12):
        # free subsets from nearly all of the view to a sparse remnant
        free = set(rng.sample(verts, rng.randint(0, len(verts) - 2)))
        blocked = set(verts) - free
        v = rng.choice(verts)
        dist = dist_through(view, v, free)
        for u in rng.sample(verts, min(len(verts), 12)):
            if u == v:
                continue
            want = dist.get(u)
            seen.add(want)
            assert _hops(view, u, v, blocked) == want, (u, v)
    assert 1 in seen and None in seen


def enum_reference(view, u, v, free, floor, owed=1):
    """The reference for ``_enum_segments``: the same order, pruned with
    exact breadth-first distances over the free vertices, and no segment
    with more than len(free) // owed interior vertices."""
    dist = dist_through(view, v, free)
    if u not in dist:
        return
    top = len(free) // owed + 2
    start = max(dist[u], 1)
    if floor is not None:
        start = max(start, len(floor) - 1)

    def extend(path, length):
        room = length - len(path)
        for w in view.neighbors(path[-1]):
            if w == v:
                if room == 0:
                    yield (*path, v)
            elif (room > 0 and w in free and w not in path
                    and dist.get(w, top) <= room):
                yield from extend(path + [w], length)

    for length in range(start, top):
        for seg in extend([u], length):
            if floor is None or (len(seg), seg) > (len(floor), floor):
                yield seg


ENUM_VIEWS = {
    "AQ4": lambda: AugmentedCube(4),
    "AQ5-half": lambda: AugmentedCube(5).half_view(0),
    "AQ5-restricted": SPARE_VIEWS["AQ5-restricted"],
    "parsed-4": lambda: random_graph(4),
    "parsed-5": lambda: random_graph(5),
}


@pytest.mark.parametrize("name", sorted(ENUM_VIEWS))
def test_segments_come_in_the_order_exact_pruning_gives(name):
    view = ENUM_VIEWS[name]()
    rng = random.Random(name)
    verts = sorted(view.vertices())
    for _ in range(8):
        u, v = rng.sample(verts, 2)
        # at most 7 free vertices keep the full enumeration small
        free = set(rng.sample([w for w in verts if w not in (u, v)], 7))
        blocked = set(verts) - free
        want = list(enum_reference(view, u, v, free, None))
        assert list(_enum_segments(view, u, v, blocked, None)) == want
        for floor in want[::3]:
            assert (list(_enum_segments(view, u, v, blocked, floor))
                    == list(enum_reference(view, u, v, free, floor)))
        for owed in (2, 3):
            # owing more segments caps the interior, never reorders
            capped = [s for s in want if len(s) - 2 <= len(free) // owed]
            assert (list(_enum_segments(view, u, v, blocked, None, owed))
                    == list(enum_reference(view, u, v, free, None, owed))
                    == capped)
            for floor in capped[::3]:
                assert (list(_enum_segments(view, u, v, blocked, floor, owed))
                        == list(enum_reference(view, u, v, free, floor, owed)))


# the m = 5 refutation at the value-4 orbit of pi3(AQ_4)
REFUTED = ((0, 1, 2), (4, 3, 3))


def test_a_search_without_a_budget_takes_the_default(monkeypatch):
    monkeypatch.setattr(packing, "DEFAULT_BUDGET", 100)
    with pytest.raises(SearchBudgetExceeded, match="search budget 100 exhausted"):
        pack_segments(AugmentedCube(4), *REFUTED)


def test_a_refutation_leaves_no_cyclic_garbage():
    cube = AugmentedCube(4)
    gc.collect()
    gc.disable()
    try:
        assert pack_segments(cube, *REFUTED) is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_refutation_reuses_relaxation_verdicts(monkeypatch):
    calls = []
    max_flow = UnitFlowNet.max_flow

    def counted(net, limit=None):
        calls.append(limit)
        return max_flow(net, limit)

    monkeypatch.setattr(UnitFlowNet, "max_flow", counted)
    budget = Budget(packing.DEFAULT_BUDGET)
    assert pack_segments(AugmentedCube(4), *REFUTED, budget) is None
    # the caches keep the search tree and save flows; a map fixing the
    # three terminals prunes the subtrees it sends onto earlier ones, and
    # the length cap the segments still owed set prunes the rest.  A child
    # repairs its parent's leaf flow, with no flow at all when the
    # committed segment crossed no unit of it, and pushes only the owed
    # segments onto that for the joint relaxation
    assert budget.used == 112
    assert len(calls) == 67


def test_a_packing_found_at_full_depth_saturates_its_witness_leaf_afresh(monkeypatch):
    calls = []
    max_flow = UnitFlowNet.max_flow

    def counted(net, limit=None):
        calls.append(limit)
        return max_flow(net, limit)

    monkeypatch.setattr(UnitFlowNet, "max_flow", counted)
    found = pack_segments(AugmentedCube(4), (0, 10, 14), (3, 4, 3))
    assert [len(segs) for segs in found] == [3, 4, 3]
    # three orientations, the root leaf, the repairs of the leaf as the
    # three branched segments are committed (those crossing no unit of it
    # push nothing), the joint relaxations while segments are owed, and
    # one fresh leaf flow for the witness, so the witness does not depend
    # on the path the search took
    assert len(calls) == 9


def test_the_joint_relaxation_prunes_what_the_leaf_alone_does_not(monkeypatch):
    # a node whose leaf still saturates, yet not with the branched segments
    # it owes asked besides: the joint relaxation drops it untried
    view = RestrictedView(AugmentedCube(4), forbidden_vertices=[11],
                          forbidden_edges=[(15, 13), (2, 6), (0, 15), (15, 8)])
    trip, counts = (12, 13, 6), (3, 3, 3)
    assert not packing_exists(view, trip, counts)
    budget = Budget(packing.DEFAULT_BUDGET)
    assert pack_segments(view, trip, counts, budget) is None
    assert budget.used == 11
    monkeypatch.setattr(packing._PackSearch, "joint", lambda search, key, net: True)
    budget = Budget(packing.DEFAULT_BUDGET)
    assert pack_segments(view, trip, counts, budget) is None
    assert budget.used == 12


def test_a_net_keeps_the_blocked_set_it_was_built_with():
    cube = AugmentedCube(4)
    blocked = {0, 1, 2}
    net = _saturate(cube, [(1, 0, 4), (1, 2, 3)], blocked)
    before = net.unit_paths()
    assert (1, 3, 0) in before
    blocked.add(3)  # as a branch-and-bound grows its set after a commitment
    assert net.unit_paths() == before
    assert 3 not in net.blocked
    terminals = frozenset((0, 1))
    assert UnitFlowNet(cube, {0: 1}, {1: 1}, terminals).blocked is terminals


def minimal_interiors(view, u, v, free):
    """Every inclusion-minimal nonempty interior of a u-v segment through
    ``free``, as a bitmask over sorted(free): simple paths are grown one
    vertex per level, and a path whose vertex set already holds a complete
    interior is dropped, since it can only grow supersets of it."""
    bit = {w: 1 << i for i, w in enumerate(sorted(free))}
    found: list[int] = []
    frontier = {(w, bit[w]) for w in view.neighbors(u) if w in free}
    while frontier:
        for w, mask in frontier:
            if v in view.neighbors(w) and mask not in found:
                found.append(mask)
        frontier = {(x, mask | bit[x]) for w, mask in frontier
                    for x in view.neighbors(w)
                    if x in free and not mask & bit[x]}
        frontier = {(w, mask) for w, mask in frontier
                    if not any(mask & f == f for f in found)}
    return found


def triangle_demands(trip, counts):
    """The (u, v, count) demands of a triangle, in ``pack_segments``' order."""
    x, y, z = trip
    return [(u, v, c) for (u, v), c in zip(((x, y), (y, z), (x, z)), counts)]


def packing_exists(view, trip, counts):
    """Exhaustive decision: each segment may shrink to a minimal interior
    and stay disjoint from the rest, so minimal interiors and the direct
    edge (once per pair) are all that need trying."""
    demands = triangle_demands(trip, counts)
    free = set(view.vertices()) - set(trip)
    options = [minimal_interiors(view, u, v, free) for u, v, _ in demands]
    edges = [v in view.neighbors(u) for u, v, _ in demands]
    slots = [i for i, (_, _, c) in enumerate(demands) for _ in range(c)]
    memo: dict[tuple[int, int, bool], bool] = {}

    def place(k, used, edge_taken):
        if k == len(slots):
            return True
        p = slots[k]
        if k and slots[k - 1] != p:
            edge_taken = False
        key = (k, used, edge_taken)
        if key not in memo:
            memo[key] = ((edges[p] and not edge_taken and place(k + 1, used, True))
                         or any(place(k + 1, used | m, edge_taken)
                                for m in options[p] if not used & m))
        return memo[key]

    return place(0, 0, False)


def assert_packing(view, trip, counts, found):
    terminals = set(trip)
    taken: set[int] = set()
    for (u, v, c), segs in zip(triangle_demands(trip, counts), found):
        assert len(set(segs)) == len(segs) == c
        for seg in segs:
            assert (seg[0], seg[-1]) == (u, v)
            assert all(b in view.neighbors(a) for a, b in zip(seg, seg[1:]))
            inner = set(seg[1:-1])
            assert len(inner) == len(seg) - 2
            assert not inner & (terminals | taken)
            taken |= inner


def tight_triangle(view, rng):
    """Three terminals and counts near their degrees."""
    x, y, z = rng.sample(sorted(view.vertices()), 3)
    dx, dy, dz = (len(view.neighbors(t)) for t in (x, y, z))
    a = rng.randint(0, max(0, min(dx, dy) - 1))
    b = max(0, min(dy - a, dz))
    c = max(0, min(dx - a, dz - b))
    return (x, y, z), (a, b, c)


def exactness_cases():
    for seed in range(12):
        view = random_graph(seed)
        rng = random.Random(seed)
        for _ in range(12):
            yield f"parsed-{seed}", view, *tight_triangle(view, rng)
    cube = AugmentedCube(4)
    rng = random.Random(4)
    yield "AQ4", cube, *REFUTED
    for _ in range(18):
        yield "AQ4", cube, *tight_triangle(cube, rng)


def test_pack_segments_matches_an_exhaustive_search(monkeypatch):
    searches = []

    class CountedSearch(packing._PackSearch):
        def __init__(self, view, trip, counts, budget):
            searches.append((trip, counts))
            super().__init__(view, trip, counts, budget)

    monkeypatch.setattr(packing, "_PackSearch", CountedSearch)
    for name, view, trip, counts in exactness_cases():
        found = pack_segments(view, trip, counts)
        assert (found is not None) == packing_exists(view, trip, counts), (
            name, trip, counts)
        if found is not None:
            assert_packing(view, trip, counts, found)
    # the caches only act inside the branch-and-bound
    assert len(searches) >= 5
