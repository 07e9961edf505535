import gc
import random
from collections import deque

import pytest

from aqpath.cube import AdjListView, AugmentedCube, PrefixView, RestrictedView
from aqpath.flow import UnitFlowNet
from aqpath import packing
from aqpath.packing import (Budget, _branch_blocked, _enum_segments, _hops,
                            _saturate, _split_for_search, pack_segments)
from aqpath.textio import parse_graph, render_graph


@pytest.mark.parametrize("demands", [
    [(0, 1, 1), (1, 0, 1)],
    [(0, 1, 1), (0, 1, 1)],
    [(0, 1, 0), (1, 0, 2)],
], ids=["reversed", "repeated", "zero-count"])
def test_a_terminal_pair_in_two_demands_is_rejected(demands):
    # either demand alone may take the direct edge 0-1, so together they
    # would use it twice
    with pytest.raises(ValueError, match="more than one demand"):
        pack_segments(AugmentedCube(3), demands)


def test_a_budget_is_never_negative():
    with pytest.raises(ValueError, match="budget must be >= 0"):
        Budget(-5)
    Budget(0)
    Budget(None)


def test_demands_on_four_terminals_are_rejected():
    with pytest.raises(ValueError, match="4 terminals, at most 3"):
        pack_segments(AugmentedCube(3), [(0, 1, 1), (2, 3, 1)])


def test_one_demand_uses_the_direct_edge_once():
    segs, = pack_segments(AugmentedCube(3), [(0, 1, 2)])
    assert len(segs) == 2 and segs.count((0, 1)) == 1


def spare_by_rebuild(view, leaf, blocked):
    # the reference: one relaxation per free vertex, left out in turn
    return {w for w in view.vertices() if w not in blocked
            and _saturate(view, leaf, blocked | {w}) is not None}


def spare_vertices(view, leaf, blocked):
    """The free vertices ``_branch_blocked`` leaves to branch segments."""
    fence = _branch_blocked(view, leaf, blocked)
    return set() if fence is None else set(view.vertices()) - fence


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
    demands = [(0, 1, 2), (1, 2, 2), (0, 2, 2)]
    leaf = [(2, 0, 2), (2, 1, 2)]
    assert _split_for_search(demands) == ((0, 1, 2), leaf)
    assert spare_vertices(view, leaf, {0, 1, 2}) == {5, 7}
    assert spare_by_rebuild(view, leaf, {0, 1, 2}) == {5, 7}
    budget = Budget(None)
    assert pack_segments(view, demands, budget) is None
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


def enum_reference(view, u, v, free, floor):
    """The reference for ``_enum_segments``: the same order, pruned with
    exact breadth-first distances over the free vertices."""
    dist = dist_through(view, v, free)
    if u not in dist:
        return
    top = len(free) + 2
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


# the m = 5 refutation at the value-4 orbit of pi3(AQ_4)
REFUTED = [(0, 1, 4), (1, 2, 3), (0, 2, 3)]


def test_a_refutation_leaves_no_cyclic_garbage():
    cube = AugmentedCube(4)
    gc.collect()
    gc.disable()
    try:
        assert pack_segments(cube, REFUTED) is None
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
    budget = Budget(None)
    assert pack_segments(AugmentedCube(4), REFUTED, budget) is None
    # the caches keep the search tree and save flows; a map fixing the
    # three terminals prunes the subtrees it sends onto earlier ones
    assert budget.used == 1306
    assert len(calls) == 154


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


def packing_exists(view, demands):
    """Exhaustive decision: each segment may shrink to a minimal interior
    and stay disjoint from the rest, so minimal interiors and the direct
    edge (once per pair) are all that need trying."""
    terminals = {t for u, v, _ in demands for t in (u, v)}
    free = set(view.vertices()) - terminals
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


def assert_packing(view, demands, found):
    terminals = {t for u, v, _ in demands for t in (u, v)}
    taken: set[int] = set()
    for (u, v, c), segs in zip(demands, found):
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
    return [(x, y, a), (y, z, b), (x, z, c)]


def exactness_cases():
    for seed in range(12):
        view = random_graph(seed)
        rng = random.Random(seed)
        for _ in range(12):
            yield f"parsed-{seed}", view, tight_triangle(view, rng)
    cube = AugmentedCube(4)
    rng = random.Random(4)
    yield "AQ4", cube, REFUTED
    for _ in range(18):
        yield "AQ4", cube, tight_triangle(cube, rng)


def test_pack_segments_matches_an_exhaustive_search(monkeypatch):
    searches = []
    dfs_pack = packing._dfs_pack

    def counted(view, live, blocked, budget):
        searches.append(live)
        return dfs_pack(view, live, blocked, budget)

    monkeypatch.setattr(packing, "_dfs_pack", counted)
    for name, view, demands in exactness_cases():
        found = pack_segments(view, demands)
        assert (found is not None) == packing_exists(view, demands), (name, demands)
        if found is not None:
            assert_packing(view, demands, found)
    # the caches only act inside the branch-and-bound
    assert len(searches) >= 5
