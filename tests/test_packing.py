import gc
import itertools
import random
from collections import deque

import pytest

from aqpath.cube import (AdjListView, AugmentedCube, PrefixView, RestrictedView,
                         symmetries)
from aqpath.flow import UnitFlowNet
from aqpath import oracle, packing, report
from aqpath.oracle import max_dpaths
from aqpath.packing import (Budget, SearchBudgetExceeded, _enum_segments, _hops,
                            _saturate, _split_for_search, pack_segments)
from aqpath.textio import parse_graph, render_graph


@pytest.mark.parametrize("trip, counts, message", [
    ((0, 1, 0), (1, 1, 1), "three distinct terminals"),
    ((0, 1), (1, 1, 1), "three distinct terminals"),
    ((0, 1, 2, 3), (1, 1, 1), "three distinct terminals"),
    ((0, 1, 2), (1, -1, 1), "negative demand"),
    ((0, 1, 8), (1, 1, 1), "terminal 8 not in view"),
    ((0, 1, 2), (1, 1), "need three counts, not 2"),
    ((0, 1, 2), (1, 1, 1, 0), "need three counts, not 4"),
    ((0, 1, 2), (1.5, 1, 1), "counts must be integers"),
    ((0, 1, 2), (1, True, 1), "counts must be integers"),
    ((0, 1, 2), iter([1, 1]), "need three counts, not 2"),
    ((0, 1, 2), iter([1, -1, 1]), "negative demand"),
], ids=["repeated", "two-terminals", "four-terminals", "negative", "outside",
        "two-counts", "four-counts", "fractional", "bool", "two-count-iterator",
        "negative-iterator"])
def test_a_triangle_outside_the_contract_is_rejected(trip, counts, message):
    with pytest.raises(ValueError, match=message):
        pack_segments(AugmentedCube(3), trip, counts)


def test_counts_are_read_once():
    # a one-shot iterable of counts answers as the tuple of its items does
    cube = AugmentedCube(3)
    assert (pack_segments(cube, (0, 1, 2), iter([1, 1, 1]))
            == pack_segments(cube, (0, 1, 2), (1, 1, 1)))


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


def test_no_demand_packs_nothing():
    assert pack_segments(AugmentedCube(4), (0, 1, 2), (0, 0, 0)) == [[], [], []]


def no_presolve(view, trip, counts):
    """A presolve that commits and refutes nothing, so that a triangle
    reaches the relaxations and the branch-and-bound as if none had run."""
    return list(counts), []


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


def test_an_infeasible_leaf_still_tries_the_direct_edge(monkeypatch):
    # with the presolve off, the triangle branches on 0-1 (twice) beside
    # the leaf 2 to 0 and 2 to 1 (twice each), which needs 3, 4 and 6;
    # every 0-1 path with an interior crosses one of them and leaves the
    # leaf infeasible, so the direct edge 0-1 is the one segment
    # enumerated and ticks once
    view = AdjListView([(0, 1), (0, 2), (0, 3), (0, 7), (1, 2), (1, 3),
                        (1, 5), (2, 4), (2, 6), (3, 6), (4, 5), (4, 7)], bits=3)
    trip, counts = (0, 1, 2), (2, 2, 2)
    leaf = [(2, 0, 2), (2, 1, 2)]
    assert _split_for_search(trip, counts) == ((0, 1, 2), leaf)
    assert spare_vertices(view, leaf, {0, 1, 2}) == {5, 7}
    assert spare_by_rebuild(view, leaf, {0, 1, 2}) == {5, 7}
    budget = Budget(packing.DEFAULT_BUDGET)
    assert pack_segments(view, trip, counts, budget) is None
    # each terminal owes four segments and has four neighbours, so the
    # presolve commits the three direct edges and the wedge 0-3-1; with
    # each edge owed again, (1, 2, 2) is left, and an orientation flow
    # around 3 refutes it at the root tick
    assert budget.used == 1
    monkeypatch.setattr(packing, "_presolve", no_presolve)
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


def searched_refutation():
    """A refutation the presolve and the relaxations leave to the
    branch-and-bound: one vertex out of AQ_4, so no map fixes the
    terminals, no terminal is full, and 20 ticks."""
    view = RestrictedView(AugmentedCube(4), forbidden_vertices=[0])
    return view, (9, 10, 15), (3, 3, 3)


def count_max_flows(monkeypatch):
    """The limit of every max-flow run from here on, in order."""
    calls = []
    max_flow = UnitFlowNet.max_flow

    def counted(net, limit=None):
        calls.append(limit)
        return max_flow(net, limit)

    monkeypatch.setattr(UnitFlowNet, "max_flow", counted)
    return calls


def test_a_search_without_a_budget_takes_the_default(monkeypatch):
    # the default the README documents, and the command line's --budget
    assert packing.DEFAULT_BUDGET == 2_000_000
    monkeypatch.setattr(packing, "DEFAULT_BUDGET", 19)
    with pytest.raises(SearchBudgetExceeded, match="search budget 19 exhausted"):
        pack_segments(*searched_refutation())


@pytest.mark.parametrize("trip", [(22, 1, 14), (28, 23, 16)])
def test_a_long_search_runs_out_of_ticks_and_raises(trip):
    # the presolve commits one direct edge here, which is owed again, so
    # the search branches through all of a small budget.  A map besides the
    # identity fixes each terminal, so the lex-leader maps the search lists
    # on its first segment are checked all the way
    cube = AugmentedCube(5)
    assert [perm for _, _, perm in symmetries(cube, trip)].count((0, 1, 2)) >= 1
    budget = Budget(20_000)
    with pytest.raises(SearchBudgetExceeded, match="search budget 20000 exhausted"):
        pack_segments(cube, trip, (4, 5, 3), budget)
    assert budget.used == 20_001


def test_a_refutation_leaves_no_cyclic_garbage():
    cube, (view, trip, counts) = AugmentedCube(4), searched_refutation()
    gc.collect()
    gc.disable()
    try:
        assert pack_segments(cube, *REFUTED) is None
        assert pack_segments(view, trip, counts) is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_argmin_refutation_is_decided_by_one_orientation_flow(monkeypatch):
    # every terminal of REFUTED is full: the presolve commits the three
    # direct edges and the wedges through 3, 5 and 6.  Each direct edge is
    # owed again, so all three pairs are still owed, (3, 1, 3), and the
    # first orientation's flow around 3, 5 and 6 refutes with no segment
    # enumerated
    assert packing._presolve(AugmentedCube(4), *REFUTED) == (
        [3, 1, 3], [(0, 3, 1), (1, 5, 2), (1, 6, 2)])
    calls = count_max_flows(monkeypatch)
    budget = Budget(packing.DEFAULT_BUDGET)
    assert pack_segments(AugmentedCube(4), *REFUTED, budget) is None
    assert budget.used == 1
    assert len(calls) == 1


def test_a_refutation_reuses_relaxation_verdicts(monkeypatch):
    calls = count_max_flows(monkeypatch)
    monkeypatch.setattr(packing, "_presolve", no_presolve)
    budget = Budget(packing.DEFAULT_BUDGET)
    assert pack_segments(AugmentedCube(4), *REFUTED, budget) is None
    # with the presolve off the branch-and-bound refutes it.  The caches
    # keep the search tree and save flows; a map fixing the three
    # terminals prunes the subtrees it sends onto earlier ones, and the
    # length cap the segments still owed set prunes the rest.  A child
    # repairs its parent's leaf flow, with no flow at all when the
    # committed segment crossed no unit of it, and that leaf alone decides
    # whether the child is entered
    assert budget.used == 112
    assert len(calls) == 44


def test_a_budget_of_exactly_the_ticks_a_search_takes_suffices():
    # REFUTED takes its one root tick, and the searched refutation 20: the
    # last tick is still within a budget of that many and the first past
    # a budget of one less
    cube = AugmentedCube(4)
    assert pack_segments(cube, *REFUTED, Budget(1)) is None
    with pytest.raises(SearchBudgetExceeded, match="search budget 0 exhausted"):
        pack_segments(cube, *REFUTED, Budget(0))
    view, trip, counts = searched_refutation()
    assert packing._presolve(view, trip, counts) == (list(counts), [])
    assert pack_segments(view, trip, counts, Budget(20)) is None
    with pytest.raises(SearchBudgetExceeded, match="search budget 19 exhausted"):
        pack_segments(view, trip, counts, Budget(19))


def unseeded(view, leaf, blocked):
    """The leaf relaxation with every unit searched for: no seed."""
    sources, sinks = {}, {}
    for u, v, c in leaf:
        sources[u] = sources.get(u, 0) + c
        sinks[v] = sinks.get(v, 0) + c
    net = UnitFlowNet(view, sources, sinks, blocked)
    net.max_flow(limit=sum(sources.values()))
    return net


def test_an_amended_seeded_leaf_matches_an_amended_unseeded_one():
    # each leaf of the searched refutation, seeded with its direct edges
    # and wedges as ``_saturate`` does, keeps some of its seeds' entries
    # waiting in ``_pending``; ``amended`` derives them in the copy, so
    # blocking the interior of any segment the search could branch gives
    # the same shortfall and the same verdict as amending the leaf with no
    # seed, and leaves the seeded net as it was
    view, (x, y, z), (a, b, c) = searched_refutation()
    blocked = frozenset((x, y, z))
    splits = [((x, y, a), [(z, x, c), (z, y, b)]), ((y, z, b), [(x, y, a), (x, z, c)]),
              ((x, z, c), [(y, x, a), (y, z, b)])]
    verdicts = set()
    for (u, v, owed), leaf in splits:
        seeded, plain = _saturate(view, leaf, blocked), unseeded(view, leaf, blocked)
        assert seeded is not None and seeded._pending
        rows = {w: dict(row) for w, row in seeded.cap.items()}
        pending = {w: dict(row) for w, row in seeded._pending.items()}
        # the search caches its verdicts by the vertices it has committed
        interiors = {frozenset(seg[1:-1])
                     for seg in _enum_segments(view, u, v, blocked, None, owed)}
        for interior in sorted(map(sorted, interiors)):
            child, short = seeded.amended(interior)
            ref, ref_short = plain.amended(interior)
            assert short == ref_short, interior
            ok = child.max_flow(limit=short) == short
            assert ok == (ref.max_flow(limit=short) == short), interior
            fresh = _saturate(view, leaf, blocked | set(interior))
            assert ok == (fresh is not None), interior
            verdicts.add((ok, short > 0))
        assert {w: dict(row) for w, row in seeded.cap.items()} == rows
        assert {w: dict(row) for w, row in seeded._pending.items()} == pending
    assert verdicts == {(True, False), (True, True), (False, True)}


def test_a_packing_found_at_full_depth_saturates_its_witness_leaf_afresh(monkeypatch):
    calls = []
    max_flow = UnitFlowNet.max_flow

    def counted(net, limit=None):
        calls.append(limit)
        return max_flow(net, limit)

    monkeypatch.setattr(UnitFlowNet, "max_flow", counted)
    found = pack_segments(AugmentedCube(4), (0, 10, 14), (3, 4, 3))
    assert [len(segs) for segs in found] == [3, 4, 3]
    # the presolve commits the wedges 10-9-14 and 10-13-14 and leaves
    # (3, 2, 3) owed: three orientations around them, the root leaf, the
    # repairs of the leaf as the two branched 10-14 segments are committed
    # (those crossing no unit of it push nothing), and one fresh leaf flow
    # for the witness, so the witness does not depend on the path the
    # search took
    assert packing._presolve(AugmentedCube(4), (0, 10, 14), (3, 4, 3)) == (
        [3, 2, 3], [(10, 9, 14), (10, 13, 14)])
    assert (10, 9, 14) in found[1] and (10, 13, 14) in found[1]
    assert len(calls) == 7


def test_an_odd_total_demand_is_refuted_by_its_leaf_relaxations_alone(monkeypatch):
    # the restricted case of ``exactness_cases``.  Counting refutes it at
    # the root tick; with the presolve off, its refutation enters one node
    # whose leaf saturates though the segments it still owes do not fit
    # besides, and that node costs one tick more than a search asking them
    # besides spent (11); the oracle never sends such an odd total
    view = RestrictedView(AugmentedCube(4), forbidden_vertices=[11],
                          forbidden_edges=[(15, 13), (2, 6), (0, 15), (15, 8)])
    trip, counts = (12, 13, 6), (3, 3, 3)
    assert not packing_exists(view, trip, counts)
    calls = count_max_flows(monkeypatch)
    budget = Budget(packing.DEFAULT_BUDGET)
    assert pack_segments(view, trip, counts, budget) is None
    assert (budget.used, len(calls)) == (1, 0)
    monkeypatch.setattr(packing, "_presolve", no_presolve)
    budget = Budget(packing.DEFAULT_BUDGET)
    assert pack_segments(view, trip, counts, budget) is None
    assert budget.used == 12
    assert len(calls) == 14


def test_a_node_entered_with_cached_verdicts_saturates_its_leaf_afresh(monkeypatch):
    # A = x-a-y < B = x-d1-d2-y < C = x-a-d3-y < E = x-e1-e2-y <
    # D = x-d1-d2-d3-y, and [A, D] commits K = {a, d1, d2, d3}, the interior
    # of [B, C].  Besides four pipes, the leaf sends one unit from z to x
    # (by z-v-e1 or z-w-u1) and one to y (by z-v-e2 or z-w-u2), so neither
    # e1 nor e2 is critical, but with E committed both units need w.
    # [A, D] is entered and refuted first, so [B, C] is entered with its
    # verdicts cached and no net, and E, listed at no node before, needs a
    # fresh leaf flow there.  The dead ends r and s keep x and z from being
    # full, so the presolve commits no pipe and the search branches x-y
    x, y, z, d1, a, d2, d3, e1, e2, v, w, u1, u2, p1, p2, q1, q2, r, s = range(19)
    view = AdjListView([
        (x, a), (a, y), (x, d1), (d1, d2), (d2, y), (d2, d3), (d3, y), (a, d3),
        (x, e1), (e1, e2), (e2, y), (z, v), (v, e1), (v, e2),
        (z, w), (w, u1), (u1, x), (w, u2), (u2, y),
        (z, p1), (p1, x), (z, p2), (p2, x), (z, q1), (q1, y), (z, q2), (q2, y),
        (x, r), (z, s)],
        bits=5, vertices=range(19))
    trip, counts, K = (x, y, z), (3, 3, 3), frozenset({a, d1, d2, d3})
    assert packing._presolve(view, trip, counts) == (list(counts), [])
    searches, leaf_flows = [], []
    saturate = packing._saturate

    class RecordedSearch(packing._PackSearch):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    def watched(view, demands, blocked):
        if searches and list(demands) == searches[-1].leaf:
            leaf_flows.append((set(blocked), K in searches[-1].avoid))
        return saturate(view, demands, blocked)

    monkeypatch.setattr(packing, "_PackSearch", RecordedSearch)
    monkeypatch.setattr(packing, "_saturate", watched)
    assert pack_segments(view, trip, counts) is None
    assert not packing_exists(view, trip, counts)
    # the root's leaf, then [B, C]'s fresh one, after K's spare set was cached
    assert leaf_flows == [({x, y, z}, False), ({x, y, z} | K, True)]


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


def pair_or_wedge(view, rng, zeros):
    """Three terminals with ``zeros`` counts 0 (one: a wedge, two: a pair)
    and the others up to their terminals' smaller degree."""
    trip = rng.sample(sorted(view.vertices()), 3)
    live = rng.sample(range(3), 3 - zeros)
    counts = [0, 0, 0]
    for i in live:
        u, v = [(0, 1), (1, 2), (0, 2)][i]
        top = min(len(view.neighbors(trip[u])), len(view.neighbors(trip[v])))
        counts[i] = rng.randint(1, max(1, top))
    return tuple(trip), tuple(counts)


def exactness_cases():
    for seed in range(12):
        view = random_graph(seed)
        rng = random.Random(seed)
        for _ in range(12):
            yield f"parsed-{seed}", view, *tight_triangle(view, rng)
        for zeros in (1, 2):
            yield f"parsed-{seed}", view, *pair_or_wedge(view, rng, zeros)
    # a demand with an odd total whose refutation enters a node that the
    # leaf admits though the segments it still owes do not fit besides
    yield "restricted-AQ4", RestrictedView(
        AugmentedCube(4), forbidden_vertices=[11],
        forbidden_edges=[(15, 13), (2, 6), (0, 15), (15, 8)]), (12, 13, 6), (3, 3, 3)
    cube = AugmentedCube(4)
    rng = random.Random(4)
    yield "AQ4", cube, *REFUTED
    for _ in range(18):
        yield "AQ4", cube, *tight_triangle(cube, rng)
    # two triangles the presolve and the relaxations leave to the
    # branch-and-bound, one refuted and one packed
    yield "restricted-AQ4", *searched_refutation()
    yield "AQ4", cube, (0, 10, 14), (3, 4, 3)


def test_pack_segments_matches_an_exhaustive_search(monkeypatch):
    searches = []

    class CountedSearch(packing._PackSearch):
        def __init__(self, view, trip, counts, *args):
            searches.append(counts)
            super().__init__(view, trip, counts, *args)

    monkeypatch.setattr(packing, "_PackSearch", CountedSearch)
    verdicts = set()
    for name, view, trip, counts in exactness_cases():
        found = pack_segments(view, trip, counts)
        assert (found is not None) == packing_exists(view, trip, counts), (
            name, trip, counts)
        if found is not None:
            assert_packing(view, trip, counts, found)
        verdicts.add((counts.count(0), found is not None))
    # pairs and wedges, packed and refuted, are among the cases; every
    # call the presolve and the relaxations leave open reaches the search,
    # which branches only on what still owes all three pairs
    assert {(1, True), (1, False), (2, True), (2, False)} <= verdicts
    assert sum(min(counts) == 0 for counts in searches) >= 50
    assert sum(min(counts) > 0 for counts in searches) >= 5


@pytest.mark.parametrize("view, trip, counts, packed, flows", [
    # the pair's leaf is filled by its seeds, the direct edge 0-1 and the
    # wedge through 3, so it runs no max-flow at all
    (AugmentedCube(4), (0, 1, 2), (2, 0, 0), True, 0),
    (AugmentedCube(4), (0, 5, 10), (0, 3, 3), True, 1),
    (random_graph(0), (1, 6, 7), (0, 2, 2), False, 1)],
    ids=["pair", "wedge", "refuted-wedge"])
def test_a_pair_or_a_wedge_is_decided_by_one_leaf_flow(monkeypatch, view, trip,
                                                        counts, packed, flows):
    # no terminal here is full, so the presolve commits nothing, and the
    # search branches the zero count, so its root leaf decides the call:
    # one relaxation, at most one flow for what its seeds leave, the
    # call's one tick, and no segment enumerated
    def listed(*args):
        raise AssertionError("a pair or a wedge listed a segment")

    assert packing._presolve(view, trip, counts) == (list(counts), [])
    calls = count_max_flows(monkeypatch)
    monkeypatch.setattr(packing, "_enum_segments", listed)
    budget = Budget(packing.DEFAULT_BUDGET)
    found = pack_segments(view, trip, counts, budget)
    assert (found is not None) == packed == packing_exists(view, trip, counts)
    if packed:
        assert_packing(view, trip, counts, found)
    assert len(calls) == flows
    assert budget.used == 1


def test_a_vertex_next_to_three_full_terminals_refutes():
    # 3 is next to every terminal, and each terminal owes two segments and
    # has two neighbours: all three must leave by 3, which one segment
    # alone can cross
    edges = [(0, 3), (1, 3), (2, 3), (0, 4), (1, 5), (2, 6), (4, 5), (5, 6), (4, 6)]
    view = AdjListView(edges, bits=3)
    trip, counts = (0, 1, 2), (1, 1, 1)
    assert packing._presolve(view, trip, counts) is None
    assert pack_segments(view, trip, counts) is None
    assert not packing_exists(view, trip, counts)
    # with a third neighbour 7 for the terminal 2, only 0 and 1 are full
    # at first: they share 3, so 0-3-1 is committed, and 3 is no longer
    # 2's to use, which fills 2 in turn
    view = AdjListView(edges + [(2, 7), (7, 5)], bits=3)
    assert packing._presolve(view, trip, counts) == ([0, 1, 1], [(0, 3, 1)])
    found = pack_segments(view, trip, counts)
    assert_packing(view, trip, counts, found)
    assert found[0] == [(0, 3, 1)]
    assert sum(3 in seg for segs in found for seg in segs) == 1


def test_a_committed_direct_edge_on_a_leaf_pair_is_crossed_at_most_once(monkeypatch):
    # 0 owes six segments to 1 and has six usable neighbours, so the direct
    # edge 0-1 and the wedge 0-3-1 are committed; the pair is then owed
    # four segments and the edge again, five in all, which its leaf flow
    # packs around 3 with the edge at most once
    cube = AugmentedCube(4)
    trip, counts = (0, 1, 2), (6, 0, 0)
    assert packing._presolve(cube, trip, counts) == ([5, 0, 0], [(0, 3, 1)])
    leaves = []
    saturate = packing._saturate

    def watched(view, demands, blocked):
        leaves.append([d for d in demands if d[2]])
        return saturate(view, demands, blocked)

    monkeypatch.setattr(packing, "_saturate", watched)
    found = pack_segments(cube, trip, counts)
    assert leaves == [[(1, 0, 5)]]
    assert_packing(cube, trip, counts, found)
    assert found[0].count((0, 1)) == 1 and (0, 3, 1) in found[0]
    # seven segments would need a seventh neighbour of 0
    assert pack_segments(cube, trip, (7, 0, 0)) is None


def test_every_packing_of_the_oracle_holds_the_committed_wedges(monkeypatch):
    # over every pack the oracle asks on all of AQ_4 (all triangles), the
    # packing returned holds each wedge the presolve committed, whichever
    # stage completes it
    pack, held = oracle.pack_segments, []

    def checked(view, trip, counts, budget=None):
        found = pack(view, trip, counts, budget)
        if found is not None:
            assert_packing(view, trip, counts, found)
            segs = {seg for segs in found for seg in segs}
            _, forced = packing._presolve(view, trip, counts)
            assert all((t, w, s) in segs or (s, w, t) in segs
                       for t, w, s in forced), (trip, counts)
            held.append(len(forced))
        return found

    monkeypatch.setattr(oracle, "pack_segments", checked)
    cube = AugmentedCube(4)
    for D in itertools.combinations(range(16), 3):
        max_dpaths(cube, D)
    # one packing per triple; 368 of them hold 1,856 committed wedges
    assert (len(held), sum(map(bool, held)), sum(held)) == (560, 368, 1_856)


@pytest.mark.parametrize("view, trip, counts", [
    (AugmentedCube(4), (0, 1, 6), (3, 4, 3)),
    (AugmentedCube(4), (0, 5, 10), (0, 4, 4)),
    (RestrictedView(AugmentedCube(4), forbidden_vertices=[11],
                    forbidden_edges=[(15, 13), (2, 6), (0, 15), (15, 8)]),
     (12, 13, 6), (3, 3, 3))],
    ids=["argmin-profile", "wedge", "odd-total"])
def test_a_demand_refuted_by_counting_runs_no_max_flow(monkeypatch, view, trip, counts):
    # one of the oracle's 320 AQ_4 refutations that counting alone
    # decides, a wedge asking more than the shared terminal's degree, and
    # the odd total of ``exactness_cases``
    calls = count_max_flows(monkeypatch)
    budget = Budget(packing.DEFAULT_BUDGET)
    assert packing._presolve(view, trip, counts) is None
    assert pack_segments(view, trip, counts, budget) is None
    assert not packing_exists(view, trip, counts)
    assert (budget.used, calls) == (1, [])


def test_only_a_triangle_is_relaxed_by_orientation(monkeypatch):
    # over pi3(AQ_4)'s 105 pinned triples and the inputs of acceptance
    # criterion 8 (AQ_3's 56 triples and 200 random graphs), every pack the
    # oracle asks for whose presolve leaves all three pairs owed, and only
    # those, runs the orientation relaxations, on the counts still owed;
    # AQ_4's packs are all triangles, and the presolve decides most of them
    relaxed, left, asked = [], [], []
    orientations, presolve = packing._orientations, packing._presolve
    pack = oracle.pack_segments

    def seen(trip, counts):
        relaxed.append(tuple(counts))
        return orientations(trip, counts)

    def presolved(view, trip, counts):
        found = presolve(view, trip, counts)
        if found is not None and min(found[0]) > 0:
            left.append(tuple(found[0]))
        return found

    def packed(view, trip, counts, budget=None):
        asked.append(counts)
        return pack(view, trip, counts, budget)

    monkeypatch.setattr(packing, "_orientations", seen)
    monkeypatch.setattr(packing, "_presolve", presolved)
    monkeypatch.setattr(oracle, "pack_segments", packed)
    cube = AugmentedCube(4)
    for b, c in itertools.combinations(range(1, 16), 2):
        max_dpaths(cube, (0, b, c))
    triangles = sum(min(counts) > 0 for counts in asked)
    assert triangles == len(asked) > 2 * len(relaxed) > 0
    assert relaxed == left
    for D in itertools.combinations(range(8), 3):
        max_dpaths(AugmentedCube(3), D)
    rng = random.Random(report.CORPUS_SEED)
    for _ in range(report.CORPUS_GRAPHS):
        g = report.random_connected_graph(rng)
        max_dpaths(g, rng.sample(list(g.vertices()), 3))
    assert relaxed == left
    assert min(map(min, relaxed)) > 0
    triangles = sum(min(counts) > 0 for counts in asked)
    assert len(relaxed) < triangles < len(asked)
    # a profile (a, b, c) asks a + b, b + c and a + c segments, 2m in all,
    # so no triangle the oracle asks for has an odd total, such as the
    # restricted demand of ``exactness_cases``
    assert all(sum(counts) % 2 == 0 for counts in asked)


def lemma_views(rng):
    """AQ_4, AQ_5, seeded restrictions of each, and random connected graphs."""
    for n in (4, 5):
        cube = AugmentedCube(n)
        yield "cube", cube
        verts = sorted(cube.vertices())
        for _ in range(6):
            yield "restricted", RestrictedView(
                cube, forbidden_vertices=rng.sample(verts, rng.randint(1, 4)),
                forbidden_edges=[(v, rng.choice(cube.neighbors(v)))
                                 for v in rng.sample(verts, 4)])
    for _ in range(40):
        yield "graph", report.random_connected_graph(rng)


def test_a_triangle_reaches_the_search_with_every_split_leaf_feasible():
    # the root lemma, over the blocked set the presolve leaves: once all
    # three orientations of the counts still owed saturate around the
    # committed wedges, every single-source leaf the search could split
    # off saturates too, so ``rec`` needs no exit for an infeasible root.
    # Its hypothesis is the saturation alone: whether an orientation's
    # flow classifies depends on the paths found, not on the network
    rng = random.Random(44)
    met = {"cube": 0, "restricted": 0, "graph": 0}
    wedged = 0
    for kind, view in lemma_views(rng):
        verts = sorted(view.vertices())
        for _ in range(200):
            trip = tuple(rng.sample(verts, 3))
            degs = [len(view.neighbors(t)) for t in trip]
            counts = tuple(rng.randint(1, min(degs)) for _ in range(3))
            found = packing._presolve(view, trip, counts)
            if found is None or min(found[0]) == 0:
                continue
            (a, b, c), forced = found
            blocked = set(trip) | {w for _, w, _ in forced}
            oriented = packing._orientations(trip, (a, b, c))
            if any(_saturate(view, o, blocked) is None for o in oriented):
                continue
            met[kind] += 1
            wedged += bool(forced)
            x, y, z = trip
            for leaf in ([(z, x, c), (z, y, b)], [(x, y, a), (x, z, c)],
                         [(y, x, a), (y, z, b)]):
                assert _saturate(view, leaf, blocked) is not None, (trip, counts)
    assert sum(met.values()) >= 150 and min(met.values()) >= 15, met
    assert wedged >= 10
