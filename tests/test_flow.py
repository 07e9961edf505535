import gc
import importlib
import itertools
import random
import weakref
from collections import deque

import pytest

from aqpath.cube import AdjListView, AugmentedCube, PrefixView, RestrictedView, distance
from aqpath.flow import (
    Insufficient,
    UnitFlowNet,
    connectivity,
    disjoint_paths,
    fan,
    linkage,
    min_vertex_cut,
    sink_distances,
)
from aqpath import flow
from aqpath.packing import DEFAULT_BUDGET, Budget, _saturate, pack_segments


def k4():
    return AdjListView([(i, j) for i in range(4) for j in range(i + 1, 4)], bits=2)


def assert_internally_disjoint(view, u, v, paths):
    seen = set()
    edges = set()
    for p in paths:
        assert p[0] == u and p[-1] == v
        assert len(set(p)) == len(p)
        for a, b in zip(p, p[1:]):
            assert view.is_adjacent(a, b)
            e = frozenset((a, b))
            assert e not in edges
            edges.add(e)
        inner = set(p[1:-1])
        assert not (inner & seen)
        seen |= inner


def test_disjoint_paths_on_k4():
    g = k4()
    paths = disjoint_paths(g, 0, 1, 3)
    assert len(paths) == 3
    assert_internally_disjoint(g, 0, 1, paths)
    assert (0, 1) in paths  # the direct edge counts as one path


def test_disjoint_paths_adjacent_pair_dimension_3():
    cube = AugmentedCube(3)
    for v in cube.neighbors(0):
        paths = disjoint_paths(cube, 0, v, 4)
        assert len(paths) == 4
        assert_internally_disjoint(cube, 0, v, paths)


def test_disjoint_paths_insufficient_reports_max():
    cube = AugmentedCube(4)
    with pytest.raises(Insufficient) as exc:
        disjoint_paths(cube, 0b0000, 0b1111, 8)
    assert exc.value.achieved == 7  # the degree caps the count


def test_disjoint_paths_validates_input():
    g = k4()
    with pytest.raises(ValueError):
        disjoint_paths(g, 0, 0, 1)
    with pytest.raises(ValueError):
        disjoint_paths(g, 0, 9, 1)


def test_fan_of_neighbors_is_single_edges():
    cube = AugmentedCube(4)
    got = fan(cube, 0, cube.neighbors(0))
    assert set(got) == set(cube.neighbors(0))
    assert all(p == (0, t) for t, p in got.items())


def test_fan_any_four_targets_dimension_3():
    cube = AugmentedCube(3)
    for S in [(1, 2, 4, 7), (3, 5, 6, 7), (1, 3, 5, 6)]:
        got = fan(cube, 0, S)
        assert set(got) == set(S)
        inner = set()
        for t, p in got.items():
            assert p[0] == 0 and p[-1] == t
            assert not (set(p[1:-1]) & set(S))  # interiors avoid the target set
            assert not (set(p[1:-1]) & inner)
            inner |= set(p[1:-1])


def test_fan_on_diamond_view():
    cube = AugmentedCube(4)
    dia = cube.diamond_view(0b01, 0b11)
    z = 0b0101
    targets = [0b0100, 0b0110, 0b1100, 0b1111]
    got = fan(dia, z, targets)
    assert set(got) == set(targets)


def test_fan_rejects_source_in_targets():
    with pytest.raises(ValueError):
        fan(AugmentedCube(3), 0, [0, 1])


def test_fan_rejects_targets_outside_the_view():
    with pytest.raises(ValueError, match="vertex 99 not in view"):
        fan(AugmentedCube(3), 0, [1, 99])


def test_linkage_matched_sets():
    cube = AugmentedCube(4)
    A = [0b0000, 0b0001]
    B = [0b1000, 0b1001]  # the leading-bit matching partners
    got = linkage(cube, A, B)
    assert set(got) == set(A)
    used = set()
    for a, p in got.items():
        assert p[0] == a and p[-1] in B
        assert not (set(p) & used)
        used |= set(p)


def test_linkage_in_half_view():
    cube = AugmentedCube(4)
    h0 = cube.half_view(0)
    A = [0, 1, 2, 3]
    B = [4, 5, 6, 7]
    got = linkage(h0, A, B)
    assert sorted(p[-1] for p in got.values()) == B


def test_linkage_validates_sides():
    cube = AugmentedCube(3)
    with pytest.raises(ValueError):
        linkage(cube, [0, 1], [1, 2])
    with pytest.raises(ValueError):
        linkage(cube, [0], [1, 2])


def test_connectivity_values():
    assert connectivity(AugmentedCube(2)) == 3
    assert connectivity(AugmentedCube(3)) == 4
    assert connectivity(AugmentedCube(4)) == 7


def test_diamond_connectivity():
    # two 3-connected quadrants joined by a perfect matching
    assert connectivity(AugmentedCube(4).diamond_view(0b00, 0b10)) == 4


def test_duality_exhaustive_small_cubes():
    for n in (2, 3):
        cube = AugmentedCube(n)
        for u, v in itertools.combinations(range(1 << n), 2):
            cut = min_vertex_cut(cube, u, v)
            paths = disjoint_paths(cube, u, v, cut)
            assert len(paths) == cut
            assert_internally_disjoint(cube, u, v, paths)
            with pytest.raises(Insufficient) as exc:
                disjoint_paths(cube, u, v, cut + 1)
            assert exc.value.achieved == cut


def test_avoid_sets_are_honoured():
    cube = AugmentedCube(4)
    banned = {0b0011, 0b0100}
    view = RestrictedView(cube, forbidden_vertices=banned)
    for p in disjoint_paths(view, 0b0000, 0b0111, 5):
        assert not (set(p) & banned)
    edge = (0b0000, 0b0111)
    view2 = RestrictedView(cube, forbidden_edges=[edge])
    for p in disjoint_paths(view2, *edge, 5):
        assert (0b0000, 0b0111) not in list(zip(p, p[1:]))


def test_determinism():
    cube = AugmentedCube(4)
    a = disjoint_paths(cube, 0, 15, 7)
    b = disjoint_paths(cube, 0, 15, 7)
    assert a == b
    assert fan(cube, 0, [1, 2, 4, 8]) == fan(cube, 0, [1, 2, 4, 8])


def test_network_cost_follows_the_explored_region():
    # one augmenting path between adjacent vertices of a 65,536-vertex cube
    # reads only the rows its search reaches, not the whole network
    cube = AugmentedCube(16)
    u, v = 0, 1
    assert cube.is_adjacent(u, v)
    net = UnitFlowNet(cube, {u: cube.degree}, {v: cube.degree}, {u, v})
    assert net.max_flow(limit=1) == 1
    assert len(net.cap) < 100


def test_every_interior_of_a_bare_path_is_critical():
    path = AdjListView([(i, i + 1) for i in range(4)], bits=3)
    net = UnitFlowNet(path, {0: 1}, {4: 1}, {0, 4})
    assert net.max_flow() == 1
    assert net.critical() == {1, 2, 3}


def test_critical_vertices_leave_the_net_as_found():
    cube = AugmentedCube(5)
    net = UnitFlowNet(cube, {0: 9}, {21: 5, 26: 4}, {0, 21, 26})
    assert net.max_flow() == 9
    paths = net.unit_paths()
    rows = {u: dict(row) for u, row in net.cap.items()}
    assert net.critical() == set(cube.neighbors(0))
    assert net.unit_paths() == paths
    assert {u: net.cap[u] for u in rows} == rows
    assert net.max_flow() == 0


class UnlistedHalf(PrefixView):
    """A half that may not be listed, and whose rows a search may derive
    only a few thousand times, so a search that floods it fails fast."""

    rows = 0
    limit = 5000

    def vertices(self):
        raise AssertionError("the view was listed")

    def neighbors(self, x):
        self.rows += 1
        assert self.rows <= self.limit, "the search floods the view"
        return super().neighbors(x)


def test_a_far_pair_in_a_huge_half_lists_no_vertex():
    cube = AugmentedCube(40)
    half = UnlistedHalf(cube, (0,), prefix_bits=1)
    u, v = 0, int("110" + "0110" * 9, 2)  # 39 bits, as far as the half goes
    assert v in half and distance(u, v) == 20
    path, = disjoint_paths(half, u, v, 1)
    assert path[0] == u and path[-1] == v
    assert len(set(path)) == len(path)
    assert all(w in half for w in path)
    assert all(half.is_adjacent(a, b) for a, b in zip(path, path[1:]))


def triangle_pairs(trip):
    x, y, z = trip
    return [(x, y), (y, z), (x, z)]


@pytest.mark.parametrize("trip, counts, ticks", [
    ((0, 1, 2), (1, 0, 1), 1),
    # the flow relaxations leave these two to the branch-and-bound
    ((0, 3, 5), (2, 3, 2), 3),
    ((0, 1, 2), (3, 4, 3), 4),
], ids=["unit-pairs", "triangle", "searched"])
def test_packing_in_a_huge_half_lists_no_vertex(trip, counts, ticks):
    half = UnlistedHalf(AugmentedCube(40), (0,), prefix_bits=1)
    budget = Budget(DEFAULT_BUDGET)
    found = pack_segments(half, trip, counts, budget)
    assert found is not None
    interiors = [w for segs in found for seg in segs for w in seg[1:-1]]
    assert len(set(interiors)) == len(interiors)
    assert not set(trip) & set(interiors)
    for (u, v), c, segs in zip(triangle_pairs(trip), counts, found):
        assert len(segs) == c
        for seg in segs:
            assert (seg[0], seg[-1]) == (u, v)
            assert all(half.is_adjacent(a, b) for a, b in zip(seg, seg[1:]))
    assert budget.used == ticks


def test_a_fan_is_not_drawn_to_full_targets():
    # once its near targets are full, a search heads for the others; steered
    # toward the nearest target of all, this fan derives 51,713 rows
    half = AugmentedCube(20).half_view(0)
    rng = random.Random(5)
    x = rng.randrange(2**19)
    targets = set()
    while len(targets) < 37:
        t = rng.randrange(2**19)
        if t != x:
            targets.add(t)
    net = UnitFlowNet(half, {x: 37}, dict.fromkeys(targets, 1), {x, *targets})
    assert net.max_flow(limit=37) == 37
    assert len(net.cap) <= 5_000


def test_a_double_role_packing_in_a_huge_half_stays_local():
    # three far terminals joined pairwise: each relaxation gives one
    # terminal both roles, and its flows must still head for a sink that
    # takes flow; the first relaxation's flow classifies
    half = UnlistedHalf(AugmentedCube(40), (0,), prefix_bits=1)
    half.limit = 20_000
    a, b = int("110" + "0110" * 9, 2), int("011" + "1010" * 9, 2)
    budget = Budget(DEFAULT_BUDGET)
    found = pack_segments(half, (0, a, b), (1, 1, 1), budget)
    assert found is not None
    interiors = [w for segs in found for seg in segs for w in seg[1:-1]]
    assert len(set(interiors)) == len(interiors)
    assert not {0, a, b} & set(interiors)
    for (u, v), segs in zip(triangle_pairs((0, a, b)), found):
        assert [(seg[0], seg[-1]) for seg in segs] == [(u, v)]
        for seg in segs:
            assert all(half.is_adjacent(x, y) for x, y in zip(seg, seg[1:]))
    assert budget.used == 1


def test_a_far_search_reads_under_one_percent_of_the_rows():
    half = AugmentedCube(16).half_view(0)
    u, v = 0, int("110" + "0110" * 3, 2)
    assert distance(u, v) == 8  # the diameter of the 15-dimensional half
    net = UnitFlowNet(half, {u: 1}, {v: 1}, {u, v})
    assert net.max_flow(limit=1) == 1
    assert len(net.cap) < half.vertex_count // 100


# -- flow values against a breadth-first Edmonds-Karp reference ----------


def reference_cut(view, u, v):
    """Maximum internally disjoint u-v path count by Edmonds-Karp on an
    explicit split-vertex network (every vertex but u and v has capacity 1)."""
    cap = {}

    def arc(a, b):
        cap.setdefault(a, {})[b] = 1
        cap.setdefault(b, {}).setdefault(a, 0)

    for x in view.vertices():
        if x not in (u, v):
            arc((x, "in"), (x, "out"))
        for y in view.neighbors(x):
            arc((x, "out"), (y, "in"))
    source, sink = (u, "out"), (v, "in")
    paths = 0
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            a = queue.popleft()
            for b, c in cap[a].items():
                if c > 0 and b not in parent:
                    parent[b] = a
                    queue.append(b)
        if sink not in parent:
            return paths
        b = sink
        while parent[b] is not None:
            a = parent[b]
            cap[a][b] -= 1
            cap[b][a] += 1
            b = a
        paths += 1


def reference_connectivity(view):
    verts = list(view.vertices())
    best = min(len(view.neighbors(x)) for x in verts)
    for u, v in itertools.combinations(verts, 2):
        if not view.is_adjacent(u, v):
            best = min(best, reference_cut(view, u, v))
    return best


def random_graph(seed, k=11, p=0.35):
    rng = random.Random(seed)
    edges = [(i, j) for i, j in itertools.combinations(range(k), 2)
             if rng.random() < p]
    return AdjListView(edges, bits=4, vertices=range(k))


GRAPHS = {
    "AQ4": lambda: AugmentedCube(4),
    "AQ5": lambda: AugmentedCube(5),
    "AQ6": lambda: AugmentedCube(6),
    "AQ7": lambda: AugmentedCube(7),
    "half": lambda: AugmentedCube(6).half_view(1),
    "diamond": lambda: AugmentedCube(5).diamond_view(0b00, 0b11),
    "restricted": lambda: RestrictedView(AugmentedCube(5),
                                         forbidden_vertices={3, 9, 20},
                                         forbidden_edges=[(0, 31), (4, 5)]),
    "adjlist": lambda: random_graph(7),
}


@pytest.mark.parametrize("name", GRAPHS)
def test_cut_values_match_the_reference(name):
    view = GRAPHS[name]()
    rng = random.Random(f"cut/{name}")
    verts = list(view.vertices())
    for _ in range(12):
        u, v = rng.sample(verts, 2)
        assert min_vertex_cut(view, u, v) == reference_cut(view, u, v)


@pytest.mark.parametrize("name", ["AQ4", "AQ5", "half", "diamond",
                                  "restricted", "adjlist"])
def test_connectivity_matches_the_reference(name):
    view = GRAPHS[name]()
    assert connectivity(view) == reference_connectivity(view)


def breadth_first_search(self, parent):
    """The search contract of ``UnitFlowNet`` met by plain breadth-first
    search, so every augmenting path is a shortest one (Edmonds-Karp)."""
    parent[-1] = -1
    queue = deque([-1])
    while queue and -2 not in parent:
        u = queue.popleft()
        row = self.cap.get(u)
        if row is None:
            row = self._row(u)
        for v, c in row.items():
            if c > 0 and v not in parent:
                parent[v] = u
                queue.append(v)
    return parent


@pytest.mark.parametrize("name", GRAPHS)
def test_packing_verdicts_match_breadth_first_augmentation(name, monkeypatch):
    # demands that use every edge at x and all they can at y or z, so
    # some packings exist and some are refuted
    view = GRAPHS[name]()
    rng = random.Random(f"pack/{name}")
    verts = list(view.vertices())
    cases = []
    while len(cases) < 10:
        x, y, z = rng.sample(verts, 3)
        dx, dy, dz = (len(view.neighbors(t)) for t in (x, y, z))
        a = rng.randint(0, dx)
        c = min(dy - a, dz - (dx - a))
        if c >= 0:
            cases.append(((x, y, z), (a, c, dx - a)))
    got = [pack_segments(view, *case) for case in cases]
    monkeypatch.setattr(UnitFlowNet, "_search", breadth_first_search)
    want = [pack_segments(view, *case) for case in cases]
    assert [g is None for g in got] == [w is None for w in want]


@pytest.mark.parametrize("name", GRAPHS)
def test_fans_match_breadth_first_augmentation(name, monkeypatch):
    # fans up to past the source's degree, so some fall short
    view = GRAPHS[name]()
    rng = random.Random(f"fan/{name}")
    verts = list(view.vertices())
    cases = []
    for _ in range(12):
        x = rng.choice(verts)
        k = rng.randint(2, min(len(verts) - 1, len(view.neighbors(x)) + 2))
        cases.append((x, rng.sample([v for v in verts if v != x], k)))

    def outcome(x, targets):
        try:
            return True, len(fan(view, x, targets))
        except Insufficient as exc:
            return False, exc.achieved

    got = [outcome(x, s) for x, s in cases]
    monkeypatch.setattr(UnitFlowNet, "_search", breadth_first_search)
    assert got == [outcome(x, s) for x, s in cases]
    assert {ok for ok, _ in got} == {True, False}


# -- sink distances in closed form, and the flow decomposition ----------


@pytest.fixture
def cube_distance_calls(monkeypatch):
    """The number of calls to the reference loop ``cube.distance``."""
    calls = [0]

    def counted(u, v):
        calls[0] += 1
        return distance(u, v)

    monkeypatch.setattr(importlib.import_module("aqpath.cube"), "distance", counted)
    return calls


def test_flows_on_a_half_count_distances_in_closed_form(cube_distance_calls):
    half = AugmentedCube(10).half_view(0)
    far = int("110011001", 2)
    assert len(disjoint_paths(half, 0, far, 9)) == 9
    assert len(fan(half, 0, [far, 0b101010101, 0b011110000, 0b111111111])) == 4
    assert cube_distance_calls[0] == 0
    # and so does a wide one: neither calls the loop
    wide = UnlistedHalf(AugmentedCube(40), (0,), prefix_bits=1)
    disjoint_paths(wide, 0, far, 1)
    fan(wide, 0, [far, 0b1011 << 20, 0b11 << 30, (1 << 38) - 1])
    assert cube_distance_calls[0] == 0


@pytest.mark.parametrize("make, source, sinks, misses", [
    (lambda: UnlistedHalf(AugmentedCube(40), (0,), prefix_bits=1),
     0, (0b110011, 0b1011 << 20, 0b11 << 30), 0),
    (lambda: random_graph(7), 0, (5, 9), 1),
    (lambda: RestrictedView(AugmentedCube(10).half_view(1),
                            forbidden_vertices={513, 600, 700},
                            forbidden_edges=[(512, 1023)]),
     512, (0b1110011001, 0b1001100110, 0b1111111111), 1),
    # the 17 targets of a cross-half fan at n = 10
    (lambda: AugmentedCube(10).half_view(1),
     0b1011001110, tuple(random.Random(17).sample(range(512, 1024), 17)), 1),
], ids=["wide-half", "adjlist", "restricted", "fan-17"])
def test_heuristic_values_are_the_nearest_sink_distance(make, source, sinks, misses):
    # one unit at a time: each search is steered by the distance to the
    # net's aim, the first sink in the sink order that still takes flow; a
    # search aimed at it that ends at another sink moves it behind the
    # others, and critical() aims at the sink of each path it cancels and
    # then back (``misses`` searches end at a sink they were not aimed at)
    view = make()
    assert source not in sinks
    net = UnitFlowNet(view, {source: len(sinks)}, dict.fromkeys(sinks, 1),
                      {source, *sinks})

    def takes_flow(t):
        return net.cap.get(2 * t, {-2: 1})[-2] > 0

    def aimed(h, t):
        for x, d in h.items():
            assert d == (0 if x == -1 or isinstance(view, AdjListView)
                         else distance(x, t))

    seen = {}
    order = list(sinks)  # the sinks that take flow, the aim first
    missed = 0
    for unit in range(len(sinks)):
        t, h = net.aim, net.h
        assert t == order[0] and takes_flow(t)
        assert [s for s in sinks if takes_flow(s)] == sorted(order, key=sinks.index)
        aimed(h, t)
        if unit:
            net.critical()
            assert net.aim == t and net.h is h
        assert net.max_flow(limit=1) == 1
        aimed(h, t)  # the entries this unit's search filled
        seen.update(h)
        ended, = (s for s in order if not takes_flow(s))
        if ended != t:
            missed += 1
            order.append(order.pop(0))
        order.remove(ended)
    assert net.aim is None
    assert net.max_flow() == 0
    assert len(seen) > 10
    if isinstance(view, AdjListView):
        assert set(seen.values()) == {0}
    assert missed == misses


@pytest.mark.parametrize("make", [
    lambda: AugmentedCube(8),
    lambda: AugmentedCube(8).half_view(1),
    lambda: RestrictedView(AugmentedCube(8), forbidden_vertices={3, 77, 200},
                           forbidden_edges=[(0, 1), (8, 9)]),
    lambda: random_graph(7),
], ids=["AQ8", "half", "restricted", "adjlist"])
def test_single_sink_distances_are_the_view_distance(make):
    view = make()
    verts = list(view.vertices())
    for v in verts[::37]:
        h, dist = sink_distances(view, v)
        assert sink_distances(view, v)[0] is h  # one table per view and sink
        for x in verts:
            want = 0 if isinstance(view, AdjListView) else distance(x, v)
            assert dist(x) == h.get(x, want) == want


@pytest.mark.parametrize("make, u, v, others", [
    (lambda: AugmentedCube(10).half_view(0), 0, 0b110011001, ()),
    (lambda: AugmentedCube(40).half_view(0), 0, 0b110011001, ()),
    (lambda: random_graph(7), 0, 9, ()),
    (lambda: RestrictedView(AugmentedCube(40).half_view(0), forbidden_vertices={1}),
     0, 0b110011001, ()),
    # the tables of the targets a fan aims at go with the view too
    (lambda: AugmentedCube(10).half_view(0), 0, 0b110011001,
     (0b101010101, 0b011110000, 0b111111111, 0b100000011)),
    (lambda: AugmentedCube(40).half_view(0), 0, 0b110011001,
     (0b1011 << 20, 0b11 << 30, (1 << 38) - 1)),
], ids=["half", "wide-half", "adjlist", "restricted-wide-half", "fan-half",
        "fan-wide-half"])
def test_the_shared_distances_do_not_keep_a_view_alive(make, u, v, others):
    view = make()
    assert disjoint_paths(view, u, v, 1)
    w = next(t for t in view.neighbors(u) if t != v)
    assert pack_segments(view, (u, v, w), (1, 0, 0)) is not None
    if others:
        assert len(fan(view, u, [v, *others])) == 1 + len(others)
    gone = weakref.ref(view)
    del view
    gc.collect()
    assert gone() is None


def test_a_fan_caches_one_table_per_aimed_target():
    # each search reads the table of the one target it aims at; the view
    # caches a table per target aimed at, none for a set of targets, and
    # none is derived from another
    view = AugmentedCube(10).half_view(1)
    targets = random.Random(17).sample(range(512, 1024), 17)
    assert len(fan(view, 0b1011001110, targets)) == 17
    cached = flow._TO_SINK[view]
    assert set(cached) <= set(targets)
    assert len({id(h) for h, _ in cached.values()}) == len(cached)
    for t, (h, dist) in cached.items():
        assert h[-1] == 0
        assert all(d == dist(x) == distance(x, t) for x, d in h.items() if x != -1)


def decomposition_by_node_encoding(net):
    """``UnitFlowNet.unit_paths`` as it was before it knew where a node's
    arcs go: every entry of a row is tested for being an arc."""

    def is_arc(u, v):
        if u == -1 or v == -2:
            return True
        if u == -2 or v == -1:
            return False
        return (u % 2 == 0) == (u // 2 == v // 2)

    cap = net.cap
    left = {}

    def flow_out(u):
        row = left.get(u)
        if row is None:
            # a missing reverse entry means no flow on the arc
            row = left[u] = {v: f for v in cap.get(u, ())
                             if is_arc(u, v) and v in cap and (f := cap[v].get(u, 0)) > 0}
        return row

    out = []
    while flow_out(-1):
        verts, cur = [], -1
        while cur != -2:
            row = flow_out(cur)
            nxt = min(row)
            row[nxt] -= 1
            if not row[nxt]:
                del row[nxt]
            if nxt % 2:
                verts.append(nxt // 2)
            elif nxt == -2:
                verts.append(cur // 2)
            cur = nxt
        out.append(tuple(verts))
    return out


@pytest.mark.parametrize("name", GRAPHS)
def test_unit_paths_match_the_decomposition_by_node_encoding(name):
    view = GRAPHS[name]()
    rng = random.Random(f"decompose/{name}")
    verts = list(view.vertices())
    units = 0
    for _ in range(12):
        a, b, c, d = rng.sample(verts, 4)
        # b is both a source and a sink
        sources = {a: rng.randint(1, 4), b: rng.randint(1, 3)}
        sinks = {b: rng.randint(1, 3), c: rng.randint(1, 3), d: rng.randint(0, 2)}
        net = UnitFlowNet(view, sources, sinks, {a, b, c, d})
        assert net.unit_paths() == []
        units += net.max_flow(limit=rng.choice((None, 1, 2, 3)))
        want = decomposition_by_node_encoding(net)
        assert net.unit_paths() == want
        assert len(want) == sum(c for c in (net.cap.get(-2) or {}).values())
    assert units > 12


def test_unit_paths_survive_the_critical_searches():
    # critical() cancels and pushes back each unit; the decomposition read
    # afterwards is the one read before, and the reference's, in sorted order
    rerouted = 0
    for name, make in GRAPHS.items():
        view = make()
        rng = random.Random(f"critical/{name}")
        verts = list(view.vertices())
        for _ in range(12):
            a, b, c, d = rng.sample(verts, 4)
            # b is both a source and a sink
            sources = {a: rng.randint(2, 7), b: rng.randint(1, 4)}
            sinks = {b: rng.randint(1, 4), c: rng.randint(2, 7), d: rng.randint(0, 3)}
            net = UnitFlowNet(view, sources, sinks, {a, b, c, d})
            net.max_flow()
            before = net.unit_paths()
            assert before == sorted(before) == decomposition_by_node_encoding(net)
            net.critical()
            assert net.unit_paths() == before == decomposition_by_node_encoding(net)
            # a reverse entry that a later augmenting path emptied again
            rerouted += any(not f and v % 2 and v != u + 1
                            for u, row in net.cap.items() if u >= 0 and not u % 2
                            for v, f in row.items())
    assert rerouted > 10


@pytest.mark.parametrize("kind", ["bundle", "fan"])
def test_only_out_node_rows_query_the_view(kind):
    half = UnlistedHalf(AugmentedCube(10), (0,), prefix_bits=1)
    x = 0b101100101
    if kind == "bundle":
        net = UnitFlowNet(half, {0: 9}, {x: 9}, {0, x})
        assert net.max_flow() == 9
    else:
        targets = [x, 0b11110000, 0b100000011, 0b10101010, 0b111111111]
        net = UnitFlowNet(half, {0: 5}, dict.fromkeys(targets, 1), {0, *targets})
        assert net.max_flow() == 5
    in_rows = sum(1 for u in net.cap if u >= 0 and not u % 2)
    out_rows = sum(1 for u in net.cap if u >= 0 and u % 2)
    assert in_rows > out_rows > 0
    assert half.rows == out_rows


# -- amending a saturated net: more vertices blocked, more demand --------


def resaturated(net, blocked=(), demand=None):
    """What the packing search does with a saturated relaxation: the
    amended copy, pushed by the units it is short, or None when they do
    not fit."""
    child, short = net.amended(blocked, demand)
    if short and child.max_flow(limit=short) < short:
        return None
    return child


def rows_of(net):
    return {u: dict(row) for u, row in net.cap.items()}


@pytest.mark.parametrize("n", [4, 5])
def test_an_amended_leaf_matches_a_fresh_one(n):
    # seeded single-source leaves, each committing up to three interiors in
    # turn as a branch does; the repair decides and spares exactly what a
    # fresh flow over the grown blocked set does, critical vertices known
    # from the parent included, and so does the joint relaxation pushed
    # onto it; neither touches the net it came from
    cube = AugmentedCube(n)
    rng = random.Random(f"repair/{n}")
    seen = dict.fromkeys(("failed", "lost", "kept", "joint", "no joint"), 0)
    for _ in range(60):
        s, x, y = rng.sample(range(1 << n), 3)
        total = cube.degree - rng.randint(0, 2)
        cut = rng.randint(1, total - 1)
        leaf = [(s, x, cut), (s, y, total - cut)]
        blocked = {s, x, y}
        net = _saturate(cube, leaf, blocked)
        known = frozenset()
        while net is not None and len(blocked) < 3 + 4:
            crit = net.critical(known)
            assert crit == net.critical()
            # one or two free vertices, most of them on the flow
            on_flow = sorted({w for p in net.unit_paths() for w in p[1:-1]})
            free = [w for w in range(1 << n) if w not in blocked]
            pool = on_flow if rng.random() < 0.8 else free
            interior = rng.sample(pool, min(len(pool), rng.choice((1, 2))))
            rows, paths = rows_of(net), net.unit_paths()
            child = resaturated(net, interior)
            blocked |= set(interior)
            fresh = _saturate(cube, leaf, blocked)
            assert (child is None) == (fresh is None), (leaf, blocked)
            if child is None:
                seen["failed"] += 1
            else:
                got = child.unit_paths()
                assert len(got) == total
                assert all(not blocked & set(p[1:-1]) for p in got)
                assert child.critical(crit) == child.critical() == fresh.critical()
                seen["lost" if set(interior) & set(on_flow) else "kept"] += 1
                # the joint relaxation: k segments x-y besides the leaf
                k = rng.randint(1, 3)
                child_rows = rows_of(child)
                joint = resaturated(child, demand=(x, y, k))
                ref = _saturate(cube, [(x, y, k), *leaf], blocked)
                assert (joint is None) == (ref is None), (leaf, blocked, k)
                seen["no joint" if joint is None else "joint"] += 1
                if joint is not None:
                    assert len(joint.unit_paths()) == total + k
                assert rows_of(child) == child_rows
            assert rows_of(net) == rows
            assert net.unit_paths() == paths
            net, known = child, crit
    assert min(seen.values()) > 0, seen


def test_more_demand_needs_a_sink_already_there():
    net = _saturate(AugmentedCube(4), [(0, 1, 2)], {0, 1, 2})
    with pytest.raises(ValueError, match="2 is not a sink"):
        net.amended(demand=(1, 2, 1))


def test_blocking_a_vertex_cancels_a_cycle_through_it():
    # 0 -> 2 -> 1 carries the unit; a circulation 3 -> 4 -> 5 -> 3 through
    # vertices the flow may use loses no value when it is cancelled, and
    # the copy keeps no flow through the blocked vertex
    view = AdjListView([(0, 2), (1, 2), (0, 3), (3, 4), (4, 5), (3, 5), (1, 5)],
                       bits=3)
    net = UnitFlowNet(view, {0: 2}, {1: 2}, {0, 1})
    assert net.max_flow(limit=1) == 1
    assert net.unit_paths() == [(0, 2, 1)]
    cycle = [6, 7, 8, 9, 10, 11, 6]  # the split nodes of 3, 4, 5 and back
    for u, v in zip(cycle, cycle[1:]):  # as an augmenting path writes it
        row = net.cap.get(u) or net._row(u)
        row[v] -= 1
        net.cap[v] = net.cap.get(v) or net._row(v)
        net.cap[v][u] = net.cap[v].get(u, 0) + 1
    rows = rows_of(net)
    child, short = net.amended([4])
    assert short == 0
    assert all(not child.cap.get(2 * w + 1, {}).get(2 * w) for w in (3, 4, 5))
    assert child.unit_paths() == [(0, 2, 1)]
    assert child.max_flow() == 1
    assert child.unit_paths() == [(0, 2, 1), (0, 3, 5, 1)]
    assert rows_of(net) == rows
    # the unit path is lost, and no other avoids the blocked vertices
    child, short = net.amended([2, 5])
    assert short == 1
    assert child.max_flow() == 0
    assert child.unit_paths() == []
