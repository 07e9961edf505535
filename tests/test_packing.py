import random

import pytest

from aqpath.cube import AdjListView, AugmentedCube, PrefixView, RestrictedView
from aqpath.flow import UnitFlowNet
from aqpath.packing import _leaf_spare_vertices, _saturate, pack_segments
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


def test_one_demand_uses_the_direct_edge_once():
    segs, = pack_segments(AugmentedCube(3), [(0, 1, 2)])
    assert len(segs) == 2 and segs.count((0, 1)) == 1


def spare_by_rebuild(view, leaf, free):
    # the reference: one relaxation per free vertex, left out in turn
    return {w for w in free if _saturate(view, leaf, free - {w}) is not None}


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
        free = set(verts) - {s, *sinks}
        assert _leaf_spare_vertices(view, leaf, free) == spare_by_rebuild(view, leaf, free)


def test_an_infeasible_leaf_spares_nothing():
    ring = AdjListView([(i, (i + 1) % 6) for i in range(6)], bits=3)
    leaf, free = [(0, 3, 3)], {1, 2, 4, 5}
    assert _leaf_spare_vertices(ring, leaf, free) == set()
    assert spare_by_rebuild(ring, leaf, free) == set()


def test_spare_vertices_with_a_direct_terminal_edge():
    cube = AugmentedCube(4)
    leaf = [(0, 1, 3), (0, 6, 2)]
    free = set(cube.vertices()) - {0, 1, 6}
    assert (0, 1) in _saturate(cube, leaf, free).unit_paths()
    assert _leaf_spare_vertices(cube, leaf, free) == spare_by_rebuild(cube, leaf, free)


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
    free = set(cube.vertices()) - {0, 21, 26}
    spare = _leaf_spare_vertices(cube, leaf, free)
    assert calls == [9]
    assert free - spare == set(cube.neighbors(0))
