import itertools
import random

import pytest

from aqpath import oracle, report
from aqpath.cube import AdjListView, AugmentedCube, automorphisms, map_vertex
from aqpath.oracle import (
    ResourceGuard,
    brute_small,
    common_neighbors,
    cube_upper_bound,
    max_common,
    max_dpaths,
    pi3_exact,
    regular_upper_bound,
    witness_triple,
)
from aqpath.packing import SearchBudgetExceeded
from aqpath.verify import check_family


def ring(k):
    return AdjListView([(i, (i + 1) % k) for i in range(k)], bits=3)


def k4():
    return AdjListView([(i, j) for i in range(4) for j in range(i + 1, 4)], bits=2)


def test_five_cycle_admits_one_path():
    # every interior vertex has degree 2, so a second path cannot exist
    val, fam = max_dpaths(ring(5), (0, 1, 2))
    assert val == 1
    assert brute_small(ring(5), (0, 1, 2)) == 1
    assert check_family(ring(5), (0, 1, 2), fam) is None


def test_complete_four_admits_two():
    g = k4()
    for D in itertools.combinations(range(4), 3):
        val, fam = max_dpaths(g, D)
        assert val == 2
        assert brute_small(g, D) == 2
        assert check_family(g, D, fam) is None


def test_star_admits_none():
    g = AdjListView([(0, 1), (0, 2), (0, 3)], bits=2)
    assert max_dpaths(g, (1, 2, 3)) == (0, [])
    assert brute_small(g, (1, 2, 3)) == 0


def test_witness_families_are_certified():
    cube = AugmentedCube(4)
    w = witness_triple(4)
    val, fam = max_dpaths(cube, w.triple)
    assert val == 4
    assert len(fam) == 4
    assert check_family(cube, w.triple, fam) is None


def test_oracle_agrees_with_brute_on_dimension_3_sample():
    cube = AugmentedCube(3)
    for D in [(0, 1, 2), (0, 3, 5), (1, 4, 6), (2, 5, 7), (0, 6, 7)]:
        assert max_dpaths(cube, D)[0] == brute_small(cube, D)


@pytest.mark.parametrize("D", [(0, 1, 2, 2), (0, 1, 1), (0, 1)])
def test_max_dpaths_needs_three_distinct_terminals(D):
    with pytest.raises(ValueError, match="three distinct"):
        max_dpaths(AugmentedCube(4), D)


@pytest.mark.parametrize("D", [(0, 1, 2, 2), (0, 1, 1), (0, 1)])
def test_brute_small_needs_three_distinct_terminals(D):
    with pytest.raises(ValueError, match="three distinct"):
        brute_small(AugmentedCube(3), D)


def simple_paths_reference(view, u, w, via):
    """All simple u-w paths that visit ``via``."""
    path = [u]
    used = {u}

    def extend():
        cur = path[-1]
        for nxt in view.neighbors(cur):
            if nxt == w:
                if via in used:
                    yield (*path, w)
            elif nxt not in used and nxt != u:
                path.append(nxt)
                used.add(nxt)
                yield from extend()
                path.pop()
                used.discard(nxt)

    if via == w:
        return
    yield from extend()


def brute_reference(view, D):
    """``brute_small`` as it was before it kept only minimal masks: every
    path's (interior, direct-edge) signature, and a clique search over all
    of them."""
    trip = tuple(sorted(D))
    verts = sorted(view.vertices())
    x, y, z = trip
    index = {v: i for i, v in enumerate(verts)}
    direct_pairs = [(x, y), (y, z), (x, z)]

    sigs = set()
    for (u, w, via) in [(x, y, z), (y, z, x), (x, z, y)]:
        for p in simple_paths_reference(view, u, w, via):
            imask = 0
            for v in p:
                if v not in trip:
                    imask |= 1 << index[v]
            edges = {frozenset(e) for e in zip(p, p[1:])}
            dmask = 0
            for bit, pair in enumerate(direct_pairs):
                if frozenset(pair) in edges:
                    dmask |= 1 << bit
            sigs.add((imask, dmask))

    order = sorted(sigs)
    best = 0

    def grow(start, imask, dmask, depth):
        nonlocal best
        best = max(best, depth)
        for idx in range(start, len(order)):
            if depth + (len(order) - idx) <= best:
                break
            si, sd = order[idx]
            if si & imask or sd & dmask:
                continue
            grow(idx + 1, imask | si, dmask | sd, depth + 1)

    grow(0, 0, 0, 0)
    return best


def test_minimal_masks_give_the_full_enumeration_values():
    # the inputs of acceptance criterion 8
    cube3 = AugmentedCube(3)
    cases = [(cube3, D) for D in itertools.combinations(range(8), 3)]
    rng = random.Random(report.CORPUS_SEED)
    for _ in range(200):
        g = report.random_connected_graph(rng)
        cases.append((g, tuple(sorted(rng.sample(list(g.vertices()), 3)))))
    for view, D in cases:
        assert brute_small(view, D) == brute_reference(view, D), D


def test_max_dpaths_rejects_a_negative_budget():
    with pytest.raises(ValueError, match="budget must be >= 0"):
        max_dpaths(AugmentedCube(4), (0, 1, 2), budget=-5)


@pytest.mark.parametrize("budget", [True, 1.5, None], ids=["bool", "fraction", "none"])
def test_max_dpaths_takes_only_an_integer_budget(budget):
    # True would otherwise act as a one-tick budget
    with pytest.raises(ValueError, match="budget must be an integer"):
        max_dpaths(AugmentedCube(4), (0, 1, 2), budget=budget)


def test_max_dpaths_raises_when_the_budget_runs_out():
    # the argmin orbit of pi3(AQ_4) needs a branch-and-bound refutation
    with pytest.raises(SearchBudgetExceeded, match="search budget 100 exhausted"):
        max_dpaths(AugmentedCube(4), (0, 1, 2), budget=100)


def test_the_oracle_packs_the_sorted_triple_with_two_pairs_or_more(monkeypatch):
    # a profile (a, b, c) of total m >= 1 asks for (a + b, b + c, a + c),
    # so only a direct caller can send one pair alone
    calls = []
    pack = oracle.pack_segments

    def recorded(view, trip, counts, budget=None):
        calls.append((trip, counts))
        return pack(view, trip, counts, budget)

    monkeypatch.setattr(oracle, "pack_segments", recorded)
    cube = AugmentedCube(4)
    for D in itertools.combinations(range(16), 3):
        calls.clear()
        max_dpaths(cube, D[::-1])
        assert calls, D
        for trip, counts in calls:
            assert trip == D and sum(c > 0 for c in counts) >= 2, (D, counts)


def test_brute_size_guard():
    cube = AugmentedCube(4)
    with pytest.raises(ResourceGuard):
        brute_small(cube, (0, 1, 2))


def test_counting_bounds():
    assert regular_upper_bound(7, 4) == 4
    assert cube_upper_bound(6) == 7
    assert cube_upper_bound(7) == 8
    with pytest.raises(ValueError):
        regular_upper_bound(3, 5)
    with pytest.raises(ValueError):
        cube_upper_bound(3)


def test_common_neighbors_example():
    cube = AugmentedCube(4)
    got = common_neighbors(cube, [0b0000, 0b0111])
    assert got == {0b0011, 0b0100, 0b1000, 0b1111}


def test_max_common_values():
    for n in (4, 5):
        cube = AugmentedCube(n)
        assert max_common(cube, 2)[0] == 4
        assert max_common(cube, 3)[0] == 4
    assert max_common(AugmentedCube(3), 2)[0] <= 4


def test_max_common_needs_as_many_vertices_as_its_arity():
    # AQ_1 has one pair and no triple
    assert max_common(AugmentedCube(1), 2) == (0, (0, 1))
    with pytest.raises(ValueError, match="no 3-vertex groups to scan"):
        max_common(AugmentedCube(1), 3)


def test_witness_triple_structure():
    for n in (4, 5, 6):
        w = witness_triple(n)
        cube = AugmentedCube(n)
        assert common_neighbors(cube, w.triple) == set(w.shared)
        assert len(w.certificate) == 12
        for u, v, label in w.certificate:
            assert cube.is_adjacent(u, v)
            assert cube.mask_between(u, v).label == label


def test_printed_variant_fails_adjacency():
    w = witness_triple(4)
    cube = AugmentedCube(4)
    x, y, _ = w.triple
    assert len(common_neighbors(cube, (x, y, w.uncorrected_third))) < 4


@pytest.mark.parametrize("args", [("exhaustive",), ("sampled",), (1000,)],
                         ids=["exhaustive", "sampled", "budget"])
def test_pi3_takes_no_positional_mode_or_budget(args):
    # the budget is keyword-only, so an old positional mode never reaches it
    with pytest.raises(TypeError):
        pi3_exact(AugmentedCube(4), *args)


@pytest.mark.parametrize("kwargs", [
    {"seed": 3, "count": 5}, {"seed": 3}, {"count": 5},
], ids=["seed-and-count", "seed", "count"])
def test_pi3_exhaustive_takes_no_seed_or_count(kwargs):
    # every sweep is exhaustive; nothing is sampled
    with pytest.raises(TypeError):
        pi3_exact(AugmentedCube(4), **kwargs)


def test_pi3_exhaustive_guard():
    big = AugmentedCube(7)
    with pytest.raises(ResourceGuard):
        pi3_exact(big)


class HugeCube(AugmentedCube):
    def vertices(self):
        raise AssertionError("vertex list built before the size guard")


def test_oracle_size_guard_comes_before_the_vertex_list():
    with pytest.raises(ResourceGuard, match="limited to 65536 vertices"):
        pi3_exact(HugeCube(40))
    with pytest.raises(ResourceGuard, match="limited to 65536 vertices"):
        max_dpaths(HugeCube(40), (0, 1, 2))


def test_brute_and_scan_guards_come_before_the_vertex_list():
    with pytest.raises(ResourceGuard, match="limited to 14 vertices"):
        brute_small(HugeCube(40), (0, 1, 2))
    for arity in (2, 3):
        with pytest.raises(ResourceGuard, match="limited to 64 vertices"):
            max_common(HugeCube(40), arity)
    with pytest.raises(ResourceGuard, match="limited to 64 vertices"):
        max_common(AugmentedCube(7), 2)


def test_pi3_reads_text_graphs(tmp_path):
    from aqpath.textio import parse_graph, render_graph

    cube = AugmentedCube(3)
    g = parse_graph(render_graph(cube))
    val, trip = pi3_exact(g)
    ref_val, ref_trip = pi3_exact(cube)
    assert val == ref_val

    # pinning is only used on native cubes; the parsed copy sweeps everything
    assert brute_small(g, ref_trip) == ref_val


def test_oracle_family_matches_value_and_referee():
    cube = AugmentedCube(4)
    for D in [(0, 5, 10), (1, 6, 11), (2, 7, 12)]:
        val, fam = max_dpaths(cube, D)
        assert len(fam) == val
        assert check_family(cube, D, fam) is None


# max_dpaths of the pinned triples (0, b, c), 0 < b < c < 16, of AQ_4 in
# itertools.combinations order, as computed with breadth-first augmentation
PINNED_AQ4 = ("4455445555555545454555555555445444444445555555555544555555554555"
              "55555444444445545554455545554554555554455")


def test_pinned_dimension_four_values_are_unchanged():
    cube = AugmentedCube(4)
    pairs = itertools.combinations(range(1, 16), 2)
    got = "".join(str(max_dpaths(cube, (0, b, c))[0]) for b, c in pairs)
    assert got == PINNED_AQ4
    # the orbit sweep finds the pinned sweep's value and argmin
    pinned = [(0, b, c) for b, c in itertools.combinations(range(1, 16), 2)]
    assert pi3_exact(cube) == min(zip(map(int, PINNED_AQ4), pinned))


def test_a_swept_view_answers_as_a_fresh_one():
    # the sink-distance tables are shared by every call over one view, so
    # the 105 pinned triples after a full sweep of the same view must get
    # the value and witness a fresh view gives
    shared = AugmentedCube(4)
    pinned = [(0, b, c) for b, c in itertools.combinations(range(1, 16), 2)]
    swept = [max_dpaths(shared, D) for D in pinned]
    fresh = [max_dpaths(AugmentedCube(4), D) for D in pinned]
    assert swept == fresh
    assert [max_dpaths(shared, D) for D in pinned] == fresh


@pytest.mark.parametrize("n", [2, 3, 5])
def test_orbit_sweep_matches_the_pinned_sweep(n):
    cube = AugmentedCube(n)
    pinned = min((max_dpaths(cube, (0, b, c))[0], (0, b, c))
                 for b, c in itertools.combinations(range(1, 1 << n), 2))
    assert pi3_exact(cube) == pinned


def test_dimension_six_value_is_exhaustive():
    assert pi3_exact(AugmentedCube(6)) == (7, (0, 3, 5))


def test_max_dpaths_is_invariant_under_automorphisms():
    cube = AugmentedCube(5)
    maps = automorphisms(5)
    rng = random.Random(5)
    for _ in range(25):
        D = tuple(rng.sample(range(32), 3))
        g, t = rng.choice(maps), rng.randrange(32)

        def h(v):
            return map_vertex(g, v) ^ t

        val, fam = max_dpaths(cube, D)
        moved = tuple(map(h, D))
        assert max_dpaths(cube, moved)[0] == val
        assert check_family(cube, moved, [tuple(map(h, p)) for p in fam]) is None
