"""The oracle's length cap, presolve and repaired relaxations change work,
never answers.

One reference mode caps no segment's length: ``_enum_segments`` is always
told that one segment is owed.  It must return the same values, witnesses
and packings as the search, which may only use fewer budget ticks.  The next
saturates every leaf relaxation of the search afresh and searches for
every critical vertex, where the search repairs its parent's leaf flow and
inherits its parent's critical vertices; it must match the search tick for
tick.  The last runs no presolve, so every triangle reaches the
relaxations and the branch-and-bound: it must give the same values and
verdicts, never with fewer ticks.  The presolve decides every AQ_4
refutation, so the savings the other modes pin are shown with it off.
"""

import itertools
import random
from collections import Counter

import pytest

from aqpath import oracle, packing, report
from aqpath.cube import (AugmentedCube, RestrictedView, automorphisms, map_vertex,
                         orbit_representatives)
from aqpath.flow import UnitFlowNet
from aqpath.oracle import max_dpaths
from aqpath.packing import Budget, SearchBudgetExceeded, pack_segments


# the least triple of the orbit where pi3(AQ_4) = 4 is attained
ARGMIN = (0, 1, 2)


def without_length_cap(fn, *args):
    enum = packing._enum_segments

    def uncapped(view, u, v, blocked, floor, owed):
        return enum(view, u, v, blocked, floor, 1)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packing, "_enum_segments", uncapped)
        return fn(*args)


def without_presolve(fn, *args):
    def nothing(view, trip, counts):
        return list(counts), []

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packing, "_presolve", nothing)
        return fn(*args)


def with_fresh_relaxations(fn, *args):
    critical = UnitFlowNet.critical

    def fresh(search, net, interior):
        return packing._saturate(search.view, search.leaf,
                                 search.fixed | search.committed())

    def searched(net, known=frozenset()):
        return critical(net)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packing._PackSearch, "repaired", fresh)
        mp.setattr(UnitFlowNet, "critical", searched)
        return fn(*args)


def counted_work(mp):
    """Count, from here on, the budget ticks, the ``pack_segments`` calls
    of ``max_dpaths`` and the max-flows."""
    work = {"ticks": 0, "packings": 0, "max_flows": 0}

    def counting(owner, name, key):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            work[key] += 1
            return fn(*args, **kwargs)
        mp.setattr(owner, name, counted)

    counting(Budget, "tick", "ticks")
    counting(oracle, "pack_segments", "packings")
    counting(UnitFlowNet, "max_flow", "max_flows")
    return work


def test_every_triple_of_the_argmin_orbit_takes_the_same_ticks():
    # the presolve refutes all three five-path profiles at their root
    # ticks, and the first four-path profile packs at its own, however the
    # triple is labelled
    cube = AugmentedCube(4)
    orbit = {tuple(sorted(map_vertex(g, v) ^ t for v in ARGMIN))
             for g in automorphisms(4) for t in range(16)}
    assert len(orbit) == 32
    assert {D: ticked(max_dpaths, cube, D)[1] for D in orbit} == dict.fromkeys(orbit, 4)


def seeded_restrictions(rng):
    """Fifteen seeded restrictions each of AQ_4 and AQ_5, as
    ``lemma_views`` in the packing tests draws them."""
    for n in (4, 5):
        cube = AugmentedCube(n)
        verts = range(1 << n)
        for _ in range(15):
            yield RestrictedView(
                cube, forbidden_vertices=rng.sample(verts, rng.randint(1, 4)),
                forbidden_edges=[(v, rng.choice(cube.neighbors(v)))
                                 for v in rng.sample(verts, 4)])


def near_ceiling(view, rng):
    """A random triple of the view and the pair counts of a split profile
    near the counting ceiling of its least degree, as ``seeded_triangles``
    draws one."""
    trip = tuple(rng.sample(sorted(view.vertices()), 3))
    deg = min(len(view.neighbors(t)) for t in trip)
    m = 3 * deg // 4 - rng.randint(0, 1)
    cap = deg - m
    a, b, c = rng.choice([(a, b, m - a - b) for a in range(cap + 1)
                          for b in range(cap + 1) if 0 <= m - a - b <= cap])
    return trip, (a + b, b + c, a + c)


def test_every_seeded_relaxation_decides_as_an_unseeded_flow(monkeypatch):
    # ``_saturate`` seeds each demand's direct edge and wedges before it
    # searches: on the oracle traffic of every AQ_4 triple, acceptance
    # criterion 8's inputs and the seeded restrictions, each verdict is
    # that of a net pushed from the source alone, and each saturated flow
    # splits into interior-disjoint paths of the view that fill every
    # source and sink
    saturate, seed = packing._saturate, UnitFlowNet.seed
    seen = Counter()

    def counted(net, path):
        seen["seeds"] += 1
        seed(net, path)

    def checked(view, demands, blocked):
        net = saturate(view, demands, blocked)
        sources, sinks = Counter(), Counter()
        for u, v, c in demands:
            sources[u] += c
            sinks[v] += c
        total = sum(sources.values())
        fresh = UnitFlowNet(view, +sources, +sinks, blocked)
        assert (net is not None) == (fresh.max_flow(limit=total) == total), demands
        seen[net is not None] += 1
        if net is not None:
            paths = net.unit_paths()
            assert Counter(p[0] for p in paths) == +sources
            assert Counter(p[-1] for p in paths) == +sinks
            interiors = [w for p in paths for w in p[1:-1]]
            assert len(set(interiors)) == len(interiors)
            assert not set(interiors) & set(blocked)
            assert all(view.is_adjacent(a, b) for p in paths for a, b in zip(p, p[1:]))
        return net

    monkeypatch.setattr(UnitFlowNet, "seed", counted)
    monkeypatch.setattr(packing, "_saturate", checked)
    cube = AugmentedCube(4)
    for D in itertools.combinations(range(16), 3):
        max_dpaths(cube, D)
    for D in itertools.combinations(range(8), 3):
        max_dpaths(AugmentedCube(3), D)
    rng = random.Random(report.CORPUS_SEED)
    for _ in range(report.CORPUS_GRAPHS):
        g = report.random_connected_graph(rng)
        max_dpaths(g, tuple(sorted(rng.sample(list(g.vertices()), 3))))
    rng = random.Random(51)
    for view in seeded_restrictions(rng):
        for _ in range(8):
            outcome(view, *near_ceiling(view, rng), 2000)
    assert min(seen.values()) > 100, seen


def test_the_presolve_keeps_every_value_and_verdict_with_no_more_ticks():
    cube = AugmentedCube(4)
    for D in itertools.combinations(range(16), 3):
        (value, _), used = ticked(max_dpaths, cube, D)
        (ref, _), ref_used = without_presolve(ticked, max_dpaths, cube, D)
        assert value == ref and used <= ref_used, D
    rng = random.Random(51)
    seen, exhausted = set(), 0
    for view in seeded_restrictions(rng):
        for _ in range(8):
            trip, counts = near_ceiling(view, rng)
            found, used = outcome(view, trip, counts, 2000)
            ref, ref_used = without_presolve(outcome, view, trip, counts, 2000)
            assert used <= ref_used, (trip, counts)
            if ref != "budget":
                assert (found is None) == (ref is None), (trip, counts)
            seen.add((found is None, used < ref_used))
            exhausted += found is None and ref == "budget"
    # packed and refuted calls, some of each with fewer ticks; one call the
    # presolve refutes exhausts the budget with it off
    assert seen == {(False, False), (False, True), (True, False), (True, True)}
    assert exhausted == 1


def presolve_by_pair_sets(view, trip, counts):
    """The counting presolve as it read each pair as a frozenset of its
    terminals, kept as the reference for ``packing._presolve``."""
    x, y, z = trip
    pairs = [frozenset(p) for p in ((x, y), (y, z), (x, z))]
    owed = dict(zip(pairs, counts))
    forced = []
    direct = set()
    blocked = set(trip)
    near = {t: view.neighbors(t) for t in trip}
    ends_at = {t: [frozenset((t, s)) for s in near[t] if s in near] for t in trip}
    at = {t: [p for p in pairs if t in p] for t in trip}
    while True:
        before = len(forced) + len(direct)
        claims = {}  # free vertex -> full terminals
        for t in trip:
            free = [w for w in near[t] if w not in blocked]
            ends = [p for p in ends_at[t] if owed[p] and p not in direct]
            demand = sum(owed[p] for p in at[t])
            if demand > len(free) + len(ends):  # (R1)
                return None
            if demand == len(free) + len(ends):  # (R2): t is full
                for p in ends:
                    owed[p] -= 1
                direct.update(ends)
                for w in free:
                    claims.setdefault(w, []).append(t)
        for w, full in claims.items():
            if len(full) > 1:  # (R2): the wedge through w
                t, s = full[:2]
                p = frozenset((t, s))
                if not owed[p]:
                    return None
                owed[p] -= 1
                forced.append((t, w, s))
                blocked.add(w)
        if len(forced) + len(direct) == before:
            return [owed[p] + (p in direct) for p in pairs], forced


def test_the_presolve_on_pair_indices_matches_the_pair_set_reference(monkeypatch):
    # every profile the oracle asks: all of AQ_4, the orbit representatives
    # of AQ_5 and AQ_6, and seeded triples of the seeded restrictions
    presolve = packing._presolve
    outcomes = []

    def compared(view, trip, counts):
        found = presolve(view, trip, counts)
        assert found == presolve_by_pair_sets(view, trip, counts), (trip, counts)
        outcomes.append(None if found is None else len(found[1]))
        return found

    monkeypatch.setattr(packing, "_presolve", compared)
    work = {}
    for n in (4, 5, 6):
        with pytest.MonkeyPatch.context() as mp:
            work[n] = counted_work(mp)
            for D in (itertools.combinations(range(16), 3) if n == 4
                      else orbit_representatives(n)):
                max_dpaths(AugmentedCube(n), D)
    # the work of the presolve and the seeded relaxations, pinned exactly:
    # a change to how either prunes that changes any of it must say so.  A
    # relaxation whose seeds fill it runs no max-flow.  AQ_5 and AQ_6 take
    # one packing per orbit representative, the value at its ceiling
    assert work == {4: {"ticks": 1_160, "packings": 1_040, "max_flows": 1_214},
                    5: {"ticks": 65, "packings": 38, "max_flows": 107},
                    6: {"ticks": 630, "packings": 142, "max_flows": 1_049}}
    asked = len(outcomes)
    rng = random.Random(53)
    for view in seeded_restrictions(rng):
        verts = sorted(view.vertices())
        for _ in range(8):
            try:
                max_dpaths(view, rng.sample(verts, 3), budget=20_000)
            except SearchBudgetExceeded:
                pass
    # 1,220 profiles of the cubes and 263 of the restrictions: refutations,
    # calls with no wedge, and calls with one to nine wedges
    assert (asked, len(outcomes)) == (1_220, 1_483)
    assert set(outcomes) == {None, *range(10)}


def test_a_map_fixing_the_terminals_keeps_the_committed_wedges():
    # the presolve is equivariant: every map fixing each terminal sends
    # its committed wedges, and with them the search's root blocked set,
    # onto themselves
    rng = random.Random(52)
    checked = 0
    for n in (4, 5, 6):
        cube = AugmentedCube(n)
        deg = 2 * n - 1
        for _ in range(400):
            trip = tuple(rng.sample(range(1 << n), 3))
            # a map sending x to x translates by g(x) ^ x; the first linear
            # map is the identity, which fixes everything
            maps = [(g, t) for g in automorphisms(n)[1:]
                    for t in [map_vertex(g, trip[0]) ^ trip[0]]
                    if all(map_vertex(g, v) ^ t == v for v in trip)]
            m = 3 * deg // 4 - rng.randint(0, 2)
            cap = deg - m
            a, b, c = rng.choice([(a, b, m - a - b) for a in range(cap + 1)
                                  for b in range(cap + 1) if 0 <= m - a - b <= cap])
            found = packing._presolve(cube, trip, (a + b, b + c, a + c))
            if not maps or found is None:
                continue
            forced = set(found[1])
            for g, t in maps:
                assert {(u, map_vertex(g, w) ^ t, v) for u, w, v in forced} == forced
            checked += bool(forced)
    assert checked >= 100


def outcome(view, trip, counts, limit):
    budget = Budget(limit)
    try:
        found = pack_segments(view, trip, counts, budget)
    except SearchBudgetExceeded:
        found = "budget"
    return found, budget.used


def seeded_triangles(rng):
    """Split-profile triangles on AQ_4 and AQ_5: four images of ``ARGMIN``
    with the largest total a profile allows (refuted on AQ_4 by the
    presolve, or by the branch-and-bound with it off), then four random
    triples with that total or one less."""
    for n in (4, 5):
        deg = 2 * n - 1
        for k in range(8):
            m = 3 * deg // 4
            if k < 4:
                g, t = rng.choice(automorphisms(n)), rng.randrange(1 << n)
                trip = [map_vertex(g, v) ^ t for v in ARGMIN]
                rng.shuffle(trip)
            else:
                trip = rng.sample(range(1 << n), 3)
                m -= rng.randint(0, 1)
            cap = deg - m
            a, b, c = rng.choice([(a, b, m - a - b) for a in range(cap + 1)
                                  for b in range(cap + 1) if 0 <= m - a - b <= cap])
            yield n, tuple(trip), (a + b, b + c, a + c)


def as_is(fn, *args):
    return fn(*args)


def fewer_ticks_than(mode, presolve=as_is):
    """On how many seeded triangles the search takes fewer ticks than
    under ``mode``, which must find the same and never take fewer; both
    run under ``presolve``."""
    cubes = {n: AugmentedCube(n) for n in (4, 5)}
    fewer = 0
    for n, trip, counts in seeded_triangles(random.Random(15)):
        found, used = presolve(outcome, cubes[n], trip, counts, 2000)
        ref, ref_used = presolve(mode, outcome, cubes[n], trip, counts, 2000)
        assert found == ref, (trip, counts)
        assert used <= ref_used, (trip, counts)
        fewer += used < ref_used
    return fewer


def ticked(fn, *args):
    """The result of ``fn(*args)`` and the budget ticks it took."""
    with pytest.MonkeyPatch.context() as mp:
        work = counted_work(mp)
        return fn(*args), work["ticks"]


def test_the_length_cap_keeps_every_pinned_value_and_witness():
    cube = AugmentedCube(4)
    for D in [(0, b, c) for b, c in itertools.combinations(range(1, 16), 2)]:
        found, used = ticked(max_dpaths, cube, D)
        ref, ref_used = without_length_cap(ticked, max_dpaths, cube, D)
        assert found == ref, D
        assert used <= ref_used, D
    # the presolve refutes at the argmin without a search; with it off the
    # cap saves ticks there
    assert (without_presolve(ticked, max_dpaths, cube, ARGMIN)[1]
            < without_presolve(without_length_cap, ticked, max_dpaths, cube, ARGMIN)[1])


def test_seeded_packings_match_the_uncapped_search():
    assert fewer_ticks_than(without_length_cap) == 0
    assert fewer_ticks_than(without_length_cap, without_presolve) == 4


def max_flows(fn, *args):
    """The max-flows ``fn(*args)`` runs."""
    with pytest.MonkeyPatch.context() as mp:
        work = counted_work(mp)
        fn(*args)
        return work["max_flows"]


def test_repaired_relaxations_keep_every_pinned_value_witness_and_tick():
    cube = AugmentedCube(4)
    for D in [(0, b, c) for b, c in itertools.combinations(range(1, 16), 2)]:
        found, used = ticked(max_dpaths, cube, D)
        assert (found, used) == with_fresh_relaxations(ticked, max_dpaths, cube, D), D
    # the reference does rebuild: on the argmin, with the presolve off so
    # that the search refutes, it runs more max-flows, as a repair that
    # cancels no unit runs none
    assert without_presolve(max_flows, max_dpaths, cube, ARGMIN) < without_presolve(
        with_fresh_relaxations, max_flows, max_dpaths, cube, ARGMIN)


def test_seeded_packings_match_with_fresh_relaxations():
    cubes = {n: AugmentedCube(n) for n in (4, 5)}
    for n, trip, counts in seeded_triangles(random.Random(15)):
        got = outcome(cubes[n], trip, counts, 2000)
        assert got == with_fresh_relaxations(outcome, cubes[n], trip, counts, 2000), (
            trip, counts)
