"""The oracle's symmetry breaking, length cap and repaired relaxations
change work, never answers.

One reference mode sees no symmetry: ``symmetries`` yields nothing, so
``max_dpaths`` skips no profile and the packing search skips no segment.
Another caps no segment's length: ``_enum_segments`` is always told that
one segment is owed.  Each mode must return the same values, witnesses and
packings as the search, which may only use fewer budget ticks.  The third
saturates every relaxation of the search afresh and searches for every
critical vertex, where the search repairs its parent's leaf flow, derives
the joint relaxation from the leaf's and inherits its parent's critical
vertices; it must match the search tick for tick.
"""

import itertools
import random

import pytest

from aqpath import oracle, packing
from aqpath.cube import AugmentedCube, automorphisms, map_vertex
from aqpath.flow import UnitFlowNet
from aqpath.oracle import max_dpaths
from aqpath.packing import Budget, SearchBudgetExceeded, pack_segments


# the least triple of the orbit where pi3(AQ_4) = 4 is attained: a map
# swapping 1 and 2 fixes it as a set, and one map besides the identity
# fixes it pointwise
ARGMIN = (0, 1, 2)


def no_symmetries(view, D):
    return iter(())


def without_symmetry(fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "symmetries", no_symmetries)
        mp.setattr(packing, "symmetries", no_symmetries)
        return fn(*args)


def without_length_cap(fn, *args):
    enum = packing._enum_segments

    def uncapped(view, u, v, blocked, floor, owed=1):
        return enum(view, u, v, blocked, floor)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packing, "_enum_segments", uncapped)
        return fn(*args)


def with_fresh_relaxations(fn, *args):
    critical = UnitFlowNet.critical

    def fresh(search, net, interior=(), owed=0):
        u, v, _ = search.branch
        return packing._saturate(search.view, [(u, v, owed), *search.leaf],
                                 search.blocked.union(interior))

    def searched(net, known=frozenset()):
        return critical(net)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packing._PackSearch, "repaired", fresh)
        mp.setattr(UnitFlowNet, "critical", searched)
        return fn(*args)


def counted_pack_segments(monkeypatch):
    calls = []
    pack = oracle.pack_segments

    def counted(*args, **kwargs):
        calls.append(args[2])  # the pair counts: the triple is fixed
        return pack(*args, **kwargs)

    monkeypatch.setattr(oracle, "pack_segments", counted)
    return calls


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


def test_every_dimension_four_triple_keeps_value_and_witness():
    cube = AugmentedCube(4)
    triples = list(itertools.combinations(range(16), 3))
    with pytest.MonkeyPatch.context() as mp:
        work = counted_work(mp)
        found = [max_dpaths(cube, D) for D in triples]
    # the work with symmetry, pinned exactly: a change to how symmetry is
    # broken that changes any of it must say so
    assert work == {"ticks": 11_161, "packings": 944, "max_flows": 7_215}
    for D, got in zip(triples, found):
        assert got == without_symmetry(max_dpaths, cube, D), D


def test_the_argmin_orbit_refutes_two_profiles_not_three(monkeypatch):
    cube = AugmentedCube(4)
    calls = counted_pack_segments(monkeypatch)
    assert max_dpaths(cube, ARGMIN)[0] == 4
    with_symmetry = list(calls)
    calls.clear()
    without_symmetry(max_dpaths, cube, ARGMIN)
    # three five-path profiles, then the first four-path one fits
    assert len(calls) == 4
    assert len(with_symmetry) == 3 and with_symmetry[-1] == calls[-1]


def test_seeded_dimension_five_triples_keep_value_and_witness():
    cube = AugmentedCube(5)
    rng = random.Random(5)
    for _ in range(100):
        D = tuple(rng.sample(range(32), 3))
        assert max_dpaths(cube, D) == without_symmetry(max_dpaths, cube, D), D


def outcome(view, trip, counts, limit):
    budget = Budget(limit)
    try:
        found = pack_segments(view, trip, counts, budget)
    except SearchBudgetExceeded:
        found = "budget"
    return found, budget.used


def seeded_triangles(rng):
    """Split-profile triangles on AQ_4 and AQ_5: four images of ``ARGMIN``
    with the largest total a profile allows (refuted on AQ_4 by
    branch-and-bound), then four random triples with that total or one
    less."""
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


def test_seeded_packings_match_with_no_more_ticks():
    cubes = {n: AugmentedCube(n) for n in (4, 5)}
    fewer = 0
    for n, trip, counts in seeded_triangles(random.Random(15)):
        found, used = outcome(cubes[n], trip, counts, 2000)
        ref, ref_used = without_symmetry(outcome, cubes[n], trip, counts, 2000)
        assert found == ref, (trip, counts)
        assert used <= ref_used, (trip, counts)
        fewer += used < ref_used
    assert fewer == 3


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
        if D == ARGMIN:
            assert used < ref_used


def test_seeded_packings_match_the_uncapped_search():
    cubes = {n: AugmentedCube(n) for n in (4, 5)}
    fewer = 0
    for n, trip, counts in seeded_triangles(random.Random(15)):
        found, used = outcome(cubes[n], trip, counts, 2000)
        ref, ref_used = without_length_cap(outcome, cubes[n], trip, counts, 2000)
        assert found == ref, (trip, counts)
        assert used <= ref_used, (trip, counts)
        fewer += used < ref_used
    assert fewer == 4


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
    # the reference does rebuild: on the argmin it runs more max-flows, as
    # a repair that cancels no unit runs none
    assert max_flows(max_dpaths, cube, ARGMIN) < with_fresh_relaxations(
        max_flows, max_dpaths, cube, ARGMIN)


def test_seeded_packings_match_with_fresh_relaxations():
    cubes = {n: AugmentedCube(n) for n in (4, 5)}
    for n, trip, counts in seeded_triangles(random.Random(15)):
        got = outcome(cubes[n], trip, counts, 2000)
        assert got == with_fresh_relaxations(outcome, cubes[n], trip, counts, 2000), (
            trip, counts)
