import importlib
import itertools
import random

import pytest

from aqpath.construct import construct, target_count
from aqpath.cube import AugmentedCube, PrefixView, RestrictedView, orbit_representatives
from aqpath.flow import Insufficient
from aqpath.oracle import max_dpaths
from aqpath.verify import check_family


def test_target_count_values():
    assert target_count(4) == 4
    assert target_count(5) == 5
    assert target_count(6) == 7
    assert target_count(7) == 8
    assert target_count(8) == 10
    with pytest.raises(ValueError):
        target_count(3)


def test_base_quadrant_family_is_the_explicit_one():
    fam = construct(4, (0b0000, 0b0010, 0b0001))
    assert len(fam.paths) == 4
    assert [e.case for e in fam.trace] == ["B1"]
    interiors = {frozenset(p) - {0, 1, 2} for p in map(set, fam.paths)}
    assert interiors == {
        frozenset(),
        frozenset({0b0011}),
        frozenset({0b0100, 0b0110, 0b0101}),
        frozenset({0b1010, 0b1000, 0b1111, 0b1110}),
    }


def test_construct_rejects_bad_input():
    with pytest.raises(ValueError):
        construct(3, (0, 1, 2))
    with pytest.raises(ValueError):
        construct(4, (0, 0, 1))
    with pytest.raises(ValueError):
        construct(4, (0, 1, 99))


def test_dimension_four_exhaustive():
    cube = AugmentedCube(4)
    for D in itertools.combinations(range(16), 3):
        fam = construct(4, D)
        assert len(fam.paths) == 4
        assert check_family(cube, D, fam.paths) is None


def test_dimension_five_sample_and_case_mix():
    cube = AugmentedCube(5)
    rng = random.Random(11)
    cases = set()
    for _ in range(120):
        D = tuple(sorted(rng.sample(range(32), 3)))
        fam = construct(5, D)
        assert len(fam.paths) == 5
        assert check_family(cube, D, fam.paths) is None
        cases.add(fam.trace[0].case)
    assert cases == {"O1", "O2"}


def test_dimension_six_sample():
    cube = AugmentedCube(6)
    rng = random.Random(13)
    for _ in range(150):
        D = tuple(sorted(rng.sample(range(64), 3)))
        fam = construct(6, D)
        assert len(fam.paths) == 7
        assert check_family(cube, D, fam.paths) is None


def test_dimension_seven_certification_scale():
    # the odd step certified at the same scale as the even sweeps
    cube = AugmentedCube(7)
    rng = random.Random(17)
    for _ in range(10_000):
        D = tuple(sorted(rng.sample(range(128), 3)))
        fam = construct(7, D)
        assert len(fam.paths) == 8
        assert check_family(cube, D, fam.paths) is None


def test_forced_short_bundle_builds_without_fallback():
    # the sibling-pair mate case where the pair shares four neighbors: every
    # maximum bundle carries five short members, exercising the reroute
    # through x's own sibling image
    fam = construct(6, (0b000001, 0b000010, 0b011110))
    assert len(fam.paths) == 7
    assert fam.trace[0].case == "E2.1"


def test_one_quadrant_trace_recurses_to_base():
    cube = AugmentedCube(6)
    D = (0b000000, 0b000011, 0b001001)  # all three inside quadrant 00
    fam = construct(6, D)
    assert check_family(cube, D, fam.paths) is None
    assert fam.trace[0].case in ("E1.1", "E1.2")
    assert fam.trace[0].dimension == 6
    assert fam.trace[-1].dimension == 4
    assert fam.trace[-1].case.startswith("B")


def test_odd_same_half_trace_delegates_to_even():
    fam = construct(5, (0b00000, 0b00011, 0b01001))
    assert fam.trace[0].case == "O1"
    assert fam.trace[1].dimension == 4


def test_recursion_depth_bound():
    rng = random.Random(23)
    for n in (6, 7, 8, 9):
        for _ in range(8):
            D = tuple(sorted(rng.sample(range(1 << n), 3)))
            fam = construct(n, D)
            assert len(fam.trace) <= (n - 4 + 1) // 2 + 1 + 1


def test_determinism():
    D = (3, 17, 44)
    a = construct(6, D)
    b = construct(6, D)
    assert a.paths == b.paths
    assert a.trace == b.trace


def oriented(path):
    return tuple(path) if path[0] < path[-1] else tuple(reversed(path))


def test_transform_soundness():
    # the family built on the relocation the trace records, pulled back,
    # is the family the public entry point returns for the original labels
    cube = AugmentedCube(6)
    rng = random.Random(29)
    for _ in range(25):
        D = tuple(sorted(rng.sample(range(64), 3)))
        fam = construct(6, D)
        t = fam.trace[0].translation
        fam_c = construct(6, tuple(r ^ t for r in fam.trace[0].roles))
        pulled = [tuple(v ^ t for v in p) for p in fam_c.paths]
        assert check_family(cube, D, pulled) is None
        assert [oriented(p) for p in pulled] == fam.paths


def reference_normalize(cube, trip):
    """The dispatch as two steps: translate the triple into a canonical
    position and name its pattern, then pick the case and the roles."""
    n = cube.n
    h1w, h2w, c2w = 1 << (n - 1), 1 << (n - 2), (1 << (n - 1)) - 1

    def find_mate(vals, mask):
        for u, v in itertools.combinations(sorted(vals), 2):
            if u ^ v == mask:
                return u, v
        return None

    def roles_avoiding_mate(vals, mask):
        mate = find_mate(vals, mask)
        if mate is None:
            return tuple(sorted(vals))
        x = next(v for v in vals if v not in mate)
        rest = sorted(v for v in vals if v != x)
        return (x, rest[0], rest[1])

    # step 1: the canonical relocation
    halves = [cube.half(v) for v in trip]
    word = 0
    if len(set(halves)) == 1:
        if halves[0] == 1:
            word ^= h1w
        quads = [cube.quadrant(v ^ word) for v in trip]
        if len(set(quads)) == 1:
            if quads[0] == 0b01:
                word ^= h2w
            order = sorted(range(3), key=lambda i: trip[i] ^ word)
            pattern = "one-quadrant"
        else:
            pair_quad = next(q for q in quads if quads.count(q) == 2)
            if pair_quad == 0b01:
                word ^= h2w
            pair = sorted((i for i in range(3) if quads[i] == pair_quad),
                          key=lambda i: trip[i] ^ word)
            order = pair + [next(i for i in range(3) if quads[i] != pair_quad)]
            pattern = "sibling-pair"
    else:
        lone_half = next(h for h in (0, 1) if halves.count(h) == 1)
        if lone_half == 0:
            word ^= h1w
        pair = sorted((i for i in range(3) if halves[i] != lone_half),
                      key=lambda i: trip[i] ^ word)
        order = pair + [next(i for i in range(3) if halves[i] == lone_half)]
        pattern = "cross-half"
    roles = tuple(trip[i] ^ word for i in order)

    # step 2: the case and its roles
    if pattern == "one-quadrant":
        vals = sorted(roles)
        if n % 2 == 1:
            return word, "O1", roles_avoiding_mate(vals, c2w)
        if n == 4:
            x = next(v for v in vals
                     if any(v ^ w == 2 for w in vals) and any(v ^ w == 1 for w in vals))
            return word ^ x, "B1", (0, 2, 1)
        mate = find_mate(vals, (1 << (n - 2)) - 1)
        if mate is not None:
            x, y = mate
            return word, "E1.1", (x, y, next(v for v in vals if v not in mate))
        return word, "E1.2", tuple(vals)
    x0, y0, z0 = roles
    if pattern == "sibling-pair":
        if n % 2 == 1:
            return word, "O1", roles_avoiding_mate(sorted(roles), c2w)
        if n == 4:
            return word, "B2", roles
        if z0 ^ c2w in (x0, y0):
            x = z0 ^ c2w
            return word, "E2.1", (x, y0 if x == x0 else x0, z0)
        return word, "E2.2", roles
    if n == 4:
        if x0 ^ y0 == c2w:
            x = x0 if cube.quadrant(x0) == 0 else y0
            return word, "B3.1", (x, y0 if x == x0 else x0, z0)
        return word, "B3.2", roles
    return word, "O2" if n % 2 == 1 else "E3", roles


def test_dispatch_matches_the_two_step_reference():
    normalize = importlib.import_module("aqpath.construct")._normalize
    for n in range(4, 21):
        cube = AugmentedCube(n)
        if n <= 5:
            trips = itertools.permutations(range(1 << n), 3)
        elif n == 6:
            trips = itertools.combinations(range(1 << n), 3)
        else:
            rng = random.Random(n)
            trips = (tuple(rng.sample(range(1 << n), 3)) for _ in range(5000))
        for trip in trips:
            assert normalize(cube, trip) == reference_normalize(cube, trip), (n, trip)


def test_paths_oriented_from_smaller_endpoint():
    fam = construct(6, (5, 9, 33))
    for p in fam.paths:
        assert p[0] < p[-1]


def test_count_never_exceeds_oracle():
    cube = AugmentedCube(4)
    rng = random.Random(31)
    for _ in range(12):
        D = tuple(sorted(rng.sample(range(16), 3)))
        fam = construct(4, D)
        assert len(fam.paths) <= max_dpaths(cube, D)[0]


@pytest.mark.parametrize("n, trip", [
    (4, (0b0000, 0b0010, 0b0001)),
    (5, (1, 9, 27)),
    (6, (1, 2, 4)),
    (6, (0b000001, 0b001010, 0b111100)),
    (8, (0, 1, 2)),
])
def test_failed_case_raises_construction_error(monkeypatch, n, trip):
    # the package attribute ``aqpath.construct`` is the function, not the module
    module = importlib.import_module("aqpath.construct")
    forced = module._CaseInfeasible("forced")

    def infeasible(cube, triple):
        raise forced

    monkeypatch.setattr(module, "_construct_level", infeasible)
    with pytest.raises(module.ConstructionError) as info:
        construct(n, trip)
    assert info.value.__cause__ is forced


def test_unverified_family_raises_construction_error(monkeypatch):
    # a base family with one path cut short must not be returned, even one
    # level up: the E1.2 step recurses into B1 through ``construct``
    module = importlib.import_module("aqpath.construct")
    builder, down = module._CASES["B1"]

    def truncated(cube, x, y, z):
        paths = builder(cube, x, y, z)
        paths[-1] = paths[-1][:-1]
        return paths

    monkeypatch.setitem(module._CASES, "B1", (truncated, down))
    with pytest.raises(module.ConstructionError, match="verification"):
        construct(6, (0, 1, 2))


@pytest.mark.parametrize("case, n, trip", [
    ("B1", 4, (0, 1, 2)),
    ("B2", 4, (0, 1, 4)),
    ("B3.1", 4, (0, 7, 8)),
    ("B3.2", 4, (0, 1, 8)),
    ("E1.1", 6, (0, 1, 14)),
    ("E1.2", 6, (0, 1, 2)),
    ("E2.1", 6, (0, 1, 30)),
    ("E2.2", 6, (0, 1, 16)),
    ("E3", 6, (0, 1, 32)),
    ("O1", 5, (0, 1, 2)),
    ("O2", 5, (0, 1, 16)),
])
def test_every_dispatch_case_builds_its_family(case, n, trip):
    fam = construct(n, trip)
    assert fam.trace[0].case == case
    assert len(fam.paths) == target_count(n)
    assert check_family(AugmentedCube(n), trip, fam.paths) is None


def test_every_dimension_eight_pair_routing_builds():
    # E1.2 and E2.2 route three prescribed pairs one flow path at a time;
    # every AQ_8 orbit representative whose top level is one of them builds
    normalize = importlib.import_module("aqpath.construct")._normalize
    cube = AugmentedCube(8)
    routed = [d for d in orbit_representatives(8)
              if normalize(cube, d)[1] in ("E1.2", "E2.2")]
    assert len(routed) == 1164
    for d in routed:
        fam = construct(8, d)
        assert len(fam.paths) == target_count(8)
        assert check_family(cube, d, fam.paths) is None, d


def test_routed_pairs_are_vertex_disjoint_or_insufficient():
    module = importlib.import_module("aqpath.construct")
    half = AugmentedCube(6).half_view(1)
    pairs = [(32, 42), (33, 44), (34, 50)]
    paths = module._route_pairs(half, pairs)
    assert [(p[0], p[-1]) for p in paths] == pairs
    seen = [v for p in paths for v in p]
    assert len(seen) == len(set(seen))
    for p in paths:
        assert all(half.is_adjacent(a, b) for a, b in zip(p, p[1:]))
    # a pair whose end is walled in by the other pairs' ends cannot be routed
    walled = RestrictedView(half, forbidden_vertices=set(half.neighbors(32))
                            - {33, 34})
    with pytest.raises(Insufficient):
        module._route_pairs(walled, pairs)


def first_seeded_triples(n, same_half):
    """The first four ``random.Random(3)`` triples of AQ_n inside one half
    (``same_half``) or spanning both."""
    rng = random.Random(3)
    trips = []
    while len(trips) < 4:
        d = tuple(rng.sample(range(2**n), 3))
        if (len({v >> (n - 1) for v in d}) == 1) == same_half:
            trips.append(d)
    return trips


@pytest.mark.parametrize("same_half", [False, True], ids=["cross-half", "same-half"])
def test_construct_at_dimension_twenty_stays_local(same_half, monkeypatch):
    # the first four seeded triples of each kind at n = 20, each built from
    # a few thousand neighbour rows of a 2^20-vertex cube
    n = 20
    trips = first_seeded_triples(n, same_half)
    queries = [0]
    for cls in (AugmentedCube, PrefixView, RestrictedView):
        def counted(self, x, _rows=cls.neighbors):
            queries[0] += 1
            assert queries[0] <= 5_000, "the construction floods the cube"
            return _rows(self, x)
        monkeypatch.setattr(cls, "neighbors", counted)
    for d in trips:
        queries[0] = 0
        fam = construct(n, d)
        assert len(fam.paths) == target_count(n)
        assert check_family(AugmentedCube(n), d, fam.paths) is None


@pytest.mark.slow
@pytest.mark.parametrize("same_half", [False, True], ids=["cross-half", "same-half"])
def test_construct_at_dimension_forty_builds_and_verifies(same_half, monkeypatch):
    # past the guard: the first four seeded triples of each kind at n = 40
    # (0.4-0.9 s each on a 2-core x86 box, peak RSS 61-92 MB)
    module = importlib.import_module("aqpath.construct")
    n = 40
    monkeypatch.setattr(module, "CONSTRUCT_MAX_N", n)
    for d in first_seeded_triples(n, same_half):
        fam = construct(n, d)
        assert len(fam.paths) == target_count(n)
        assert check_family(AugmentedCube(n), d, fam.paths) is None


class UnlistedCube(AugmentedCube):
    def vertices(self):
        raise AssertionError("vertex list built before the size guard")


def test_construct_guard_comes_before_the_vertex_list(monkeypatch):
    module = importlib.import_module("aqpath.construct")
    oracle = importlib.import_module("aqpath.oracle")

    class Reached(Exception):
        pass

    def reached(cube, triple):
        raise Reached

    monkeypatch.setattr(module, "AugmentedCube", UnlistedCube)
    monkeypatch.setattr(module, "_construct_level", reached)
    top = module.CONSTRUCT_MAX_N
    with pytest.raises(oracle.ResourceGuard, match=f"n <= {top}"):
        construct(top + 1, (0, 1, 2))
    with pytest.raises(Reached):  # the largest admitted n gets past the guard
        construct(top, (0, 1, 2))
