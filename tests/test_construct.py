import hashlib
import importlib
import itertools
import random

import pytest

from aqpath.construct import construct, target_count
from aqpath.cube import (AugmentedCube, PrefixView, RestrictedView, distance,
                         orbit_representatives)
from aqpath.flow import Insufficient, UnitFlowNet, descend
from aqpath.oracle import max_dpaths
from aqpath.textio import render_family
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


@pytest.mark.parametrize("trip", [(False, True, 2), (0, 1.0, 2)])
def test_construct_takes_integer_vertices_only(trip):
    with pytest.raises(ValueError, match="not an integer"):
        construct(4, trip)


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
    # seeded triples in any position, most of them not orbit representatives,
    # beside the complete orbit sweeps below
    cube = AugmentedCube(7)
    rng = random.Random(17)
    for _ in range(10_000):
        D = tuple(sorted(rng.sample(range(128), 3)))
        fam = construct(7, D)
        assert len(fam.paths) == 8
        assert check_family(cube, D, fam.paths) is None


# n -> (orbit representatives, sha256 of their rendered families and
# traces, flow nets built): the odd dimensions pin O1's pair routing, and a
# net pin may only fall
ORBIT_PINS = {
    5: (38, "8a60245086e9fb8e5a637d326a7324cccb9c8becf1f732943b8d12a8dff19003", 1),
    7: (557, "2100f9494caf91e63e8d7d470b59d5ae7de4e2fbc5f2311cbe61b1a22669e782", 7),
    8: (2173, "7c3724ea885b89a1673f5a0006a425770917651216fb7073517303a6576dfe56", 13),
    9: (8639, "1da0eb68c4156ee72f6bdc92aa4a61ec59e96eb57b302579cff28a886a759a17", 21),
}


def build_every_orbit_representative(n, monkeypatch):
    # an automorphism carries a verified family for a representative onto
    # every triple of its orbit, so this certifies every triple of AQ_n
    orbits, digest, nets = ORBIT_PINS[n]
    built = [0]
    init = UnitFlowNet.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(UnitFlowNet, "__init__", counted)
    cube = AugmentedCube(n)
    reps = list(orbit_representatives(n))
    assert len(reps) == orbits
    h = hashlib.sha256()
    for d in reps:
        fam = construct(n, d)
        assert len(fam.paths) == target_count(n)
        assert check_family(cube, d, fam.paths) is None, d
        h.update(render_family(fam.terminals, fam.paths, n, fam.trace).encode())
    assert h.hexdigest() == digest
    assert built[0] == nets


def test_every_dimension_five_orbit_representative_builds(monkeypatch):
    build_every_orbit_representative(5, monkeypatch)


def test_every_dimension_seven_orbit_representative_builds(monkeypatch):
    build_every_orbit_representative(7, monkeypatch)


@pytest.mark.slow
def test_every_dimension_eight_orbit_representative_builds(monkeypatch):
    build_every_orbit_representative(8, monkeypatch)


@pytest.mark.slow
def test_every_dimension_nine_orbit_representative_builds(monkeypatch):
    # 8,639 representatives, about 3.3 s on a 2-core x86 box
    build_every_orbit_representative(9, monkeypatch)


def test_forced_short_bundle_builds_without_fallback():
    # the sibling-pair mate case where the pair shares four neighbors: every
    # maximum bundle carries five short members, and the E2.1 layout needs
    # only n - 4 long ones
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


def transform_cases():
    """Every AQ_4 triple, then 25 seeded triples each of AQ_5 and AQ_6."""
    for D in itertools.combinations(range(16), 3):
        yield 4, D
    for n, seed in ((5, 31), (6, 29)):
        rng = random.Random(seed)
        for _ in range(25):
            yield n, tuple(sorted(rng.sample(range(1 << n), 3)))


def test_transform_soundness():
    # the family built on the relocation the trace records, pulled back,
    # is the family the public entry point returns for the original labels
    cubes = {n: AugmentedCube(n) for n in (4, 5, 6)}
    for n, D in transform_cases():
        fam = construct(n, D)
        t = fam.trace[0].translation
        fam_c = construct(n, tuple(r ^ t for r in fam.trace[0].roles))
        pulled = [tuple(v ^ t for v in p) for p in fam_c.paths]
        assert check_family(cubes[n], D, pulled) is None, D
        assert [oriented(p) for p in pulled] == fam.paths, D


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
    halves = [v >> (n - 1) for v in trip]
    word = 0
    if len(set(halves)) == 1:
        if halves[0] == 1:
            word ^= h1w
        quads = [(v ^ word) >> (n - 2) for v in trip]
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
        if z0 ^ c2w in (x0, y0):
            x = z0 ^ c2w
            return word, "E2.1", (x, y0 if x == x0 else x0, z0)
        return word, "E2.2", roles
    if n == 4 and x0 ^ y0 != c2w:
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
    forced = Insufficient(0, 1)

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


def test_short_family_raises_construction_error(monkeypatch):
    # a level that builds one path too few fails the count before the referee
    module = importlib.import_module("aqpath.construct")
    builder, down = module._CASES["B1"]

    def short(cube, x, y, z):
        return builder(cube, x, y, z)[:-1]

    monkeypatch.setitem(module._CASES, "B1", (short, down))
    with pytest.raises(module.ConstructionError, match="paths built"):
        construct(6, (0, 1, 2))


@pytest.mark.parametrize("case, n, trip", [
    ("B1", 4, (0, 1, 2)),
    ("E2.2", 4, (0, 1, 4)),
    ("E3", 4, (0, 7, 8)),
    ("B3.2", 4, (0, 1, 8)),
    ("E1.1", 6, (0, 1, 14)),
    ("E1.2", 6, (0, 1, 2)),
    ("E2.1", 6, (0, 1, 30)),
    ("E2.2", 6, (0, 1, 16)),
    ("E3", 6, (0, 1, 32)),
    ("O1", 5, (0, 1, 2)),
    ("O2", 5, (0, 1, 16)),
    ("E2.1", 4, (0, 1, 6)),
])
def test_every_dispatch_case_builds_its_family(case, n, trip):
    fam = construct(n, trip)
    assert fam.trace[0].case == case
    assert len(fam.paths) == target_count(n)
    assert check_family(AugmentedCube(n), trip, fam.paths) is None


def test_every_triple_of_small_cubes_reaches_every_case():
    # no entry of the case table outlives its last triple
    module = importlib.import_module("aqpath.construct")
    seen = set()
    for n in (4, 5, 6):
        cube = AugmentedCube(n)
        seen.update(module._normalize(cube, trip)[1]
                    for trip in itertools.combinations(range(1 << n), 3))
    assert seen == set(module._CASES)


@pytest.mark.parametrize("n", [6, 8])
def test_every_one_quadrant_mated_input_builds(n):
    # every input (x, x ^ m, z) of the E1.1 builder, m the suffix mask and
    # x < x ^ m: its prescribed pairs are routed as given whichever side
    # of quadrant 00 z lies in
    cube = AugmentedCube(n)
    m = (1 << (n - 2)) - 1
    for x, z in itertools.permutations(range(1 << (n - 2)), 2):
        if x < x ^ m != z:
            trip = (x, x ^ m, z)
            fam = construct(n, trip)
            assert (fam.trace[0].case, fam.trace[0].roles) == ("E1.1", trip)
            assert len(fam.paths) == target_count(n)
            assert check_family(cube, trip, fam.paths) is None, trip


def build_every_pair_sibling_mated_input(n):
    # every input (x, y, x ^ c2w) of the E2.1 builder, x != y in quadrant 00
    cube = AugmentedCube(n)
    c2w = (1 << (n - 1)) - 1
    for x, y in itertools.permutations(range(1 << (n - 2)), 2):
        trip = (x, y, x ^ c2w)
        fam = construct(n, trip)
        assert (fam.trace[0].case, fam.trace[0].roles) == ("E2.1", trip)
        assert len(fam.paths) == target_count(n)
        assert check_family(cube, trip, fam.paths) is None, trip


def test_every_pair_sibling_mated_input_builds_at_dimension_six():
    build_every_pair_sibling_mated_input(6)


@pytest.mark.slow
def test_every_pair_sibling_mated_input_builds_at_dimension_eight():
    build_every_pair_sibling_mated_input(8)


def test_every_dimension_eight_pair_routing_builds():
    # E1.2 and E2.2 route three prescribed pairs one path at a time, each
    # walked or, where the walk falls short, found by a flow;
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


@pytest.mark.parametrize("m", range(3, 10))
def test_backbones_are_disjoint_and_leave_the_rung_vertices(m):
    # every ladder asks for m backbones in an AQ_m; by vertex transitivity
    # the pairs (0, b) cover every pair
    backbones = importlib.import_module("aqpath.construct")._backbones
    cube = AugmentedCube(m)
    n0 = set(cube.neighbors(0))
    for b in range(1, 1 << m):
        ends = n0 | set(cube.neighbors(b))
        if m == 3 and b == 0b011:
            # adjacent with four common neighbours, which are all the other
            # neighbours of either end: three backbones take two of them,
            # so only two of the three rung vertices are left
            with pytest.raises(Insufficient):
                backbones(cube, 0, b, m)
            continue
        ps, xi, yi, f = backbones(cube, 0, b, m)
        assert len(ps) == m
        inner = [v for p in ps for v in p[1:-1]]
        assert len(inner) == len(set(inner)), b
        for p in ps:
            assert (p[0], p[-1]) == (0, b)
            assert all(cube.is_adjacent(u, v) for u, v in zip(p, p[1:]))
            assert not ends & set(p[2:-2]), (b, p)
        spare = xi + yi + [f]
        assert len(spare) == len(set(spare)) == 2 * m - 3
        assert not set(spare) & set(inner)
        assert len(xi) == len(yi) == m - 2
        assert n0 >= set(xi) and set(cube.neighbors(b)) >= {*yi, f}


def test_backbones_raise_when_the_pair_is_walled_in():
    backbones = importlib.import_module("aqpath.construct")._backbones
    cube = AugmentedCube(5)
    walled = RestrictedView(cube, forbidden_vertices=set(cube.neighbors(0))
                            - {1, 2})
    with pytest.raises(Insufficient):
        backbones(walled, 0, 0b10101, 5)


def test_backbones_report_the_side_short_of_rung_vertices():
    # y keeps 4 of its 17 neighbours: the three backbones leave it one
    # rung vertex where two are needed, while x has plenty
    backbones = importlib.import_module("aqpath.construct")._backbones
    half = AugmentedCube(10).half_view(0)
    x, y = 248, 413
    view = RestrictedView(half, forbidden_vertices={
        w for w in half.neighbors(y) if distance(x, w) < distance(x, y)})
    with pytest.raises(Insufficient) as exc:
        backbones(view, x, y, 3)
    assert (exc.value.achieved, exc.value.required) == (1, 2)


def test_backbones_a_walk_cannot_reach_come_from_the_seeded_flow(monkeypatch):
    # every vertex two steps from y that is nearer x than y is forbidden:
    # all 13 walks from x's neighbours toward y get stuck, the walks aimed
    # at the free neighbours of y instead bring two units, and the net
    # seeded with them must route the third backbone
    module = importlib.import_module("aqpath.construct")
    flow = importlib.import_module("aqpath.flow")
    half = AugmentedCube(8).half_view(0)
    x, y = 0, 85
    ny = set(half.neighbors(y))
    ring = {w for u in ny for w in half.neighbors(u)} - ny - {y}
    view = RestrictedView(half, forbidden_vertices={
        w for w in ring if distance(x, w) < distance(x, y)})
    walks, seeded, seed = [], [], UnitFlowNet.seed

    def walk(view, u, t, avoid, stop=None):
        walks.append((t, descend(view, u, t, avoid, stop)))
        return walks[-1][1]

    def counted(net, path):
        seeded.append(path)
        seed(net, path)

    monkeypatch.setattr(flow, "descend", walk)
    monkeypatch.setattr(UnitFlowNet, "seed", counted)
    ps, xi, yi, f = module._backbones(view, x, y, 3)
    assert [p is None for t, p in walks if t == y] == [True] * 13
    assert len([p for t, p in walks if t != y and p]) == len(seeded) == 2
    assert len(ps) == 3
    ends = set(half.neighbors(x)) | ny
    inner = [v for p in ps for v in p[1:-1]]
    assert len(inner) == len(set(inner))
    for p in ps:
        assert (p[0], p[-1]) == (x, y)
        assert all(view.is_adjacent(u, v) for u, v in zip(p, p[1:]))
        assert not ends & set(p[2:-2])
    assert not set(xi + yi + [f]) & set(inner)


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


def test_odd_same_half_routes_one_fixed_pairing(monkeypatch):
    # (0, 1, 2) at n = 5 runs O1 and then B1, so O1's is the only pair
    # routing: where it fails, construct raises after that one call and
    # tries no swapped pairing
    module = importlib.import_module("aqpath.construct")
    calls = []

    def refused(view, pairs, avoid=()):
        calls.append((view.n, pairs))
        raise Insufficient(0, 1)

    monkeypatch.setattr(module, "_route_pairs", refused)
    with pytest.raises(module.ConstructionError):
        construct(5, (0, 1, 2))
    assert calls == [(4, [(16, 17), (31, 18)])]


@pytest.mark.parametrize("n", [5, 7])
def test_odd_same_half_joins_x_images_to_y_and_z_as_paired(monkeypatch, n):
    # every O1 orbit representative first routes x ^ h to y ^ h and x ^ c
    # to z ^ h on the far half, in that pairing, and builds a verified family
    module = importlib.import_module("aqpath.construct")
    route_pairs, calls = module._route_pairs, []

    def recorded(view, pairs, avoid=()):
        calls.append((view.n, pairs))
        return route_pairs(view, pairs, avoid)

    monkeypatch.setattr(module, "_route_pairs", recorded)
    cube = AugmentedCube(n)
    h, c = 1 << (n - 1), (1 << n) - 1
    odd = [d for d in orbit_representatives(n) if module._normalize(cube, d)[1] == "O1"]
    assert odd
    for d in odd:
        x, y, z = module._normalize(cube, d)[2]
        calls.clear()
        fam = construct(n, d)
        assert check_family(cube, d, fam.paths) is None, d
        assert calls[0] == (n - 1, [(x ^ h, y ^ h), (x ^ c, z ^ h)]), d


def first_seeded_triples(n, same_half):
    """The first four ``random.Random(3)`` triples of AQ_n inside one half
    (``same_half``) or spanning both; drawn with ``getrandbits`` from n = 63
    on, where ``sample`` cannot take the range."""
    rng = random.Random(3)
    trips = []
    while len(trips) < 4:
        d = (tuple(rng.sample(range(2**n), 3)) if n < 63
             else tuple(rng.getrandbits(n) for _ in range(3)))
        if len(set(d)) == 3 and (len({v >> (n - 1) for v in d}) == 1) == same_half:
            trips.append(d)
    return trips


def count_neighbour_queries(monkeypatch, cap):
    """A one-item list counting the views' neighbour queries, which fails
    once the count passes ``cap``; a caller resets it per triple."""
    queries = [0]
    for cls in (AugmentedCube, PrefixView, RestrictedView):
        def counted(self, x, _rows=cls.neighbors):
            queries[0] += 1
            assert queries[0] <= cap, "the construction floods the cube"
            return _rows(self, x)
        monkeypatch.setattr(cls, "neighbors", counted)
    return queries


def far_pair(n):
    """The E3 triple (0, alt >> 1, alt), alt = 0b1010... of n bits, whose
    bundled pair lies n/2 apart."""
    alt = int("10" * (n // 2), 2)
    return (0, alt >> 1, alt)


@pytest.mark.parametrize("same_half", [False, True], ids=["cross-half", "same-half"])
def test_construct_at_dimension_twenty_stays_local(same_half, monkeypatch):
    # the first four seeded triples of each kind at n = 20, each built from
    # a few neighbour rows of a 2^20-vertex cube (at most 18)
    n = 20
    trips = first_seeded_triples(n, same_half)
    queries = count_neighbour_queries(monkeypatch, cap=30)
    for d in trips:
        queries[0] = 0
        fam = construct(n, d)
        assert len(fam.paths) == target_count(n)
        assert check_family(AugmentedCube(n), d, fam.paths) is None


@pytest.mark.parametrize("n", [20, 32])
def test_wide_triples_are_walked_without_a_flow_net(n, monkeypatch):
    # every fan, bundle and prescribed pair of the first seeded triples of
    # each kind and of the far pair is walked: no unit is left to a net
    def no_net(*args):
        raise AssertionError("a net was built")

    monkeypatch.setattr(importlib.import_module("aqpath.flow"), "UnitFlowNet", no_net)
    trips = first_seeded_triples(n, False) + first_seeded_triples(n, True)
    for d in trips + [far_pair(n)]:
        fam = construct(n, d)
        assert len(fam.paths) == target_count(n)
        assert check_family(AugmentedCube(n), d, fam.paths) is None


@pytest.mark.parametrize("n, cap", [(20, 30), (32, 50)])
def test_a_forced_repair_seeds_its_net_lazily(n, cap, monkeypatch):
    # the fifth fan walk of each triple is refused, so ``route`` seeds a
    # net with the other walks: a seeded unit's rows wait until a search
    # reaches them, so the repair reads a few neighbour rows (at most 20
    # at n = 20 and 34 at n = 32), where seeding them eagerly read 187-665
    flow = importlib.import_module("aqpath.flow")
    leave, net_class = flow._leave, flow.UnitFlowNet
    leaves, nets = [0], [0]

    def refuse_the_fifth(*args):
        leaves[0] += 1
        return None if leaves[0] == 5 else leave(*args)

    def counted(*args):
        nets[0] += 1
        return net_class(*args)

    monkeypatch.setattr(flow, "_leave", refuse_the_fifth)
    monkeypatch.setattr(flow, "UnitFlowNet", counted)
    queries = count_neighbour_queries(monkeypatch, cap=cap)
    for d in first_seeded_triples(n, False):
        leaves[0] = nets[0] = queries[0] = 0
        fam = construct(n, d)
        assert nets[0] == 1
        assert check_family(AugmentedCube(n), d, fam.paths) is None


@pytest.mark.parametrize("n, cap, tables", [(64, 2505, 186), (128, 9129, 378)])
def test_a_fan_pays_per_free_hop(n, cap, tables, monkeypatch):
    # a fan's source tries only its free neighbours as first hops, ordered
    # by three distance buckets, so (0, 1, all ones) reads 2,505 distances
    # at n = 64 and 9,129 at n = 128; sorting every neighbour by distance
    # per fan unit read 7,996 and 32,380.  Each first hop's walk takes the
    # distance its ordering read, so 186 and 378 distance functions are
    # built (307 and 627 when each walk built its own).  A cap may only
    # tighten
    reads, built = [0], [0]

    def counted(self, t, _reader=PrefixView.distance_to):
        dist = _reader(self, t)
        built[0] += 1

        def read(x):
            reads[0] += 1
            return dist(x)
        return read

    monkeypatch.setattr(PrefixView, "distance_to", counted)
    d = (0, 1, (1 << n) - 1)
    fam = construct(n, d)
    assert reads[0] <= cap
    assert built[0] <= tables
    assert check_family(AugmentedCube(n), d, fam.paths) is None


def test_a_walk_starts_closer_words_only_past_a_blocked_first_word(monkeypatch):
    # ROADMAP item 2's count: the first seeded cross-half triple at n = 64
    # emits 4,526 vertices, and its walks start ``cube.closer_words`` 901
    # times, where the first closer word of a step is blocked, leaves the
    # view or is missing; starting it on every step made 4,058 calls.  The
    # pin may only move to a smaller exact count
    flow = importlib.import_module("aqpath.flow")
    words, calls = flow.closer_words, [0]

    def counted(y):
        calls[0] += 1
        return words(y)

    monkeypatch.setattr(flow, "closer_words", counted)
    fam = construct(64, first_seeded_triples(64, False)[0])
    assert sum(map(len, fam.paths)) == 4526
    assert calls[0] == 901


@pytest.mark.slow
@pytest.mark.parametrize("same_half", [False, True], ids=["cross-half", "same-half"])
def test_construct_at_dimension_forty_builds_and_verifies(same_half, monkeypatch):
    # the first four seeded triples of each kind at n = 40 (16-18 ms
    # each on a 2-core x86 box, peak RSS 15 MB), each built from at most
    # 54 neighbour rows
    n = 40
    queries = count_neighbour_queries(monkeypatch, cap=100)
    for d in first_seeded_triples(n, same_half):
        queries[0] = 0
        fam = construct(n, d)
        assert len(fam.paths) == target_count(n)
        assert check_family(AugmentedCube(n), d, fam.paths) is None


@pytest.mark.slow
@pytest.mark.parametrize("n, cap", [(64, 100), (128, 250)])
def test_construct_at_the_widest_dimensions_builds_and_verifies(n, cap, monkeypatch):
    # the first four seeded triples of each kind and the far pair: at
    # n = 64, 0.02-0.08 s each on a 2-core x86 box and at most 93
    # neighbour rows; at n = 128, the widest admitted, 0.11-0.31 s, peak
    # RSS 17 MB and at most 221 rows
    trips = first_seeded_triples(n, False) + first_seeded_triples(n, True)
    queries = count_neighbour_queries(monkeypatch, cap=cap)
    for d in trips + [far_pair(n)]:
        queries[0] = 0
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


def test_a_recursing_construct_verifies_its_family_once(monkeypatch):
    # the sub-families lie in induced sub-cubes of AQ_9 (half 0, then
    # quadrants 00), so one referee call on the whole family checks them
    module = importlib.import_module("aqpath.construct")
    calls = []

    def counted(view, D, paths):
        calls.append(view.n)
        return check_family(view, D, paths)

    monkeypatch.setattr(module, "check_family", counted)
    fam = construct(9, (0, 1, 2))
    assert [e.case for e in fam.trace] == ["O1", "E1.2", "E1.2", "B1"]
    assert calls == [9]


def test_construct_builds_one_cube_per_call(monkeypatch):
    # (0, 1, 2) at n = 64 runs 31 E1.x levels, each quadrant 00 of the
    # level above: a prefix view of the one cube, never a cube of its own
    built = []
    init = AugmentedCube.__init__

    def counted(cube, n):
        built.append(n)
        init(cube, n)

    monkeypatch.setattr(AugmentedCube, "__init__", counted)
    fam = construct(64, (0, 1, 2))
    assert len(fam.trace) == 31
    assert built == [64]


# sha256 of the paths, one repr line each, of the first seeded cross-half
# triple and of (0, 1, all ones) at n = 512
WIDE_DIGESTS = {
    "cross-half": "61488d7821516a4514aedbb4d4f1252028d9439764e5a6dc3a8837ada66cbea8",
    "complement": "9d2a32e59ccc605c9da6cfdfbe98daa00ee8cc23b415492c3cc489871057d807",
}


@pytest.mark.slow
@pytest.mark.parametrize("kind", WIDE_DIGESTS)
def test_families_past_the_guard_are_unchanged(kind, monkeypatch):
    # walks are longest here: the cross-half family holds 265,568 vertices
    # (its construct call takes 1.3-1.5 s at 64 MB peak RSS on a 2-core
    # x86 box, in a fresh process)
    module = importlib.import_module("aqpath.construct")
    monkeypatch.setattr(module, "CONSTRUCT_MAX_N", 512)
    n = 512
    d = first_seeded_triples(n, False)[0] if kind == "cross-half" else (0, 1, (1 << n) - 1)
    fam = construct(n, d)
    assert len(fam.paths) == target_count(n)
    assert check_family(AugmentedCube(n), d, fam.paths) is None
    h = hashlib.sha256()
    for p in fam.paths:
        h.update(f"{p}\n".encode())
    assert h.hexdigest() == WIDE_DIGESTS[kind]


@pytest.mark.slow
def test_construct_runs_a_thousand_levels_past_the_guard(monkeypatch):
    # (0, 1, 2) at n = 2048 runs 1023 levels in one loop, far deeper than
    # Python's recursion limit (2.5-3.1 s and 24 MB peak RSS on a 2-core
    # x86 box, in a fresh process)
    module = importlib.import_module("aqpath.construct")
    monkeypatch.setattr(module, "CONSTRUCT_MAX_N", 2048)
    fam = construct(2048, (0, 1, 2))
    assert len(fam.trace) == 1023
    assert check_family(AugmentedCube(2048), (0, 1, 2), fam.paths) is None
