import gc
import importlib
import itertools
import math
import random
import weakref
from collections import deque

import pytest

from aqpath.construct import construct
from aqpath.cube import (
    DISTANCE_TABLE_MAX_BITS,
    AdjListView,
    AugmentedCube,
    RestrictedView,
    automorphisms,
    complement_word,
    distance,
    distance_table,
    distance_to,
    hyper_word,
    map_vertex,
    orbit_representatives,
    run_parity_table,
    symmetries,
)
from aqpath.flow import sink_distances


def reference_edges(n: int) -> set[frozenset[int]]:
    """Independent adjacency oracle: build the cube by literal doubling.

    Two prefixed copies of the previous dimension, a matching that flips the
    new leading bit, and a matching that flips the leading bit and complements
    the rest.
    """
    if n == 1:
        return {frozenset((0, 1))}
    prev = reference_edges(n - 1)
    half = 1 << (n - 1)
    edges = set(prev)
    edges |= {frozenset((u | half, v | half)) for u, v in prev}
    for x in range(half):
        edges.add(frozenset((x, x | half)))
        edges.add(frozenset((x, (x ^ (half - 1)) | half)))
    return edges


def test_vertex_and_edge_counts():
    assert AugmentedCube(1).vertex_count == 2
    assert AugmentedCube(1).edge_count() == 1
    assert AugmentedCube(2).edge_count() == 6  # complete graph on four vertices
    assert AugmentedCube(4).vertex_count == 16
    assert AugmentedCube(4).edge_count() == 56
    with pytest.raises(ValueError):
        AugmentedCube(0)


def test_complete_small_cubes():
    c2 = AugmentedCube(2)
    for u, v in itertools.combinations(range(4), 2):
        assert c2.is_adjacent(u, v)


@pytest.mark.parametrize("n", range(1, 7))
def test_mask_adjacency_matches_doubling_construction(n):
    cube = AugmentedCube(n)
    built = {frozenset((u, v))
             for u in cube.vertices() for v in cube.neighbors(u)}
    assert built == reference_edges(n)


def test_h_neighbor_examples():
    c = AugmentedCube(4)
    assert c.h_neighbor(0b0000, 1) == 0b1000
    assert c.h_neighbor(0b0010, 3) == 0b0000
    assert c.h_neighbor(0b0000, 4) == 0b0001
    with pytest.raises(ValueError):
        c.h_neighbor(0, 5)
    with pytest.raises(ValueError):
        c.h_neighbor(0, 0)


def test_c_neighbor_examples():
    c = AugmentedCube(4)
    assert c.c_neighbor(0b0000, 1) == 0b1111
    assert c.c_neighbor(0b0001, 1) == 0b1110
    assert c.c_neighbor(0b0010, 2) == 0b0101
    with pytest.raises(ValueError):
        c.c_neighbor(0, 4)  # level n coincides with the single-bit flip


@pytest.mark.parametrize("n", range(1, 11))
def test_cube_rows_apply_the_mask_words(n):
    cube = AugmentedCube(n)
    assert cube.words == tuple(m.word for m in cube.masks)
    for x in cube.vertices():
        assert cube.neighbors(x) == tuple(sorted(x ^ m.word for m in cube.masks))


def test_neighbors_examples():
    c = AugmentedCube(4)
    assert set(c.neighbors(0b0000)) == {0b1000, 0b0100, 0b0010, 0b0001,
                                        0b1111, 0b0111, 0b0011}
    assert set(c.neighbors(0b0111)) == {0b1111, 0b0011, 0b0101, 0b0110,
                                        0b1000, 0b0000, 0b0100}
    assert AugmentedCube(1).neighbors(0) == (1,)
    assert c.neighbors(3) == tuple(sorted(c.neighbors(3)))


def test_adjacency_examples():
    c = AugmentedCube(4)
    assert c.is_adjacent(0b0000, 0b0111)
    assert not c.is_adjacent(0b1010, 0b0011)
    assert not c.is_adjacent(5, 5)


def test_degree_regularity():
    for n in range(2, 9):
        cube = AugmentedCube(n)
        for v in (0, 1, cube.vertex_count - 1, cube.vertex_count // 3):
            assert len(cube.neighbors(v)) == 2 * n - 1


def test_quadrant_and_half():
    c = AugmentedCube(4)
    assert c.quadrant(0b0111) == 0b01 and c.half(0b0111) == 0
    assert c.quadrant(0b1010) == 0b10 and c.half(0b1010) == 1
    assert c.quadrant(0b0001) == 0b00 and c.half(0b0001) == 0
    with pytest.raises(ValueError):
        AugmentedCube(1).quadrant(0)


def test_translate_examples():
    c = AugmentedCube(4)
    t = 0b1010
    assert (c.is_adjacent(0b0000, 0b0111)
            == c.is_adjacent(0b0000 ^ t, 0b0111 ^ t))


def test_masks_distinct_and_shaped():
    for n in (1, 2, 5, 9):
        cube = AugmentedCube(n)
        words = [m.word for m in cube.masks]
        assert len(set(words)) == 2 * n - 1
        for m in cube.masks:
            if m.kind == "h":
                assert bin(m.word).count("1") == 1
            else:
                assert bin(m.word).count("1") == n - m.level + 1 >= 2


def test_half_view_is_one_dimension_down():
    c4 = AugmentedCube(4)
    h0 = c4.half_view(0)
    assert len(list(h0.vertices())) == 8
    for v in h0.vertices():
        assert len(h0.neighbors(v)) == 5  # the dimension-3 degree
    with pytest.raises(ValueError):
        AugmentedCube(1).half_view(0)


def test_quadrant_view_is_two_dimensions_down():
    c4 = AugmentedCube(4)
    q = c4.quadrant_view(0b00)
    verts = list(q.vertices())
    assert verts == [0, 1, 2, 3]
    for u, v in itertools.combinations(verts, 2):
        assert q.is_adjacent(u, v)  # the dimension-2 cube is complete
    with pytest.raises(ValueError):
        AugmentedCube(2).quadrant_view(0)


def test_diamond_edge_inventory():
    c4 = AugmentedCube(4)
    vertical = c4.diamond_view(0b00, 0b10)  # one matching across halves
    sibling = c4.diamond_view(0b00, 0b01)   # two matchings inside a half

    def edge_count(view):
        return sum(len(view.neighbors(v)) for v in view.vertices()) // 2

    assert edge_count(vertical) == 6 + 6 + 4
    assert edge_count(sibling) == 6 + 6 + 8


def prefix_views(cube):
    """Both halves, all four quadrants and all six diamonds."""
    yield from (cube.half_view(b) for b in (0, 1))
    yield from (cube.quadrant_view(q) for q in range(4))
    yield from (cube.diamond_view(a, b) for a, b in itertools.combinations(range(4), 2))


@pytest.mark.parametrize("n", range(3, 10))
def test_prefix_view_rows_are_the_filtered_cube_rows(n):
    cube, reference = AugmentedCube(n), AugmentedCube(n)
    outside = [-1, -2, -(1 << n), 1 << n, (1 << n) + 1, 1 << (n + 3)]
    for view in prefix_views(cube):
        for x in range(1 << n):
            if x in view:
                # the filter every view ran before it kept words per prefix
                want = tuple(w for w in reference.neighbors(x) if w in view)
                assert view.neighbors(x) == want
            else:
                with pytest.raises(ValueError):
                    view.neighbors(x)
        for x in outside:
            with pytest.raises(ValueError):
                view.neighbors(x)
    assert not cube._nbrs  # the views never fill the parent's memo


def test_the_cube_is_freed_without_the_cycle_collector():
    # the cube is its own prefix view; it must not refer to itself, or it
    # (and any table keyed on it) would live until the next collection
    gc.disable()
    try:
        cube = AugmentedCube(6)
        cube.neighbors(5)
        views = [cube.half_view(0), cube.diamond_view(0b00, 0b11)]
        refs = [weakref.ref(v) for v in [cube, *views]]
        del cube, views
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


def test_matching_structure():
    c4 = AugmentedCube(4)
    q00 = set(c4.quadrant_view(0b00).vertices())
    for word, target in ((hyper_word(4, 2), 0b01),   # sibling within the half
                         (hyper_word(4, 1), 0b10),   # across the halves
                         (complement_word(4, 1), 0b11)):  # diagonal
        image = {v ^ word for v in q00}
        assert image == set(c4.quadrant_view(target).vertices())
        for v in q00:
            assert c4.is_adjacent(v, v ^ word)


def relocated(entry):
    """The triple a trace entry's builder was handed."""
    return tuple(r ^ entry.translation for r in entry.roles)


def test_canonicalize_identity_and_patterns():
    # the relocation ``construct`` records in its trace
    (entry,) = construct(4, (0b0000, 0b0001, 0b0010)).trace
    assert entry.translation == 0
    assert entry.case == "B1"  # all three in one quadrant
    assert entry.roles == (0, 2, 1)

    (entry,) = construct(4, (0b1000, 0b1010, 0b0001)).trace
    assert entry.translation & 0b1000  # a leading-bit word moves the pair over
    x, y, z = relocated(entry)
    assert x < 8 and y < 8  # pair lands in half 0
    assert z >= 8           # lone vertex in half 1
    assert entry.case in ("B3.1", "B3.2")  # the cross-half cases


def test_canonicalize_rejects_duplicates():
    with pytest.raises(ValueError):
        construct(4, (1, 1, 2))


def test_canonicalize_roles_cover_input():
    trip = (7, 19, 28)
    entry = construct(5, trip).trace[0]
    assert sorted(entry.roles) == sorted(trip)
    assert tuple(v ^ entry.translation for v in relocated(entry)) == entry.roles


@pytest.mark.parametrize("view_of", [
    lambda c: c,
    lambda c: c.half_view(1),
    lambda c: c.diamond_view(0b00, 0b11),
    lambda c: RestrictedView(c, forbidden_vertices={3}),
], ids=["cube", "half", "diamond", "restricted"])
def test_no_edge_touches_a_non_vertex(view_of):
    cube = AugmentedCube(4)
    view = view_of(cube)
    for x in (-1, -2, -16, -17, 16, 17, 31, 1 << 10):
        for w in cube.words:
            assert not view.is_adjacent(x, x ^ w)
            assert not view.is_adjacent(x ^ w, x)


def test_adjlist_view():
    g = AdjListView([(0, 1), (1, 2)], bits=2)
    assert g.vertex_count == 3
    assert g.neighbors(1) == (0, 2)
    assert g.is_adjacent(0, 1) and not g.is_adjacent(0, 2)
    assert g.edges() == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        AdjListView([(0, 0)], bits=1)


def hops_from(view, source):
    """Breadth-first hop counts from ``source`` inside a view."""
    hops = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in view.neighbors(u):
            if w not in hops:
                hops[w] = hops[u] + 1
                queue.append(w)
    return hops


@pytest.mark.parametrize("n", range(1, 11))
def test_distance_is_the_hop_count(n):
    # every pair is a translate of a pair (0, v), and translations are
    # automorphisms, so this covers all pairs
    cube = AugmentedCube(n)
    hops = hops_from(cube, 0)
    assert len(hops) == cube.vertex_count
    for v, d in hops.items():
        assert distance(0, v) == cube.distance(0, v) == d
        assert distance(v, 0) == d


@pytest.mark.parametrize("view_of", [
    lambda c: c.half_view(1),
    lambda c: c.diamond_view(0b00, 0b11),
    lambda c: c.diamond_view(0b01, 0b10),
    lambda c: RestrictedView(c, forbidden_vertices={1, 2, 5, 12, 33},
                             forbidden_edges=[(0, 63), (0, 32), (8, 16)]),
    lambda c: RestrictedView(c.diamond_view(0b00, 0b01),
                             forbidden_vertices={3, 17}),
], ids=["half", "diamond-cross", "diamond-diagonal", "restricted-cube",
        "restricted-diamond"])
def test_view_distance_never_exceeds_the_hop_count(view_of):
    view = view_of(AugmentedCube(6))
    for u in list(view.vertices())[::5]:
        for v, d in hops_from(view, u).items():
            assert view.distance(u, v) <= d


def test_adjacency_list_views_have_no_distance():
    g = AdjListView([(0, 1), (1, 2)], bits=2)
    assert g.distance(0, 2) == 0
    assert RestrictedView(g, forbidden_vertices={1}).distance(0, 2) == 0
    assert g.distance_to(2)(1) == 0
    assert RestrictedView(g, forbidden_vertices={1}).distance_to(2)(0) == 0


def test_the_distance_table_holds_every_distance():
    for bits in range(17):
        table = distance_table(bits)
        assert len(table) == 1 << bits
        for w in range(1 << bits):
            assert table[w ^ (w >> 1)] == distance(0, w)
    table = distance_table(20)
    rng = random.Random(20)
    for w in (rng.getrandbits(20) for _ in range(100_000)):
        assert table[w ^ (w >> 1)] == distance(0, w)
    assert distance_table(20) is table  # built once per width
    assert distance_table(DISTANCE_TABLE_MAX_BITS + 1) is None


def test_the_run_parity_table_holds_both_edge_runs():
    bits = DISTANCE_TABLE_MAX_BITS
    table = run_parity_table()
    assert len(table) == 1 << bits
    assert run_parity_table() is table  # built once

    def runs(c):
        low = len(format(c, f"0{bits}b")) - len(format(c, f"0{bits}b").rstrip("1"))
        top = len(format(c, f"0{bits}b")) - len(format(c, f"0{bits}b").lstrip("1"))
        return low % 2 | top % 2 << 1

    rng = random.Random(bits)
    # every pattern of the lowest and the highest 8 bits, and random chunks
    edges = [lo | hi << bits - 8 | mid << 8
             for lo in range(256) for hi in range(256)
             for mid in (0, (1 << bits - 16) - 1)]
    for c in edges + [rng.getrandbits(bits) for _ in range(20_000)]:
        assert table[c] == runs(c)


def from_gray(y):
    """The w with w ^ (w >> 1) == y, for y below 2**64."""
    for shift in (1, 2, 4, 8, 16, 32):
        y ^= y >> shift
    return y


def straddling_runs():
    """Two runs of 1s, each cut by a different 20-bit chunk boundary into
    parts of every length from 1 to 4."""
    for lo, hi in itertools.combinations((20, 40, 60), 2):
        for a, b, c, d in itertools.product(range(1, 5), repeat=4):
            yield ((1 << lo + b) - (1 << lo - a)) | ((1 << hi + d) - (1 << hi - c))


WIDE_GRAY_WORDS = {  # (the words, how many)
    # every word whose set bits lie in bits 12-27, across the first boundary
    "bits-12-27": (lambda: (w << 12 for w in range(1 << 16)), 1 << 16),
    # every run of 1s within 64 bits
    "single-runs": (lambda: ((1 << hi) - (1 << lo)
                             for lo, hi in itertools.combinations(range(65), 2)),
                    65 * 64 // 2),
    "straddling-pairs": (straddling_runs, 3 * 4 ** 4),
    "seeded": (lambda: (random.Random(64).getrandbits(64) for _ in range(100_000)),
               100_000),
}


@pytest.mark.parametrize("words, want", WIDE_GRAY_WORDS.values(), ids=WIDE_GRAY_WORDS)
def test_wide_distances_are_read_in_chunks(words, want):
    # a vertex x at distance(x, 0) from the sink 0 has the gray word
    # x ^ (x >> 1), read in 20-bit chunks above the table
    dist = distance_to(64, 0)
    count = 0
    for y in words():
        x = from_gray(y)
        assert x ^ (x >> 1) == y
        assert dist(x) == distance(x, 0)
        count += 1
    assert count == want


def test_the_widest_construct_reads_its_distances_in_chunks():
    # construct is admitted above the table's width: its flows read each
    # sink distance in 20-bit chunks
    n = importlib.import_module("aqpath.construct").CONSTRUCT_MAX_N
    assert n > DISTANCE_TABLE_MAX_BITS
    cube = AugmentedCube(n)
    assert distance_table(n) is None
    rng = random.Random(n)
    sinks = rng.sample(range(1 << n), 5)
    # every gray word offset from the first sink in the bits around the
    # boundary at bit 20, and random vertices for every sink
    t = sinks[0]
    dist = cube.distance_to(t)
    for x in (t ^ from_gray(w << 14) for w in range(1 << n - 14)):
        assert dist(x) == distance(x, t)
    for t in sinks:
        _, dist = sink_distances(cube, t)
        for x in rng.sample(range(1 << n), 600):
            assert dist(x) == distance(x, t)


def test_cube_views_share_the_cube_table():
    # every view reads the cube's distances; only a view wider than the
    # table builds the run parities that its chunked reads need
    run_parity_table.cache_clear()
    for bits in (8, DISTANCE_TABLE_MAX_BITS + 1):
        cube = AugmentedCube(bits)
        views = (cube, cube.half_view(1), cube.diamond_view(0b00, 0b11),
                 RestrictedView(cube.half_view(0), forbidden_vertices={3}))
        rng = random.Random(bits)
        for view in views:
            for t in (3, 77, 200, 6):
                dist = view.distance_to(t)
                for x in rng.sample(range(1 << bits), 200):
                    assert dist(x) == distance(x, t)
        assert run_parity_table.cache_info().currsize == (bits > DISTANCE_TABLE_MAX_BITS)


def swap_last_two_bits(v):
    return v ^ (((v ^ (v >> 1)) & 1) * 0b11)


@pytest.mark.parametrize("n", range(2, 9))
def test_swapping_the_last_two_bits_is_an_automorphism(n):
    cube = AugmentedCube(n)
    images = [swap_last_two_bits(v) for v in cube.vertices()]
    assert sorted(images) == list(cube.vertices())
    for v in cube.vertices():
        assert (sorted(swap_last_two_bits(w) for w in cube.neighbors(v))
                == list(cube.neighbors(images[v])))


@pytest.mark.parametrize("n", range(3, 9))
def test_no_other_bit_transposition_is_an_automorphism(n):
    cube = AugmentedCube(n)
    for i, j in itertools.combinations(range(n), 2):
        if (i, j) == (0, 1):
            continue

        def swap(v):
            return v ^ ((((v >> i) ^ (v >> j)) & 1) * ((1 << i) | (1 << j)))

        assert any(not cube.is_adjacent(swap(v), swap(w))
                   for v in cube.vertices() for w in cube.neighbors(v))


@pytest.mark.parametrize("n", range(2, 9))
def test_every_linear_map_is_an_automorphism(n):
    cube = AugmentedCube(n)
    for g in automorphisms(n):
        images = [map_vertex(g, v) for v in cube.vertices()]
        assert sorted(images) == list(cube.vertices())
        for v in cube.vertices():
            assert (sorted(images[w] for w in cube.neighbors(v))
                    == list(cube.neighbors(images[v])))


@pytest.mark.parametrize("n", range(3, 10))
def test_there_are_eight_distinct_linear_maps(n):
    maps = automorphisms(n)
    assert len(maps) == len(set(maps)) == 8
    assert maps[0] == tuple(1 << i for i in range(n))
    # one of them swaps the last two bits
    assert tuple(swap_last_two_bits(1 << i) for i in range(n)) in maps


def orbit(n, trip):
    return {tuple(sorted(map_vertex(g, v) ^ t for v in trip))
            for g in automorphisms(n) for t in range(1 << n)}


@pytest.mark.parametrize("n", range(2, 7))
def test_orbits_of_the_representatives_partition_the_triples(n):
    reps = list(orbit_representatives(n))
    assert reps == sorted(reps)
    orbits = [orbit(n, r) for r in reps]
    for r, o in zip(reps, orbits):
        assert min(o) == r
    assert sum(map(len, orbits)) == math.comb(1 << n, 3)
    assert len(set().union(*orbits)) == math.comb(1 << n, 3)


def test_automorphisms_are_listed_once_per_dimension():
    assert automorphisms(6) is automorphisms(6)
    assert isinstance(automorphisms(6), tuple)
    assert [len(automorphisms(n)) for n in (1, 2, 3)] == [1, 6, 8]


def set_preserving_maps(n, D):
    """The reference for ``symmetries``: every one of the 8 * 2**n maps,
    kept when it sends the set D onto itself."""
    want, kept = set(D), []
    for g in automorphisms(n):
        moved = [map_vertex(g, d) for d in D]
        kept += [(g, t) for t in range(1 << n) if {w ^ t for w in moved} == want]
    return sorted(kept)


def symmetry_cases():
    for n in (4, 5):
        for trip in orbit_representatives(n):
            yield n, trip
    rng = random.Random(8)
    for _ in range(200):
        yield 8, tuple(rng.sample(range(256), 3))


def test_symmetries_are_exactly_the_maps_keeping_the_set():
    for n, D in symmetry_cases():
        got = list(symmetries(n, D))
        assert sorted((g, t) for g, t, _ in got) == set_preserving_maps(n, D), D
        for g, t, perm in got:
            assert [map_vertex(g, d) ^ t for d in D] == [D[i] for i in perm]
