import gc
import importlib
import itertools
import math
import random
import re
import tracemalloc
import weakref
from collections import deque

import pytest

from aqpath.construct import construct, target_count
from aqpath.cube import (
    CUBE_MAX_N,
    AdjListView,
    AugmentedCube,
    ResourceGuard,
    RestrictedView,
    automorphisms,
    check_vertices,
    closer_words,
    complement_word,
    distance,
    distance_to,
    hyper_word,
    map_vertex,
    orbit_representatives,
    sink_distances,
)
from aqpath.flow import disjoint_paths, fan, min_vertex_cut
from aqpath.oracle import (brute_small, common_neighbors, cube_upper_bound,
                           max_dpaths, regular_upper_bound, witness_triple)
from aqpath.packing import pack_segments


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
    def edge_count(cube):
        return sum(len(cube.neighbors(v)) for v in cube.vertices()) // 2

    assert AugmentedCube(1).vertex_count == 2
    assert edge_count(AugmentedCube(1)) == 1
    assert edge_count(AugmentedCube(2)) == 6  # complete graph on four vertices
    assert AugmentedCube(4).vertex_count == 16
    assert edge_count(AugmentedCube(4)) == 56
    with pytest.raises(ValueError):
        AugmentedCube(0)


def test_the_cube_width_is_capped():
    assert len(AugmentedCube(CUBE_MAX_N).words) == 2 * CUBE_MAX_N - 1
    with pytest.raises(ResourceGuard, match=f"n <= {CUBE_MAX_N}"):
        AugmentedCube(CUBE_MAX_N + 1)


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


def test_hyper_word_examples():
    assert 0b0000 ^ hyper_word(4, 1) == 0b1000
    assert 0b0010 ^ hyper_word(4, 3) == 0b0000
    assert 0b0000 ^ hyper_word(4, 4) == 0b0001
    with pytest.raises(ValueError):
        hyper_word(4, 5)
    with pytest.raises(ValueError):
        hyper_word(4, 0)


AQ3 = AugmentedCube(3)
AQ3_LIST = AdjListView([(u, w) for u in AQ3.vertices() for w in AQ3.neighbors(u)
                        if u < w], bits=3)
PAST = object()  # the first vertex past the view

# every public entry point that takes vertices, as (view, call) placing the
# vertex v beside the vertices 0 and 1 of the view, which a bool or a float
# may equal: the type is checked before distinctness
ON_A_VIEW = {
    "max_dpaths": lambda g, v: max_dpaths(g, (0, 1, v)),
    "brute_small": lambda g, v: brute_small(g, (0, 1, v)),
    "pack_segments": lambda g, v: pack_segments(g, (0, 1, v), (1, 1, 1)),
    "disjoint_paths": lambda g, v: disjoint_paths(g, 1, v, 1),
    "min_vertex_cut": lambda g, v: min_vertex_cut(g, 1, v),
    "fan": lambda g, v: fan(g, 0, [1, v]),
    "common_neighbors": lambda g, v: common_neighbors(g, [0, v]),
}
ENTRY_POINTS = [
    pytest.param(AQ3, lambda g, v: check_vertices(g, [0, v]), id="check_vertices"),
    pytest.param(AugmentedCube(4), lambda g, v: construct(4, (0, 1, v)), id="construct"),
] + [pytest.param(g, call, id=f"{name}-{kind}")
     for name, call in ON_A_VIEW.items()
     for kind, g in (("cube", AQ3), ("adjlist", AQ3_LIST))]


@pytest.mark.parametrize("bad", [False, True, 1.0, "1", None, -1, PAST],
                         ids=["False", "True", "1.0", "str", "None", "-1", "past"])
@pytest.mark.parametrize("view, call", ENTRY_POINTS)
def test_every_entry_point_takes_integer_vertices_of_the_view_only(view, call, bad):
    # a bool or a float passes a view's membership test, so the type is
    # checked first; a vertex outside the view is refused, not answered for
    v = view.vertex_count if bad is PAST else bad
    with pytest.raises(ValueError, match=r"(is not an integer|not in view)$"):
        call(view, v)


# every public entry point that takes a terminal triple D, as (view, call)
ON_A_TRIPLE = {
    "construct": (AugmentedCube(4), lambda g, D: construct(4, D)),
    "max_dpaths": (AugmentedCube(4), max_dpaths),
    "brute_small": (AQ3, brute_small),
    "pack_segments": (AQ3, lambda g, D: pack_segments(g, D, (1, 1, 1))),
}


@pytest.mark.parametrize("name", ON_A_TRIPLE)
def test_every_triple_entry_point_reads_its_triple_once(name):
    # a one-shot iterable gives the answer its tuple gives, and two or
    # four vertices are refused, as a tuple or as an iterable
    view, call = ON_A_TRIPLE[name]
    D = (0, 3, 5)
    want = call(view, D)
    assert want and call(view, iter(D)) == want
    for bad in ((0, 3), (0, 3, 5, 6)):
        for arg in (bad, iter(bad)):
            with pytest.raises(ValueError, match="three distinct"):
                call(view, arg)


@pytest.mark.parametrize("n", [True, 6.0, 7.5, None, "6"],
                         ids=["bool", "whole-float", "fraction", "None", "str"])
@pytest.mark.parametrize("call", [
    AugmentedCube, target_count, cube_upper_bound, lambda n: regular_upper_bound(n, 4),
    witness_triple, lambda n: construct(n, (0, 1, 2))],
    ids=["AugmentedCube", "target_count", "cube_upper_bound", "regular_upper_bound",
         "witness_triple", "construct"])
def test_every_dimension_is_an_integer(call, n):
    # the message names the dimension given, not a value derived from it
    with pytest.raises(ValueError, match=re.escape(f"not {n!r}")):
        call(n)


def test_complement_word_examples():
    assert 0b0000 ^ complement_word(4, 1) == 0b1111
    assert 0b0001 ^ complement_word(4, 1) == 0b1110
    assert 0b0010 ^ complement_word(4, 2) == 0b0101
    with pytest.raises(ValueError):
        complement_word(4, 4)  # level n coincides with the single-bit flip


@pytest.mark.parametrize("n", range(1, 11))
def test_cube_rows_apply_the_mask_words(n):
    cube = AugmentedCube(n)
    assert cube.words == (*(hyper_word(n, d) for d in range(1, n + 1)),
                          *(complement_word(n, d) for d in range(1, n)))
    assert [cube.mask_label(0, w) for w in cube.words] == [
        *(f"h{d}" for d in range(1, n + 1)), *(f"c{d}" for d in range(1, n))]
    for x in cube.vertices():
        assert cube.neighbors(x) == tuple(sorted(x ^ w for w in cube.words))


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
        for v in cube.vertices():
            assert len(cube.neighbors(v)) == 2 * n - 1


def test_quadrant_and_half():
    # a vertex lies in the half of its leading bit and in the quadrant of
    # its two leading bits, and in no other
    c = AugmentedCube(4)
    for v in c.vertices():
        assert [b for b in (0, 1) if v in c.half_view(b)] == [v >> 3]
        assert [q for q in range(4) if v in c.quadrant_view(q)] == [v >> 2]


@pytest.mark.parametrize("take", [
    lambda c: c.half_view(2), lambda c: c.quadrant_view(-1),
    lambda c: c.diamond_view(0, 5), lambda c: c.half_view(True)],
    ids=["half-2", "quadrant-minus-1", "diamond-0-5", "half-True"])
def test_a_sub_view_index_names_a_sub_cube(take):
    # an index past the last sub-cube or below the first would give a view
    # of vertices outside the cube, and a bool is not an index
    c = AugmentedCube(4)
    with pytest.raises(ValueError, match=r"sub-view index .* not in range\([24]\)"):
        take(c)
    assert c.half_view(1).vertices() == range(8, 16)
    assert c.diamond_view(0, 3).vertices() == [*range(4), *range(12, 16)]


def test_translate_examples():
    c = AugmentedCube(4)
    t = 0b1010
    assert (c.is_adjacent(0b0000, 0b0111)
            == c.is_adjacent(0b0000 ^ t, 0b0111 ^ t))


def test_mask_label_names_only_the_cube_words():
    cube = AugmentedCube(4)
    assert cube.mask_label(0, 0b0111) == "c2"
    assert cube.mask_label(0b1010, 0b1010 ^ 0b0111) == "c2"
    assert cube.mask_label(0, 0b0110) is None
    assert cube.mask_label(5, 5) is None


def test_masks_distinct_and_shaped():
    for n in (1, 2, 5, 9):
        cube = AugmentedCube(n)
        assert len(set(cube.words)) == 2 * n - 1
        for w in cube.words:
            label = cube.mask_label(0, w)
            kind, level = label[0], int(label[1:])
            if kind == "h":
                assert bin(w).count("1") == 1
            else:
                assert kind == "c"
                assert bin(w).count("1") == n - level + 1 >= 2


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
    with pytest.raises(ValueError, match="dimension >= 3"):
        AugmentedCube(2).diamond_view(0, 1)
    with pytest.raises(ValueError, match="two distinct quadrants"):
        c4.diamond_view(1, 1)
    wide = AugmentedCube(8).diamond_view(0b00, 0b01)
    for take in (lambda v: v.half_view(0), lambda v: v.quadrant_view(0),
                 lambda v: v.diamond_view(0, 1)):
        with pytest.raises(ValueError, match="a diamond has no halves or quadrants"):
            take(wide)


@pytest.mark.parametrize("n", range(4, 9))
def test_a_quadrant_decomposes_as_the_cube_two_dimensions_down(n):
    # a level of the constructor is quadrant 00 of the level above, a view
    # of one cube; it and its halves, quadrants and diamonds have the
    # vertices and rows of the lower cube and of that cube's own views
    quadrant, lower = AugmentedCube(n).quadrant_view(0), AugmentedCube(n - 2)
    assert quadrant.n == lower.n == n - 2
    assert quadrant.words == lower.words
    # AQ_2 has halves but no quadrants or diamonds
    subs = itertools.islice(zip(prefix_views(quadrant), prefix_views(lower)),
                            2 if n == 4 else None)
    for view, want in [(quadrant, lower), *subs]:
        assert list(view.vertices()) == list(want.vertices())
        assert view.n == want.n and view.words == want.words
        for x in want.vertices():
            assert view.neighbors(x) == want.neighbors(x)


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
                # the filter every view ran before it kept one word tuple
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
    assert entry.case in ("B3.2", "E3")  # the cross-half cases


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


@pytest.mark.parametrize("view", [
    AugmentedCube(3),
    AugmentedCube(3).half_view(1),
    RestrictedView(AugmentedCube(3), forbidden_vertices={3}),
    AdjListView([(5, 6)], bits=3),
], ids=["cube", "half", "restricted", "adjlist"])
def test_every_view_kind_reads_an_empty_or_one_vertex_path_alike(view):
    # the empty path has no step to refute, and one vertex is a walk iff
    # it is a vertex of the view
    assert view.is_walk([])
    for v in (3, 5, 6, 99):
        assert view.is_walk([v]) == (v in view), v


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
        assert distance(0, v) == cube.distance_to(v)(0) == d
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
            assert view.distance_to(v)(u) <= d


def test_adjacency_list_views_have_no_distance():
    g = AdjListView([(0, 1), (1, 2)], bits=2)
    assert g.distance_to(2)(0) == g.distance_to(2)(1) == 0
    assert RestrictedView(g, forbidden_vertices={1}).distance_to(2)(0) == 0


def test_a_restricted_view_has_no_row_for_a_forbidden_vertex():
    view = RestrictedView(AugmentedCube(4), forbidden_vertices=[3])
    assert 3 not in view.neighbors(1)
    with pytest.raises(ValueError, match="not in this view"):
        view.neighbors(3)


def test_the_closed_form_holds_every_distance():
    # every word at widths 1-16 (wider ones: WIDE_GRAY_WORDS below), and
    # every pair of words at widths 1-8
    for bits in range(1, 17):
        dist = distance_to(bits, 0)
        for w in range(1 << bits):
            assert dist(w) == distance(0, w)
    for bits in range(1, 9):
        for t in range(1 << bits):
            dist = distance_to(bits, t)
            for x in range(1 << bits):
                assert dist(x) == distance(x, t)


def test_closer_words_shorten_the_distance_by_exactly_one():
    # every nonzero difference w = x ^ t at widths 1-12: the gray word of w
    # has at least one closer word, and each is a mask word of the cube
    for n in range(1, 13):
        masks = AugmentedCube(n).mask_words
        for w in range(1, 1 << n):
            words = list(closer_words(w ^ (w >> 1)))
            assert words, w
            assert len(set(words)) == len(words)
            for m in words:
                assert m in masks
                assert distance(w ^ m, 0) == distance(w, 0) - 1
    # a subset, not all: 2 and 4 join the run at bit 0 of the gray word
    # 0b10000101 to the run at bit 2, and are closer too
    w, masks = 249, AugmentedCube(8).words
    assert list(closer_words(w ^ (w >> 1))) == [1, 7, 255]
    assert sorted(m for m in masks if distance(w ^ m, 0) == 2) == [1, 2, 4, 7, 255]


def listed_closer_words(y):
    """``closer_words`` with each run's words built as lists, as first
    written: the reference for the words it yields one at a time."""
    while y:
        low = y & -y
        run = y & ~(y + low)
        y ^= run
        q, size = low.bit_length() - 1, run.bit_count()
        if size % 2:
            yield from [(2 << (q + i)) - 1 for i in range(0, size, 2)]
            yield from [1 << (q + i) for i in range(1, size)]
        else:
            yield from [1 << (q + i) for i in range(1, size, 2)]


def test_closer_words_match_the_list_built_reference():
    # every gray word below 2**12, then 2,000 seeded ones of up to 1,024
    # bits: half of them random bits, half runs of 1 to 64 ones apart by
    # gaps of 1 to 8, so long runs of both parities occur
    for y in range(1 << 12):
        assert list(closer_words(y)) == list(listed_closer_words(y)), y
    rng = random.Random("closer-words")
    for i in range(2000):
        bits = rng.randint(1, 1024)
        if i % 2:
            y = rng.getrandbits(bits)
        else:
            y, at = 0, rng.randint(0, 8)
            while at < bits:
                size = min(rng.randint(1, 64), bits - at)
                y |= ((1 << size) - 1) << at
                at += size + rng.randint(1, 8)
        assert list(closer_words(y)) == list(listed_closer_words(y)), y


def test_closer_words_are_yielded_one_at_a_time():
    # the gray word of one run of 20,001 ones: its first two words need
    # no list of the run's 10,001 odd words (13.7 MB when listed)
    words = closer_words((1 << 20001) - 1)
    tracemalloc.start()
    try:
        first = [next(words), next(words)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == [1, 7]
    assert peak < 1 << 20


def from_gray(y):
    """The w with w ^ (w >> 1) == y, for y below 2**128."""
    for shift in (1, 2, 4, 8, 16, 32, 64):
        y ^= y >> shift
    return y


def straddling_runs():
    """Two runs of 1s, each split by a different one of bits 20, 40 and 60
    into parts of every length from 1 to 4."""
    for lo, hi in itertools.combinations((20, 40, 60), 2):
        for a, b, c, d in itertools.product(range(1, 5), repeat=4):
            yield ((1 << lo + b) - (1 << lo - a)) | ((1 << hi + d) - (1 << hi - c))


def seeded_widths():
    """At every width from 17 to 128 bits, seeded words, the all-ones word
    and the top bit alone."""
    for bits in range(17, 129):
        rng = random.Random(bits)
        for _ in range(100):
            yield bits, rng.getrandbits(bits)
        yield bits, (1 << bits) - 1
        yield bits, 1 << bits - 1


WIDE_GRAY_WORDS = {  # (the widths and words, how many)
    # every word whose set bits lie in bits 12-27
    "bits-12-27": (lambda: ((64, w << 12) for w in range(1 << 16)), 1 << 16),
    # every run of 1s within 64 bits
    "single-runs": (lambda: ((64, (1 << hi) - (1 << lo))
                             for lo, hi in itertools.combinations(range(65), 2)),
                    65 * 64 // 2),
    "straddling-pairs": (lambda: ((64, y) for y in straddling_runs()), 3 * 4 ** 4),
    "seeded": (lambda: ((64, random.Random(64).getrandbits(64)) for _ in range(100_000)),
               100_000),
    "seeded-widths": (seeded_widths, 112 * 102),
}


@pytest.mark.parametrize("words, want", WIDE_GRAY_WORDS.values(), ids=WIDE_GRAY_WORDS)
def test_wide_distances_follow_the_closed_form(words, want):
    # a vertex x at distance(x, 0) from the sink 0 has the gray word
    # x ^ (x >> 1), whose distance is counted in closed form
    count = 0
    for bits, y in words():
        x = from_gray(y)
        assert x ^ (x >> 1) == y
        assert distance_to(bits, 0)(x) == distance(x, 0)
        count += 1
    assert count == want


def test_the_widest_construct_reads_its_distances_in_closed_form():
    # the flows of the widest admitted construct count each sink distance
    # in closed form
    n = importlib.import_module("aqpath.construct").CONSTRUCT_MAX_N
    cube = AugmentedCube(n)
    rng = random.Random(n)
    sinks = [rng.getrandbits(n) for _ in range(5)]
    # every gray word offset from the first sink in the top 18 bits, and
    # random vertices for every sink
    t = sinks[0]
    dist = cube.distance_to(t)
    for x in (t ^ from_gray(w << n - 18) for w in range(1 << 18)):
        assert dist(x) == distance(x, t)
    for t in sinks:
        h = sink_distances(cube, t)
        for _ in range(600):
            x = rng.getrandbits(n)
            assert h[x] == distance(x, t)


def test_cube_views_share_the_cube_table():
    # every view reads the cube's distances, at any width
    for bits in (8, 21):
        cube = AugmentedCube(bits)
        views = (cube, cube.half_view(1), cube.diamond_view(0b00, 0b11),
                 RestrictedView(cube.half_view(0), forbidden_vertices={3}))
        rng = random.Random(bits)
        for view in views:
            for t in (3, 77, 200, 6):
                dist = view.distance_to(t)
                for x in rng.sample(range(1 << bits), 200):
                    assert dist(x) == distance(x, t)


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
