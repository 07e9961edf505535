"""Invariant suites: adjacency by mask, translation symmetry and the sweeps'
quadrant pinning."""

import itertools

from aqpath.cube import AugmentedCube

_CUBES = {n: AugmentedCube(n) for n in range(2, 7)}


def test_adjacency_iff_mask_difference():
    for n, cube in _CUBES.items():
        for x, y in itertools.product(range(1 << n), repeat=2):
            want = x != y and (x ^ y) in cube.mask_words
            assert cube.is_adjacent(x, y) == want


def test_translation_preserves_adjacency():
    # every translation of every cube to dimension 6 maps edges onto edges
    for n, cube in _CUBES.items():
        size = 1 << n
        base = {(x, y) for x in range(size) for y in cube.neighbors(x)}
        for t in range(size):
            assert all((x ^ t, y ^ t) in base for (x, y) in base)


def test_quadrant_pinning_is_sound_for_sweeps():
    # pinning one terminal at the zero word only reorders the sweep
    cube = AugmentedCube(3)
    from aqpath.oracle import max_dpaths

    by_translation = {}
    for D in itertools.combinations(range(8), 3):
        pinned = tuple(sorted(v ^ D[0] for v in D))
        by_translation.setdefault(pinned, set()).add(max_dpaths(cube, D)[0])
    assert all(len(vals) == 1 for vals in by_translation.values())
