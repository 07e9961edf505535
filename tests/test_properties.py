"""Invariant suites: translation symmetry, cut duality, referee soundness."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from aqpath.construct import construct
from aqpath.cube import AugmentedCube
from aqpath.report import (
    duality_suite,
    mask_automorphism_suite,
    verifier_fuzz_suite,
)
from aqpath.verify import check_family

_CUBES = {n: AugmentedCube(n) for n in range(2, 7)}


@given(st.integers(2, 6), st.data())
def test_translation_preserves_adjacency(n, data):
    cube = _CUBES[n]
    size = 1 << n
    x = data.draw(st.integers(0, size - 1))
    y = data.draw(st.integers(0, size - 1))
    t = data.draw(st.integers(0, size - 1))
    assert cube.is_adjacent(x, y) == cube.is_adjacent(x ^ t, y ^ t)


@given(st.integers(2, 6), st.data())
def test_neighbor_flips_are_involutions(n, data):
    cube = _CUBES[n]
    x = data.draw(st.integers(0, (1 << n) - 1))
    d = data.draw(st.integers(1, n))
    assert cube.h_neighbor(cube.h_neighbor(x, d), d) == x
    dc = data.draw(st.integers(1, n - 1))
    assert cube.c_neighbor(cube.c_neighbor(x, dc), dc) == x


@given(st.integers(2, 6), st.data())
def test_adjacency_iff_mask_difference(n, data):
    cube = _CUBES[n]
    size = 1 << n
    x = data.draw(st.integers(0, size - 1))
    y = data.draw(st.integers(0, size - 1))
    assert cube.is_adjacent(x, y) == (x != y and (x ^ y) in cube.mask_words)


def test_automorphism_exhaustive_to_dimension_5():
    for n in (2, 3, 4, 5):
        cube = AugmentedCube(n)
        size = 1 << n
        base = {(x, y) for x in range(size) for y in cube.neighbors(x)}
        for t in range(size):
            assert all((x ^ t, y ^ t) in base for (x, y) in base)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 6), st.data())
def test_canonicalization_round_trip_keeps_verdict(n, data):
    cube = _CUBES[n]
    size = 1 << n
    trip = data.draw(st.sets(st.integers(0, size - 1), min_size=3, max_size=3))
    D = tuple(sorted(trip))
    entry = construct(n, D).trace[0]
    t = entry.translation
    fam = construct(n, tuple(r ^ t for r in entry.roles))
    pulled = [tuple(v ^ t for v in p) for p in fam.paths]
    assert check_family(cube, D, pulled) is None


def test_mask_automorphism_suite_clean():
    assert mask_automorphism_suite(cases=150, seed=5) == 0


def test_duality_suite_clean():
    assert duality_suite(cases=100, seed=6) == 0


def test_verifier_fuzz_suite_clean():
    assert verifier_fuzz_suite(cases=100, seed=7) == 0


def test_quadrant_pinning_is_sound_for_sweeps():
    # pinning one terminal at the zero word only reorders the sweep
    cube = AugmentedCube(3)
    from aqpath.oracle import max_dpaths

    by_translation = {}
    for D in itertools.combinations(range(8), 3):
        pinned = tuple(sorted(v ^ D[0] for v in D))
        by_translation.setdefault(pinned, set()).add(max_dpaths(cube, D)[0])
    assert all(len(vals) == 1 for vals in by_translation.values())
