"""Byte-for-byte pins of what the library emits.

Each group renders its families (terminals, paths and trace) or oracle
witnesses with ``textio.render_family`` and hashes the text; a change to
the output of any search shows up here as a changed digest.  A refactor
that must not change output keeps these digests as they are.
"""

import hashlib
import itertools
import random

import pytest

from aqpath.construct import construct
from aqpath.cube import AugmentedCube
from aqpath.oracle import max_dpaths
from aqpath.textio import render_family


def seeded_triples(n, same_half, count):
    """The first ``count`` ``random.Random(3)`` triples of AQ_n inside one
    half (``same_half``) or spanning both."""
    rng = random.Random(3)
    trips = []
    while len(trips) < count:
        d = tuple(rng.sample(range(2**n), 3))
        if (len({v >> (n - 1) for v in d}) == 1) == same_half:
            trips.append(d)
    return trips


def construct_digest(n, count):
    h = hashlib.sha256()
    for same_half in (False, True):
        for d in seeded_triples(n, same_half, count):
            fam = construct(n, d)
            h.update(render_family(fam.terminals, fam.paths, n, fam.trace).encode())
    return h.hexdigest()


# (n, triples of each kind) -> digest: the benchmark's dimensions, and
# wide cubes up to the widest construct admits (n = 32)
CONSTRUCT_DIGESTS = {
    (8, 8): "341999248b3993b5a92f7715c47b5db91e23617597f74545b501c447d499a8bb",
    (10, 8): "b2a52c8df7eb18a973b33af1786b474ef9ef029aa2ed2e01fb3651ccbf2376f3",
    (21, 1): "1580db15fe7dbb255eda6e481616d3b66d4d3a556cd873a84273b2335e331726",
    (24, 1): "29c2c579307ad1571eada348979efe9c836e1e9a28890b3aeefcf82692fe7187",
    (32, 1): "ab7007081b35e82f0c1346c2ce6e5a9c7491c5a4e8300e850cb4e9cc4fe26a0f",
}


@pytest.mark.parametrize("n, count", CONSTRUCT_DIGESTS,
                         ids=[f"n{n}" for n, _ in CONSTRUCT_DIGESTS])
def test_seeded_families_are_unchanged(n, count):
    assert construct_digest(n, count) == CONSTRUCT_DIGESTS[n, count]


def test_dimension_four_witnesses_are_unchanged():
    # the value and witness of max_dpaths for each of the 105 pinned
    # triples (0, b, c) of AQ_4, in ascending order
    cube = AugmentedCube(4)
    h = hashlib.sha256()
    for b, c in itertools.combinations(range(1, 16), 2):
        value, fam = max_dpaths(cube, (0, b, c))
        h.update(f"{value}\n{render_family((0, b, c), fam, 4)}".encode())
    assert h.hexdigest() == (
        "08e5aaad537bdffbc010f3335b7de4e71dcad36d3ab3d534a60a08400b557dba")
