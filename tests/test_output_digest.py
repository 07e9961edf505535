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
# wide cubes up to n = 32
CONSTRUCT_DIGESTS = {
    (8, 8): "4d7299f8c4054644900cbba622e979c2b183a89f7c448b6c26c0e85ab20502cc",
    (10, 8): "902cafc2bae5f0a0c58b06ebbaede4f845468b2e04b01c6a1bf341652b9bbec0",
    (21, 1): "4279bce9beec37e6a37756464005e47488489181c5fd5529da82fe7a2d36e417",
    (24, 1): "250095ed3d7f06225a8b30ab31d40e94e362fd3c5705d7994a23f521ed388a9a",
    (32, 1): "0306794f7bd53bea851cdfc74ddd72d0131d7042a10f88f56af87bad2341e7c3",
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
        "b8f3c71e7072e69499caa5aa88598af5afcd74a311430927efa3340837806033")
