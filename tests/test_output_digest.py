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
    (8, 8): "43ae0d437c585c5ca6469db8091368abe9eb51049afdcacb9c655e5d1d251641",
    (10, 8): "f56f14f9d1280abe687ea5109359fa2fc9a55fa4710eda28617062f6c44ab00e",
    (21, 1): "5ff002c1d57541ed58a41c5edcc40421ddec4eb09ee34aebf4b67e52a874ed18",
    (24, 1): "ab723e367e6b877c63d973d5c6d2a4031adbbdeb8ab4339ba6bbb24519f2c204",
    (32, 1): "6bcbd49810d4923cf35217b93c88835e3ca5c4984a929ae07b7b512e9500d125",
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
