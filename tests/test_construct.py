import importlib
import itertools
import random

import pytest

from aqpath.construct import construct, target_count
from aqpath.cube import AugmentedCube, canonicalize_triple
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


def test_transform_soundness():
    # a family built on the canonical relocation, pulled back, must match
    # the family the public entry point returns for the original labels
    cube = AugmentedCube(6)
    rng = random.Random(29)
    for _ in range(25):
        D = tuple(sorted(rng.sample(range(64), 3)))
        can = canonicalize_triple(cube, D)
        fam_c = construct(6, can.roles)
        pulled = [can.pull_back_path(p) for p in fam_c.paths]
        assert check_family(cube, D, pulled) is None
        assert len(pulled) == len(construct(6, D).paths)


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
