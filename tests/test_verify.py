import random

import pytest

from aqpath.construct import construct
from aqpath.cube import AugmentedCube
from aqpath.verify import Violation, ViolationKind, check_family, check_path


CUBE = AugmentedCube(4)
BASE_D = (0b0000, 0b0010, 0b0001)


def base_family():
    return [list(p) for p in construct(4, BASE_D).paths]


def test_accepts_base_family():
    assert check_family(CUBE, BASE_D, base_family()) is None


def test_check_path_single_edge():
    assert check_path(CUBE, [0b0000, 0b1000]) is None
    assert check_path(CUBE, [0b0101]) is None  # single vertex is a legal path


def test_check_path_repeated_vertex():
    bad = check_path(CUBE, [0, 1, 0])
    assert bad.kind is ViolationKind.NOT_SIMPLE


def test_check_path_non_adjacent():
    bad = check_path(CUBE, [0b0000, 0b0101])
    assert bad.kind is ViolationKind.NOT_A_PATH


def test_check_path_outside_view():
    bad = check_path(CUBE, [0, 933])
    assert bad.kind is ViolationKind.WRONG_GRAPH


def test_vertex_overlap_detected():
    fam = base_family()
    donor = next(p for p in fam if 0b0011 in p)
    other = next(p for p in fam if 0b0011 not in p and len(p) >= 4)
    # wedge the shared vertex into a second path between two of its neighbors
    pos = next(i for i in range(len(other) - 1)
               if CUBE.is_adjacent(other[i], 0b0011)
               and CUBE.is_adjacent(0b0011, other[i + 1]))
    other.insert(pos + 1, 0b0011)
    bad = check_family(CUBE, BASE_D, fam)
    assert bad.kind is ViolationKind.VERTEX_OVERLAP
    assert "3" in bad.detail


def test_missing_terminal_detected():
    fam = base_family()
    short = min(fam, key=len)
    short.pop(-1)  # endpoints are terminals, so this always drops one
    bad = check_family(CUBE, BASE_D, fam)
    assert bad.kind is ViolationKind.MISSING_TERMINAL


def test_edge_overlap_detected():
    # two path objects reusing the same direct edge, vertex sets exactly D
    fam = [[0b0010, 0b0000, 0b0001], [0b0000, 0b0010, 0b0001]]
    bad = check_family(CUBE, BASE_D, fam)
    assert bad.kind is ViolationKind.EDGE_OVERLAP


def test_family_member_must_hold_all_terminals():
    fam = base_family()
    fam.append([0b0000, 0b0010])  # a path, but one terminal short
    bad = check_family(CUBE, BASE_D, fam)
    assert bad.kind is ViolationKind.MISSING_TERMINAL


def test_missing_terminal_reported_before_overlap():
    # one path misses z AND collides with another; the absent terminal wins
    fam = [[0b0010, 0b0000, 0b0001],
           [0b0000, 0b0011, 0b0010],
           [0b0000, 0b0011, 0b0010, 0b0001]]
    bad = check_family(CUBE, BASE_D, fam)
    assert bad.kind is ViolationKind.MISSING_TERMINAL


@pytest.mark.parametrize("terminals, paths", [
    ((0, 0, 1), [(0, 1)]),            # a repeated terminal
    ((0, 1), [(0, 1), (0, 2, 1)]),    # only two terminals
])
def test_terminals_must_be_three_distinct_vertices(terminals, paths):
    with pytest.raises(ValueError):
        check_family(CUBE, terminals, paths)


def test_a_broken_member_is_named():
    fam = base_family()
    fam[1] = [0b0000, 0b0101, 0b0010, 0b0001]  # 0000 and 0101 are not adjacent
    bad = check_family(CUBE, BASE_D, fam)
    assert bad.kind is ViolationKind.NOT_A_PATH
    assert bad.paths == (1,)
    assert str(bad) == "NotAPath: 0 and 5 not adjacent paths=[1]"


def test_a_shared_interior_vertex_names_both_members():
    fam = base_family()
    assert fam[1] == [0b0000, 0b0011, 0b0010, 0b0001]
    fam[3] = [0b0001, 0b1110, 0b1111, 0b0000, 0b0011, 0b0010]  # reuses 0011
    bad = check_family(CUBE, BASE_D, fam)
    assert bad.kind is ViolationKind.VERTEX_OVERLAP
    assert bad.paths == (1, 3)
    assert str(bad) == "VertexOverlap: vertex 3 shared paths=[1, 3]"


def test_a_shared_edge_names_both_members():
    fam = base_family()
    assert fam[0] == [0b0001, 0b0000, 0b0010]
    fam[2] = [0b0010, 0b0110, 0b0100, 0b0000, 0b0001]  # reuses edge 0000-0001
    bad = check_family(CUBE, BASE_D, fam)
    assert bad.kind is ViolationKind.EDGE_OVERLAP
    assert bad.paths == (0, 2)
    assert str(bad) == "EdgeOverlap: edge 0-1 shared paths=[0, 2]"


@pytest.mark.parametrize("vertex", [False, 0.0, "0"], ids=["bool", "float", "str"])
def test_a_path_vertex_that_is_not_an_integer_is_the_wrong_graph(vertex):
    # False would pass as vertex 0, and a float or str would fail in ``>>``
    fam = base_family()
    assert fam[0] == [0b0001, 0b0000, 0b0010]
    fam[0] = [0b0001, vertex, 0b0010]
    bad = check_family(CUBE, BASE_D, fam)
    assert bad.kind is ViolationKind.WRONG_GRAPH
    assert bad.paths == (0,)
    assert str(bad) == f"WrongGraph: vertex {vertex!r} is not an integer paths=[0]"


@pytest.mark.parametrize("terminal", [False, 0.0, "0"], ids=["bool", "float", "str"])
def test_a_terminal_that_is_not_an_integer_is_refused(terminal):
    with pytest.raises(ValueError, match="is not an integer"):
        check_family(CUBE, (terminal, 0b0010, 0b0001), base_family())


# -- the one-pass overlap scan against the pairwise one ------------------


def pairwise_check_family(view, terminals, paths):
    """``check_family`` as it was when it compared every pair of members'
    interior vertex sets and edge sets in turn."""
    for t in terminals:
        if not isinstance(t, int) or isinstance(t, bool):
            raise ValueError(f"terminal {t!r} is not an integer")
    D = set(terminals)
    if len(D) != 3 or len(terminals) != 3:
        raise ValueError("need three distinct terminals")
    for t in D:
        if t not in view:
            return Violation(ViolationKind.WRONG_GRAPH, f"terminal {t} not in view")
    for i, p in enumerate(paths):
        bad = check_path(view, p)
        if bad is not None:
            return bad._replace(paths=(i,))
    for i, p in enumerate(paths):
        missing = D - set(p)
        if missing:
            return Violation(ViolationKind.MISSING_TERMINAL,
                             f"terminal {min(missing)} absent", (i,))
    interiors = [set(p) - D for p in paths]
    edge_sets = [{frozenset(e) for e in zip(p, p[1:])} for p in paths]
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            shared = interiors[i] & interiors[j]
            if shared:
                return Violation(ViolationKind.VERTEX_OVERLAP,
                                 f"vertex {min(shared)} shared", (i, j))
            shared_e = edge_sets[i] & edge_sets[j]
            if shared_e:
                e = min(tuple(sorted(fe)) for fe in shared_e)
                return Violation(ViolationKind.EDGE_OVERLAP,
                                 f"edge {e[0]}-{e[1]} shared", (i, j))
    return None


class Tagged(int):
    """An int subclass that prints apart from its value, so a detail names
    which member's copy of a vertex it took."""

    def __str__(self):
        return f"T{int(self)}"


def shortcut(view, D, p):
    """p with the stretch between two of its terminals that follow each
    other along it and are adjacent replaced by their edge, or None."""
    at = [i for i, v in enumerate(p) if v in D]
    for a, b in zip(at, at[1:]):
        if b > a + 1 and view.is_adjacent(p[a], p[b]):
            return p[:a + 1] + p[b:]
    return None


def mutate(rng, view, D, fam):
    """One random fault in the family (a list of vertex lists)."""
    kind = rng.randrange(8)
    i = rng.randrange(len(fam))
    p = fam[i]
    inner = [k for k, v in enumerate(p) if v not in D]
    if kind == 0:  # a member copied, reversed or not, to another place
        q = p[::-1] if rng.random() < 0.5 else list(p)
        fam.insert(rng.randrange(len(fam) + 1), q)
    elif kind == 1:  # members cut short between adjacent terminals
        for k in rng.sample(range(len(fam)), len(fam)):
            q = shortcut(view, D, fam[k])
            if q is not None:
                fam[k] = q
                if rng.random() < 0.5:
                    break
    elif kind == 2:  # a terminal at an end dropped
        fam[i] = p[1:] if rng.random() < 0.5 else p[:-1]
    elif kind == 3 and inner:  # an interior vertex dropped
        del p[rng.choice(inner)]
    elif kind == 4:  # a vertex repeated
        k = rng.randrange(len(p))
        p.insert(k + rng.choice((1, 2)), p[k])
    elif kind == 5 and (ints := [k for k in inner if type(p[k]) is int]):
        # a vertex that is not an int, or a bool, in place of one that an
        # earlier fault left a plain int
        k = rng.choice(ints)
        p[k] = rng.choice((float(p[k]), str(p[k]), bool(p[k] % 2), None))
    elif kind == 6:  # a member's vertices as an int subclass
        fam[i] = [Tagged(v) if type(v) is int else v for v in p]
    elif kind == 7 and inner:  # an interior vertex taken from another member
        q = fam[rng.randrange(len(fam))]
        k = rng.choice(inner)
        p[k] = rng.choice(q)


def test_the_one_pass_referee_names_the_pairwise_violation():
    # about 2,000 constructed families at n = 6..10, a third of them with
    # two adjacent terminals, each with one to three faults: the verdict is
    # the pairwise scan's, kind, detail and members alike
    rng = random.Random("referee")
    seen = {}
    for n in range(6, 11):
        cube = AugmentedCube(n)
        for _ in range(80):
            x, z = rng.sample(range(1 << n), 2)
            y = x ^ rng.choice(cube.words) if rng.random() < 0.4 else rng.randrange(1 << n)
            D = (x, y, z)
            if len(set(D)) < 3:
                continue
            paths = construct(n, D).paths
            for _ in range(5):
                fam = [list(p) for p in paths]
                for _ in range(rng.randint(1, 3)):
                    mutate(rng, cube, D, fam)
                got = check_family(cube, D, fam)
                assert got == pairwise_check_family(cube, D, fam), (D, fam)
                key = None if got is None else (got.kind, got.paths[0] > 0)
                seen[key] = seen.get(key, 0) + 1
    assert sum(seen.values()) >= 1900
    for kind in ViolationKind:
        assert seen.get((kind, False)), (kind, seen)
    for kind in (ViolationKind.VERTEX_OVERLAP, ViolationKind.EDGE_OVERLAP):
        assert seen.get((kind, True)), (kind, seen)
    assert seen.get(None), seen
