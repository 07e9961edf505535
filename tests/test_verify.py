import pytest

from aqpath.construct import construct
from aqpath.cube import AugmentedCube
from aqpath.verify import ViolationKind, check_family, check_path


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
