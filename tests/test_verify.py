import random

import pytest

from aqpath.construct import construct
from aqpath.cube import AdjListView, AugmentedCube, RestrictedView
from aqpath.verify import Violation, ViolationKind, check_family, check_path


CUBE = AugmentedCube(4)
BASE_D = (0b0000, 0b0010, 0b0001)


def base_family():
    return [list(p) for p in construct(4, BASE_D).paths]


def test_accepts_base_family():
    assert check_family(CUBE, BASE_D, base_family()) is None


def test_an_empty_family_is_accepted_by_the_union_count():
    # the union of no members is D itself, so it counts 3 + 0 - 0 vertices
    # and the referee accepts before any scan
    assert check_family(AugmentedCube(4), (0, 1, 2), []) is None


def test_check_path_single_edge():
    assert check_path(CUBE, [0b0000, 0b1000]) is None
    assert check_path(CUBE, [0b0101]) is None  # single vertex is a legal path


def test_check_path_empty():
    bad = check_path(CUBE, [])
    assert bad.kind is ViolationKind.NOT_A_PATH


def test_check_path_repeated_vertex():
    bad = check_path(CUBE, [0, 1, 0])
    assert bad.kind is ViolationKind.NOT_SIMPLE


def test_check_path_non_adjacent():
    bad = check_path(CUBE, [0b0000, 0b0101])
    assert bad.kind is ViolationKind.NOT_A_PATH


def test_check_path_outside_view():
    bad = check_path(CUBE, [0, 933])
    assert bad.kind is ViolationKind.WRONG_GRAPH


def test_a_terminal_outside_the_view_is_the_wrong_graph():
    bad = check_family(AugmentedCube(3), (0, 1, 9), [])
    assert bad.kind is ViolationKind.WRONG_GRAPH
    assert bad.detail == "terminal 9 not in view"


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
    ((0, 1, 2, 2), [(0, 1, 2)]),      # four terminals, three distinct
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


def broken(rng, cube, D, paths, kind) -> ViolationKind:
    """Break an accepted family in place by one fault of class ``kind``;
    returns the violation the checker must report for it."""
    if kind == "drop-endpoint":
        p = rng.choice(paths)
        p.pop(0 if rng.random() < 0.5 else -1)
        return ViolationKind.MISSING_TERMINAL
    if kind == "duplicate-path":
        src = max(paths, key=len)  # longest; a copy collides the hardest
        i = paths.index(src)
        paths[(i + 1) % len(paths)] = list(src)
        return (ViolationKind.VERTEX_OVERLAP if len(src) > 3
                else ViolationKind.EDGE_OVERLAP)
    if kind == "stutter":
        p = max(paths, key=len)
        pos = rng.randrange(len(p) - 1)
        p[pos + 1:pos + 1] = [p[pos + 1], p[pos]]
        return ViolationKind.NOT_SIMPLE
    # teleport: swap one interior vertex for a non-adjacent outsider
    p = max(paths, key=len)
    pos = rng.randrange(1, len(p) - 1)
    on_paths = set().union(*map(set, paths))
    for w in cube.vertices():
        if w not in on_paths and not cube.is_adjacent(p[pos - 1], w):
            p[pos] = w
            return ViolationKind.NOT_A_PATH
    raise AssertionError("no teleport target available")


def test_one_fault_of_each_class_gets_its_verdict():
    # 120 seeded triples of AQ_4 and AQ_5, each family broken by one fault
    rng = random.Random(7)
    drawn = set()
    for _ in range(120):
        n = rng.choice((4, 5))
        cube = AugmentedCube(n)
        D = tuple(sorted(rng.sample(range(1 << n), 3)))
        paths = [list(p) for p in construct(n, D).paths]
        kind = rng.choice(("drop-endpoint", "duplicate-path", "stutter", "teleport"))
        drawn.add(kind)
        want = broken(rng, cube, D, paths, kind)
        got = check_family(cube, D, paths)
        assert got is not None and got.kind is want, (n, D, kind, got)
    assert len(drawn) == 4


# -- the one-pass overlap scan against the pairwise one ------------------


def plain_check_path(view, path):
    """``check_path`` as it was before it accepted in bulk: every vertex
    tested in turn, then every step."""
    if len(path) == 0:
        return Violation(ViolationKind.NOT_A_PATH, "empty vertex sequence")
    for v in path:
        if not isinstance(v, int) or isinstance(v, bool):
            return Violation(ViolationKind.WRONG_GRAPH, f"vertex {v!r} is not an integer")
        if v not in view:
            return Violation(ViolationKind.WRONG_GRAPH, f"vertex {v} not in view")
    seen = set()
    for v in path:
        if v in seen:
            return Violation(ViolationKind.NOT_SIMPLE, f"vertex {v} repeats")
        seen.add(v)
    for a, b in zip(path, path[1:]):
        if not view.is_adjacent(a, b):
            return Violation(ViolationKind.NOT_A_PATH, f"{a} and {b} not adjacent")
    return None


def pairwise_check_family(view, terminals, paths):
    """``check_family`` as it was when it checked every member vertex by
    vertex and compared every pair of members' interior vertex sets and
    edge sets in turn."""
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
        bad = plain_check_path(view, p)
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


# -- the set-level checks against the per-vertex referee -----------------


def walk_to(p, a, w):
    """The member p cut after its vertex a and led on to w."""
    return p[:p.index(a) + 1] + [w]


def referee_views(rng, n, D, paths):
    """(name, view, D, family, outside, detour) for AQ_n, a half of AQ_{n+1}
    holding AQ_n's family moved into it, AQ_n minus a few vertices and
    edges the family does not use, and AQ_n as an adjacency list.
    ``outside(p)`` is a member p led out of the view with every step along
    a mask word, and ``detour(p)`` p led along an edge the view lacks or
    the family does not use."""
    cube = AugmentedCube(n)
    top = 1 << n
    used = {v for p in paths for v in p}
    edges = [(v, w) for v in range(top) for w in cube.neighbors(v) if v < w]
    off = [e for e in edges if not set(e) & used]
    (a, g), (b, h) = rng.sample([(v, w) for v in sorted(used) for w in cube.neighbors(v)
                                 if w not in used], 2)
    gone = [g, *rng.sample(sorted(set(range(top)) - used - {h}), 2)]
    cut = [(b, h), *rng.sample(off, 2)]

    def splice(p, edge):
        k = rng.randrange(1, len(p))
        return p[:k] + list(edge) + p[k:]

    def shifted(p):
        return [v | top for v in p]

    yield ("cube", cube, D, paths, shifted, lambda p: splice(p, rng.choice(off)))
    yield ("half", AugmentedCube(n + 1).half_view(1), tuple(shifted(D)),
           list(map(shifted, paths)), lambda p: [v ^ top for v in p],
           lambda p: splice(p, shifted(rng.choice(off))))
    restricted = RestrictedView(cube, gone, cut)
    yield ("restricted", restricted, D, paths,
           lambda p: walk_to(p, a, g) if a in p else p[:1] + [g],
           lambda p: walk_to(p, b, h) if b in p else p[:1] + [b])
    yield ("adjlist", AdjListView(edges, bits=n), D, paths, shifted,
           lambda p: splice(p, rng.choice(off)))


CORRUPTIONS = ("True", "1.0", "negative", "outside", "repeat", "non-adjacent",
               "shared-interior", "shared-edge", "missing-terminal", "detour",
               "empty-member")


def corrupt(rng, kind, view, D, fam, outside, detour):
    """The family (a list of vertex lists) with one fault of ``kind``, or
    None where the family offers no place for it."""
    fam = [list(p) for p in fam]
    i = rng.randrange(len(fam))
    p = fam[i]
    inner = [k for k, v in enumerate(p) if v not in D]
    if kind == "shared-edge":  # two members cut short between the same terminals
        cuts = [(k, q) for k, m in enumerate(fam) if (q := shortcut(view, D, m))]
        if len(cuts) < 2:
            return None
        for k, q in rng.sample(cuts, 2):
            fam[k] = q
    elif kind == "missing-terminal":
        fam[i] = p[1:] if rng.random() < 0.5 else p[:-1]
    elif kind == "repeat":
        k = rng.randrange(len(p))
        p.insert(k + rng.choice((1, 2)), p[k])
    elif kind == "negative":  # every step still along a mask word
        fam[i] = [~v for v in p]
    elif kind in ("outside", "detour"):
        fam[i] = (outside if kind == "outside" else detour)(p)
    elif kind == "empty-member":
        fam.insert(rng.randrange(len(fam) + 1), [])
    elif not inner:
        return None
    elif kind == "shared-interior":  # a member copied, reversed, to another place
        fam.insert(rng.randrange(len(fam) + 1), p[::-1])
    else:
        k = rng.choice(inner)
        p[k] = {"True": True, "1.0": 1.0, "non-adjacent": p[k - 1] ^ 0b101}[kind]
    return fam


def test_the_referee_gives_the_per_vertex_verdict_on_four_views():
    # corrupted families of construct(6..10, .) on four kinds of view: the
    # referee names the violation the per-vertex referee names, kind,
    # detail and members alike, for the whole family, for each member and
    # for its first vertex alone, and accepts every clean family
    rng = random.Random("bulk referee")
    seen = {}
    for n in range(6, 11):
        for _ in range(4):
            x, z = rng.sample(range(1 << n), 2)
            y = x ^ rng.choice(AugmentedCube(n).words) if rng.random() < 0.5 else z ^ 0b11
            paths = [list(p) for p in construct(n, (x, y, z)).paths]
            for name, view, D, fam, outside, detour in referee_views(rng, n, (x, y, z), paths):
                assert all(view.is_walk(p) for p in fam), name
                assert check_family(view, D, fam) is None
                assert pairwise_check_family(view, D, fam) is None
                for kind in CORRUPTIONS:
                    bad = corrupt(rng, kind, view, D, fam, outside, detour)
                    if bad is None:
                        continue
                    got = check_family(view, D, bad)
                    assert got == pairwise_check_family(view, D, bad), (name, kind, D, bad)
                    for p in bad:
                        for q in (p, p[:1]):
                            assert check_path(view, q) == plain_check_path(view, q), (name, q)
                    seen.setdefault((name, kind), set()).add(got and got.kind)
    # every fault was placed and caught on every view, and the verdicts
    # span every kind of violation
    assert len(seen) == 4 * len(CORRUPTIONS)
    for key, kinds in seen.items():
        assert kinds - {None}, key
    assert set().union(*seen.values()) >= set(ViolationKind)
