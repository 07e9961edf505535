"""Independent referee for families of three-terminal paths.

Accepts a family iff every member is a simple path of the view, every
member visits all three terminals, the pairwise vertex intersections are
exactly the terminal set, and no edge is used twice.  Uses only adjacency
queries and set arithmetic -- no flow and no constructor code -- so it can
referee both sides.
A sound family is accepted in bulk, in one pass that builds each path's
vertex set once (``view.is_walk`` and set counts); any other is scanned
vertex by vertex, and that scan alone names the fault.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence


class ViolationKind(Enum):
    NOT_A_PATH = "NotAPath"
    NOT_SIMPLE = "NotSimple"
    MISSING_TERMINAL = "MissingTerminal"
    VERTEX_OVERLAP = "VertexOverlap"
    EDGE_OVERLAP = "EdgeOverlap"
    WRONG_GRAPH = "WrongGraph"


class Violation(NamedTuple):
    kind: ViolationKind
    detail: str
    paths: tuple[int, ...] = ()

    def __str__(self) -> str:
        where = f" paths={list(self.paths)}" if self.paths else ""
        return f"{self.kind.value}: {self.detail}{where}"


def check_path(view, path: Sequence[int]) -> Violation | None:
    """Simplicity and adjacency only; None means the path stands."""
    if len(path) == 0:
        return Violation(ViolationKind.NOT_A_PATH, "empty vertex sequence")
    if set(map(type, path)) == {int} and len(set(path)) == len(path) and view.is_walk(path):
        return None
    for v in path:
        if not isinstance(v, int) or isinstance(v, bool):
            return Violation(ViolationKind.WRONG_GRAPH, f"vertex {v!r} is not an integer")
        if v not in view:
            return Violation(ViolationKind.WRONG_GRAPH, f"vertex {v} not in view")
    if len(set(path)) != len(path):
        seen: set[int] = set()
        for v in path:
            if v in seen:
                return Violation(ViolationKind.NOT_SIMPLE, f"vertex {v} repeats")
            seen.add(v)
    adjacent = view.is_adjacent
    for a, b in zip(path, path[1:]):
        if not adjacent(a, b):
            return Violation(ViolationKind.NOT_A_PATH, f"{a} and {b} not adjacent")
    return None


def check_family(view, terminals: Sequence[int],
                 paths: Sequence[Sequence[int]]) -> Violation | None:
    """Full family check; None means Accept(len(paths)).  The terminals must
    be three distinct integers (ValueError otherwise)."""
    for t in terminals:
        if not isinstance(t, int) or isinstance(t, bool):
            raise ValueError(f"terminal {t!r} is not an integer")
    D = set(terminals)
    if len(D) != 3 or len(terminals) != 3:
        raise ValueError("need three distinct terminals")
    for t in D:
        if t not in view:
            return Violation(ViolationKind.WRONG_GRAPH, f"terminal {t} not in view")
    # a sound family passes in one pass, one vertex set per path: every
    # path is simple and holds D, and no interior vertex and no
    # terminal-terminal edge repeats
    seen: set[int] = set()
    tt = []
    for p in paths:
        s = set(p) if set(map(type, p)) == {int} else set()
        if len(s) != len(p) or not s >= D or not view.is_walk(p):
            break
        seen |= s
        a, b, c = sorted(map(p.index, D))
        tt += [frozenset(p[i:i + 2]) for i, j in ((a, b), (b, c)) if j == i + 1]
    else:
        if (len(set(tt)) == len(tt)
                and len(seen) == 3 + sum(map(len, paths)) - 3 * len(paths)):
            return None
    # a fault: the scan below finds the first one
    for i, p in enumerate(paths):
        bad = check_path(view, p)
        if bad is not None:
            return bad._replace(paths=(i,))
    for i, p in enumerate(paths):
        missing = D - set(p)
        if missing:
            return Violation(ViolationKind.MISSING_TERMINAL,
                             f"terminal {min(missing)} absent", (i,))
    # The least pair (i, j) of members sharing an interior vertex or an
    # edge: an element's first owner i is the least member holding it, so
    # the least pair is (first owner, later holder) for some element.  An
    # edge with an interior end shares that vertex too, so only edges
    # between two terminals need owners.
    owner: dict = {}
    least = None
    for j, p in enumerate(paths):
        keys = [v for v in p if v not in D]
        keys += [frozenset(e) for e in zip(p, p[1:]) if D.issuperset(e)]
        for key in keys:
            i = owner.setdefault(key, j)
            if i != j and (least is None or (i, j) < least):
                least = (i, j)
    if least is None:
        return None
    i, j = least
    shared = (set(paths[i]) - D) & (set(paths[j]) - D)
    if shared:
        return Violation(ViolationKind.VERTEX_OVERLAP,
                         f"vertex {min(shared)} shared", least)
    shared_e = ({frozenset(e) for e in zip(paths[i], paths[i][1:])}
                & {frozenset(e) for e in zip(paths[j], paths[j][1:])})
    e = min(tuple(sorted(fe)) for fe in shared_e)
    return Violation(ViolationKind.EDGE_OVERLAP, f"edge {e[0]}-{e[1]} shared", least)
