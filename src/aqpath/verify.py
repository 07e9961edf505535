"""Independent referee for families of three-terminal paths.

Accepts a family iff every member is a simple path of the view, every
member visits all three terminals, the pairwise vertex intersections are
exactly the terminal set, and no edge is used twice.  Uses only adjacency
queries and set arithmetic -- no flow and no constructor code -- so it can
referee both sides.
Each check decides once, in order, by a set-level test: each member
alone (``check_path``, whose fast test is one ``view.is_walk`` query),
then each member's terminals, then one count of the members' union and
of their terminal-terminal edges.  Only a family that fails the count is
scanned, to name the least pair of members that overlap.
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
    for i, p in enumerate(paths):
        bad = check_path(view, p)
        if bad is not None:
            return bad._replace(paths=(i,))
    # each member is now a simple path; read its terminals' places, which
    # also give the edges between two terminals
    tt = []
    for i, p in enumerate(paths):
        try:
            a, b, c = sorted(map(p.index, D))
        except ValueError:
            return Violation(ViolationKind.MISSING_TERMINAL,
                             f"terminal {min(D - set(p))} absent", (i,))
        tt += [frozenset(p[k:k + 2]) for k, m in ((a, b), (b, c)) if m == k + 1]
    # every member holds D, so the interiors are disjoint iff the union
    # counts them all; an edge with an interior end shares that vertex too
    if (len(set(tt)) == len(tt)
            and len(D.union(*paths)) == 3 + sum(map(len, paths)) - 3 * len(paths)):
        return None
    # A fault, so some pair of members shares an interior vertex or an edge
    # between two terminals.  An element's first owner i is the least
    # member holding it, so the least pair is (first owner, later holder)
    # for some element.
    owner: dict = {}
    pairs = []
    for j, p in enumerate(paths):
        keys = [v for v in p if v not in D]
        keys += [frozenset(e) for e in zip(p, p[1:]) if D.issuperset(e)]
        for key in keys:
            i = owner.setdefault(key, j)
            if i != j:
                pairs.append((i, j))
    i, j = least = min(pairs)
    shared = (set(paths[i]) - D) & (set(paths[j]) - D)
    if shared:
        return Violation(ViolationKind.VERTEX_OVERLAP,
                         f"vertex {min(shared)} shared", least)
    shared_e = ({frozenset(e) for e in zip(paths[i], paths[i][1:])}
                & {frozenset(e) for e in zip(paths[j], paths[j][1:])})
    e = min(tuple(sorted(fe)) for fe in shared_e)
    return Violation(ViolationKind.EDGE_OVERLAP, f"edge {e[0]}-{e[1]} shared", least)
