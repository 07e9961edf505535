"""Exact ground truth at desk scale.

``max_dpaths`` computes the maximum number of internally disjoint paths
through three prescribed terminals x, y, z on any small view.  A path
through them has one terminal between the other two, so a family splits
into a profile (a, b, c) counting paths middled at x, y and z; the pair
demands that profile induces, a + b segments x-y, b + c y-z and a + c x-z,
are packed exactly by the segment engine.  Profiles are scanned by
decreasing total (then ascending lexicographically); the first feasible
total is the maximum because dropping a path keeps a packing valid.

``brute_small`` is the oracle's own referee: it enumerates the simple
terminal-to-terminal paths containing the third terminal and takes a
maximum pairwise-compatible subset.  Two such paths are compatible iff
their interiors are disjoint and they do not reuse a terminal-terminal
edge, so each path collapses to one mask of the interior vertices and
direct edges it uses.  A path can always give way to one whose mask is a
subset of its own, so only the inclusion-minimal masks matter: the
enumeration abandons a path once its mask holds one already found, and
the subset search is a tiny clique problem over the minimal masks.

Also here: common-neighbor scans, the regular-graph counting bound, the
closed-form ceiling for augmented cubes, and the extremal witness triple
(with the adjacent-to-all-four certificate and the uncorrected variant
kept for regression).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

from .cube import (AugmentedCube, check_triple, check_vertices, guard_size,
                   orbit_representatives)
from .cube import ResourceGuard  # re-exported: callers catch oracle.ResourceGuard
from .packing import DEFAULT_BUDGET, Budget, pack_segments

# far above AQ_6, the largest view the shipped claims sweep; every entry
# point checks it before it lists a vertex
ORACLE_MAX_VERTICES = 1 << 16
# the largest view the exhaustive sweeps (pi3_exact, max_common) list
EXHAUSTIVE_MAX_VERTICES = 64


# -- counting bounds ---------------------------------------------------


def regular_upper_bound(k: int, r: int) -> int:
    """Ceiling floor((3k - r)/4) for a k-regular graph whose triples share
    at most r common neighbors."""
    if type(k) is not int or type(r) is not int or k < 1 or not 0 <= r <= k:
        raise ValueError(f"need integers k >= 1 and 0 <= r <= k, not {k!r}, {r!r}")
    return (3 * k - r) // 4


def cube_upper_bound(n: int) -> int:
    """floor((6n - 7)/4): the counting ceiling for the n-cube's degree
    2n-1 with four shared neighbors attainable."""
    if type(n) is not int or n < 4:  # a bool is not a dimension
        raise ValueError(f"bound defined for integers n >= 4, not {n!r}")
    return regular_upper_bound(2 * n - 1, 4)


def _slot_bound(view, D: Sequence[int]) -> int:
    """Per-triple counting ceiling: every family edge at a terminal needs a
    slot, a non-terminal can host at most two slots, and each terminal pair
    can use its direct edge once (two slots, one at each end)."""
    slots, seen, twice = 0, set(), set()  # seen at a terminal, and at a second one
    for t in D:
        for w in view.neighbors(t):
            if w in D:
                slots += 1
            elif w in seen:
                twice.add(w)
            else:
                seen.add(w)
    return (slots + len(seen) + len(twice)) // 4


# -- exact maximum via split profiles ---------------------------------


def _profiles(m: int, caps: tuple[int, int, int]):
    """Profiles (a, b, c) with a+b+c = m, each coordinate within its
    terminal's spare degree, ascending lexicographic order."""
    ca, cb, cc = caps
    for a in range(0, min(m, ca) + 1):
        for b in range(0, min(m - a, cb) + 1):
            c = m - a - b
            if c <= cc:
                yield (a, b, c)


def _assemble(profile: tuple[int, int, int],
              segs: list[list[tuple[int, ...]]]) -> list[tuple[int, ...]]:
    """Glue pair segments into full three-terminal paths around each middle."""
    a, b, c = profile
    xy, yz, xz = segs
    fam: list[tuple[int, ...]] = []
    for i in range(a):  # middled at x: y..x..z
        fam.append(tuple(reversed(xy[i])) + xz[i][1:])
    for i in range(b):  # middled at y: x..y..z
        fam.append(xy[a + i] + yz[i][1:])
    for i in range(c):  # middled at z: x..z..y
        fam.append(xz[a + i] + tuple(reversed(yz[b + i]))[1:])
    return fam


def max_dpaths(view, D: Sequence[int], budget: int = DEFAULT_BUDGET
               ) -> tuple[int, list[tuple[int, ...]]]:
    """Exact maximum family size through the three terminals, with a witness.

    The profiles are scanned in decreasing total, and the first one that
    packs gives the value; a value of 0 comes with an empty witness.
    ``budget`` is one tick count shared by every profile of the call, not
    a count per profile.  Raises ``SearchBudgetExceeded`` when the ticks
    run out, ``ResourceGuard`` when the view has more than
    ``ORACLE_MAX_VERTICES`` vertices, and ``ValueError`` for a budget that
    is not a non-negative int or a triple that is not three distinct
    vertices of the view.
    """
    tracker = Budget(budget)
    guard_size(view, ORACLE_MAX_VERTICES, "the oracle")
    trip = tuple(sorted(check_triple(view, D, "terminal")))
    degs = tuple(len(view.neighbors(t)) for t in trip)
    ub = min(min(degs), _slot_bound(view, trip))
    for m in range(ub, 0, -1):
        for profile in _profiles(m, tuple(d - m for d in degs)):
            a, b, c = profile
            segs = pack_segments(view, trip, (a + b, b + c, a + c),
                                 budget=tracker)
            if segs is not None:
                return m, _assemble(profile, segs)
    return 0, []


# -- independent small-scale referee -----------------------------------


def _path_masks(view, u: int, w: int, via: int, bit: dict[int, int],
                direct: dict[tuple[int, int], int], found: list[int]) -> None:
    """Append to ``found`` the mask of every simple u-w path that visits
    ``via``, a third vertex, unless it holds a mask already there:
    ``bit[v]`` for each interior vertex, ``direct[a, b]`` for each
    terminal-terminal edge.  A path is abandoned as soon as its mask so
    far holds one in ``found``, since every completion would too."""
    on = {u}

    def extend(cur: int, mask: int) -> None:
        for nxt in view.neighbors(cur):
            step = mask | direct.get((cur, nxt), 0)
            if nxt == w:
                if via in on and not any(f & step == f for f in found):
                    found.append(step)
            elif nxt not in on:
                step |= bit.get(nxt, 0)
                if not any(f & step == f for f in found):
                    on.add(nxt)
                    extend(nxt, step)
                    on.discard(nxt)

    extend(u, 0)


def brute_small(view, D: Sequence[int]) -> int:
    """Exact maximum by full path enumeration; guarded to 14 vertices."""
    guard_size(view, 14, "brute enumeration")
    trip = tuple(sorted(check_triple(view, D, "terminal")))
    verts = sorted(view.vertices())
    x, y, z = trip
    bit = {v: 1 << i for i, v in enumerate(verts) if v not in trip}
    direct: dict[tuple[int, int], int] = {}
    for i, (a, b) in enumerate([(x, y), (y, z), (x, z)], start=len(verts)):
        direct[a, b] = direct[b, a] = 1 << i
    found: list[int] = []
    for u, w, via in [(x, y, z), (y, z, x), (x, z, y)]:
        _path_masks(view, u, w, via, bit, direct, found)

    # every path's mask holds a minimal one, and a path can trade places
    # with a path of that mask, so only the minimal masks matter
    order: list[int] = []
    for mask in sorted(found, key=int.bit_count):
        if not any(kept & mask == kept for kept in order):
            order.append(mask)
    size = len(order)
    best = 0

    def grow(start: int, used: int, depth: int) -> None:
        nonlocal best
        best = max(best, depth)
        for idx in range(start, size):
            if depth + (size - idx) <= best:
                break
            mask = order[idx]
            if not mask & used:
                grow(idx + 1, used | mask, depth + 1)

    grow(0, 0, 0)
    return best


# -- triple sweeps ------------------------------------------------------


def _triples(view):
    # the guards come before any vertex list is built
    guard_size(view, ORACLE_MAX_VERTICES, "the oracle")
    guard_size(view, EXHAUSTIVE_MAX_VERTICES, "exhaustive sweep")
    if isinstance(view, AugmentedCube):
        return orbit_representatives(view.n)
    return itertools.combinations(sorted(view.vertices()), 3)


def pi3_exact(view, *, budget: int = DEFAULT_BUDGET
              ) -> tuple[int, tuple[int, int, int]]:
    """Minimum of max_dpaths over every terminal triple, with the argmin
    triple (lexicographically smallest on ties).  A cube's sweep covers one
    triple per automorphism orbit; the least minimiser is its orbit's
    representative, so value and argmin are those of every triple.
    """
    best = min(((max_dpaths(view, D, budget)[0], D) for D in _triples(view)),
               default=None)
    if best is None:
        raise ValueError("no triples to sweep")
    return best


# -- common neighbors ---------------------------------------------------


def common_neighbors(view, vertices: Sequence[int]) -> set[int]:
    vs = list(vertices)
    if not vs:
        raise ValueError("need at least one vertex")
    check_vertices(view, vs)
    acc = set(view.neighbors(vs[0]))
    for v in vs[1:]:
        acc &= set(view.neighbors(v))
    return acc


def max_common(view, arity: int) -> tuple[int, tuple[int, ...]]:
    """Maximum shared-neighborhood size over all vertex pairs or triples.

    On an augmented cube, which is vertex-transitive, the first element is
    pinned to the smallest vertex, which translation invariance justifies.
    """
    if type(arity) is not int or arity not in (2, 3):  # 2.0 == 2
        raise ValueError(f"arity must be 2 or 3, not {arity!r}")
    guard_size(view, EXHAUSTIVE_MAX_VERTICES, "shared-neighbor scan")
    if view.vertex_count < arity:
        raise ValueError(f"no {arity}-vertex groups to scan, "
                         f"the view has {view.vertex_count}")
    verts = sorted(view.vertices())
    if isinstance(view, AugmentedCube):
        groups = ((verts[0], *rest)
                  for rest in itertools.combinations(verts[1:], arity - 1))
    else:
        groups = itertools.combinations(verts, arity)
    best, witness = -1, None
    for grp in groups:
        size = len(common_neighbors(view, grp))
        if size > best:
            best, witness = size, grp
    return best, witness


# -- extremal witness triple --------------------------------------------


class WitnessReport(NamedTuple):
    n: int
    triple: tuple[int, int, int]
    shared: tuple[int, int, int, int]
    certificate: tuple[tuple[int, int, str], ...]
    uncorrected_third: int


def witness_triple(n: int) -> WitnessReport:
    """A triple realizing four shared neighbors, with a mask certificate.

    The third vertex carries the complemented suffix; the variant with the
    plain suffix (``uncorrected_third``) fails adjacency to three of the
    four listed shared neighbors and is kept only so the discrepancy stays
    pinned by a regression test.
    """
    if type(n) is not int or n < 4:  # a bool is not a dimension
        raise ValueError(f"witness defined for integers n >= 4, not {n!r}")
    cube = AugmentedCube(n)
    low = (1 << (n - 3)) - 1  # all-ones suffix of length n-3
    x = 0
    y = (0b011 << (n - 3)) | low
    z = (0b101 << (n - 3)) | low
    a = (0b001 << (n - 3)) | low
    b = (0b111 << (n - 3)) | low
    c = 0b100 << (n - 3)
    d = 0b010 << (n - 3)
    cert = []
    for t in (x, y, z):
        for w in (a, b, c, d):
            label = cube.mask_label(t, w)
            if label is None:
                raise AssertionError(f"witness certificate broken at {t},{w}")
            cert.append((t, w, label))
    return WitnessReport(n=n, triple=(x, y, z), shared=(a, b, c, d),
                         certificate=tuple(cert),
                         uncorrected_third=0b101 << (n - 3))
