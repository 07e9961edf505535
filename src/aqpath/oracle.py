"""Exact ground truth at desk scale.

``max_dpaths`` computes the maximum number of internally disjoint paths
through three prescribed terminals on any small view.  A path through
three terminals has exactly one of them between the other two, so a family
splits into a profile (a, b, c) counting paths middled at each terminal;
the pair demands that profile induces are packed exactly by the segment
engine.  Profiles are scanned by decreasing total (then ascending
lexicographically); the first feasible total is the maximum because
dropping a path keeps a packing valid.

``brute_small`` is the oracle's own referee: it enumerates every simple
terminal-to-terminal path containing the third terminal and takes a
maximum pairwise-compatible subset.  Two such paths are compatible iff
their interiors are disjoint and they do not reuse a terminal-terminal
edge, so paths collapse to (interior set, direct-edge set) signatures and
the subset search is a tiny clique problem.

Also here: common-neighbor scans, the regular-graph counting bound, the
closed-form ceiling for augmented cubes, and the extremal witness triple
(with the adjacent-to-all-four certificate and the uncorrected variant
kept for regression).
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Iterable, Sequence

from .cube import AugmentedCube, orbit_representatives
from .packing import Budget, pack_segments

DEFAULT_BUDGET = 2_000_000
# far above AQ_6, the largest view the shipped claims sweep; every entry
# point checks it before it lists a vertex
ORACLE_MAX_VERTICES = 1 << 16
# the largest view the exhaustive sweeps (pi3_exact, max_common) list
EXHAUSTIVE_MAX_VERTICES = 64


class ResourceGuard(RuntimeError):
    """An oracle call was requested beyond the permitted size."""


def _guard_size(view, limit: int = ORACLE_MAX_VERTICES,
                what: str = "the oracle") -> None:
    if view.vertex_count > limit:
        raise ResourceGuard(f"{what} is limited to {limit} vertices, "
                            f"the view has {view.vertex_count}")


# -- counting bounds ---------------------------------------------------


def regular_upper_bound(k: int, r: int) -> int:
    """Ceiling floor((3k - r)/4) for a k-regular graph whose triples share
    at most r common neighbors."""
    if k < 1 or not 0 <= r <= k:
        raise ValueError("need k >= 1 and 0 <= r <= k")
    return (3 * k - r) // 4


def cube_upper_bound(n: int) -> int:
    """floor((6n - 3)/4) - 1: the counting ceiling for the n-cube's degree
    2n-1 with four shared neighbors attainable."""
    if n < 4:
        raise ValueError("bound defined for n >= 4")
    return (6 * n - 3) // 4 - 1


def _slot_bound(view, D: Sequence[int]) -> int:
    """Per-triple counting ceiling: every family edge at a terminal needs a
    slot, a non-terminal can host at most two slots, and each terminal pair
    can use its direct edge once."""
    Dset = set(D)
    shared: dict[int, int] = {}
    for t in D:
        for w in view.neighbors(t):
            if w not in Dset:
                shared[w] = shared.get(w, 0) + 1
    slots = sum(min(2, c) for c in shared.values())
    slots += 2 * sum(1 for a, b in itertools.combinations(sorted(Dset), 2)
                     if view.is_adjacent(a, b))
    return slots // 4


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


def max_dpaths(view, D: Sequence[int], budget: int | None = DEFAULT_BUDGET
               ) -> tuple[int, list[tuple[int, ...]]]:
    """Exact maximum family size through the three terminals, with a witness."""
    _guard_size(view)
    trip = tuple(sorted(set(D)))
    if len(trip) != 3:
        raise ValueError("need three distinct terminals")
    for t in trip:
        if t not in view:
            raise ValueError(f"terminal {t} not in view")
    degs = tuple(len(view.neighbors(t)) for t in trip)
    ub = min(min(degs), _slot_bound(view, trip))
    tracker = Budget(budget)
    for m in range(ub, 0, -1):
        fam = family_of_size(view, trip, degs, m, tracker)
        if fam is not None:
            return m, fam
    return 0, []


def family_of_size(view, trip: tuple[int, int, int], degs: tuple[int, int, int],
                   m: int, tracker: Budget) -> list[tuple[int, ...]] | None:
    """m paths through the sorted triple ``trip`` (terminal degrees
    ``degs``), from the first profile that packs; None when none does."""
    x, y, z = trip
    for profile in _profiles(m, tuple(d - m for d in degs)):
        a, b, c = profile
        demands = [(x, y, a + b), (y, z, b + c), (x, z, a + c)]
        segs = pack_segments(view, demands, budget=tracker)
        if segs is not None:
            return _assemble(profile, segs)
    return None


# -- independent small-scale referee -----------------------------------


def _simple_paths(view, u: int, w: int, via: int) -> Iterable[tuple[int, ...]]:
    """All simple u-w paths that visit ``via``."""
    path = [u]
    used = {u}

    def extend():
        cur = path[-1]
        for nxt in view.neighbors(cur):
            if nxt == w:
                if via in used:
                    yield (*path, w)
            elif nxt not in used and nxt != u:
                path.append(nxt)
                used.add(nxt)
                yield from extend()
                path.pop()
                used.discard(nxt)

    if via == w:
        return
    yield from extend()


def brute_small(view, D: Sequence[int]) -> int:
    """Exact maximum by full path enumeration; guarded to 14 vertices."""
    _guard_size(view, 14, "brute enumeration")
    verts = sorted(view.vertices())
    trip = tuple(sorted(set(D)))
    if len(trip) != 3:
        raise ValueError("need three distinct terminals")
    x, y, z = trip
    index = {v: i for i, v in enumerate(verts)}
    direct_pairs = [(x, y), (y, z), (x, z)]

    sigs: set[tuple[int, int]] = set()
    for (u, w, via) in [(x, y, z), (y, z, x), (x, z, y)]:
        for p in _simple_paths(view, u, w, via):
            imask = 0
            for v in p:
                if v not in trip:
                    imask |= 1 << index[v]
            edges = {frozenset(e) for e in zip(p, p[1:])}
            dmask = 0
            for bit, pair in enumerate(direct_pairs):
                if frozenset(pair) in edges:
                    dmask |= 1 << bit
            sigs.add((imask, dmask))

    order = sorted(sigs)
    best = 0

    def grow(start: int, imask: int, dmask: int, depth: int) -> None:
        nonlocal best
        best = max(best, depth)
        for idx in range(start, len(order)):
            if depth + (len(order) - idx) <= best:
                break
            si, sd = order[idx]
            if si & imask or sd & dmask:
                continue
            grow(idx + 1, imask | si, dmask | sd, depth + 1)

    grow(0, 0, 0, 0)
    return best


# -- triple sweeps ------------------------------------------------------


def _triples(view, mode: str, seed: int | None, count: int | None):
    # the guards come before any vertex list is built
    _guard_size(view)
    if mode == "exhaustive":
        _guard_size(view, EXHAUSTIVE_MAX_VERTICES, "exhaustive sweep")
        if isinstance(view, AugmentedCube):
            yield from orbit_representatives(view.n)
        else:
            yield from itertools.combinations(sorted(view.vertices()), 3)
    elif mode == "sampled":
        if seed is None or count is None:
            raise ValueError("sampled mode needs an explicit seed and count")
        verts = sorted(view.vertices())
        rng = random.Random(seed)
        for _ in range(count):
            yield tuple(sorted(rng.sample(verts, 3)))
    else:
        raise ValueError(f"unknown mode {mode!r}")


def pi3_exact(view, mode: str = "exhaustive", seed: int | None = None,
              count: int | None = None, budget: int | None = DEFAULT_BUDGET
              ) -> tuple[int, tuple[int, int, int]]:
    """Minimum of max_dpaths over terminal triples, with the argmin triple
    (lexicographically smallest on ties).  An exhaustive sweep of a cube
    covers one triple per automorphism orbit; the least minimiser is its
    orbit's representative, so value and argmin are those of every triple.
    """
    best = min(((max_dpaths(view, D, budget)[0], D)
                for D in _triples(view, mode, seed, count)), default=None)
    if best is None:
        raise ValueError("no triples to sweep")
    return best


# -- common neighbors ---------------------------------------------------


def common_neighbors(view, vertices: Sequence[int]) -> set[int]:
    vs = list(vertices)
    if not vs:
        raise ValueError("need at least one vertex")
    acc = set(view.neighbors(vs[0]))
    for v in vs[1:]:
        acc &= set(view.neighbors(v))
    return acc


def max_common(view, arity: int) -> tuple[int, tuple[int, ...]]:
    """Maximum shared-neighborhood size over all vertex pairs or triples.

    On an augmented cube, which is vertex-transitive, the first element is
    pinned to the smallest vertex, which translation invariance justifies.
    """
    if arity not in (2, 3):
        raise ValueError("arity must be 2 or 3")
    _guard_size(view, EXHAUSTIVE_MAX_VERTICES, "shared-neighbor scan")
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


@dataclasses.dataclass(frozen=True)
class WitnessReport:
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
    if n < 4:
        raise ValueError("witness defined for n >= 4")
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
            m = cube.mask_between(t, w)
            if m is None:
                raise AssertionError(f"witness certificate broken at {t},{w}")
            cert.append((t, w, m.label))
    return WitnessReport(n=n, triple=(x, y, z), shared=(a, b, c, d),
                         certificate=tuple(cert),
                         uncorrected_third=0b101 << (n - 3))
