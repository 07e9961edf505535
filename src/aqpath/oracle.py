"""Exact ground truth at desk scale.

``max_dpaths`` computes the maximum number of internally disjoint paths
through three prescribed terminals on any small view.  A path through
three terminals has exactly one of them between the other two, so a family
splits into a profile (a, b, c) counting paths middled at each terminal;
the pair demands that profile induces are packed exactly by the segment
engine.  Profiles are scanned by decreasing total (then ascending
lexicographically); the first feasible total is the maximum because
dropping a path keeps a packing valid.  On a whole cube, an automorphism
that permutes the terminals sends a packing for one profile to a packing
for the permuted profile, so a refuted profile refutes its images under
the triple's symmetries (``cube.symmetries``) and they are skipped.  The
symmetries are found at the first refutation, so a call that refutes
nothing pays nothing for them.

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

import dataclasses
import itertools
import random
from typing import Sequence

from .cube import AugmentedCube, orbit_representatives, symmetries
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
    tracker = Budget(budget)
    _guard_size(view)
    trip = _terminals(D)
    for t in trip:
        if t not in view:
            raise ValueError(f"terminal {t} not in view")
    x, y, z = trip
    degs = tuple(len(view.neighbors(t)) for t in trip)
    ub = min(min(degs), _slot_bound(view, trip))
    perms = None  # the triple's permutations, found at the first refutation
    refuted: set[tuple[int, ...]] = set()
    for m in range(ub, 0, -1):
        for profile in _profiles(m, tuple(d - m for d in degs)):
            if profile in refuted:
                continue
            a, b, c = profile
            demands = [(x, y, a + b), (y, z, b + c), (x, z, a + c)]
            segs = pack_segments(view, demands, budget=tracker)
            if segs is not None:
                return m, _assemble(profile, segs)
            if perms is None:
                perms = _triple_perms(view, trip)
            for perm in perms:
                image = [0, 0, 0]
                for i, j in enumerate(perm):
                    image[j] = profile[i]
                refuted.add(tuple(image))
    return 0, []


def _triple_perms(view, trip: tuple[int, int, int]) -> set[tuple[int, ...]]:
    """The permutations of ``trip`` that automorphisms of ``view`` fixing
    the set induce, other than the identity; only on a whole cube, where
    an automorphism sends a packing for a profile to one for the permuted
    profile, so a refuted profile refutes its images."""
    if type(view) is not AugmentedCube:
        return set()
    return {perm for _, _, perm in symmetries(view.n, trip)} - {(0, 1, 2)}


def _terminals(D: Sequence[int]) -> tuple[int, int, int]:
    """D as an ascending triple; it must be three distinct vertices."""
    trip = tuple(sorted(D))
    if len(trip) != 3 or len(set(trip)) != 3:
        raise ValueError("need three distinct terminals")
    return trip


# -- independent small-scale referee -----------------------------------


def _path_masks(view, u: int, w: int, via: int, bit: dict[int, int],
                direct: dict[tuple[int, int], int], found: list[int]) -> None:
    """Append to ``found`` the mask of every simple u-w path that visits
    ``via``, unless it holds a mask already there: ``bit[v]`` for each
    interior vertex, ``direct[a, b]`` for each terminal-terminal edge.  A
    path is abandoned as soon as its mask so far holds one in ``found``,
    since every completion would too."""
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

    if via != w:
        extend(u, 0)


def brute_small(view, D: Sequence[int]) -> int:
    """Exact maximum by full path enumeration; guarded to 14 vertices."""
    _guard_size(view, 14, "brute enumeration")
    trip = _terminals(D)
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


def _triples(view, mode: str, seed: int | None, count: int | None):
    # the guards come before any vertex list is built
    _guard_size(view)
    if mode == "exhaustive":
        if seed is not None or count is not None:
            raise ValueError("exhaustive mode takes no seed or count")
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
