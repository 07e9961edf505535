"""Implicit augmented-cube topology: vertices, XOR masks, sub-cube views.

Conventions
-----------
- A vertex of the n-dimensional augmented cube is an integer in [0, 2**n).
  Bit 1 is the outermost address bit of the recursive construction and is
  stored as the most significant bit, so ``format(v, "0{n}b")`` reads left
  to right as bit 1 .. bit n.
- Adjacency is computed, never stored.  Two vertices are adjacent exactly
  when their XOR difference equals one of the 2n-1 mask words

      hyper(d)       = bit d alone           (1 <= d <= n)
      complement(d)  = the suffix run d..n   (1 <= d <= n-1)

  Dimension 1 is the two-vertex complete graph; dimension 2 the complete
  graph on four vertices.  (Starting the recursion one level lower would
  contradict the 2n-1 degree that everything downstream relies on.)
- XOR translation by any word is an adjacency-preserving bijection, which
  is what lets sweeps pin one terminal and lets the constructor relocate
  a triple into a canonical position.  A bit permutation is an
  automorphism only if it maps every complement mask (a suffix run) to a
  suffix run of the same length, so the only one besides the identity
  swaps the last two bits; no bit permutation is ever applied.
- The distance between u and v is the fewest mask words whose XOR is
  u ^ v (``distance``).  It does not depend on n, and it bounds the hop
  count in every view below: a view keeps a subset of the cube's edges.

Every view (half, quadrant, diamond, restriction) answers adjacency with
the parent cube's masks filtered by membership, and distance with the
cube's value.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, NamedTuple, Sequence


class AdjacencyMask(NamedTuple):
    kind: str  # "h" (single bit) or "c" (suffix run)
    level: int
    word: int

    @property
    def label(self) -> str:
        return f"{self.kind}{self.level}"


def hyper_word(n: int, d: int) -> int:
    """Mask word flipping bit d of an n-bit vertex."""
    if not 1 <= d <= n:
        raise ValueError(f"hyper level {d} out of range for n={n}")
    return 1 << (n - d)


def complement_word(n: int, d: int) -> int:
    """Mask word flipping the suffix run d..n; d = n is not a complement level."""
    if not 1 <= d <= n - 1:
        raise ValueError(f"complement level {d} out of range for n={n}")
    return (1 << (n - d + 1)) - 1


def distance(u: int, v: int) -> int:
    """Fewest mask words whose XOR is u ^ v.

    Under w -> w ^ (w >> 1) each complement word becomes a single bit and
    each hyper word an adjacent bit pair (the lowest bit alone for the
    last one), so the distance is the sum of ceil(L/2) over the runs of 1s
    in the image: clear the lowest set bit and the bit above it until
    nothing is left, and count the steps.
    """
    w = u ^ v
    x = w ^ (w >> 1)
    d = 0
    while x:
        x &= ~((x & -x) * 3)
        d += 1
    return d


def translate(x: int, t: int) -> int:
    """XOR translation; bijective and adjacency-preserving on any cube."""
    return x ^ t


class AugmentedCube:
    """Handle for the n-dimensional augmented cube (also usable as a view)."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        self.n = n
        self.bits = n
        self.vertex_count = 1 << n
        masks = [AdjacencyMask("h", d, hyper_word(n, d)) for d in range(1, n + 1)]
        masks += [AdjacencyMask("c", d, complement_word(n, d)) for d in range(1, n)]
        self.masks: tuple[AdjacencyMask, ...] = tuple(masks)
        self.mask_words: frozenset[int] = frozenset(m.word for m in masks)
        self.degree = len(self.masks)
        self._nbrs: dict[int, tuple[int, ...]] = {}

    # -- basic queries -------------------------------------------------

    def edge_count(self) -> int:
        return self.degree * self.vertex_count // 2

    def vertices(self) -> range:
        return range(self.vertex_count)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.vertex_count

    def check_vertex(self, v: int) -> None:
        if v not in self:
            raise ValueError(f"vertex {v} outside [0, 2^{self.n})")

    def neighbors(self, x: int) -> tuple[int, ...]:
        got = self._nbrs.get(x)
        if got is None:
            self.check_vertex(x)
            got = tuple(sorted(x ^ m.word for m in self.masks))
            self._nbrs[x] = got
        return got

    def is_adjacent(self, x: int, y: int) -> bool:
        return (x ^ y) in self.mask_words

    distance = staticmethod(distance)

    def h_neighbor(self, x: int, d: int) -> int:
        self.check_vertex(x)
        return x ^ hyper_word(self.n, d)

    def c_neighbor(self, x: int, d: int) -> int:
        self.check_vertex(x)
        return x ^ complement_word(self.n, d)

    def mask_between(self, x: int, y: int) -> AdjacencyMask | None:
        w = x ^ y
        for m in self.masks:
            if m.word == w:
                return m
        return None

    # -- decomposition -------------------------------------------------

    def half(self, x: int) -> int:
        self.check_vertex(x)
        return (x >> (self.n - 1)) & 1

    def quadrant(self, x: int) -> int:
        """Two leading bits as an integer 0b00..0b11."""
        if self.n < 2:
            raise ValueError("quadrants need dimension >= 2")
        self.check_vertex(x)
        return x >> (self.n - 2)

    def half_view(self, bit: int) -> "PrefixView":
        if self.n < 2:
            raise ValueError("half view needs dimension >= 2")
        return PrefixView(self, (bit,), prefix_bits=1)

    def quadrant_view(self, quad: int) -> "PrefixView":
        if self.n < 3:
            raise ValueError("quadrant view needs dimension >= 3")
        return PrefixView(self, (quad,), prefix_bits=2)

    def diamond_view(self, quad_a: int, quad_b: int) -> "PrefixView":
        if self.n < 3:
            raise ValueError("diamond view needs dimension >= 3")
        if quad_a == quad_b:
            raise ValueError("diamond needs two distinct quadrants")
        return PrefixView(self, (quad_a, quad_b), prefix_bits=2)


def make_cube(n: int) -> AugmentedCube:
    return AugmentedCube(n)


class PrefixView:
    """The subgraph a cube induces on the vertices whose leading
    ``prefix_bits`` bits form one of ``prefixes``.

    One prefix gives a half or a quadrant, which is exactly the
    lower-dimensional augmented cube on the remaining bits.  Two quadrant
    prefixes give a diamond: both quadrants plus the perfect matching(s)
    the cube places between them (one matching across halves or across
    the diagonal, two between siblings of one half).  Membership is a
    prefix test; adjacency is the parent's masks filtered by membership.
    """

    def __init__(self, cube: AugmentedCube, prefixes: Iterable[int], prefix_bits: int):
        self.cube = cube
        self.bits = cube.n
        self.prefixes = frozenset(prefixes)
        self.shift = cube.n - prefix_bits
        self.vertex_count = len(self.prefixes) << self.shift
        self._nbrs: dict[int, tuple[int, ...]] = {}

    def vertices(self) -> Sequence[int]:
        blocks = [range(p << self.shift, (p + 1) << self.shift)
                  for p in sorted(self.prefixes)]
        return blocks[0] if len(blocks) == 1 else [v for b in blocks for v in b]

    def __contains__(self, v: int) -> bool:
        # every prefix is below 2**(n - shift) and a negative v shifts to a
        # negative, so the prefix test alone keeps v inside the cube
        return (v >> self.shift) in self.prefixes

    def neighbors(self, x: int) -> tuple[int, ...]:
        got = self._nbrs.get(x)
        if got is None:
            if x not in self:
                raise ValueError(f"vertex {x} not in this view")
            got = tuple(w for w in self.cube.neighbors(x) if w in self)
            self._nbrs[x] = got
        return got

    def is_adjacent(self, x: int, y: int) -> bool:
        return x in self and y in self and self.cube.is_adjacent(x, y)

    # the cube's distance: a lower bound on hops inside the view
    distance = staticmethod(distance)


class RestrictedView:
    """A view minus forbidden vertices and/or edges; used for avoid sets."""

    def __init__(self, base, forbidden_vertices: Iterable[int] = (),
                 forbidden_edges: Iterable[tuple[int, int]] = ()):
        self.base = base
        self.bits = base.bits
        self.forbidden_vertices = frozenset(forbidden_vertices)
        self.forbidden_edges = frozenset(frozenset(e) for e in forbidden_edges)
        self._nbrs: dict[int, tuple[int, ...]] = {}

    def vertices(self) -> list[int]:
        return [v for v in self.base.vertices() if v not in self.forbidden_vertices]

    @property
    def vertex_count(self) -> int:
        return self.base.vertex_count - sum(1 for v in self.forbidden_vertices
                                            if v in self.base)

    def __contains__(self, v: int) -> bool:
        return v in self.base and v not in self.forbidden_vertices

    def neighbors(self, x: int) -> tuple[int, ...]:
        got = self._nbrs.get(x)
        if got is None:
            if x not in self:
                raise ValueError(f"vertex {x} not in this view")
            got = tuple(w for w in self.base.neighbors(x)
                        if w not in self.forbidden_vertices
                        and frozenset((x, w)) not in self.forbidden_edges)
            self._nbrs[x] = got
        return got

    def is_adjacent(self, x: int, y: int) -> bool:
        return (x in self and y in self
                and frozenset((x, y)) not in self.forbidden_edges
                and self.base.is_adjacent(x, y))

    def distance(self, x: int, y: int) -> int:
        """The base's distance: a lower bound on hops with fewer edges."""
        return self.base.distance(x, y)


class AdjListView:
    """Explicit small graph (text-format input, random test corpora)."""

    def __init__(self, edges: Iterable[tuple[int, int]], bits: int,
                 vertices: Iterable[int] = ()):
        adj: dict[int, set[int]] = {}
        for v in vertices:
            adj.setdefault(v, set())
        for u, w in edges:
            if u == w:
                raise ValueError("self-loops not allowed")
            adj.setdefault(u, set()).add(w)
            adj.setdefault(w, set()).add(u)
        self.bits = bits
        self._adj = {v: tuple(sorted(ws)) for v, ws in sorted(adj.items())}
        self.vertex_count = len(self._adj)

    def vertices(self) -> list[int]:
        return list(self._adj)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def neighbors(self, x: int) -> tuple[int, ...]:
        return self._adj[x]

    def is_adjacent(self, x: int, y: int) -> bool:
        return x in self._adj and y in self._adj[x]

    def distance(self, x: int, y: int) -> int:
        """No known bound on an arbitrary graph, so 0."""
        return 0

    def edges(self) -> list[tuple[int, int]]:
        return [(u, w) for u, ws in self._adj.items() for w in ws if u < w]


# -- triple canonicalization ------------------------------------------


@dataclasses.dataclass(frozen=True)
class CanonicalTriple:
    """A triple relocated so the constructor's case patterns literally hold.

    ``roles`` is the canonical (x, y, z); ``translation`` the XOR word that
    was applied; ``perm[i]`` names which input position plays role i.
    Pulling any path back through the translation restores original labels.
    """

    roles: tuple[int, int, int]
    translation: int
    perm: tuple[int, int, int]
    pattern: str  # "one-quadrant" | "sibling-pair" | "cross-half"

    def pull_back_path(self, path: Sequence[int]) -> tuple[int, ...]:
        t = self.translation
        return tuple(v ^ t for v in path)

    def pull_back_vertex(self, v: int) -> int:
        return v ^ self.translation


def canonicalize_triple(cube: AugmentedCube, triple: Sequence[int]) -> CanonicalTriple:
    """Translate a triple into the dispatcher's canonical position.

    Same half: everything moves to half 0; if all three share a quadrant the
    quadrant becomes 00, otherwise the same-quadrant pair moves to 00 and the
    lone vertex lands in 01.  Spanning halves: the pair's half becomes 0, the
    lone vertex half 1.  Roles are x, y = pair (ascending), z = lone vertex;
    in the one-quadrant pattern roles are simply ascending.
    """
    trip = tuple(triple)
    if len(trip) != 3 or len(set(trip)) != 3:
        raise ValueError("need three distinct vertices")
    for v in trip:
        cube.check_vertex(v)
    n = cube.n
    halves = [cube.half(v) for v in trip]
    word = 0
    if len(set(halves)) == 1:
        if halves[0] == 1:
            word ^= hyper_word(n, 1)
        moved = [v ^ word for v in trip]
        quads = [cube.quadrant(v) for v in moved]
        if len(set(quads)) == 1:
            if quads[0] == 0b01:
                word ^= hyper_word(n, 2)
            moved = [v ^ word for v in trip]
            order = sorted(range(3), key=lambda i: moved[i])
            pattern = "one-quadrant"
        else:
            pair_quad = next(q for q in quads if quads.count(q) == 2)
            if pair_quad == 0b01:
                word ^= hyper_word(n, 2)
            moved = [v ^ word for v in trip]
            pair = sorted(i for i in range(3) if quads[i] == pair_quad)
            lone = next(i for i in range(3) if quads[i] != pair_quad)
            pair.sort(key=lambda i: moved[i])
            order = [pair[0], pair[1], lone]
            pattern = "sibling-pair"
    else:
        lone_half = next(h for h in (0, 1) if halves.count(h) == 1)
        if lone_half == 0:
            word ^= hyper_word(n, 1)
        moved = [v ^ word for v in trip]
        pair = sorted((i for i in range(3) if halves[i] != lone_half),
                      key=lambda i: moved[i])
        lone = next(i for i in range(3) if halves[i] == lone_half)
        order = [pair[0], pair[1], lone]
        pattern = "cross-half"
    roles = tuple(trip[i] ^ word for i in order)
    return CanonicalTriple(roles=roles, translation=word,
                           perm=tuple(order), pattern=pattern)
