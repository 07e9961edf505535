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
  is what lets the constructor relocate a triple into a canonical
  position.  The 8 automorphisms that fix 0 (``automorphisms``) are
  linear maps permuting the mask words, generated by swapping the last two
  bits and by reversing the path that w -> w ^ (w >> 1) makes of the mask
  words; with the translations they let the exhaustive sweeps visit one
  triple per orbit (``orbit_representatives``), and those that send a
  terminal set onto itself (``symmetries``) let the oracle skip work one
  of them maps onto work already done.
- The distance between u and v is the fewest mask words whose XOR is
  u ^ v (``distance``).  It does not depend on n, and it bounds the hop
  count in every view below: a view keeps a subset of the cube's edges.
  It is a function of the gray word y = w ^ (w >> 1) of w = u ^ v alone,
  so ``distance_table(bits)`` holds it for every y below 2**bits in one
  cached ``bytes`` object, built on first use (1 KB at 10 bits, 1 MB at
  20).  A wider y is read in 20-bit chunks: the distance is the sum of
  ceil(L/2) over the runs of 1s in y, so the chunks' table values add up
  to it, except that a run cut by a chunk boundary into two odd parts
  counts one too many.  ``run_parity_table`` holds, per chunk, the
  parities of its two edge runs; it is built only when a reader wider
  than the table is first made.  ``distance_to(bits, t)`` hides both: it
  returns the function from x to its distance to t, and the flow and
  packing searches read every sink distance through a view's
  ``distance_to``.

The cube is the view of the empty prefix (``AugmentedCube`` is a
``PrefixView``).  Every view (the cube, a half, a quadrant, a diamond, a
restriction) answers adjacency with the cube's masks filtered by
membership, and distance with the cube's value.  A prefix view filters
once, per prefix: it keeps the mask words that stay inside it, and a row
is those words applied to the vertex.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


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


# widest table ``distance_table`` builds: 2**20 bytes
DISTANCE_TABLE_MAX_BITS = 20
_DISTANCE_TABLES: dict[int, bytes] = {}
_PLUS_ONE = bytes(range(1, 256)) + b"\0"


def distance_table(bits: int) -> bytes | None:
    """The table t with t[w ^ (w >> 1)] == distance(0, w) for every
    w < 2**bits, or None above ``DISTANCE_TABLE_MAX_BITS``.

    ``distance`` clears the lowest set bit of y and the bit above it, so
    t[y] = t[y >> 1] for even y and t[y >> 2] + 1 for odd y.  Each pass
    doubles the table with slice copies: entry 2i is t[i], and entries 2i
    and 2i + 1 of the odd half are both t[i] + 1.  Built once per width
    and cached; two threads that first ask at once may both build it,
    which only wastes the second build.
    """
    if bits > DISTANCE_TABLE_MAX_BITS:
        return None
    got = _DISTANCE_TABLES.get(bits)
    if got is None:
        t = bytearray(b"\0\1")
        while len(t) < 1 << bits:
            size = len(t)
            odd = t[:size // 2].translate(_PLUS_ONE)
            nxt = bytearray(2 * size)
            nxt[0::2] = t
            nxt[1::4] = odd
            nxt[3::4] = odd
            t = nxt
        got = _DISTANCE_TABLES[bits] = bytes(t[:1 << bits])
    return got


_KEEP_TOP = bytes(x & 2 for x in range(256))
_FLIP_BOTTOM = bytes(x ^ 1 for x in range(256))


@functools.cache
def run_parity_table() -> bytes:
    """The table p over the chunks c < 2**DISTANCE_TABLE_MAX_BITS with bit
    0 of p[c] set when the run of 1s starting at bit 0 of c has odd length
    and bit 1 set when the run of 1s ending at the chunk's top bit does.

    Reading a gray word y in chunks from the low end, with t the
    ``distance_table`` of the chunk width: distance(0, w) is the sum of
    t[c] over the chunks of y, less 1 at each boundary where the run
    reaching it from below and the run starting above it (bit 0 of the
    next chunk) both have odd length.  A chunk of all ones continues the
    run below it, so the run reaching its top keeps that run's parity.

    Each pass adds a bit below the chunk: c = 2m + b has m's top run
    (unless m is all ones) and the bottom run 0 when b = 0, one more than
    m's when b = 1.  Built once, on first use, and cached.
    """
    p = bytearray(b"\0")  # the empty word: both runs have length 0
    for bits in range(1, DISTANCE_TABLE_MAX_BITS + 1):
        nxt = bytearray(2 * len(p))
        nxt[0::2] = p.translate(_KEEP_TOP)
        nxt[1::2] = p.translate(_FLIP_BOTTOM)
        nxt[-1] = 3 * (bits % 2)  # all ones: one run of length bits
        p = nxt
    return bytes(p)


_CHUNK_BITS = DISTANCE_TABLE_MAX_BITS
_CHUNK = (1 << _CHUNK_BITS) - 1


def distance_to(bits: int, t: int) -> Callable[[int], int]:
    """The function ``dist(x)`` giving distance(x, t) for vertices below
    2**bits.  It holds t's gray word and looks g(x) ^ g(t) up in
    ``distance_table(bits)``; above ``DISTANCE_TABLE_MAX_BITS`` it reads
    the word in chunks of that width with the boundary correction of
    ``run_parity_table``."""
    gt = t ^ (t >> 1)
    table = distance_table(bits)
    if table is not None:
        lookup = table.__getitem__
        return lambda x: lookup(x ^ (x >> 1) ^ gt)
    table = distance_table(_CHUNK_BITS)
    parities = run_parity_table()

    def dist(x: int) -> int:
        y = x ^ (x >> 1) ^ gt
        d = odd = 0  # odd: the run reaching this chunk has odd length
        while y:
            c = y & _CHUNK
            p = parities[c]
            d += table[c] - (odd & p)
            if c != _CHUNK:  # a chunk of all ones passes odd on
                odd = p >> 1
            y >>= _CHUNK_BITS
        return d
    return dist


def map_vertex(images: Sequence[int], v: int) -> int:
    """The image of v under the linear map sending bit i to ``images[i]``."""
    out = 0
    for i, img in enumerate(images):
        if v >> i & 1:
            out ^= img
    return out


@functools.cache
def automorphisms(n: int) -> tuple[tuple[int, ...], ...]:
    """The distinct linear automorphisms, each as the images of bits
    0..n-1: (rho sigma)^k and sigma (rho sigma)^k for k = 0..3.  Under
    x = w ^ (w >> 1) the mask words become the unit vectors and the sums of
    neighbouring ones, the vertices and edges of a path; rho reverses that
    path and sigma swaps the last two bits.  There are 8 for n >= 3, 6 at
    n = 2 and 1 at n = 1.  Cached per n."""

    def rho(w: int) -> int:
        x = int(format(w ^ (w >> 1), f"0{n}b")[::-1], 2)
        w = 0
        while x:  # invert w -> w ^ (w >> 1)
            w ^= x
            x >>= 1
        return w

    def sigma(w: int) -> int:
        return w ^ (((w ^ (w >> 1)) & 1) * 0b11) if n >= 2 else w

    maps, images = [], [1 << i for i in range(n)]
    for _ in range(4):
        maps += [tuple(images), tuple(sigma(w) for w in images)]
        images = [rho(sigma(w)) for w in images]
    return tuple(dict.fromkeys(maps))


def symmetries(n: int, D: Sequence[int]
               ) -> Iterator[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """Every automorphism v -> map_vertex(g, v) ^ t of the n-cube that sends
    the set D onto itself, as (g, t, perm) with D[i] sent to D[perm[i]].
    Such a map sends D[0] into D, so t is g(D[0]) ^ d for some d in D:
    at most 8 |D| candidates, each checked on D alone.  The maps fixing D
    pointwise are those whose perm is the identity."""
    where = {d: i for i, d in enumerate(D)}
    for g in automorphisms(n):
        moved = [map_vertex(g, d) for d in D]
        for d in D:
            t = moved[0] ^ d
            perm = tuple(where.get(w ^ t, -1) for w in moved)
            if -1 not in perm:
                yield g, t, perm


def orbit_representatives(n: int) -> Iterable[tuple[int, int, int]]:
    """One triple per orbit of the n-cube's automorphisms (the 8 linear
    maps and the translations), in ascending order: the pinned triples
    (0, b, c) that no map followed by a translation carries to a
    lexicographically smaller triple containing 0.  That least triple
    contains 0, so every orbit has exactly one."""
    tables = [[map_vertex(g, v) for v in range(1 << n)]
              for g in automorphisms(n)]
    for b, c in itertools.combinations(range(1, 1 << n), 2):
        # translating by 0, g(b) or g(c) leaves 0 and the other two
        if all((b, c) <= tuple(sorted(pair))
               for g in tables
               for pair in ((g[b], g[c]), (g[b], g[b] ^ g[c]), (g[c], g[b] ^ g[c]))):
            yield (0, b, c)


class PrefixView:
    """The subgraph a cube induces on the vertices whose leading
    ``prefix_bits`` bits form one of ``prefixes``.

    The empty prefix gives the whole cube (``AugmentedCube`` is that view).
    One prefix gives a half or a quadrant, which is exactly the
    lower-dimensional augmented cube on the remaining bits.  Two quadrant
    prefixes give a diamond: both quadrants plus the perfect matching(s)
    the cube places between them (one matching across halves or across
    the diagonal, two between siblings of one half).  Membership is a
    prefix test; adjacency is the parent's masks filtered by membership,
    done once per prefix: ``_words[p]`` holds the mask words that keep a
    vertex with prefix p inside the view, in the cube's mask order.  The
    view keeps the cube's mask words, not the cube, so the cube holding
    itself as its own view makes no reference cycle.
    """

    def __init__(self, cube: AugmentedCube, prefixes: Iterable[int], prefix_bits: int):
        self.bits = cube.n
        self.mask_words = cube.mask_words
        self.prefixes = frozenset(prefixes)
        self.shift = shift = cube.n - prefix_bits
        self.vertex_count = len(self.prefixes) << shift
        self._words = {p: tuple(m for m in cube.words if p ^ (m >> shift) in self.prefixes)
                       for p in self.prefixes}
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
            words = self._words.get(x >> self.shift)
            if words is None:
                raise ValueError(f"vertex {x} not in this view")
            got = self._nbrs[x] = tuple(sorted(map(x.__xor__, words)))
        return got

    def is_adjacent(self, x: int, y: int) -> bool:
        # the mask test first: a non-adjacent pair costs one set lookup
        return (x ^ y) in self.mask_words and x in self and y in self

    # the cube's distance: a lower bound on hops inside the view
    distance = staticmethod(distance)

    def distance_to(self, t: int) -> Callable[[int], int]:
        """x -> the cube's distance from x to t; the function does not
        refer to the view."""
        return distance_to(self.bits, t)


class AugmentedCube(PrefixView):
    """The n-dimensional augmented cube: the view of the empty prefix, plus
    its masks and its decomposition into halves, quadrants and diamonds."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        self.n = n
        masks = [AdjacencyMask("h", d, hyper_word(n, d)) for d in range(1, n + 1)]
        masks += [AdjacencyMask("c", d, complement_word(n, d)) for d in range(1, n)]
        self.masks: tuple[AdjacencyMask, ...] = tuple(masks)
        self.words: tuple[int, ...] = tuple(m.word for m in masks)
        self.mask_words: frozenset[int] = frozenset(self.words)
        self.degree = len(self.masks)
        super().__init__(self, (0,), prefix_bits=0)

    # -- basic queries -------------------------------------------------

    def edge_count(self) -> int:
        return self.degree * self.vertex_count // 2

    def check_vertex(self, v: int) -> None:
        if v not in self:
            raise ValueError(f"vertex {v} outside [0, 2^{self.n})")

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

    def half_view(self, bit: int) -> PrefixView:
        if self.n < 2:
            raise ValueError("half view needs dimension >= 2")
        return PrefixView(self, (bit,), prefix_bits=1)

    def quadrant_view(self, quad: int) -> PrefixView:
        if self.n < 3:
            raise ValueError("quadrant view needs dimension >= 3")
        return PrefixView(self, (quad,), prefix_bits=2)

    def diamond_view(self, quad_a: int, quad_b: int) -> PrefixView:
        if self.n < 3:
            raise ValueError("diamond view needs dimension >= 3")
        if quad_a == quad_b:
            raise ValueError("diamond needs two distinct quadrants")
        return PrefixView(self, (quad_a, quad_b), prefix_bits=2)


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

    def distance_to(self, t: int) -> Callable[[int], int]:
        return self.base.distance_to(t)


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

    def distance_to(self, t: int) -> Callable[[int], int]:
        """x -> 0: every distance is 0 (see ``distance``)."""
        return lambda x: 0

    def edges(self) -> list[tuple[int, int]]:
        return [(u, w) for u, ws in self._adj.items() for w in ws if u < w]
