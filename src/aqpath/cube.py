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
  triple per orbit (``orbit_representatives``).
- The distance between u and v is the fewest mask words whose XOR is
  u ^ v (``distance``).  It does not depend on n, and it bounds the hop
  count in every view below: a view keeps a subset of the cube's edges.
  It is a function of the gray word y = w ^ (w >> 1) of w = u ^ v alone:
  the sum of ceil(L/2) over the runs of 1s in y, counted in a few integer
  operations at any width.  ``distance_to(bits, t)`` returns the function
  from x to its distance to t.  The flow and packing searches read every
  sink distance from the view's one table per sink (``sink_distances``),
  which computes an entry from the view's ``distance_to`` on its first
  read; a walk (``flow.descend``) reads ``distance_to`` directly.
- Every entry point that takes a terminal triple reads and checks it once
  (``check_triple``): three distinct int vertices of the view.

The cube is the view of the empty prefix (``AugmentedCube`` is a
``PrefixView`` that also names its mask words: ``mask_label`` reads the
label off the word).  Every view (the cube, a half, a quadrant, a
diamond, a restriction) answers adjacency with the cube's masks filtered
by membership, and distance (``distance_to``) with the cube's value.
Every sub-cube is a prefix view of one cube, taken from the view it lies
in (``half_view``, ``quadrant_view``, ``diamond_view``), and filters its
parent's words once: it keeps the mask words that stay inside it, the
same for each of its one or two prefixes, and a row is those words
applied to the vertex.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterable, Iterator, Sequence

# the cube holds 2n - 1 mask words of up to n bits, O(n^2) bits in all: on
# a 2-core Xeon n = 4,096 builds in 0.016 s at 17 MB peak RSS, n = 32,768
# in 1.0 s at 164 MB, and the cost grows fourfold per doubling beyond
CUBE_MAX_N = 4096


class ResourceGuard(RuntimeError):
    """A call was requested beyond the permitted size."""


def guard_size(view, limit: int, what: str) -> None:
    """Raise ``ResourceGuard`` when the view has more than ``limit`` vertices."""
    if view.vertex_count > limit:
        raise ResourceGuard(f"{what} is limited to {limit} vertices, "
                            f"the view has {view.vertex_count}")


def check_vertices(view, vertices: Iterable[int], what: str = "vertex") -> None:
    """Raise ``ValueError`` unless every item is an int of the view: the
    type first, as a bool or a float equal to a vertex passes the view's
    membership test."""
    for v in vertices:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"{what} {v!r} is not an integer")
        if v not in view:
            raise ValueError(f"{what} {v} not in view")


def check_triple(view, D: Iterable[int], what: str = "vertex") -> tuple[int, ...]:
    """``D`` as a tuple, read once, after ``check_vertices``; ``ValueError``
    unless it holds three distinct items."""
    trip = tuple(D)
    check_vertices(view, trip, what)
    if len(trip) != 3 or len(set(trip)) != 3:
        plural = "vertices" if what == "vertex" else what + "s"
        raise ValueError(f"need three distinct {plural}")
    return trip


class _SinkTable(dict):
    """Distances to one sink by vertex, each computed on its first read."""

    __slots__ = ("dist",)

    def __init__(self, dist: Callable[[int], int]):
        self.dist = dist

    def __missing__(self, x: int) -> int:
        d = self[x] = self.dist(x)
        return d


def sink_distances(view, t: int) -> dict[int, int]:
    """The view's one table of distances to the sink t: ``h[x]`` is
    ``view.distance_to(t)(x)`` (the closed form on a cube view, 0 on an
    adjacency list), computed and stored on the first read.  It depends on
    nothing else, so the tables live in the view's ``to_sink``, shared by
    every net and search over it (and ``flow.route``'s order of retries
    toward the free sinks), and go when the view does."""
    got = view.to_sink.get(t)
    if got is None:
        got = view.to_sink[t] = _SinkTable(view.distance_to(t))
    return got


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


# a width -> the word of bits 0, 2, 4, ... below it, computed once per width
_EVEN: dict[int, int] = {}


def distance_to(bits: int, t: int) -> Callable[[int], int]:
    """The function ``dist(x)`` giving distance(x, t) for vertices below
    2**bits, read from the gray word y = g(x) ^ g(t), g(w) = w ^ (w >> 1).

    A run of 1s of length L in y holds ceil(L/2) bits at positions of its
    lowest bit's parity.  Adding to y the lowest bits of its runs that sit
    at even positions carries each of those runs away, so y & that sum
    keeps the runs whose lowest bit is odd; XOR with y's even-position
    bits leaves, in every run, exactly the bits of its lowest bit's parity.
    """
    gt = t ^ (t >> 1)
    even = _EVEN.get(bits) or _EVEN.setdefault(bits, (4 ** ((bits + 1) // 2) - 1) // 3)

    def dist(x: int) -> int:
        y = x ^ (x >> 1) ^ gt
        ye = y & even
        return (ye ^ (y & (y + (ye & ~(y << 1))))).bit_count()
    return dist


def closer_words(y: int) -> Iterator[int]:
    """Mask words w with distance(x ^ w, t) = distance(x, t) - 1, for the
    gray word y = g(x) ^ g(t) != 0, lazily, run by run from y's lowest bit:
    a nonempty subset of them, the words whose gray image lies inside one
    run of y and shortens it.

    The gray image of the word (2 << q) - 1 is bit q alone, and that of
    1 << (q + 1) the bits q and q + 1.  Clearing one bit at an even offset
    of a run of odd length L leaves two runs of even length, and clearing
    a pair anywhere in it an odd and an even one, so either costs (L - 1)/2
    instead of (L + 1)/2; in a run of even length, clearing a pair at an
    even offset leaves two of even length.  So there is always one.  A pair
    that reaches from a run into the gap beside it, joining it to the next
    run, can be closer too and is not yielded: for x ^ t = 249 in AQ_8 the
    closer words are 1, 2, 4, 7 and 255, and this yields 1, 7 and 255.  So
    ``flow.descend`` may step sideways while such a word is free.
    Each word is yielded as it is computed, so a caller that stops early
    pays for the words it took, not for a list of the run's.  The first
    word is 2 * low - 1 for a lowest run of odd length and 2 * low for an
    even one (low = y & -y); ``flow.descend`` reads it so, in closed form,
    and starts this generator only when that word is refused;
    ``flow._leave`` tries a fan's first hops from here."""
    while y:
        low = y & -y
        run = y & ~(y + low)  # the carry clears just the lowest run
        y ^= run
        top, odd = run + low, run.bit_count() % 2  # top: the bit above it
        w = low
        while odd and w < top:
            yield 2 * w - 1
            w <<= 2
        w = low << 1
        while w < top:
            yield w
            w <<= 2 - odd


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
    ``prefix_bits`` bits form one of ``prefixes``, one or two of them.

    The empty prefix gives the whole cube (``AugmentedCube`` is that view).
    One prefix gives a half or a quadrant, which is exactly the
    lower-dimensional augmented cube on the remaining ``n`` bits, so it
    decomposes in turn: ``half_view``, ``quadrant_view`` and
    ``diamond_view`` take prefixes relative to the view and return views
    of the same cube.  Two quadrant prefixes give a diamond: both quadrants
    plus the perfect matching(s) the cube places between them (one
    matching across halves or across the diagonal, two between siblings of
    one half); it has no halves or quadrants.  Membership is a prefix
    test; adjacency is the parent view's words filtered by membership,
    done once: ``words`` holds the mask words that keep a vertex of the
    view inside it, in the cube's mask order.  With one or two prefixes P,
    p ^ s lies in P for p in P exactly when s is some p ^ q, q in P, so
    these words are the same for every prefix.  The view keeps the cube's
    mask words, not its parent, so the cube holding itself as its own view
    makes no reference cycle.
    """

    def __init__(self, parent: PrefixView, prefixes: Iterable[int], prefix_bits: int):
        self.bits = parent.bits
        self.mask_words = parent.mask_words
        self.prefixes = P = frozenset(prefixes)
        self.n = n = parent.bits - prefix_bits
        self.vertex_count = len(P) << n
        moves = {p ^ q for p in P for q in P}
        self.words = tuple(m for m in parent.words if m >> n in moves)
        self._nbrs: dict[int, tuple[int, ...]] = {}
        self.to_sink: dict = {}  # ``sink_distances``' tables, by sink

    def vertices(self) -> Sequence[int]:
        blocks = [range(p << self.n, (p + 1) << self.n)
                  for p in sorted(self.prefixes)]
        return blocks[0] if len(blocks) == 1 else [v for b in blocks for v in b]

    def __contains__(self, v: int) -> bool:
        # every prefix is below 2**(bits - n) and a negative v shifts to a
        # negative, so the prefix test alone keeps v inside the cube
        return (v >> self.n) in self.prefixes

    def neighbors(self, x: int) -> tuple[int, ...]:
        got = self._nbrs.get(x)
        if got is None:
            if x >> self.n not in self.prefixes:
                raise ValueError(f"vertex {x} not in this view")
            got = self._nbrs[x] = tuple(sorted(map(x.__xor__, self.words)))
        return got

    def is_adjacent(self, x: int, y: int) -> bool:
        # the mask test first: a non-adjacent pair costs one set lookup;
        # then both prefix tests of ``__contains__``, inline
        return ((x ^ y) in self.mask_words and (x >> self.n) in self.prefixes
                and (y >> self.n) in self.prefixes)

    def is_walk(self, path: Sequence[int]) -> bool:
        """Whether the ints of ``path`` lie in the view along its edges."""
        n = self.n
        return ({v >> n for v in path} <= self.prefixes
                and {a ^ b for a, b in zip(path, path[1:])} <= self.mask_words)

    def distance_to(self, t: int) -> Callable[[int], int]:
        """x -> the cube's distance from x to t, a lower bound on hops
        inside the view; the function does not refer to the view."""
        return distance_to(self.bits, t)

    # -- decomposition -------------------------------------------------

    def _sub_view(self, subs: Sequence[int], extra: int) -> PrefixView:
        """The view of the ``extra``-bit prefixes ``subs`` below this one;
        ``ValueError`` unless each is an int (not a bool) below 2**extra."""
        if len(self.prefixes) != 1:
            raise ValueError("a diamond has no halves or quadrants")
        for s in subs:  # a bool is not an index
            if type(s) is not int or not 0 <= s < 1 << extra:
                raise ValueError(f"sub-view index {s!r} not in range({1 << extra})")
        (p,) = self.prefixes
        return PrefixView(self, [p << extra | s for s in subs],
                          self.bits - self.n + extra)

    def half_view(self, bit: int) -> PrefixView:
        if self.n < 2:
            raise ValueError("half view needs dimension >= 2")
        return self._sub_view((bit,), 1)

    def quadrant_view(self, quad: int) -> PrefixView:
        if self.n < 3:
            raise ValueError("quadrant view needs dimension >= 3")
        return self._sub_view((quad,), 2)

    def diamond_view(self, quad_a: int, quad_b: int) -> PrefixView:
        if self.n < 3:
            raise ValueError("diamond view needs dimension >= 3")
        if quad_a == quad_b:
            raise ValueError("diamond needs two distinct quadrants")
        return self._sub_view((quad_a, quad_b), 2)


class AugmentedCube(PrefixView):
    """The n-dimensional augmented cube: the view of the empty prefix, plus
    its mask words and their labels."""

    def __init__(self, n: int):
        if type(n) is not int or n < 1:  # a bool is not a dimension
            raise ValueError(f"dimension must be an integer >= 1, not {n!r}")
        if n > CUBE_MAX_N:
            raise ResourceGuard(f"the cube is limited to n <= {CUBE_MAX_N}")
        self.bits = n
        # hyper(1..n), then complement(1..n-1): labels h1..hn, c1..c(n-1)
        self.words: tuple[int, ...] = (*(1 << i for i in range(n - 1, -1, -1)),
                                       *((2 << i) - 1 for i in range(n - 1, 0, -1)))
        self.mask_words: frozenset[int] = frozenset(self.words)
        super().__init__(self, (0,), prefix_bits=0)

    def mask_label(self, x: int, y: int) -> str | None:
        """The label of the mask word x ^ y, ``h{d}`` for hyper(d) and
        ``c{d}`` for complement(d), or None if x ^ y is no mask word: both
        kinds of word at level d have bit length n - d + 1."""
        w = x ^ y
        if w not in self.mask_words:
            return None
        return f"{'c' if w & (w - 1) else 'h'}{self.n - w.bit_length() + 1}"


class RestrictedView:
    """A view minus forbidden vertices and/or edges: a cube or sub-cube
    with faulty nodes or links, for a caller to hand to the oracle, the
    flows or the referee.  The library builds none itself."""

    def __init__(self, base, forbidden_vertices: Iterable[int] = (),
                 forbidden_edges: Iterable[tuple[int, int]] = ()):
        self.base = base
        self.bits = base.bits
        self.forbidden_vertices = frozenset(forbidden_vertices)
        self.forbidden_edges = frozenset(frozenset(e) for e in forbidden_edges)
        self._nbrs: dict[int, tuple[int, ...]] = {}
        self.to_sink: dict = {}

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

    def is_walk(self, path: Sequence[int]) -> bool:
        return (self.base.is_walk(path) and self.forbidden_vertices.isdisjoint(path)
                and self.forbidden_edges.isdisjoint(map(frozenset, zip(path, path[1:]))))

    def distance_to(self, t: int) -> Callable[[int], int]:
        """The base's distances: a lower bound on hops with fewer edges."""
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
        self.to_sink: dict = {}

    def vertices(self) -> list[int]:
        return list(self._adj)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def neighbors(self, x: int) -> tuple[int, ...]:
        return self._adj[x]

    def is_adjacent(self, x: int, y: int) -> bool:
        return x in self._adj and y in self._adj[x]

    def is_walk(self, path: Sequence[int]) -> bool:
        return not path or (path[0] in self._adj
                            and all(map(self.is_adjacent, path, path[1:])))

    def distance_to(self, t: int) -> Callable[[int], int]:
        """x -> 0: no known bound on an arbitrary graph."""
        return lambda x: 0

    def edges(self) -> list[tuple[int, int]]:
        return [(u, w) for u, ws in self._adj.items() for w in ws if u < w]
