"""Constructive path systems through any three vertices of an augmented cube.

``construct(n, D)`` returns, for n >= 4 and any three distinct vertices,
exactly ``target_count(n)`` pairwise internally disjoint paths through all
of D, where

    target_count(n) = 3n/2 - 2        (n even)
                    = 3(n-1)/2 - 1    (n odd)

is the cube-wide counting ceiling (``oracle.cube_upper_bound``), so the
family is maximum at the orbit of ``oracle.witness_triple(n)``, which
meets it; at all but 2 or 3 orbits each of AQ_5 to AQ_8 the exact oracle
finds one path more.

Each level reads the two leading bits of the triple once (``_normalize``):
they give the XOR word that relocates the triple where its case expects it,
the case, and the vertices playing x, y, z; the trace records all three.
The cases by how the triple meets the two-leading-bit decomposition:

    B1           n = 4, all three in one quadrant: one explicit family
    B3.2         n = 4, across the halves with the pair not suffix mates:
                 a bundle in one half and a fan in the other
    E1.x         even n > 4, all three in one quadrant: the level two
                 dimensions down plus three cross-quadrant paths
    E2.x, E3     even n, direct ladders within one half or across the halves
    O1           odd n, all in one half: the level one dimension down
                 plus one extra path over the other half
    O2           odd n, direct ladder across the halves

The case table ``_CASES`` maps each label to its builder and to the number
of dimensions down to the next level, if any.  All direct ladders share one
assembler, ``_ladder``, which builds everything they have in common and
hands back what is left: ``_backbones`` takes just the x-y paths a ladder
keeps whole in one sub-cube from ``disjoint_paths``, the neighbours of x
and y that none takes are the rung vertices, z fans out in the sibling
sub-cube, and each rung runs along a backbone to a rung vertex, over that
vertex's matching edge across a mask word, and along the fan to z.  E2.1,
E2.2, E3 and O2 then add only their own few paths from the backbones the
rungs leave, the last rung vertex f and the fan.  The even-step builders
serve n = 4 as well, so only B1 and B3.2, which no general builder covers,
keep a builder of their own.

The levels run in one loop (``_construct_level``) over one cube: the top
level is the ``AugmentedCube`` that ``construct`` builds, and each level
below it is quadrant 00 (E1.x) or half 0 (O1) of the level above, a
prefix view of that same cube whose labels are the lower cube's.  Each
path is pulled to the top cube's labels and oriented once, and the
deepest level's paths come first.

The whole family ends at the verifier, once per call: it must have the
target count and pass ``verify.check_family``.  A sub-family lies in
quadrant 00 or half 0, an induced sub-cube, so that check referees its
paths too.  If a transcription cannot be realized on some triple (too
few disjoint paths or rung vertices) or the family fails the check,
``construct`` raises ``ConstructionError``; shortfall is never silent and
never patched up by a second search.

No case runs a search that needs a budget.  Every path it asks of
``aqpath.flow`` (the bundles of the ladders and of B3.2, the fans, and
the prescribed pairs of E1.1, E1.2, E2.2 and O1, ``_route_pairs``, one
pair at a time) is walked by closer steps (``flow.route``): a fan's
walk leaves z by whichever free neighbour it arrives from, and a bundle's
stuck walk is retried toward each free neighbour of the far end.  A unit
flow, seeded with the walks, repairs only where a walk still falls short,
about one triple in 300 at n = 10 and none of the seeded triples tested
at n = 20 to 128.  Walks and flows read only the vertices they reach, so
``construct`` lists no vertex at any dimension; ``CONSTRUCT_MAX_N`` bounds
its time alone, and above it ``construct`` raises ``cube.ResourceGuard``.
"""

from __future__ import annotations

from typing import NamedTuple

from .cube import AugmentedCube, ResourceGuard, check_triple
from .flow import Insufficient, disjoint_paths, fan, route
from .verify import check_family

# dispatcher case labels (B = dimension-4 base, E = even step, O = odd step)
CASE_B1, CASE_B32 = "B1", "B3.2"
CASE_E11, CASE_E12 = "E1.1", "E1.2"
CASE_E21, CASE_E22, CASE_E3 = "E2.1", "E2.2", "E3"
CASE_O1, CASE_O2 = "O1", "O2"

# nothing is listed, so this bounds time only: on a 2-core x86 box, in a
# fresh process, a seeded triple of either kind takes 0.04-0.06 s at
# n = 128 and the far pair (0, alt >> 1, alt), alt = 0b1010..., 0.05 s,
# each at 16 MB peak RSS
CONSTRUCT_MAX_N = 128


class ConstructionError(RuntimeError):
    """The constructor could not deliver the guaranteed count (a bug signal)."""


def target_count(n: int) -> int:
    if type(n) is not int or n < 4:  # a bool is not a dimension
        raise ValueError(f"construction defined for integers n >= 4, not {n!r}")
    return 3 * n // 2 - 2 if n % 2 == 0 else 3 * (n - 1) // 2 - 1


class TraceEntry(NamedTuple):
    dimension: int
    case: str
    translation: int
    roles: tuple[int, int, int]  # vertices playing x, y, z, in this level's labels


class DPathFamily(NamedTuple):
    n: int
    terminals: tuple[int, int, int]
    paths: list[tuple[int, ...]]
    trace: list[TraceEntry]

    # no family comes from a fallback search; the benchmark harness
    # (perfbench/run.py) still reads this attribute on every operation
    fallback_used = False


def construct(n: int, triple) -> DPathFamily:
    """target_count(n) internally disjoint paths through the triple."""
    want = target_count(n)  # ValueError below n = 4
    if n > CONSTRUCT_MAX_N:
        raise ResourceGuard(f"construct is limited to n <= {CONSTRUCT_MAX_N}")
    cube = AugmentedCube(n)
    trip = check_triple(cube, triple)
    try:
        paths, trace = _construct_level(cube, trip)
    except Insufficient as exc:
        raise ConstructionError(f"no family built for {trip} at n = {n}: "
                                f"{exc}") from exc
    if len(paths) != want:
        raise ConstructionError(f"{len(paths)} paths built for {trip} at "
                                f"n = {n}, want {want}")
    bad = check_family(cube, trip, paths)
    if bad is not None:
        raise ConstructionError(f"family for {trip} at n = {n} fails "
                                f"verification: {bad}")
    return DPathFamily(n=n, terminals=trip, paths=paths, trace=trace)


# -- dispatch ----------------------------------------------------------


def _construct_level(cube, trip):
    """Every level's paths, pulled by its words so far and oriented, the
    deepest level's first, and the trace, the top's first; unverified."""
    levels, trace, pull = [], [], 0
    while True:
        word, case, xyz = _normalize(cube, trip)
        builder, down = _CASES[case]
        trace.append(TraceEntry(cube.n, case, word, tuple(v ^ word for v in xyz)))
        pull ^= word
        paths = builder(cube, *xyz)
        # no pull word: the builder's ints are kept, not copied
        pulled = (tuple(v ^ pull for v in p) for p in paths) if pull else map(tuple, paths)
        levels.append([t[::-1] if t[0] > t[-1] else t for t in pulled])
        if not down:
            return [p for level in reversed(levels) for p in level], trace
        cube, trip = cube.quadrant_view(0) if down == 2 else cube.half_view(0), xyz


def _normalize(cube, trip):
    """The translation word, the case and the roles (x, y, z) for this level.

    The word is read from the two leading bits.  Across the halves it
    moves the pair to half 0, so the lone vertex lands in half 1.  Inside
    one half it clears bit 1 and moves the quadrant that holds all three
    vertices, or the pair, to 00, so a lone vertex lands in 01.  Either way
    the relocated triple, ascending, is the pair (ascending) and then the
    lone vertex; the cases below may reorder it.
    """
    n = cube.n
    h1w, h2w = 1 << (n - 1), 1 << (n - 2)
    c2w = h1w - 1
    a, b, c = trip
    lead = a & b | a & c | b & c  # each bit as most of the triple has it
    same_half = not (a ^ b | a ^ c) & h1w
    word = lead & (h1w | h2w) if same_half else lead & h1w
    x, y, z = xyz = tuple(sorted(v ^ word for v in trip))
    if not same_half:
        # B3.2's fan targets x ^ h1w, y ^ h1w, x ^ c1w, y ^ c1w collide only
        # if x ^ y = h1w ^ c1w = c2w, and that pair goes to E3
        if n == 4 and x ^ y != c2w:
            return word, CASE_B32, xyz
        return word, CASE_O2 if n % 2 else CASE_E3, xyz
    if n % 2 == 1:
        # x's mate x ^ c2w is no terminal, so the four ends of O1's two
        # pairs are distinct: x ^ c1w = y ^ h1w (or z ^ h1w) only if y (or
        # z) is it
        return word, CASE_O1, _roles_avoiding_mate(xyz, c2w)
    if z < h2w:  # all three in quadrant 00
        if n == 4:
            x = next(v for v in xyz
                     if any(v ^ w == 2 for w in xyz) and any(v ^ w == 1 for w in xyz))
            return word ^ x, CASE_B1, (0, 2, 1)
        # z's suffix mate is no terminal, so E1.1's quadrant-10 ends x ^ h1w,
        # y ^ h1w, z ^ h1w and z ^ c1w ^ h2w are distinct: the last equals
        # x ^ h1w (or y ^ h1w) only if x (or y) is z ^ (h2w - 1)
        z, x, y = _roles_avoiding_mate(xyz, h2w - 1)
        if x ^ y == h2w - 1:  # the pair is suffix mates
            return word, CASE_E11, (x, y, z)
        return word, CASE_E12, xyz
    if z ^ c2w in (x, y):  # z's mate is in the pair: it plays x
        return word, CASE_E21, (z ^ c2w, x ^ y ^ z ^ c2w, z)
    return word, CASE_E22, xyz


def _roles_avoiding_mate(vals, mask):
    """Pick x, the first of the ascending ``vals`` whose mate ``x ^ mask``
    is not a terminal (at most two are mates, so the third is x if they
    are); y, z ascending."""
    x = next(v for v in vals if v ^ mask not in vals)
    return (x, *(v for v in vals if v != x))


# -- shared assembly helpers -------------------------------------------


def _fan_map(view, z, targets):
    """Fan paths keyed by target, which the roles make distinct (see
    ``_normalize`` and ``_ladder``); a target equal to z maps to the
    trivial stub so degenerate attachments assemble uniformly."""
    paths = fan(view, z, [t for t in targets if t != z])
    got = {t: list(p) for t, p in paths.items()}
    got[z] = [z]
    return got


def _cross(fanm, mask, w, then=None):
    """From w's image across ``mask`` along its fan path to z; given
    ``then``, on from z along the fan path to then's image."""
    path = fanm[w ^ mask][::-1]
    return path if then is None else path + fanm[then ^ mask][1:]


def _backbones(view, x, y, k):
    """k internally disjoint x-y paths of the view (the backbones, from
    ``disjoint_paths``, so each meets N(x) and N(y) only next to its ends)
    and rung vertices, the neighbours of x and y that are no backbone's
    second or second-to-last vertex: k - 2 next to x (``xi``), k - 2 next
    to y (``yi``) and ``f`` next to y, a common neighbour left over going
    to the short side; else ``Insufficient``, counting the backbones or
    the short side.  AQ_k is (2k - 1)-connected, so 2k - 1 paths end once
    at every neighbour of x and of y: the bundle has room for all it is
    asked, and for k >= 4 at most one common neighbour is left.
    """
    ps = disjoint_paths(view, x, y, k)
    nx, ny = view.neighbors(x), view.neighbors(y)
    sx, sy = set(nx), set(ny)
    taken = {p[1] for p in ps} | {p[-2] for p in ps}
    xi = [w for w in nx if w not in taken and w not in sy]
    yi = [w for w in ny if w not in taken and w not in sx]
    for w in nx:
        if w in sy and w not in taken:
            (xi if len(xi) < k - 2 else yi).append(w)
    for side, need in ((xi, k - 2), (yi, k - 1)):
        if len(side) < need:
            raise Insufficient(len(side), need, "rung vertices")
    return [list(p) for p in ps], xi[:k - 2], yi[:k - 2], yi[k - 2]


def _ladder(home, sibling, mask, x, y, z, size, k, fan_f=True):
    """One ladder: ``size`` backbones of x and y in ``home``
    (``_backbones``) and z's fan in ``sibling`` to the images across
    ``mask`` of the rung vertices, x and y, and of f unless ``fan_f`` is
    false.  The rungs are k from x's side and k from y's side, each a
    backbone extended by one rung vertex and its crossing to z, then one
    bridged rung x..z..y through each remaining pair xi[i], yi[i] of rung
    vertices.  Returns the rungs, the backbones they leave, f and the fan
    map, for the case's own paths."""
    ps, xi, yi, f = _backbones(home, x, y, size)
    # the ends are distinct, and so are z's fan targets: ``_backbones``
    # puts a common neighbour on one side only, and if x ~ y the bundle's
    # first path is the edge x-y, so x and y are taken
    ends = xi + yi + [x, y] + ([f] if fan_f else [])
    fanm = _fan_map(sibling, z, [w ^ mask for w in ends])
    rungs = [ps[i][::-1] + [xi[i]] + _cross(fanm, mask, xi[i]) for i in range(k)]
    rungs += [ps[k + i] + [yi[i]] + _cross(fanm, mask, yi[i]) for i in range(k)]
    rungs += [[x, xi[i]] + _cross(fanm, mask, xi[i], yi[i]) + [yi[i], y]
              for i in range(k, len(yi))]
    return rungs, ps[2 * k:], f, fanm


def _route_pairs(view, pairs, avoid=()):
    """Vertex-disjoint paths joining each pair in turn, each walked, or one
    flow path where the walk falls short (``flow.route``), over ``view``
    blocked at ``avoid``, the other pairs' ends and the paths already
    routed (else ``Insufficient``); the pairs share the view's memoised
    rows and sink distances."""
    blocked = {*avoid, *(v for pair in pairs for v in pair)}
    routed = []
    for a, b in pairs:
        got = route(view, {a: 1}, [b], blocked, [(a, b)], 1)
        if not got:
            raise Insufficient(0, 1)
        (path,) = got
        blocked.update(path)
        routed.append(list(path))
    return routed


# -- dimension-4 base cases ---------------------------------------------

# one-quadrant family at the canonical position x=0000, y=0010, z=0001
_BASE_SAME_QUAD = (
    (2, 0, 1),
    (0, 3, 2, 1),
    (0, 4, 6, 2, 5, 1),
    (2, 10, 8, 0, 15, 14, 1),
)


def _base_one_quadrant(cube, x, y, z):
    assert (x, y, z) == (0, 2, 1)
    return [list(p) for p in _BASE_SAME_QUAD]


def _base_bundle(cube, x, y, z):
    # x, y in half 0, z in half 1: the four bundle paths cross to z's half
    # over the leading bit h and over the complement word 1111
    h = 0b1000
    bundle = [list(p) for p in disjoint_paths(cube.half_view(0), x, y, 4)]
    fanm = _fan_map(cube.half_view(1), z, [x ^ h, y ^ h, x ^ 0b1111, y ^ 0b1111])
    return [
        bundle[0][::-1] + _cross(fanm, h, x),
        bundle[1] + _cross(fanm, h, y),
        bundle[2][::-1] + _cross(fanm, 0b1111, x),
        bundle[3] + _cross(fanm, 0b1111, y),
    ]


# -- even induction step ------------------------------------------------


def _even_one_quadrant_mated(cube, x, y, z):
    # all three in quadrant 00 with y the whole-suffix mate of x
    n = cube.n
    h1w, h2w = 1 << (n - 1), 1 << (n - 2)
    c1w, c2w = (1 << n) - 1, (1 << (n - 1)) - 1
    a = z ^ (c1w ^ h2w)  # the one neighbor of z's complement inside quadrant 10
    # x's image runs to z's, next to z; y's to a, next to z's complement,
    # which is next to z: the third path is x..z..y
    ph, phy = _route_pairs(cube.quadrant_view(0b10), [(x ^ h1w, z ^ h1w), (y ^ h1w, a)])
    py, px = _route_pairs(cube.diamond_view(0b01, 0b11),
                          [(y ^ c1w, z ^ h2w), (x ^ c1w, z ^ c2w)],
                          (x ^ h2w, y ^ h2w, z ^ c1w))
    return [
        [y, x ^ h2w, x] + px + [z],
        [x, y ^ h2w, y] + py + [z],
        [x] + ph + [z, z ^ c1w] + phy[::-1] + [y],
    ]


def _even_one_quadrant_generic(cube, x, y, z):
    n = cube.n
    h1w, h2w = 1 << (n - 1), 1 << (n - 2)
    c1w, c2w = (1 << n) - 1, (1 << (n - 1)) - 1
    p1, p2, p3 = _route_pairs(cube.quadrant_view(0b01),
                              [(x ^ h2w, z ^ h2w), (y ^ h2w, z ^ c2w),
                               (x ^ c2w, y ^ c2w)])
    q1, q2, q3 = _route_pairs(cube.half_view(1),
                              [(x ^ h1w, z ^ h1w), (y ^ h1w, z ^ c1w),
                               (x ^ c1w, y ^ c1w)])
    psi_1 = [x] + p1 + [z] + p2[::-1] + [y]
    psi_2 = [y] + p3[::-1] + [x] + q1 + [z]
    psi_3 = [x] + q3 + [y] + q2 + [z]
    return [psi_1, psi_2, psi_3]


def _even_pair_sibling_mated(cube, x, y, z):
    # x, y in quadrant 00, z = the sibling image of x under the suffix mate
    n = cube.n
    h1w, h2w = 1 << (n - 1), 1 << (n - 2)
    c1w = (1 << n) - 1
    rungs, (p, q), f, fanm = _ladder(cube.quadrant_view(0b00), cube.quadrant_view(0b01),
                                     h2w, x, y, z, n - 2, n // 2 - 2)
    # f's rung runs from x through x's own sibling image (otherwise unused),
    # along the fan to f's image, and on to y
    return rungs + [
        [x] + _cross(fanm, h2w, x, f) + [f, y],
        [x] + fanm[y ^ h2w] + [y],             # x-z edge, fan back to y
        p[::-1] + [x ^ h1w, z],                # z's complement is x^h
        q[::-1] + [x ^ c1w, z],
    ]


def _even_pair_sibling_generic(cube, x, y, z):
    n = cube.n
    h1w, h2w = 1 << (n - 1), 1 << (n - 2)
    c1w = (1 << n) - 1
    rungs, (p, q), f, fanm = _ladder(cube.quadrant_view(0b00), cube.quadrant_view(0b01),
                                     h2w, x, y, z, n - 2, n // 2 - 2)
    l1, l2, l3 = _route_pairs(cube.half_view(1),
                              [(x ^ h1w, z ^ c1w), (x ^ c1w, y ^ h1w),
                               (y ^ c1w, z ^ h1w)])
    return rungs + [
        [x] + _cross(fanm, h2w, x, y) + [y],
        p + [f] + _cross(fanm, h2w, f),
        q[::-1] + l1 + [z],
        [x] + l2 + [y] + l3 + [z],
    ]


def _even_cross_half(cube, x, y, z):
    h1w = 1 << (cube.n - 1)
    rungs, (p, q, r), f, fanm = _ladder(cube.half_view(0), cube.half_view(1),
                                        h1w, x, y, z, cube.n - 1, cube.n // 2 - 2)
    return rungs + [
        p + [f] + _cross(fanm, h1w, f),
        q[::-1] + _cross(fanm, h1w, x),
        r + _cross(fanm, h1w, y),
    ]


# -- odd induction step --------------------------------------------------


def _odd_same_half(cube, x, y, z):
    n = cube.n
    h1w, c1w = 1 << (n - 1), (1 << n) - 1
    # the half AQ_{n-1}, n - 1 >= 4, is 2-linked (Jung 1970: it is
    # (2n - 3)-connected and not planar), so paths for this pairing exist
    py, pz = _route_pairs(cube.half_view(1), [(x ^ h1w, y ^ h1w), (x ^ c1w, z ^ h1w)])
    return [[y, *py[::-1], x, *pz, z]]


def _odd_cross_half(cube, x, y, z):
    h1w = 1 << (cube.n - 1)
    rungs, _, _, fanm = _ladder(cube.half_view(0), cube.half_view(1), h1w,
                                x, y, z, cube.n - 1, (cube.n - 1) // 2, fan_f=False)
    return rungs + [[x] + _cross(fanm, h1w, x, y) + [y]]


# case -> (builder, dimensions down to the next level, 0 at the last; a
# level's paths follow the next level's)
_CASES = {
    CASE_B1: (_base_one_quadrant, 0),
    CASE_B32: (_base_bundle, 0),
    CASE_E11: (_even_one_quadrant_mated, 2),
    CASE_E12: (_even_one_quadrant_generic, 2),
    CASE_E21: (_even_pair_sibling_mated, 0),
    CASE_E22: (_even_pair_sibling_generic, 0),
    CASE_E3: (_even_cross_half, 0),
    CASE_O1: (_odd_same_half, 1),
    CASE_O2: (_odd_cross_half, 0),
}

