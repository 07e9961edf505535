"""Constructive path systems through any three vertices of an augmented cube.

``construct(n, D)`` returns, for n >= 4 and any three distinct vertices,
exactly ``target_count(n)`` pairwise internally disjoint paths through all
of D, where

    target_count(n) = 3n/2 - 2        (n even)
                    = 3(n-1)/2 - 1    (n odd)

matches the counting ceiling, so the family is maximum.

Each level reads the two leading bits of the triple once (``_normalize``):
they give the XOR word that relocates the triple where its case expects it,
the case, and the vertices playing x, y, z; the trace records all three.
The cases by how the triple meets the two-leading-bit decomposition:

    B1/B2/B3.x   dimension-4 base cases
    E1.x         even n, all three in one quadrant: recurse two dimensions
                 down, then add three cross-quadrant paths
    E2.x, E3     even n, direct ladders within one half or across the halves
    O1           odd n, all in one half: recurse one dimension down, then
                 one extra path over the other half
    O2           odd n, direct ladder across the halves

The case table ``_CASES`` maps each label to its builder and to the number
of dimensions the case recurses down first.  All direct ladders share one
assembler, ``_ladder``: a maximum bundle of x-y paths in one sub-cube is
split into backbones and attachment paths, z fans out in the sibling
sub-cube, and each rung runs along a backbone to the vertex next to x or y
on an attachment path, over that vertex's matching edge across a mask word,
and along the fan to z.  B2 and B3.2 share one bundle-and-fan base builder.

Every level ends at the verifier: the family must have the target count
and pass ``verify.check_family``.  There is one code path.  If a
transcription cannot be realized on some triple (named vertices colliding,
not enough long paths to attach to) or its family fails verification,
``construct`` raises ``ConstructionError``; shortfall is never silent and
never patched up by a second search.  Every triple of AQ_4 to AQ_7 has
been built and verified this way.

Every case is built from the flows ``disjoint_paths``, ``fan`` and
``linkage``, with no search that needs a budget; E1.2 and E2.2 route their
three prescribed pairs one flow path at a time (``_route_pairs``).  The
flows read only the region their searches explore, so ``construct`` lists
no vertex at any dimension; ``CONSTRUCT_MAX_N`` bounds its time alone,
and above it ``construct`` raises ``oracle.ResourceGuard``.
"""

from __future__ import annotations

import dataclasses
import itertools

from .cube import AugmentedCube, RestrictedView
from .flow import Insufficient, disjoint_paths, fan, linkage
from .oracle import ResourceGuard
from .verify import check_family

# dispatcher case labels (B = dimension-4 base, E = even step, O = odd step)
CASE_B1, CASE_B2, CASE_B31, CASE_B32 = "B1", "B2", "B3.1", "B3.2"
CASE_E11, CASE_E12 = "E1.1", "E1.2"
CASE_E21, CASE_E22, CASE_E3 = "E2.1", "E2.2", "E3"
CASE_O1, CASE_O2 = "O1", "O2"

# nothing is listed, so this bounds time only: on a 2-core x86 box a
# triple takes under 0.1 s at n = 20, the width of the cube's distance
# table, and 0.2-0.35 s at n = 32, where sink distances are read from it
# in 20-bit chunks
CONSTRUCT_MAX_N = 32


class ConstructionError(RuntimeError):
    """The constructor could not deliver the guaranteed count (a bug signal)."""


class _CaseInfeasible(Exception):
    """A literal case transcription does not fit this triple."""


def target_count(n: int) -> int:
    if n < 4:
        raise ValueError("construction defined for n >= 4")
    return 3 * n // 2 - 2 if n % 2 == 0 else 3 * (n - 1) // 2 - 1


@dataclasses.dataclass(frozen=True)
class TraceEntry:
    dimension: int
    case: str
    translation: int
    roles: tuple[int, int, int]  # vertices playing x, y, z, in this level's labels


@dataclasses.dataclass
class DPathFamily:
    n: int
    terminals: tuple[int, int, int]
    paths: list[tuple[int, ...]]
    trace: list[TraceEntry]

    # no family comes from a fallback search; the benchmark harness
    # (perfbench/run.py) still reads this attribute on every operation
    fallback_used = False


def construct(n: int, triple) -> DPathFamily:
    """target_count(n) internally disjoint paths through the triple."""
    if n < 4:
        raise ValueError("construction defined for n >= 4")
    if n > CONSTRUCT_MAX_N:
        raise ResourceGuard(f"construct is limited to n <= {CONSTRUCT_MAX_N}")
    cube = AugmentedCube(n)
    trip = tuple(triple)
    if len(trip) != 3 or len(set(trip)) != 3:
        raise ValueError("need three distinct vertices")
    for v in trip:
        cube.check_vertex(v)
    want = target_count(n)
    try:
        paths, trace = _construct_level(cube, trip)
    except (_CaseInfeasible, Insufficient) as exc:
        raise ConstructionError(f"no family built for {trip} at n = {n}: "
                                f"{exc}") from exc
    if len(paths) != want:
        raise ConstructionError(f"{len(paths)} paths built for {trip} at "
                                f"n = {n}, want {want}")
    bad = check_family(cube, trip, paths)
    if bad is not None:
        raise ConstructionError(f"family for {trip} at n = {n} fails "
                                f"verification: {bad}")
    oriented = []
    for p in paths:
        t = tuple(p)
        if t[0] > t[-1]:
            t = tuple(reversed(t))
        oriented.append(t)
    return DPathFamily(n=n, terminals=trip, paths=oriented, trace=trace)


# -- dispatch ----------------------------------------------------------


def _construct_level(cube, trip):
    word, case, xyz = _normalize(cube, trip)
    builder, down = _CASES[case]
    sub = construct(cube.n - down, xyz) if down else None
    paths = (list(sub.paths) if sub else []) + builder(cube, *xyz)
    pulled = [[v ^ word for v in p] for p in paths]
    entry = TraceEntry(cube.n, case, word, tuple(v ^ word for v in xyz))
    return pulled, [entry] + (sub.trace if sub else [])


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
        if n == 4:
            # x < y, so x is the one in quadrant 00 when y = x ^ c2w
            return word, CASE_B31 if x ^ y == c2w else CASE_B32, xyz
        return word, CASE_O2 if n % 2 else CASE_E3, xyz
    if n % 2 == 1:
        return word, CASE_O1, _roles_avoiding_mate(xyz, c2w)
    if z < h2w:  # all three in quadrant 00
        if n == 4:
            x = next(v for v in xyz
                     if any(v ^ w == 2 for w in xyz) and any(v ^ w == 1 for w in xyz))
            return word ^ x, CASE_B1, (0, 2, 1)
        mate = _find_mate(xyz, h2w - 1)
        if mate is not None:
            z = next(v for v in xyz if v not in mate)
            return word, CASE_E11, (*mate, z)
        return word, CASE_E12, xyz
    if n == 4:
        return word, CASE_B2, xyz
    if z ^ c2w in (x, y):  # z's mate is in the pair: it plays x
        return word, CASE_E21, (z ^ c2w, x ^ y ^ z ^ c2w, z)
    return word, CASE_E22, xyz


def _find_mate(vals, mask):
    for u, v in itertools.combinations(sorted(vals), 2):
        if u ^ v == mask:
            return u, v
    return None


def _roles_avoiding_mate(vals, mask):
    """Pick x so that x ^ mask is not a terminal; y, z ascending."""
    mate = _find_mate(vals, mask)
    if mate is None:
        return tuple(sorted(vals))
    x = next(v for v in vals if v not in mate)
    rest = sorted(v for v in vals if v != x)
    return (x, rest[0], rest[1])


# -- shared assembly helpers -------------------------------------------


def _rev(p):
    return list(reversed(p))


def _fan_map(view, z, targets):
    """Fan paths keyed by target; a target equal to z maps to the trivial
    stub so degenerate attachments assemble uniformly."""
    want = [t for t in targets if t != z]
    if len(set(want)) != len(want):
        raise _CaseInfeasible("fan targets collide")
    got = {t: list(p) for t, p in fan(view, z, want).items()} if want else {}
    got[z] = [z]
    return got


def _cross(fanm, mask, w, then=None):
    """From w's image across ``mask`` along its fan path to z; given
    ``then``, on from z along the fan path to then's image."""
    path = _rev(fanm[w ^ mask])
    return path if then is None else path + fanm[then ^ mask][1:]


def _rungs(bundle, fan_view, z, mask, extra, n_long, n_flex=0, flex_end=1):
    """Split an x-y bundle for a ladder and fan from z across ``mask``.

    Attachment paths lend their end edges to other members, so the first
    ``n_long`` need distinct neighbors at both ends (>= 4 vertices) and any
    flex slot needs at least one interior vertex.  Backbones are the other
    members, used whole and of any shape.  Returns the backbones, the
    vertices next to x (``xi``) and next to y (``yi``) on each attachment
    path, the ``flex_end`` vertex of each flex path, and the fan map onto
    the images of all of those and of ``extra``.
    """
    paths = [list(p) for p in bundle]
    qs = []
    for p in paths:
        if len(qs) < n_long and len(p) >= 4:
            qs.append(p)
    if len(qs) < n_long:
        raise _CaseInfeasible("not enough long attachment paths")
    ps = [p for p in paths if p not in qs]
    flex = []
    for p in list(ps):
        if len(flex) == n_flex:
            break
        if len(p) >= 3:
            flex.append(p)
            ps.remove(p)
    if len(flex) < n_flex:
        raise _CaseInfeasible("not enough non-direct attachment paths")
    xi = [q[1] for q in qs]
    yi = [q[-2] for q in qs]
    fi = [q[flex_end] for q in flex]
    fanm = _fan_map(fan_view, z, [w ^ mask for w in xi + yi + fi + extra])
    return ps, xi, yi, fi, fanm


def _ladder(x, y, ps, xi, yi, k, fanm, mask):
    """k rungs from x's side and k from y's side, each a backbone extended by
    one rung vertex and its crossing to z; then one bridged rung x..z..y
    through each remaining attachment path's two rung vertices."""
    paths = [_rev(ps[i]) + [xi[i]] + _cross(fanm, mask, xi[i]) for i in range(k)]
    paths += [ps[k + i] + [yi[i]] + _cross(fanm, mask, yi[i]) for i in range(k)]
    paths += [[x, xi[i]] + _cross(fanm, mask, xi[i], yi[i]) + [yi[i], y]
              for i in range(k, len(yi))]
    return paths


def _route_pairs(view, pairs):
    """Vertex-disjoint paths joining each pair in turn, each avoiding the
    other pairs' ends and the paths already routed (else ``Insufficient``)."""
    blocked = {v for pair in pairs for v in pair}
    routed = []
    for a, b in pairs:
        free = RestrictedView(view, forbidden_vertices=blocked - {a, b})
        (path,) = disjoint_paths(free, a, b, 1)
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
    # B2 (x, y in quadrant 00, z in 01) and B3.2 (x, y in half 0, z in
    # half 1): ``h`` is the leading bit that parts z's side from x's side,
    # each side is a diamond of two quadrants, and the four bundle paths
    # cross to z's side over h and over the complement word 1111
    h = 0b1000 if cube.half(z) else 0b0100
    qh = h >> 2  # the same bit among the quadrant labels
    bundle = disjoint_paths(cube.diamond_view(0b00, 0b11 ^ qh), x, y, 4)
    fanm = _fan_map(cube.diamond_view(qh, 0b11), z,
                    [x ^ h, y ^ h, x ^ 0b1111, y ^ 0b1111])
    return [
        _rev(bundle[0]) + _cross(fanm, h, x),
        list(bundle[1]) + _cross(fanm, h, y),
        _rev(bundle[2]) + _cross(fanm, 0b1111, x),
        list(bundle[3]) + _cross(fanm, 0b1111, y),
    ]


def _base_cross_half_mated(cube, x, y, z):
    # y is x's whole-suffix mate across the sibling quadrants; z in half 1.
    # All eight half-0 vertices are named and wired explicitly.
    h1w, h2w = 0b1000, 0b0100
    x3 = x ^ 0b0011
    x1, x2 = sorted((x ^ 0b0010, x ^ 0b0001))
    y1, y2, y3 = x1 ^ h2w, x2 ^ h2w, x ^ h2w
    fanm = _fan_map(cube.half_view(1), z, [x ^ h1w, y ^ h1w, x2 ^ h1w, y2 ^ h1w])
    return [
        [y, x] + _cross(fanm, h1w, x),
        [x, x3, y] + _cross(fanm, h1w, y),
        [y, y3, x, x2] + _cross(fanm, h1w, x2),
        [x, x1, y1, y, y2] + _cross(fanm, h1w, y2),
    ]


# -- even induction step ------------------------------------------------


def _even_one_quadrant_mated(cube, x, y, z):
    # all three in quadrant 00 with y the whole-suffix mate of x
    n = cube.n
    h1w, h2w = 1 << (n - 1), 1 << (n - 2)
    c1w, c2w = (1 << n) - 1, (1 << (n - 1)) - 1
    a = z ^ (c1w ^ h2w)  # the one neighbor of z's complement inside quadrant 10
    ends = {x ^ h1w, y ^ h1w, z ^ h1w, a}
    if len(ends) != 4:
        raise _CaseInfeasible("quadrant-10 linkage endpoints collide")
    lk = linkage(cube.quadrant_view(0b10), [x ^ h1w, y ^ h1w], [z ^ h1w, a])
    dia = RestrictedView(cube.diamond_view(0b01, 0b11),
                         forbidden_vertices={x ^ h2w, y ^ h2w, z ^ c1w})
    lk2 = linkage(dia, [x ^ c1w, y ^ c1w], [z ^ c2w, z ^ h2w])
    px, py = list(lk2[x ^ c1w]), list(lk2[y ^ c1w])
    ph, phy = list(lk[x ^ h1w]), list(lk[y ^ h1w])
    psi_a = [y, x ^ h2w, x] + px + [z]
    psi_b = [x, y ^ h2w, y] + py + [z]
    if ph[-1] == z ^ h1w:
        psi_c = [x] + ph + [z, z ^ c1w] + _rev(phy) + [y]
    else:
        psi_c = [x] + ph + [z ^ c1w, z] + _rev(phy) + [y]
    return [psi_a, psi_b, psi_c]


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
    psi_1 = [x] + p1 + [z] + _rev(p2) + [y]
    psi_2 = [y] + _rev(p3) + [x] + q1 + [z]
    psi_3 = [x] + q3 + [y] + q2 + [z]
    return [psi_1, psi_2, psi_3]


def _even_pair_sibling_mated(cube, x, y, z):
    # x, y in quadrant 00, z = the sibling image of x under the suffix mate
    n = cube.n
    h1w, h2w = 1 << (n - 1), 1 << (n - 2)
    c1w = (1 << n) - 1
    bundle = disjoint_paths(cube.quadrant_view(0b00), x, y, 2 * n - 5)
    # a pair with four shared neighbors forces five short bundle members, in
    # which case one mid-band path is rerouted through x's own sibling image
    # (otherwise unused) and tolerates a one-interior attachment on y's side
    short = sum(1 for p in bundle if len(p) >= 4) < n - 3
    n_long, n_flex, extra = (n - 4, 1, [x, y]) if short else (n - 3, 0, [y])
    ps, xi, yi, fi, fanm = _rungs(bundle, cube.quadrant_view(0b01), z, h2w,
                                  extra, n_long, n_flex, -2)
    k = n // 2 - 2
    paths = _ladder(x, y, ps, xi, yi, k, fanm, h2w)
    paths += [[x] + _cross(fanm, h2w, x, w) + [w, y] for w in fi]
    paths.append([x] + fanm[y ^ h2w] + [y])        # x-z edge, fan back to y
    paths.append(_rev(ps[2 * k]) + [x ^ h1w, z])   # z's complement is x^h
    paths.append(_rev(ps[2 * k + 1]) + [x ^ c1w, z])
    return paths


def _even_pair_sibling_generic(cube, x, y, z):
    n = cube.n
    h1w, h2w = 1 << (n - 1), 1 << (n - 2)
    c1w = (1 << n) - 1
    bundle = disjoint_paths(cube.quadrant_view(0b00), x, y, 2 * n - 5)
    ps, xi, yi, (f,), fanm = _rungs(bundle, cube.quadrant_view(0b01), z, h2w,
                                    [x, y], n - 4, 1)
    l1, l2, l3 = _route_pairs(cube.half_view(1),
                              [(x ^ h1w, z ^ c1w), (x ^ c1w, y ^ h1w),
                               (y ^ c1w, z ^ h1w)])
    k = n // 2 - 2
    return _ladder(x, y, ps, xi, yi, k, fanm, h2w) + [
        [x] + _cross(fanm, h2w, x, y) + [y],
        _rev(ps[2 * k]) + [f] + _cross(fanm, h2w, f),
        _rev(ps[2 * k + 1]) + l1 + [z],
        [x] + l2 + [y] + l3 + [z],
    ]


def _even_cross_half(cube, x, y, z):
    n = cube.n
    h1w = 1 << (n - 1)
    bundle = disjoint_paths(cube.half_view(0), x, y, 2 * n - 3)
    ps, xi, yi, (f,), fanm = _rungs(bundle, cube.half_view(1), z, h1w,
                                    [x, y], n - 3, 1)
    k = n // 2 - 2
    return _ladder(x, y, ps, xi, yi, k, fanm, h1w) + [
        _rev(ps[2 * k]) + [f] + _cross(fanm, h1w, f),
        _rev(ps[2 * k + 1]) + _cross(fanm, h1w, x),
        ps[2 * k + 2] + _cross(fanm, h1w, y),
    ]


# -- odd induction step --------------------------------------------------


def _odd_same_half(cube, x, y, z):
    n = cube.n
    h1w, c1w = 1 << (n - 1), (1 << n) - 1
    side_a = [x ^ h1w, x ^ c1w]
    side_b = [y ^ h1w, z ^ h1w]
    if set(side_a) & set(side_b):
        raise _CaseInfeasible("cross-half linkage endpoints collide")
    lk = linkage(cube.half_view(1), side_a, side_b)
    ph, pc = list(lk[x ^ h1w]), list(lk[x ^ c1w])
    if ph[-1] == y ^ h1w:
        psi = [y] + _rev(ph) + [x] + pc + [z]
    else:
        psi = [y] + _rev(pc) + [x] + ph + [z]
    return [psi]


def _odd_cross_half(cube, x, y, z):
    n = cube.n
    h1w = 1 << (n - 1)
    bundle = disjoint_paths(cube.half_view(0), x, y, 2 * n - 3)
    # the ladder takes n - 1 backbones: one bundle member is deliberately spare
    ps, xi, yi, _, fanm = _rungs(bundle, cube.half_view(1), z, h1w, [x, y],
                                 n - 3)
    paths = _ladder(x, y, ps, xi, yi, (n - 1) // 2, fanm, h1w)
    paths.append([x] + _cross(fanm, h1w, x, y) + [y])
    return paths


# case -> (builder, dimensions to recurse down first; the builder's paths
# follow the sub-family's)
_CASES = {
    CASE_B1: (_base_one_quadrant, 0),
    CASE_B2: (_base_bundle, 0),
    CASE_B31: (_base_cross_half_mated, 0),
    CASE_B32: (_base_bundle, 0),
    CASE_E11: (_even_one_quadrant_mated, 2),
    CASE_E12: (_even_one_quadrant_generic, 2),
    CASE_E21: (_even_pair_sibling_mated, 0),
    CASE_E22: (_even_pair_sibling_generic, 0),
    CASE_E3: (_even_cross_half, 0),
    CASE_O1: (_odd_same_half, 1),
    CASE_O2: (_odd_cross_half, 0),
}

