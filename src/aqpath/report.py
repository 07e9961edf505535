"""Acceptance sweep: every shipped claim gets one pass/fail line.

The same checks back the ``report`` CLI command and the acceptance test
module, so CI needs no orchestration script.  Every sweep is deterministic
given its seed; samples and budgets are parameters, with defaults matching
the shipped claims.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Callable

from . import flow, oracle
from .construct import ConstructionError, construct, target_count
from .cube import AdjListView, AugmentedCube, RestrictedView, orbit_representatives
from .packing import SearchBudgetExceeded
from .verify import ViolationKind, check_family

DEFAULT_SEED = 1
AQ6_SAMPLES = 10_000
CORPUS_SEED = 20240801


@dataclasses.dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool | None  # None = skipped at this nmax
    detail: str

    @property
    def status(self) -> str:
        if self.passed is None:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"

    def line(self) -> str:
        return f"CRITERION {self.number} {self.status} {self.title}: {self.detail}"


def _pinned_triples(n: int):
    verts = range(1, 1 << n)
    return [(0, b, c) for b, c in itertools.combinations(verts, 2)]


# -- individual criteria -------------------------------------------------


def criterion_1() -> CriterionResult:
    cube = AugmentedCube(4)
    val, argmin = oracle.pi3_exact(cube, "exhaustive")
    reps = sum(1 for _ in orbit_representatives(4))
    return CriterionResult(
        1, "exact base value", val == 4,
        f"pi3(AQ_4)={val} over {reps} orbit representatives (argmin {argmin})")


def criterion_2(samples: int = AQ6_SAMPLES, seed: int = DEFAULT_SEED) -> CriterionResult:
    total4 = 560
    rng = random.Random(seed)
    sample6 = (tuple(sorted(rng.sample(range(64), 3))) for _ in range(samples))
    bad = (_violations(4, itertools.combinations(range(16), 3))
           + _violations(6, sample6))
    return CriterionResult(
        2, "constructive even case", bad == 0,
        f"AQ_4 all {total4} + AQ_6 {samples} sampled: {bad} violations")


def criterion_3() -> CriterionResult:
    triples = _pinned_triples(5)
    bad = _violations(5, triples)
    val, argmin = oracle.pi3_exact(AugmentedCube(5), "exhaustive")
    ok = bad == 0 and val == 5
    return CriterionResult(
        3, "constructive odd case", ok,
        f"{len(triples)} pinned triples: {bad} violations; pi3(AQ_5)={val}")


def _violations(n: int, triples) -> int:
    """Triples whose constructed family is missing, short or refereed out."""
    cube = AugmentedCube(n)
    bad = 0
    for D in triples:
        try:
            fam = construct(n, D)
        except ConstructionError:
            bad += 1
            continue
        if (len(fam.paths) != target_count(n)
                or check_family(cube, D, fam.paths) is not None):
            bad += 1
    return bad


def criterion_4(budget: int = oracle.DEFAULT_BUDGET) -> CriterionResult:
    got = []
    for n, want in ((4, 4), (5, 5), (6, 7)):
        w = oracle.witness_triple(n)
        try:
            value = oracle.max_dpaths(AugmentedCube(n), w.triple, budget)[0]
        except SearchBudgetExceeded:
            return CriterionResult(4, "witness tightness", False,
                                   f"n={n}: search budget {budget} exhausted")
        if value != want:
            return CriterionResult(4, "witness tightness", False,
                                   f"n={n}: got {value}, want {want}")
        got.append(f"n={n}: {value}")
    return CriterionResult(4, "witness tightness", True, ", ".join(got))


def criterion_5() -> CriterionResult:
    details = []
    ok = True
    for n in range(3, 7):
        cube = AugmentedCube(n)
        pair_max = oracle.max_common(cube, 2)[0]
        details.append(f"n={n} pairs:{pair_max}")
        if pair_max > 4 or (n >= 4 and pair_max != 4):
            ok = False
    for n in range(4, 7):
        cube = AugmentedCube(n)
        triple_max = oracle.max_common(cube, 3)[0]
        details.append(f"n={n} triples:{triple_max}")
        if triple_max != 4:
            ok = False
    return CriterionResult(5, "shared-neighbor ceilings", ok, " ".join(details))


def criterion_6() -> CriterionResult:
    got = {n: flow.connectivity(AugmentedCube(n)) for n in (3, 4, 5)}
    ok = got == {3: 4, 4: 7, 5: 9}
    return CriterionResult(6, "connectivity", ok,
                           f"kappa(AQ_3..5) = {got[3]}, {got[4]}, {got[5]}")


def criterion_7() -> CriterionResult:
    bad = [n for n in range(4, 65)
           if oracle.cube_upper_bound(n) != target_count(n)]
    return CriterionResult(7, "bound arithmetic", not bad,
                           f"ceiling == target for n in 4..64 (bad: {bad})")


def criterion_8(graphs: int = 200, seed: int = CORPUS_SEED) -> CriterionResult:
    cube3 = AugmentedCube(3)
    mismatches = 0
    for D in itertools.combinations(range(8), 3):
        if oracle.max_dpaths(cube3, D)[0] != oracle.brute_small(cube3, D):
            mismatches += 1
    rng = random.Random(seed)
    for _ in range(graphs):
        g = random_connected_graph(rng)
        D = tuple(sorted(rng.sample(list(g.vertices()), 3)))
        if oracle.max_dpaths(g, D)[0] != oracle.brute_small(g, D):
            mismatches += 1
    return CriterionResult(
        8, "oracle self-consistency", mismatches == 0,
        f"AQ_3 all 56 triples + {graphs} random graphs: {mismatches} mismatches")


def criterion_9() -> CriterionResult:
    cube = AugmentedCube(4)
    w = oracle.witness_triple(4)
    x, y, _ = w.triple
    fixed = oracle.common_neighbors(cube, w.triple)
    printed = oracle.common_neighbors(cube, (x, y, w.uncorrected_third))
    ok = fixed == set(w.shared) and len(printed) < 4
    return CriterionResult(
        9, "documented deviation regression", ok,
        f"corrected third vertex shares {len(fixed)} neighbors "
        f"(= listed set: {fixed == set(w.shared)}); "
        f"uncorrected shares only {len(printed)}")


def criterion_10(cases: int = 120, seed: int = 5) -> CriterionResult:
    m = mask_automorphism_suite(cases, seed)
    d = duality_suite(max(cases, 100), seed + 1)
    f = verifier_fuzz_suite(max(cases, 100), seed + 2)
    ok = m == 0 and d == 0 and f == 0
    return CriterionResult(
        10, "property suites", ok,
        f"mask/automorphism: {m}, cut duality: {d}, verifier fuzz: {f} "
        f"violations ({cases}+ cases each)")


# -- property suites (seeded, shared with the test suite) ----------------


def mask_automorphism_suite(cases: int, seed: int) -> int:
    rng = random.Random(seed)
    bad = 0
    for _ in range(cases):
        n = rng.randint(2, 6)
        cube = AugmentedCube(n)
        size = 1 << n
        x, y, t = (rng.randrange(size) for _ in range(3))
        if cube.is_adjacent(x, y) != cube.is_adjacent(x ^ t, y ^ t):
            bad += 1
        if len(cube.neighbors(x)) != 2 * n - 1:
            bad += 1
        d = rng.randint(1, n)
        if cube.h_neighbor(cube.h_neighbor(x, d), d) != x:
            bad += 1
        if n >= 2:
            d = rng.randint(1, n - 1)
            if cube.c_neighbor(cube.c_neighbor(x, d), d) != x:
                bad += 1
        if cube.is_adjacent(x, y) != ((x ^ y) in cube.mask_words):
            bad += 1
    return bad


def random_connected_graph(rng: random.Random, max_vertices: int = 12) -> AdjListView:
    while True:
        nv = rng.randint(6, max_vertices)
        p = rng.uniform(0.25, 0.5)
        edges = [(i, j) for i in range(nv) for j in range(i + 1, nv)
                 if rng.random() < p]
        g = AdjListView(edges, bits=max(4, nv.bit_length()), vertices=range(nv))
        if g.vertex_count != nv:
            continue
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == nv:
            return g


def duality_suite(cases: int, seed: int) -> int:
    rng = random.Random(seed)
    bad = 0
    for _ in range(cases):
        g = random_connected_graph(rng)
        u, v = rng.sample(list(g.vertices()), 2)
        cut = flow.min_vertex_cut(g, u, v)
        try:
            paths = flow.disjoint_paths(g, u, v, cut)
        except flow.Insufficient:
            bad += 1
            continue
        if len(paths) != cut or not _paths_internally_disjoint(g, u, v, paths):
            bad += 1
        try:
            flow.disjoint_paths(g, u, v, cut + 1)
            bad += 1
        except flow.Insufficient as exc:
            if exc.achieved != cut:
                bad += 1
        # avoid-set soundness on a random restriction
        others = [w for w in g.vertices() if w not in (u, v)]
        if others:
            hide = set(rng.sample(others, min(len(others), rng.randint(1, 3))))
            sub = RestrictedView(g, forbidden_vertices=hide)
            try:
                for p in flow.disjoint_paths(sub, u, v, 1):
                    if hide & set(p):
                        bad += 1
            except flow.Insufficient:
                pass
    return bad


def _paths_internally_disjoint(g, u, v, paths) -> bool:
    seen: set[int] = set()
    edges: set[frozenset[int]] = set()
    for p in paths:
        if p[0] != u or p[-1] != v:
            return False
        for a, b in zip(p, p[1:]):
            if not g.is_adjacent(a, b):
                return False
            e = frozenset((a, b))
            if e in edges:
                return False
            edges.add(e)
        inner = set(p[1:-1])
        if inner & seen:
            return False
        seen |= inner
    return True


def verifier_fuzz_suite(cases: int, seed: int) -> int:
    rng = random.Random(seed)
    bad = 0
    for _ in range(cases):
        n = rng.choice((4, 5))
        cube = AugmentedCube(n)
        D = tuple(sorted(rng.sample(range(1 << n), 3)))
        try:
            fam = construct(n, D)
        except ConstructionError:
            bad += 1
            continue
        paths = [list(p) for p in fam.paths]
        if check_family(cube, D, paths) is not None:
            bad += 1
            continue
        kind = rng.choice(("drop-endpoint", "duplicate-path", "stutter", "teleport"))
        want = _mutate(rng, cube, D, paths, kind)
        got = check_family(cube, D, paths)
        if got is None or got.kind is not want:
            bad += 1
    return bad


def _mutate(rng, cube, D, paths, kind) -> ViolationKind:
    """Break an accepted family in place; returns the violation the checker
    must report for this mutation class."""
    if kind == "drop-endpoint":
        p = rng.choice(paths)
        p.pop(0 if rng.random() < 0.5 else -1)
        return ViolationKind.MISSING_TERMINAL
    if kind == "duplicate-path":
        src = max(paths, key=len)  # longest; a copy collides the hardest
        i = paths.index(src)
        j = (i + 1) % len(paths)
        paths[j] = list(src)
        return (ViolationKind.VERTEX_OVERLAP if len(src) > 3
                else ViolationKind.EDGE_OVERLAP)
    if kind == "stutter":
        p = max(paths, key=len)
        pos = rng.randrange(len(p) - 1)
        p[pos + 1:pos + 1] = [p[pos + 1], p[pos]]
        return ViolationKind.NOT_SIMPLE
    # teleport: swap one interior vertex for a non-adjacent outsider
    p = max(paths, key=len)
    pos = rng.randrange(1, len(p) - 1)
    on_paths = set().union(*map(set, paths))
    for w in cube.vertices():
        if w not in on_paths and not cube.is_adjacent(p[pos - 1], w):
            p[pos] = w
            return ViolationKind.NOT_A_PATH
    raise AssertionError("no teleport target available")


# -- the sweep ------------------------------------------------------------


def run_all(nmax: int = 6, samples: int = AQ6_SAMPLES, seed: int = DEFAULT_SEED,
            emit: Callable[[str], None] | None = None) -> list[CriterionResult]:
    """Run every criterion up to dimension nmax, emitting one line each."""
    plan: list[tuple[int, Callable[[], CriterionResult]]] = [
        (4, criterion_1),
        (6, lambda: criterion_2(samples, seed)),
        (5, criterion_3),
        (6, criterion_4),
        (6, criterion_5),
        (5, criterion_6),
        (4, criterion_7),
        (4, criterion_8),
        (4, criterion_9),
        (6, criterion_10),
    ]
    results = []
    for number, (needs, fn) in enumerate(plan, start=1):
        if needs > nmax:
            res = CriterionResult(number, "skipped", None,
                                  f"needs sweeps up to n={needs}, nmax={nmax}")
        else:
            res = fn()
        results.append(res)
        if emit:
            emit(res.line())
    if emit:
        passed = sum(1 for r in results if r.passed)
        ran = sum(1 for r in results if r.passed is not None)
        emit(f"SUMMARY {passed}/{ran} criteria passed"
             + (f" ({len(results) - ran} skipped)" if ran < len(results) else ""))
    return results
