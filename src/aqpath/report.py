"""Acceptance sweep: each of nine shipped claims gets one pass/fail line.

Criteria 1-7 and 9 check the paper's claims: the exact value of pi3 on
AQ_4 and AQ_5, the constructive even and odd cases, the witness, the
shared-neighbour ceilings, the connectivity, the bound arithmetic and the
corrected witness vertex.  Criterion 8 checks that the oracle those
claims rest on is exact.  The same checks back the ``report`` CLI command
and the acceptance test module, so CI needs no orchestration script.
Every sweep is fixed and deterministic, and no criterion takes a
parameter.  The constructive criteria cover every triple of their cubes:
a cube automorphism carries a verified family for an orbit's
representative onto every triple of that orbit.  The library's property
tests (the cube's masks and translations, cut duality of the flows, the
referee against mutated families) run in the test suite, not here.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, NamedTuple

from . import flow, oracle
from .construct import ConstructionError, construct, target_count
from .cube import AdjListView, AugmentedCube, orbit_representatives
from .packing import SearchBudgetExceeded

CORPUS_GRAPHS = 200
CORPUS_SEED = 20240801
GRAPH_MAX_VERTICES = 12


class CriterionResult(NamedTuple):
    number: int
    title: str
    passed: bool
    detail: str

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def line(self) -> str:
        return f"CRITERION {self.number} {self.status} {self.title}: {self.detail}"


# -- individual criteria -------------------------------------------------


def criterion_1() -> CriterionResult:
    cube = AugmentedCube(4)
    val, argmin = oracle.pi3_exact(cube)
    reps = sum(1 for _ in orbit_representatives(4))
    return CriterionResult(
        1, "exact base value", val == 4,
        f"pi3(AQ_4)={val} over {reps} orbit representatives (argmin {argmin})")


def criterion_2() -> CriterionResult:
    all4 = list(itertools.combinations(range(16), 3))
    reps6 = list(orbit_representatives(6))
    bad = _violations(4, all4) + _violations(6, reps6)
    return CriterionResult(
        2, "constructive even case", bad == 0,
        f"AQ_4 all {len(all4)} triples + AQ_6 all {len(reps6)} orbit "
        f"representatives: {bad} violations")


def criterion_3() -> CriterionResult:
    reps = list(orbit_representatives(5))
    bad = _violations(5, reps)
    val, argmin = oracle.pi3_exact(AugmentedCube(5))
    ok = bad == 0 and val == 5
    return CriterionResult(
        3, "constructive odd case", ok,
        f"AQ_5 all {len(reps)} orbit representatives: {bad} violations; "
        f"pi3(AQ_5)={val}")


def _violations(n: int, triples) -> int:
    """Triples whose constructed family is missing, short or refereed out:
    ``construct`` raises ``ConstructionError`` for each of these."""
    bad = 0
    for D in triples:
        try:
            construct(n, D)
        except ConstructionError:
            bad += 1
    return bad


def criterion_4() -> CriterionResult:
    budget = oracle.DEFAULT_BUDGET
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


def criterion_8() -> CriterionResult:
    cube3 = AugmentedCube(3)
    mismatches = 0
    for D in itertools.combinations(range(8), 3):
        if oracle.max_dpaths(cube3, D)[0] != oracle.brute_small(cube3, D):
            mismatches += 1
    rng = random.Random(CORPUS_SEED)
    for _ in range(CORPUS_GRAPHS):
        g = random_connected_graph(rng)
        D = tuple(sorted(rng.sample(list(g.vertices()), 3)))
        if oracle.max_dpaths(g, D)[0] != oracle.brute_small(g, D):
            mismatches += 1
    return CriterionResult(
        8, "oracle self-consistency", mismatches == 0,
        f"AQ_3 all 56 triples + {CORPUS_GRAPHS} random graphs: {mismatches} mismatches")


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


def random_connected_graph(rng: random.Random) -> AdjListView:
    while True:
        nv = rng.randint(6, GRAPH_MAX_VERTICES)
        p = rng.uniform(0.25, 0.5)
        edges = [(i, j) for i in range(nv) for j in range(i + 1, nv)
                 if rng.random() < p]
        g = AdjListView(edges, bits=max(4, nv.bit_length()), vertices=range(nv))
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


# -- the sweep ------------------------------------------------------------


def run_all(emit: Callable[[str], None]) -> list[CriterionResult]:
    """Run every criterion, emitting one line each and a summary."""
    results = []
    for fn in (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
               criterion_6, criterion_7, criterion_8, criterion_9):
        results.append(fn())
        emit(results[-1].line())
    passed = sum(1 for r in results if r.passed)
    emit(f"SUMMARY {passed}/{len(results)} criteria passed")
    return results
