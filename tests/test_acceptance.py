"""Acceptance gate: every shipped claim, one criterion per test, printed
pass/fail lines.  Tolerances are exact unless a criterion states otherwise."""

import pytest

from aqpath import report


def _run(fn, *args, **kwargs):
    res = fn(*args, **kwargs)
    print(res.line())
    assert res.passed, res.detail
    return res


def test_criterion_01_exact_base_value():
    _run(report.criterion_1)


def test_criterion_02_constructive_even_case():
    res = _run(report.criterion_2)
    assert res.detail == ("AQ_4 all 560 triples + AQ_6 all 142 orbit "
                          "representatives: 0 violations")


def test_criterion_03_constructive_odd_case():
    res = _run(report.criterion_3)
    assert res.detail == ("AQ_5 all 38 orbit representatives: 0 violations; "
                          "pi3(AQ_5)=5")


def test_criterion_04_witness_tightness():
    _run(report.criterion_4)


def test_criterion_05_shared_neighbor_ceilings():
    _run(report.criterion_5)


def test_criterion_06_connectivity():
    _run(report.criterion_6)


def test_criterion_07_bound_arithmetic():
    _run(report.criterion_7)


def test_criterion_08_oracle_self_consistency():
    _run(report.criterion_8)


def test_criterion_09_documented_deviation_regression():
    _run(report.criterion_9)


def test_criterion_04_fails_when_the_budget_runs_out(monkeypatch):
    max_dpaths = report.oracle.max_dpaths

    def exhausted_at_six(view, D, budget):
        if view.n == 6:
            raise report.SearchBudgetExceeded(f"search budget {budget} exhausted")
        return max_dpaths(view, D, budget)

    monkeypatch.setattr(report.oracle, "max_dpaths", exhausted_at_six)
    monkeypatch.setattr(report.oracle, "DEFAULT_BUDGET", 1234)
    res = report.criterion_4()
    assert res.passed is False
    assert res.detail == "n=6: search budget 1234 exhausted"


def test_criterion_02_counts_a_failed_construction(monkeypatch):
    construct = report.construct
    # one AQ_4 triple and one AQ_6 orbit representative
    failing = {(4, (0, 1, 2)), (6, list(report.orbit_representatives(6))[-1])}

    def fails_twice(n, D):
        if (n, tuple(D)) in failing:
            raise report.ConstructionError("forced")
        return construct(n, D)

    monkeypatch.setattr(report, "construct", fails_twice)
    res = report.criterion_2()
    assert res.passed is False
    assert res.detail.endswith(": 2 violations")



def test_criterion_04_fails_on_a_wrong_value(monkeypatch):
    max_dpaths = report.oracle.max_dpaths

    def one_short_at_five(view, D, budget):
        value, paths = max_dpaths(view, D, budget)
        return (value - 1 if view.n == 5 else value), paths

    monkeypatch.setattr(report.oracle, "max_dpaths", one_short_at_five)
    res = report.criterion_4()
    assert res.passed is False
    assert res.detail == "n=5: got 4, want 5"


@pytest.mark.parametrize("off, shown", [((4, 2), "n=4 pairs:3"),
                                        ((5, 3), "n=5 triples:3")])
def test_criterion_05_fails_on_an_off_maximum(monkeypatch, off, shown):
    # one pair maximum or one triple maximum below 4
    max_common = report.oracle.max_common

    def one_off(view, k):
        value, group = max_common(view, k)
        return (value - 1 if (view.n, k) == off else value), group

    monkeypatch.setattr(report.oracle, "max_common", one_off)
    res = report.criterion_5()
    assert res.passed is False
    assert shown in res.detail


@pytest.mark.parametrize("wrong", ["AQ_3", "random graph"])
def test_criterion_08_counts_one_mismatch(monkeypatch, wrong):
    # the brute force disagrees on the first AQ_3 triple, or on the first
    # random graph
    brute_small = report.oracle.brute_small
    seen = []

    def off_once(view, D):
        value = brute_small(view, D)
        kind = "AQ_3" if isinstance(view, report.AugmentedCube) else "random graph"
        seen.append(kind)
        return value + 1 if kind == wrong and seen.count(kind) == 1 else value

    monkeypatch.setattr(report.oracle, "brute_small", off_once)
    res = report.criterion_8()
    assert res.passed is False
    assert res.detail == "AQ_3 all 56 triples + 200 random graphs: 1 mismatches"
