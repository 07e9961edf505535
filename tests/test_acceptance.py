"""Acceptance gate: every shipped claim, one criterion per test, printed
pass/fail lines.  Tolerances are exact unless a criterion states otherwise."""

from aqpath import report


def _run(fn, *args, **kwargs):
    res = fn(*args, **kwargs)
    print(res.line())
    assert res.passed, res.detail
    return res


def test_criterion_01_exact_base_value():
    _run(report.criterion_1)


def test_criterion_02_constructive_even_case():
    res = _run(report.criterion_2, samples=report.AQ6_SAMPLES,
               seed=report.DEFAULT_SEED)
    assert "0 violations" in res.detail


def test_criterion_03_constructive_odd_case():
    res = _run(report.criterion_3)
    assert "pi3(AQ_5)=5" in res.detail


def test_criterion_04_witness_tightness():
    _run(report.criterion_4)


def test_criterion_05_shared_neighbor_ceilings():
    _run(report.criterion_5)


def test_criterion_06_connectivity():
    _run(report.criterion_6)


def test_criterion_07_bound_arithmetic():
    _run(report.criterion_7)


def test_criterion_08_oracle_self_consistency():
    _run(report.criterion_8, graphs=200, seed=report.CORPUS_SEED)


def test_criterion_09_documented_deviation_regression():
    _run(report.criterion_9)


def test_criterion_10_property_suites():
    _run(report.criterion_10, cases=120, seed=5)


def test_criterion_04_fails_when_the_budget_runs_out(monkeypatch):
    max_dpaths = report.oracle.max_dpaths

    def exhausted_at_six(view, D, budget):
        if view.n == 6:
            raise report.SearchBudgetExceeded(f"search budget {budget} exhausted")
        return max_dpaths(view, D, budget)

    monkeypatch.setattr(report.oracle, "max_dpaths", exhausted_at_six)
    res = report.criterion_4(budget=1234)
    assert res.passed is False
    assert res.detail == "n=6: search budget 1234 exhausted"


def test_criterion_02_counts_a_failed_construction(monkeypatch):
    construct = report.construct

    def fails_once(n, D):
        if (n, tuple(D)) == (4, (0, 1, 2)):
            raise report.ConstructionError("forced")
        return construct(n, D)

    monkeypatch.setattr(report, "construct", fails_once)
    res = report.criterion_2(samples=10)
    assert res.passed is False
    assert "1 violations" in res.detail
