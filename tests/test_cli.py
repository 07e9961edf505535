import importlib

import pytest

from aqpath.cli import main
from aqpath.construct import construct
from aqpath.cube import AugmentedCube
from aqpath.textio import parse_family, parse_graph, render_family, render_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_output(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "6")
    assert code == 0
    assert out == "BOUND 6 7\nTARGET 6 7\n"


def test_construct_emits_verified_family(capsys):
    code, out, err = run(capsys, "construct", "--n", "4",
                         "--triple", "0000,0010,0001")
    assert code == 0
    assert sum(1 for ln in out.splitlines() if ln.startswith("P ")) == 4
    assert err.strip() == "OK 4"


def test_construct_verify_pipe(tmp_path, capsys):
    # construct stdout is, verbatim, valid verify input
    code, out, _ = run(capsys, "construct", "--n", "5", "--triple",
                       "00000,00111,11001", "--trace")
    assert code == 0
    fam_file = tmp_path / "family.txt"
    fam_file.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--n", "5", "--family", str(fam_file))
    assert code == 0
    assert out.strip() == "OK 5"


def test_verify_flags_broken_family(tmp_path, capsys):
    fam = construct(4, (0, 2, 1))
    text = render_family((0, 2, 1), [p[:-1] for p in fam.paths[:1]], 4)
    fam_file = tmp_path / "bad.txt"
    fam_file.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--n", "4", "--family", str(fam_file))
    assert code == 1
    assert out.startswith("VIOLATION MissingTerminal")


def test_gen_oracle_pipe(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "--n", "3")
    assert code == 0
    graph_file = tmp_path / "aq3.txt"
    graph_file.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "oracle", "--graph", str(graph_file),
                    "--triple", "000,011,101")
    assert code == 0
    assert out.startswith("PID ")


def test_gen_roundtrip():
    cube = AugmentedCube(4)
    g = parse_graph(render_graph(cube))
    assert g.vertex_count == 16
    assert sorted(g.edges()) == sorted(
        (u, w) for u in cube.vertices() for w in cube.neighbors(u) if u < w)


def test_neighbors_labels(capsys):
    code, out, _ = run(capsys, "neighbors", "--n", "4", "--v", "0000")
    assert code == 0
    assert "0111 c2" in out
    assert "1000 h1" in out
    assert len(out.strip().splitlines()) == 7


def test_witness_printed_variant_exits_one(capsys):
    code, out, _ = run(capsys, "witness", "--n", "4", "--printed-variant")
    assert code == 1
    assert "DEVIATION" in out
    code, out, _ = run(capsys, "witness", "--n", "4")
    assert code == 0
    assert "COMMON 0011 0100 1000 1111" in out


def test_pi3_output(capsys):
    code, out, _ = run(capsys, "pi3", "--n", "4", "--mode", "exhaustive")
    assert code == 0
    assert out == "PI3 AQ4 4 0000,0001,0010\n"


def test_pi3_has_no_worker_option():
    with pytest.raises(SystemExit) as exc:
        main(["pi3", "--n", "4", "--jobs", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["oracle", "--n", "4", "--triple", "0000,0001,0010"],
    ["pi3", "--n", "4"],
], ids=["oracle", "pi3"])
def test_a_negative_budget_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--budget", "-5")
    assert (code, out, err) == (2, "", "error: budget must be >= 0\n")


@pytest.mark.parametrize("argv", [
    ["oracle", "--n", "4", "--triple", "0000,0001,0010"],
    ["pi3", "--n", "4"],
], ids=["oracle", "pi3"])
def test_an_exhausted_budget_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--budget", "100")
    assert (code, out, err) == (2, "", "error: search budget 100 exhausted\n")


def test_a_budget_that_suffices_prints_the_value(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "4", "--triple",
                       "0000,0001,0010", "--budget", "3000")
    assert (code, out) == (0, "PID 4\n")


def test_pi3_sampled_needs_seed(capsys):
    code, _, _ = run(capsys, "pi3", "--n", "4", "--mode", "sampled")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["--count", "5"], ["--seed", "3"],
], ids=["count", "seed"])
def test_pi3_exhaustive_rejects_sampling_options(capsys, argv):
    code, out, err = run(capsys, "pi3", "--n", "4", *argv)
    assert (code, out) == (2, "")
    assert err == "error: exhaustive mode takes no seed or count\n"


def test_decimal_vertices_rejected(capsys):
    code, _, _ = run(capsys, "neighbors", "--n", "4", "--v", "7")
    assert code == 2
    code, _, _ = run(capsys, "construct", "--n", "4", "--triple", "0,2,1")
    assert code == 2


def test_byte_identical_reruns(capsys):
    _, a, _ = run(capsys, "construct", "--n", "6", "--triple",
               "000001,001010,111100", "--trace")
    _, b, _ = run(capsys, "construct", "--n", "6", "--triple",
               "000001,001010,111100", "--trace")
    assert a == b


def test_family_text_roundtrip():
    fam = construct(5, (1, 9, 27))
    text = render_family(fam.terminals, fam.paths, 5, trace=fam.trace)
    terminals, paths, bits = parse_family(text)
    assert terminals == fam.terminals
    assert paths == fam.paths
    assert bits == 5


def test_report_nmax_skips_large_sweeps(capsys, monkeypatch):
    report = importlib.import_module("aqpath.report")
    # criteria 1 and 8 are whole AQ_4 sweeps that tests/test_acceptance.py runs
    for k in (1, 8):
        stub = report.CriterionResult(k, "stub", True, "")
        monkeypatch.setattr(report, f"criterion_{k}", lambda stub=stub: stub)
    code, out, _ = run(capsys, "report", "--nmax", "4", "--samples", "50")
    assert code == 0
    for k in (2, 3, 4, 5, 6, 10):
        assert f"CRITERION {k} SKIP" in out
    assert "CRITERION 7 PASS" in out
    assert "CRITERION 9 PASS" in out


@pytest.mark.parametrize("argv, what", [
    (("--samples", "-5"), "samples"),
    (("--nmax", "3"), "nmax"),
], ids=["negative-samples", "nmax-below-four"])
def test_report_rejects_a_sweep_that_checks_nothing(capsys, argv, what):
    code, out, err = run(capsys, "report", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and what in err


@pytest.mark.parametrize("text", [
    "D\nP 0000 0001\n",
    "D 0000 0001\nP 0000 0001\nP 0000 0010 0001\n",
    "D 0000 0010 0001\nD 0000 0010 0011\nP 0000 0010 0001\n",
    "D 0000 0000 0001\nP 0000 0001\n",
], ids=["bare", "two-terminals", "second-d-line", "repeated-terminal"])
def test_verify_rejects_broken_d_line(tmp_path, capsys, text):
    fam_file = tmp_path / "family.txt"
    fam_file.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "verify", "--n", "4", "--family", str(fam_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("text, message", [
    ("", "graph text must start with 'AQ n=<n>' or 'G n=<bits>'"),
    ("H n=3\nE 000 001\n", "graph text must start with"),
    ("AQ\nE 000 001\n", "bad graph header 'AQ'"),
    ("AQ n=x\nE 000 001\n", "bad graph header 'AQ n=x'"),
    ("AQ n=3\nE 000\n", "bad edge line 'E 000'"),
], ids=["empty", "unknown-header", "no-size", "bad-size", "bad-edge"])
def test_oracle_rejects_broken_graph_text(tmp_path, capsys, text, message):
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "oracle", "--graph", str(graph_file),
                         "--triple", "000,011,101")
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message)


@pytest.mark.parametrize("text, message", [
    ("P 0000 0001\nD 0000 0010 0001\n", "family text must declare D before paths"),
    ("D 0000 0010 0001\nQ 0000 0001\n", "bad family line 'Q 0000 0001'"),
    ("# trace: nothing\n", "family text has no D line"),
], ids=["path-before-d", "unknown-kind", "no-d-line"])
def test_verify_rejects_broken_family_text(tmp_path, capsys, text, message):
    fam_file = tmp_path / "family.txt"
    fam_file.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "verify", "--n", "4", "--family", str(fam_file))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_both_text_formats_skip_every_comment_line():
    graph = parse_graph("G n=2\n#note\n# note\nE 00 01\n")
    assert sorted(graph.edges()) == [(0, 1)]
    assert parse_family("#note\nD 00 01 10\n# note\nP 01 00 10\n") == (
        (0, 1, 2), [(1, 0, 2)], 2)


def test_oracle_commands_refuse_huge_cubes(monkeypatch, capsys):
    class HugeCube(AugmentedCube):
        def vertices(self):
            raise AssertionError("vertex list built before the size guard")

    monkeypatch.setattr("aqpath.cli.AugmentedCube", HugeCube)
    triple = ",".join(format(v, "040b") for v in (0, 1, 2))
    for argv in (["oracle", "--n", "40", "--triple", triple],
                 ["pi3", "--n", "40", "--mode", "sampled", "--seed", "1",
                  "--count", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: the oracle is limited to 65536 vertices")


def test_gen_above_the_size_guard_exits_2(tmp_path, capsys, monkeypatch):
    class UnlistedCube(AugmentedCube):
        def vertices(self):
            raise AssertionError("vertex list built before the size guard")

    monkeypatch.setattr("aqpath.cli.AugmentedCube", UnlistedCube)
    out_file = tmp_path / "aq17.txt"
    for extra in ([], ["--out", str(out_file)]):
        code, out, err = run(capsys, "gen", "--n", "17", *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error: gen is limited to 65536 vertices")
    assert not out_file.exists()


def test_construct_above_the_size_guard_exits_2(capsys, monkeypatch):
    module = importlib.import_module("aqpath.construct")

    class UnlistedCube(AugmentedCube):
        def vertices(self):
            raise AssertionError("vertex list built before the size guard")

    monkeypatch.setattr(module, "AugmentedCube", UnlistedCube)
    n = module.CONSTRUCT_MAX_N + 1
    trip = ",".join(format(v, f"0{n}b") for v in (0, 1, 2))
    code, out, err = run(capsys, "construct", "--n", str(n), "--triple", trip)
    assert code == 2
    assert out == ""
    assert "construct is limited to" in err


def test_construct_failure_exits_1_without_a_traceback(capsys, monkeypatch):
    module = importlib.import_module("aqpath.construct")

    def infeasible(cube, triple):
        raise module._CaseInfeasible("forced")

    monkeypatch.setattr(module, "_construct_level", infeasible)
    code, out, err = run(capsys, "construct", "--n", "4",
                         "--triple", "0000,0010,0001")
    assert code == 1
    assert out == ""
    assert err.startswith("error: no family built for (0, 2, 1)")


def test_report_prints_fail_for_a_failed_construction(capsys, monkeypatch):
    report = importlib.import_module("aqpath.report")
    module = importlib.import_module("aqpath.construct")

    def infeasible(cube, triple):
        raise module._CaseInfeasible("forced")

    # every construction fails; the other sweeps are stubbed to keep it quick
    monkeypatch.setattr(module, "_construct_level", infeasible)
    for k in (1, 4, 5, 6, 8, 9):
        stub = report.CriterionResult(k, "stub", True, "")
        monkeypatch.setattr(report, f"criterion_{k}", lambda stub=stub: stub)
    monkeypatch.setattr(report.oracle, "pi3_exact", lambda *a, **kw: (5, (0, 1, 2)))
    code, out, err = run(capsys, "report", "--nmax", "6", "--samples", "10")
    assert code == 1
    assert "CRITERION 2 FAIL" in out
    assert "CRITERION 3 FAIL" in out
    assert "CRITERION 10 FAIL" in out
    assert err == ""
