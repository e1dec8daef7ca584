"""Families, probes, and the command-line interface."""

import subprocess
import sys

import pytest

from splaylab.cli import main
from splaylab.families import UnknownFamilyError, generate
from splaylab import probes, suites
from splaylab.probes import UnknownConjectureError, probe
from splaylab.tree import KeyAbsentError, all_shapes, left_spine_tree, shape_print, size
from splaylab.wilber import FormulaReport


class TestFamilies:
    def test_spine_312(self):
        fam = generate("spine-312", n=5)
        assert fam.instance.initial == left_spine_tree(range(1, 6))
        assert fam.instance.requests == (3, 1, 2)
        assert fam.subsequence == (1, 2)

    def test_powers_k3(self):
        fam = generate("powers", k=3)
        assert size(fam.instance.initial) == 7
        assert fam.instance.requests == (4, 2, 1, 2, 4)
        assert fam.subsequence == (1, 2, 4)

    def test_mtr_bad(self):
        fam = generate("mtr-bad", n=4)
        assert fam.instance.requests == (4, 3, 2, 1, 2, 3, 4)
        assert fam.subsequence == (1, 2, 3, 4)

    def test_sequential(self):
        fam = generate("sequential", n=4)
        assert fam.instance.requests == (1, 2, 3, 4)

    def test_traversal_requests_are_a_preorder(self):
        fam = generate("traversal", n=8, seed=3)
        from splaylab.tree import bst_from_sequence

        assert bst_from_sequence(fam.instance.requests) is not None
        assert sorted(fam.instance.requests) == list(range(1, 9))

    def test_random_is_deterministic(self):
        a = generate("random", n=6, m=10, seed=42)
        b = generate("random", n=6, m=10, seed=42)
        assert a.instance == b.instance
        assert a.instance != generate("random", n=6, m=10, seed=43).instance

    def test_unknown_family(self):
        with pytest.raises(UnknownFamilyError):
            generate("nope", n=3)


class TestProbes:
    def test_deterministic_output(self):
        a = probe("splay-bookkeeping", trials=5, n=20, m=40, seed=7).to_csv()
        b = probe("splay-bookkeeping", trials=5, n=20, m=40, seed=7).to_csv()
        assert a == b

    def test_witness_row_has_lower_splay_crossing(self):
        report = probe("splay-mr-crossings", trials=2, n=20, m=30, seed=0)
        witness = report.rows[0]
        assert witness[0] == "witness"
        lam, lam_prime = witness[3], witness[4]
        assert lam_prime < lam

    def test_subseq_ratio_families(self):
        report = probe("subseq-ratio", trials=1, n=10_000, m=0, seed=0)
        ratios = {row[0]: row[4] for row in report.rows}
        assert 1.45 <= ratios["spine-312"] <= 1.55

    def test_aggregates_present(self):
        report = probe("deque-linear", trials=2, n=50, m=100, seed=1)
        assert "ratio" in report.aggregates
        assert report.aggregates["ratio"]["max"] > 0

    def test_deque_on_a_deep_spine(self, monkeypatch):
        # The probe seats its initial keys mid-range; a spine far deeper
        # than the recursion limit must survive the shift.
        monkeypatch.setattr(probes, "random_tree", lambda n, rng: left_spine_tree(range(1, n + 1)))
        report = probe("deque-linear", trials=1, n=20_000, m=5, seed=0)
        assert report.rows[0][:3] == (0, 20_000, 5)

    def test_unknown_conjecture(self):
        with pytest.raises(UnknownConjectureError):
            probe("nope", trials=1, n=5, m=5, seed=0)


# The three commands that read instance files, and three malformed inputs.
INSTANCE_COMMANDS = {
    "run": lambda path: ["run", "--instance", path],
    "lambda-report": lambda path: ["lambda-report", path],
    "opt-report": lambda path: ["opt-report", path],
}
BAD_INSTANCES = {
    "missing-file": None,
    "unparsable-tree-line": "tree: 2 x\nrequests: 2\n",
    "request-key-absent": "tree: 2 1 3\nrequests: 1 5\n",
    "duplicate-tree-key": "tree: 2 1 2\nrequests: 1\n",
}

# Numeric options below their accepted range, one per bound.
BAD_NUMBERS = {
    "probe-trials-0": ["probe", "--conjecture", "splay-bookkeeping", "--trials", "0"],
    "probe-n-0": ["probe", "--conjecture", "splay-mr-crossings", "--n", "0"],
    "probe-deque-n-negative": ["probe", "--conjecture", "deque-linear", "--n", "-2"],
    "probe-m-negative": ["probe", "--conjecture", "splay-bookkeeping", "--m", "-1"],
    "verify-max-n-negative": ["verify", "--suite", "opt-monotone", "--max-n", "-3"],
    "verify-max-m-0": ["verify", "--suite", "opt-monotone", "--max-m", "0"],
}

# The usage errors without a test of their own; "{tmp}" stands for a fresh temporary directory.
USAGE_ERRORS = {
    "verify-max-n-beyond-guard": ["verify", "--suite", "opt-monotone", "--max-n", "8"],
    "verify-max-m-beyond-guard": ["verify", "--suite", "opt-monotone", "--max-m", "9"],
    "run-unknown-column": ["run", "--instance", "{tmp}/absent.txt", "--report", "cost,nope"],
    "gen-bad-size": ["gen", "--family", "random", "--n", "-5", "--out", "{tmp}/x.txt"],
    "gen-unwritable-out": ["gen", "--family", "random", "--n", "3", "--out", "{tmp}/no/x.txt"],
    "gn-size-0": ["gn", "--n", "0"],
}

# The gn CSV row for n = 1..7 under each algorithm; n = 8 takes seconds per run.
GN_ROWS = {
    ("splay", 1): '1,splay,1,True,0,"(1 . .)"',
    ("splay", 2): '2,splay,2,True,1,"(1 . (2 . .))"',
    ("splay", 3): '3,splay,5,False,,"(1 . (3 (2 . .) .))"',
    ("splay", 4): '4,splay,14,True,5,"(1 . (2 . (4 (3 . .) .)))"',
    ("splay", 5): '5,splay,42,True,6,"(1 . (2 . (4 (3 . .) (5 . .))))"',
    ("splay", 6): '6,splay,132,True,7,"(1 . (2 . (3 . (4 . (5 . (6 . .))))))"',
    ("splay", 7): '7,splay,429,True,9,"(1 . (2 . (3 . (4 . (6 (5 . .) (7 . .))))))"',
    ("mtr", 1): '1,mtr,1,True,0,"(1 . .)"',
    ("mtr", 2): '2,mtr,2,True,1,"(1 . (2 . .))"',
    ("mtr", 3): '3,mtr,5,True,2,"(1 . (2 . (3 . .)))"',
    ("mtr", 4): '4,mtr,14,True,3,"(1 . (2 . (3 . (4 . .))))"',
    ("mtr", 5): '5,mtr,42,True,4,"(1 . (2 . (3 . (4 . (5 . .)))))"',
    ("mtr", 6): '6,mtr,132,True,5,"(1 . (2 . (3 . (4 . (5 . (6 . .))))))"',
    ("mtr", 7): '7,mtr,429,True,6,"(1 . (2 . (3 . (4 . (5 . (6 . (7 . .)))))))"',
    ("tds", 1): '1,tds,1,True,0,"(1 . .)"',
    ("tds", 2): '2,tds,2,True,1,"(1 . (2 . .))"',
    ("tds", 3): '3,tds,5,False,,"(1 . (3 (2 . .) .))"',
    ("tds", 4): '4,tds,14,False,,"(1 . (2 . (3 . (4 . .))))"',
    ("tds", 5): '5,tds,42,False,,"(1 . (2 . (3 . (4 . (5 . .)))))"',
    ("tds", 6): '6,tds,132,False,,"(1 . (2 . (3 . (4 . (5 . (6 . .))))))"',
    ("tds", 7): '7,tds,429,False,,"(1 . (2 . (3 . (4 . (5 . (6 . (7 . .)))))))"',
}


def _assert_usage_error(argv, capsys):
    """``argv`` exits 2 with nothing on stdout and one line on stderr."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"splaylab {argv[0]}: ")


class TestCli:
    @pytest.mark.parametrize("case", sorted(BAD_INSTANCES))
    @pytest.mark.parametrize("command", sorted(INSTANCE_COMMANDS))
    def test_bad_instance_file_exit_2(self, tmp_path, capsys, command, case):
        path = tmp_path / "inst.txt"
        if BAD_INSTANCES[case] is not None:
            path.write_text(BAD_INSTANCES[case])
        assert main(INSTANCE_COMMANDS[command](str(path))) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"splaylab {command}: ")

    @pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
    def test_numeric_option_out_of_range_exit_2(self, capsys, case):
        argv = BAD_NUMBERS[case]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"splaylab {argv[0]}: --")

    @pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
    def test_usage_error_exit_2(self, tmp_path, capsys, case):
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in USAGE_ERRORS[case]]
        _assert_usage_error(argv, capsys)

    def test_unknown_family_exit_2(self, tmp_path, capsys):
        out = str(tmp_path / "x.txt")
        _assert_usage_error(["gen", "--family", "nope", "--n", "3", "--out", out], capsys)

    def test_unknown_suite_exit_2(self, capsys):
        _assert_usage_error(["verify", "--suite", "nope"], capsys)

    def test_unknown_conjecture_exit_2(self, capsys):
        _assert_usage_error(["probe", "--conjecture", "nope"], capsys)

    def test_guard_override_lifts_the_verify_bounds(self, monkeypatch, capsys):
        monkeypatch.setenv("SPLAYLAB_GUARD_OVERRIDE", "1")
        assert main(["verify", "--suite", "g4", "--max-n", "8", "--max-m", "9"]) == 0
        assert "[PASS] g4" in capsys.readouterr().out

    def test_key_error_inside_a_suite_propagates(self, monkeypatch):
        def broken(**_):
            raise KeyAbsentError(99)

        monkeypatch.setitem(suites.SUITES, "g4", broken)
        with pytest.raises(KeyAbsentError):
            main(["verify", "--suite", "g4"])

    def test_probe_accepts_the_range_minimums(self, capsys):
        argv = ["probe", "--conjecture", "splay-bookkeeping", "--trials", "1", "--n", "1"]
        assert main(argv + ["--m", "0"]) == 0
        assert capsys.readouterr().out.startswith("# conjecture=splay-bookkeeping")

    def test_gen_run_roundtrip(self, tmp_path):
        out = tmp_path / "inst.txt"
        assert main(["gen", "--family", "spine-312", "--n", "8", "--out", str(out)]) == 0
        assert out.read_text().startswith("tree: 8 7 6 5 4 3 2 1")
        assert main([
            "run", "--instance", str(out), "--algo", "splay",
            "--report", "cost,lambda,lambda2,zeta,opt",
        ]) == 0

    def test_verify_suite_passes(self, capsys):
        assert main(["verify", "--suite", "g4"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] g4" in out

    def test_gn_report(self, capsys):
        assert main(["gn", "--n", "4", "--algo", "splay"]) == 0
        out = capsys.readouterr().out
        assert "4,splay,14,True,5" in out

    @pytest.mark.parametrize("algo,n", sorted(GN_ROWS))
    def test_gn_row(self, capsys, algo, n):
        assert main(["gn", "--n", str(n), "--algo", algo]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header == "n,algorithm,vertices,strongly_connected,diameter,max_eccentricity_vertex"
        assert row == GN_ROWS[(algo, n)]

    def test_probe_command(self, capsys):
        assert main([
            "probe", "--conjecture", "splay-bookkeeping",
            "--trials", "3", "--n", "10", "--m", "20", "--seed", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# conjecture=splay-bookkeeping")

    def test_lambda_report(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        main(["gen", "--family", "random", "--n", "5", "--m", "4", "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        assert main(["lambda-report", str(out)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "instance,m,n,cost_splay,lambda,lambda_prime,zeta,opt"
        assert len(lines) == 2

    def test_opt_report(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        main(["gen", "--family", "random", "--n", "5", "--m", "4", "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        assert main(["opt-report", str(out)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("instance,m,n,opt,splay_cost,mtr_cost,lambda")

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "splaylab.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "splaylab" in proc.stdout


class TestSuiteFailures:
    """A failed check fails its suite, names the failing case, and makes
    ``verify`` exit 1."""

    def test_g4_diameter_mismatch(self, monkeypatch, capsys):
        monkeypatch.setattr(suites, "G4_DIAMETER", 4)
        [result] = suites.run_suite("g4")
        assert (result.name, result.passed) == ("g4", False)
        assert result.detail == "FAILED: G4 diameter == 4 (<= 5)"
        assert main(["verify", "--suite", "g4"]) == 1
        assert "[FAIL] g4: FAILED: G4 diameter == 4 (<= 5)" in capsys.readouterr().out

    def test_transform_fails_on_its_first_pair(self, monkeypatch):
        monkeypatch.setattr(suites, "replay", lambda plan: None)
        [result] = suites.run_suite("transform")
        assert not result.passed
        first = shape_print(all_shapes(4)[0])
        assert result.detail == f"4-node pair {first} -> {first}"

    def test_window_reports_a_formula_violation(self, monkeypatch):
        calls = []

        def planted(steps, witnesses, x):
            calls.append(x)
            return FormulaReport(checked=1, violations=["planted violation"])

        monkeypatch.setattr(suites, "validate_level_formulas", planted)
        [result] = suites.run_suite("window")
        assert not result.passed
        assert len(calls) == 1
        assert "planted violation" in result.detail
