"""Families, probes, and the command-line interface."""

import subprocess
import sys

import pytest

from splaylab.cli import main
from splaylab.families import UnknownFamilyError, generate
from splaylab import probes, suites
from splaylab.probes import UnknownConjectureError, probe
from splaylab.tree import all_shapes, left_spine_tree, preorder, shape_print, size
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

    def test_unknown_family_exit_2(self, tmp_path):
        code = main(["gen", "--family", "nope", "--n", "3", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_unknown_suite_exit_2(self):
        assert main(["verify", "--suite", "nope"]) == 2

    def test_unknown_conjecture_exit_2(self):
        assert main(["probe", "--conjecture", "nope"]) == 2

    def test_verify_suite_passes(self, capsys):
        assert main(["verify", "--suite", "g4"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] g4" in out

    def test_gn_report(self, capsys):
        assert main(["gn", "--n", "4", "--algo", "splay"]) == 0
        out = capsys.readouterr().out
        assert "4,splay,14,True,5" in out

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
