"""Families, probes, and the command-line interface."""

import contextlib
import csv
import io
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splaylab.cli import COLUMNS, main
from splaylab.families import UnknownFamilyError, generate
from splaylab.model import Instance
from splaylab import probes, suites
from splaylab.probes import UnknownConjectureError, probe
from splaylab.tree import KeyAbsentError, all_shapes, left_spine_tree, shape_print, size
from splaylab.wilber import FormulaViolation, crossing_bound_from_insertion_tree


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


# Each conjecture's report at trials=3, n=30, m=40, seed=5.  The random
# probes draw each trial's tree before its requests, so these pin that order.
PINNED_PROBE_CSV = {
    "splay-mr-crossings": """\
# conjecture=splay-mr-crossings version=0.1.0 m=40,n=30,seed=5,trials=3
trial,n,m,lambda,lambda_prime,ratio
witness,4,4,9,8,0.615385
0,30,40,145,142,0.811429
1,30,40,146,144,0.818182
2,30,40,145,143,0.817143
# trial: max=2 mean=1.000000
# n: max=30 mean=23.500000
# m: max=40 mean=31.000000
# lambda: max=146 mean=111.250000
# lambda_prime: max=144 mean=109.250000
# ratio: max=0.818182 mean=0.765534
""",
    "monotone-splay-crossings": """\
# conjecture=monotone-splay-crossings version=0.1.0 m=40,n=30,seed=5,trials=3
trial,n,m,lambda_prime_x,lambda_prime_y,ratio
0,30,40,142,87,0.505814
1,30,40,144,87,0.500000
2,30,40,143,92,0.531792
# trial: max=2 mean=1.000000
# n: max=30 mean=30.000000
# m: max=40 mean=40.000000
# lambda_prime_x: max=144 mean=143.000000
# lambda_prime_y: max=92 mean=88.666667
# ratio: max=0.531792 mean=0.512535
""",
    "splay-bookkeeping": """\
# conjecture=splay-bookkeeping version=0.1.0 m=40,n=30,seed=5,trials=3
trial,n,m,lambda_prime,zeta,ratio
0,30,40,142,74,0.430233
1,30,40,144,84,0.482759
2,30,40,143,77,0.445087
# trial: max=2 mean=1.000000
# n: max=30 mean=30.000000
# m: max=40 mean=40.000000
# lambda_prime: max=144 mean=143.000000
# zeta: max=84 mean=78.333333
# ratio: max=0.482759 mean=0.452693
""",
    "deque-linear": """\
# conjecture=deque-linear version=0.1.0 m=40,n=30,seed=5,trials=3
trial,n,m,cost,ratio
0,30,40,136,1.942857
1,30,40,147,2.100000
2,30,40,153,2.185714
# trial: max=2 mean=1.000000
# n: max=30 mean=30.000000
# m: max=40 mean=40.000000
# cost: max=153 mean=145.333333
# ratio: max=2.185714 mean=2.076190
""",
    "traversal-linear": """\
# conjecture=traversal-linear version=0.1.0 n=30,seed=5,trials=3
trial,n,self_ratio,cross_ratio
0,30,3.433333,4.033333
1,30,3.500000,4.333333
2,30,3.433333,4.266667
# trial: max=2 mean=1.000000
# n: max=30 mean=30.000000
# self_ratio: max=3.500000 mean=3.455556
# cross_ratio: max=4.333333 mean=4.211111
""",
    "subseq-ratio": """\
# conjecture=subseq-ratio version=0.1.0 n=30
family,n,cost_x,cost_y,ratio
spine-312,30,33,46,1.393939
powers-k4,15,26,29,1.115385
# n: max=30 mean=22.500000
# cost_x: max=33 mean=29.500000
# cost_y: max=46 mean=37.500000
# ratio: max=1.393939 mean=1.254662
""",
}


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

    @pytest.mark.parametrize("conjecture", sorted(PINNED_PROBE_CSV))
    def test_report_pinned(self, conjecture):
        report = probe(conjecture, trials=3, n=30, m=40, seed=5)
        assert report.to_csv() == PINNED_PROBE_CSV[conjecture]

    def test_every_conjecture_is_pinned(self):
        assert set(PINNED_PROBE_CSV) == set(probes.PROBES)

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
    "non-decimal-keys": "tree: \u0663 1_0 +2\nrequests: 3 10\n",
    "unrecognised-line": "tree: 2 1 3\nrequests: 1 2\nbogus line\n",
    "repeated-lines": "tree: 2 1 3\nrequests: 1 2\nrequests: 3\ntree: 5 4\n",
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

# The usage errors without a test of their own; "{tmp}" stands for a fresh
# temporary directory that holds a valid instance file, inst.txt.
USAGE_ERRORS = {
    "verify-max-n-beyond-guard": ["verify", "--suite", "opt-monotone", "--max-n", "8"],
    "verify-max-m-beyond-guard": ["verify", "--suite", "opt-monotone", "--max-m", "9"],
    "run-unknown-column": ["run", "--instance", "{tmp}/absent.txt", "--report", "cost,nope"],
    "run-no-column": ["run", "--instance", "{tmp}/inst.txt", "--report", ","],
    "gen-bad-size": ["gen", "--family", "random", "--n", "-5", "--out", "{tmp}/x.txt"],
    "gen-bad-size-spine-312": ["gen", "--family", "spine-312", "--n", "2", "--out", "{tmp}/x.txt"],
    "gen-bad-size-powers": ["gen", "--family", "powers", "--k", "1", "--out", "{tmp}/x.txt"],
    "gen-bad-size-mtr-bad": ["gen", "--family", "mtr-bad", "--n", "1", "--out", "{tmp}/x.txt"],
    "gen-bad-size-sequential": ["gen", "--family", "sequential", "--n", "0", "--out", "{tmp}/x.txt"],
    "gen-bad-size-traversal": ["gen", "--family", "traversal", "--n", "0", "--out", "{tmp}/x.txt"],
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


# `gen` arguments of the instance files whose report rows are pinned below.
# n > 7 or m > 8 exceeds the oracle's guard, so those rows leave opt empty.
REPORT_FILES = {
    "spine-312": ["--family", "spine-312", "--n", "6"],
    "spine-312-deep": ["--family", "spine-312", "--n", "40"],
    "powers": ["--family", "powers", "--k", "3"],
    "mtr-bad": ["--family", "mtr-bad", "--n", "5"],
    "sequential": ["--family", "sequential", "--n", "7"],
    "traversal": ["--family", "traversal", "--n", "7", "--seed", "3"],
    "random": ["--family", "random", "--n", "5", "--m", "6", "--seed", "1"],
    "random-at-guard": ["--family", "random", "--n", "7", "--m", "8", "--seed", "2"],
    "random-above-guard": ["--family", "random", "--n", "12", "--m", "20", "--seed", "4"],
}
ALL_RUN_COLUMNS = ["--report", "cost,lambda,lambda2,zeta,opt"]
REPORT_COMMANDS = {
    "run-splay": lambda path: ["run", "--instance", path, "--algo", "splay", *ALL_RUN_COLUMNS],
    "run-mtr": lambda path: ["run", "--instance", path, "--algo", "mtr", *ALL_RUN_COLUMNS],
    "run-tds": lambda path: ["run", "--instance", path, "--algo", "tds", *ALL_RUN_COLUMNS],
    "lambda-report": lambda path: ["lambda-report", path],
    "opt-report": lambda path: ["opt-report", path],
}
REPORT_HEADERS = {
    "run-splay": "instance,m,n,algo,cost,lambda,lambda2,zeta,opt",
    "run-mtr": "instance,m,n,algo,cost,lambda,lambda2,zeta,opt",
    "run-tds": "instance,m,n,algo,cost,lambda,lambda2,zeta,opt",
    "lambda-report": "instance,m,n,cost_splay,lambda,lambda_prime,zeta,opt",
    "opt-report": "instance,m,n,opt,splay_cost,mtr_cost,lambda,splay_over_opt,lambda_over_opt",
}
REPORT_ROWS = {
    ("spine-312", "run-splay"): "spine-312.txt,3,6,splay,9,7,4,3,9",
    ("spine-312", "run-mtr"): "spine-312.txt,3,6,mtr,10,7,4,3,9",
    ("spine-312", "run-tds"): "spine-312.txt,3,6,tds,9,7,4,3,9",
    ("spine-312", "lambda-report"): "spine-312.txt,3,6,9,7,6,3,9",
    ("spine-312", "opt-report"): "spine-312.txt,3,6,9,9,10,7,1.0000,0.7778",
    ("spine-312-deep", "run-splay"): "spine-312-deep.txt,3,40,splay,43,7,4,37,",
    ("spine-312-deep", "run-mtr"): "spine-312-deep.txt,3,40,mtr,44,7,4,37,",
    ("spine-312-deep", "run-tds"): "spine-312-deep.txt,3,40,tds,43,7,4,37,",
    ("spine-312-deep", "lambda-report"): "spine-312-deep.txt,3,40,43,7,6,37,",
    ("spine-312-deep", "opt-report"): "spine-312-deep.txt,3,40,,43,44,7,,",
    ("powers", "run-splay"): "powers.txt,5,7,splay,14,10,7,4,13",
    ("powers", "run-mtr"): "powers.txt,5,7,mtr,13,10,7,4,13",
    ("powers", "run-tds"): "powers.txt,5,7,tds,14,10,7,4,13",
    ("powers", "lambda-report"): "powers.txt,5,7,14,10,10,4,13",
    ("powers", "opt-report"): "powers.txt,5,7,13,14,13,10,1.0769,0.7692",
    ("mtr-bad", "run-splay"): "mtr-bad.txt,9,5,splay,17,17,13,0,",
    ("mtr-bad", "run-mtr"): "mtr-bad.txt,9,5,mtr,17,17,13,0,",
    ("mtr-bad", "run-tds"): "mtr-bad.txt,9,5,tds,17,17,13,0,",
    ("mtr-bad", "lambda-report"): "mtr-bad.txt,9,5,17,17,17,0,",
    ("mtr-bad", "opt-report"): "mtr-bad.txt,9,5,,17,17,17,,",
    ("sequential", "run-splay"): "sequential.txt,7,7,splay,23,19,7,6,19",
    ("sequential", "run-mtr"): "sequential.txt,7,7,mtr,34,19,7,6,19",
    ("sequential", "run-tds"): "sequential.txt,7,7,tds,25,19,7,6,19",
    ("sequential", "lambda-report"): "sequential.txt,7,7,23,19,17,6,19",
    ("sequential", "opt-report"): "sequential.txt,7,7,19,23,34,19,1.2105,1.0000",
    ("traversal", "run-splay"): "traversal.txt,7,7,splay,20,17,9,3,19",
    ("traversal", "run-mtr"): "traversal.txt,7,7,mtr,21,17,9,3,19",
    ("traversal", "run-tds"): "traversal.txt,7,7,tds,20,17,9,3,19",
    ("traversal", "lambda-report"): "traversal.txt,7,7,20,17,17,3,19",
    ("traversal", "opt-report"): "traversal.txt,7,7,19,20,21,17,1.0526,0.8947",
    ("random", "run-splay"): "random.txt,6,5,splay,19,16,9,3,16",
    ("random", "run-mtr"): "random.txt,6,5,mtr,18,16,9,3,16",
    ("random", "run-tds"): "random.txt,6,5,tds,17,16,9,3,16",
    ("random", "lambda-report"): "random.txt,6,5,19,16,16,3,16",
    ("random", "opt-report"): "random.txt,6,5,16,19,18,16,1.1875,1.0000",
    ("random-at-guard", "run-splay"): "random-at-guard.txt,8,7,splay,25,21,13,5,25",
    ("random-at-guard", "run-mtr"): "random-at-guard.txt,8,7,mtr,25,21,13,5,25",
    ("random-at-guard", "run-tds"): "random-at-guard.txt,8,7,tds,25,21,13,5,25",
    ("random-at-guard", "lambda-report"): "random-at-guard.txt,8,7,25,21,20,5,25",
    ("random-at-guard", "opt-report"): "random-at-guard.txt,8,7,25,25,25,21,1.0000,0.8400",
    ("random-above-guard", "run-splay"): "random-above-guard.txt,20,12,splay,71,51,39,17,",
    ("random-above-guard", "run-mtr"): "random-above-guard.txt,20,12,mtr,69,51,39,17,",
    ("random-above-guard", "run-tds"): "random-above-guard.txt,20,12,tds,65,51,39,17,",
    ("random-above-guard", "lambda-report"): "random-above-guard.txt,20,12,71,51,54,17,",
    ("random-above-guard", "opt-report"): "random-above-guard.txt,20,12,,71,69,51,,",
}


# Instance texts for the CLI contract: valid instances with up to 8 keys and
# 8 requests, which keep the oracle fast, and up to four tree:, requests: or
# subsequence: lines of small keys or junk.
def _valid_instance(keys):
    return st.lists(st.sampled_from(keys), max_size=8).map(
        lambda requests: f"tree: {' '.join(map(str, keys))}\nrequests: {' '.join(map(str, requests))}\n"
    )


_INSTANCE_LINE = st.tuples(
    st.sampled_from(["tree:", "requests:", "subsequence:", ""]),
    st.one_of(
        st.lists(st.integers(-2, 9), max_size=8).map(lambda keys: " " + " ".join(map(str, keys))),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
    ),
).map("".join)
INSTANCE_TEXTS = st.one_of(
    st.lists(st.integers(-2, 9), unique=True, min_size=1, max_size=8).flatmap(_valid_instance),
    st.lists(_INSTANCE_LINE, max_size=4).map("\n".join),
)


def _gen_report_file(tmp_path, case, capsys) -> str:
    path = str(tmp_path / f"{case}.txt")
    assert main(["gen", *REPORT_FILES[case], "--out", path]) == 0
    capsys.readouterr()
    return path


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
        (tmp_path / "inst.txt").write_text("tree: 2 1 3\nrequests: 1 3\n")
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in USAGE_ERRORS[case]]
        _assert_usage_error(argv, capsys)

    def test_unknown_family_exit_2(self, tmp_path, capsys):
        out = str(tmp_path / "x.txt")
        _assert_usage_error(["gen", "--family", "nope", "--n", "3", "--out", out], capsys)

    def test_unknown_suite_exit_2(self, capsys):
        _assert_usage_error(["verify", "--suite", "nope"], capsys)

    def test_unknown_conjecture_exit_2(self, capsys):
        _assert_usage_error(["probe", "--conjecture", "nope"], capsys)

    @pytest.mark.parametrize("case", ["verify-max-n-beyond-guard", "verify-max-m-beyond-guard"])
    def test_guard_error_names_the_override_value(self, capsys, case):
        # Only the value 1 lifts the guards, so the message must say it.
        assert main(USAGE_ERRORS[case]) == 2
        assert "SPLAYLAB_GUARD_OVERRIDE=1 lifts them" in capsys.readouterr().err

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

    def test_lambda2_column_at_scale_meets_the_insertion_tree_identity(self, tmp_path, capsys):
        out = tmp_path / "r.txt"
        main(["gen", "--family", "random", "--n", "4000", "--m", "4000", "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        assert main(["run", "--instance", str(out), "--report", "lambda2"]) == 0
        requests = generate("random", n=4000, m=4000, seed=1).instance.requests
        lam2 = crossing_bound_from_insertion_tree(requests) - len(set(requests)) + 1
        assert capsys.readouterr().out.splitlines() == [
            "instance,m,n,algo,lambda2", f"r.txt,4000,4000,splay,{lam2}",
        ]

    def test_opt_report(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        main(["gen", "--family", "random", "--n", "5", "--m", "4", "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        assert main(["opt-report", str(out)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("instance,m,n,opt,splay_cost,mtr_cost,lambda")

    @pytest.mark.parametrize("case,command", sorted(REPORT_ROWS))
    def test_report_row(self, tmp_path, capsys, case, command):
        path = _gen_report_file(tmp_path, case, capsys)
        assert main(REPORT_COMMANDS[command](path)) == 0
        expected = [REPORT_HEADERS[command], REPORT_ROWS[(case, command)]]
        assert capsys.readouterr().out.splitlines() == expected

    def test_instance_without_requests(self, tmp_path, capsys):
        # gen writes files with m = 0; their oracle cost is 0, so the ratios are empty.
        path = str(tmp_path / "empty.txt")
        assert main(["gen", "--family", "random", "--n", "4", "--m", "0", "--out", path]) == 0
        capsys.readouterr()
        rows = {}
        for command, argv in REPORT_COMMANDS.items():
            assert main(argv(path)) == 0
            header, rows[command] = capsys.readouterr().out.splitlines()
            assert header == REPORT_HEADERS[command]
        assert rows == {
            "run-splay": "empty.txt,0,4,splay,0,0,0,0,0",
            "run-mtr": "empty.txt,0,4,mtr,0,0,0,0,0",
            "run-tds": "empty.txt,0,4,tds,0,0,0,0,0",
            "lambda-report": "empty.txt,0,4,0,0,0,0,0",
            "opt-report": "empty.txt,0,4,0,0,0,0,,",
        }

    @given(
        st.sampled_from(sorted(REPORT_COMMANDS)),
        st.one_of(st.binary(max_size=40), INSTANCE_TEXTS.map(str.encode)),
    )
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_any_instance_file_exits_0_or_2(self, tmp_path, command, data):
        path = tmp_path / "inst.txt"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(REPORT_COMMANDS[command](str(path)))
        if code == 2:
            assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1
        else:
            assert code == 0 and len(out.getvalue().splitlines()) == 2

    def test_readme_describes_every_report_column(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("### Report columns", 1)[1].split("\n#", 1)[0]
        items = [line.split(":", 1)[0] for line in section.splitlines() if line.startswith("- ")]
        assert {name for item in items for name in re.findall(r"`(\w+)`", item)} == set(COLUMNS)

    @pytest.mark.parametrize("command", ["lambda-report", "opt-report"])
    def test_report_rows_follow_the_file_order(self, tmp_path, capsys, command):
        cases = sorted(REPORT_FILES, reverse=True)
        paths = [_gen_report_file(tmp_path, case, capsys) for case in cases]
        assert main([command, *paths]) == 0
        expected = [REPORT_HEADERS[command]] + [REPORT_ROWS[(case, command)] for case in cases]
        assert capsys.readouterr().out.splitlines() == expected

    @pytest.mark.parametrize("command", sorted(REPORT_COMMANDS))
    def test_file_name_with_comma_and_quote_stays_one_field(self, tmp_path, capsys, command):
        name = 'a,"b".txt'
        path = str(tmp_path / name)
        assert main(["gen", "--family", "random", "--n", "4", "--m", "3", "--out", path]) == 0
        capsys.readouterr()
        assert main(REPORT_COMMANDS[command](path)) == 0
        header, row = csv.reader(io.StringIO(capsys.readouterr().out))
        assert header == REPORT_HEADERS[command].split(",")
        assert len(row) == len(header) and row[0] == name

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "splaylab.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "splaylab" in proc.stdout

    def test_cli_import_loads_no_dataclasses_or_inspect(self):
        # Every record is a named tuple or a tuple subclass, so a cold command
        # generates no methods and imports neither module.
        code = ("import sys; before = set(sys.modules); import splaylab.cli; "
                "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestUncheckedInstances:
    """Random instances whose requests are drawn from their tree's own keys
    skip the key check through ``Instance._make``; the checking constructor
    must accept each of them."""

    def test_wilber_monotone_trials_pass_the_key_check(self, monkeypatch):
        made = []

        class Checked(Instance):
            __slots__ = ()

            @classmethod
            def _make(cls, fields):
                made.append(Instance(*fields))
                return made[-1]

        monkeypatch.setattr(suites, "Instance", Checked)
        [result] = suites.run_suite("wilber-monotone", seed=7)
        assert result.detail == "71986 subsequences within factor four"
        assert len(made) == 10_000

    def test_requests_then_tree_passes_the_key_check(self):
        for trial in range(500):
            rng = random.Random(trial)
            n, m = rng.randint(1, 8), rng.randint(1, 6)
            inst = suites._requests_then_tree(rng, n, m)
            assert Instance(*inst) == inst


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

        def planted(prev, step, wit):
            calls.append(wit)
            raise FormulaViolation(f"step {wit.index}: planted violation")

        monkeypatch.setattr(suites, "check_level_witness", planted)
        [result] = suites.run_suite("window")
        assert not result.passed
        assert len(calls) == 1
        # The first trie node with a witness: the first shape, x = 1, Z = (1,).
        first = shape_print(all_shapes(2)[0])
        assert result.detail == f"{first} x=1 Z=(1,): step 1: planted violation"
