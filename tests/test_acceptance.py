"""Acceptance battery: every criterion runs at its stated scale and prints
one pass/fail line.  Run with ``pytest -s tests/test_acceptance.py`` to see
the lines as they complete, or ``splaylab verify --suite all``."""

import pytest

from splaylab.suites import SUITES, run_suite

CRITERIA = [
    ("g4", 1, "transition digraph facts for four and three keys"),
    ("transform", 2, "transformation property with cost at most 80n"),
    ("embedding", 3, "simulation embedding: subsequence, 80x cost, short paths"),
    ("opt-monotone", 4, "optimal cost strictly monotone; elision strictly cheaper"),
    ("wilber-equivalence", 5, "score-function bound equals the treap formulation"),
    ("lambda-opt", 6, "crossing bound within 24x of the oracle"),
    ("remove-one", 7, "lifting one key changes the bound by at most 4x its level"),
    ("wilber-monotone", 8, "crossing bound approximately monotone with factor 4"),
    ("window", 9, "window decomposition invariants and level formulas"),
    ("repetition", 10, "augmented repetitions scale exactly; oracle bound 83k"),
    ("families", 11, "subsequence-overhead families hit their ratios"),
    ("rotation-model", 12, "rotation-model conversions within 3x and 4x"),
    ("topdown", 13, "top-down digraph non-connectivity; framed embedding"),
    ("universal", 14, "universal transforms realize the subtree from any superset"),
    ("simultaneous", 15, "four-node transforms drive both algorithms identically"),
    ("probes", 16, "conjecture probes run deterministically, assert nothing"),
]

# Every suite's detail at seed 0.  The exhaustive sweeps answer every
# comparison from shared tables, and their counts must stay those of one
# replay per sequence; the window suite's counts pin the decomposition's
# workload in the same way.  The sampled suites pin their random draws: a
# change to the order in which a trial draws its tree and its requests
# moves these details.
PINNED_DETAIL = {
    "g4": (
        "G4 has 14 vertices; G4 strongly connected; G4 diameter == 5 (<= 5); G3 splay "
        "not strongly connected; G3 move-to-root strongly connected"
    ),
    "transform": "14x14 and 4x100 random pairs exact; max cost/n 18.0 <= 80",
    "embedding": (
        "5067 distinct blocks verified covering 231625 executions; 1000 random "
        "executions pass"
    ),
    "opt-monotone": "1402 instances, 6844 subsequence comparisons, 8246 elisions: zero violations",
    "wilber-equivalence": "11794 sequences: exact equality",
    "lambda-opt": "max lambda/opt ratio observed: 1.167 (<= 24)",
    "remove-one": "control gap 4 > 3; 195050 gaps within four times the level",
    "wilber-monotone": "72106 subsequences within factor four",
    "window": "186045 decompositions, 276330 formula checks: zero violations",
    "repetition": "100 exact repetition identities; oracle bound 58 <= 830",
    "families": (
        "spine-312 ratio 1.4997 in [1.45,1.55]; powers ratio 1.9937 in [1.9,2.1]; "
        "pinned n=100 cost 103"
    ),
    "rotation-model": "1424 executions round-tripped",
    "topdown": "digraph non-connectivity confirmed; 200 embeddings pass, max cost factor 23.8",
    "universal": "300 supersets: subtree realized, |U| <= 30|Q|",
    "simultaneous": "196 pairs reached under both algorithms",
    "probes": (
        "deterministic reports for splay-mr-crossings, monotone-splay-crossings, "
        "splay-bookkeeping, deque-linear, traversal-linear, subseq-ratio"
    ),
}


@pytest.mark.parametrize("suite,number,summary", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(suite, number, summary):
    result = run_suite(suite)[0]
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {number:2d} [{status}] {suite}: {result.detail} ({result.seconds:.1f}s)")
    assert result.passed, f"criterion {number} ({suite}): {result.detail}"
    assert result.detail == PINNED_DETAIL[suite]


def test_wilber_monotone_at_seed_7():
    # Its random part reads the seed, so a second seed pins its draws too.
    result = run_suite("wilber-monotone", seed=7)[0]
    assert result.passed
    assert result.detail == "71986 subsequences within factor four"


def test_every_suite_is_a_criterion():
    assert set(SUITES) == {c[0] for c in CRITERIA} == set(PINNED_DETAIL)
