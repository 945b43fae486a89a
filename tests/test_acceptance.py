"""Acceptance suite: the nine exit criteria, each printing one pass/fail line.

Scales and tolerances are pinned here exactly as contracted; nothing is
deferred to later calibration.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import pytest

from treebed import checks, lab
from treebed.corpus import all_trees_up_to, host_corpus


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"[{mark}] {criterion}" + (f" :: {detail}" if detail else ""))


def _run(result: checks.CheckResult, criterion: str, expected_runs: int | None = None):
    detail = f"runs={result.runs} failures={result.failures} inconclusive={result.inconclusive}"
    ok = not (result.failures or result.inconclusive)
    ok &= expected_runs is None or result.runs >= expected_runs
    _report(criterion, ok, detail)
    assert result.failures == 0, result.notes
    assert result.inconclusive == 0, "an oracle search ran out of its budget"
    if expected_runs is not None:
        assert result.runs >= expected_runs, f"only {result.runs} runs, wanted {expected_runs}"


def test_criterion_1_fig1_tightness():
    """Exact tightness at k in {6, 9, 12}: the tight host avoids the
    three-branch tree (exhaustively) and one extra vertex per clique flips it."""
    t0 = time.monotonic()
    all_ok = True
    details = []
    for k in (6, 9, 12):
        rep = lab.verify_extremal(k)
        all_ok &= rep.ok
        details.append(f"k={k}:{'ok' if rep.ok else 'FAIL'}(nodes={rep.avoid_nodes})")
    elapsed = time.monotonic() - t0
    _report("1 extremal tightness k=6,9,12", all_ok, " ".join(details) + f" {elapsed:.1f}s")
    assert all_ok
    assert elapsed < 300, "tightness verification exceeded the 5 minute budget"


def test_criterion_2_tree_splitting_suite():
    """1000 seeded random trees (n <= 200, max degree <= 5): every splitting
    bound holds exactly as stated."""
    t0 = time.monotonic()
    res = checks.check_tree_splitting(seed=0, count=1000)
    elapsed = time.monotonic() - t0
    _run(res, f"2 tree-splitting suite ({elapsed:.1f}s)", expected_runs=1000)
    assert elapsed < 60


def test_criterion_3_msf_decomposition():
    """P1/P2/P5/P6 plus the edge partition on 1000 trees (max degree <= 4);
    the |S| bound on 100 degree-2 trees with k >= 4096."""
    t0 = time.monotonic()
    res = checks.check_msf(seed=0, count=1000)
    res_p3 = checks.check_msf_p3_paths(seed=0, count=100)
    elapsed = time.monotonic() - t0
    ok = res.failures == 0 and res_p3.failures == 0
    _report(
        "3 matching/tree/forest decomposition",
        ok,
        f"general runs={res.runs} p3 runs={res_p3.runs} {elapsed:.1f}s",
    )
    assert res.failures == 0, res.notes
    assert res_p3.failures == 0, res_p3.notes
    assert res.runs >= 1000 and res_p3.runs >= 100
    assert elapsed < 120


def test_criterion_4_sum_partition_exhaustive():
    """Both partition procedures verified over every admissible sequence with
    m <= 8, entries <= 4, ell <= 12."""
    t0 = time.monotonic()
    res = checks.check_sum_partition_exhaustive()
    elapsed = time.monotonic() - t0
    _run(res, f"4 sum-partition exhaustive ({elapsed:.1f}s)")
    assert elapsed < 60


def test_criterion_5_oracle_cross_agreement():
    """Stored corpus (all hosts to n=8 up to isomorphism sampling, all trees to
    7 edges): specialized embedders never contradict the exhaustive oracle.
    The escape-path and matching-forest embedders on their structured hosts
    are a check of their own, run here once as `props` runs it."""
    t0 = time.monotonic()
    res = checks.check_oracle_agreement(host_corpus(), all_trees_up_to(8), None)
    elapsed = time.monotonic() - t0
    _run(res, f"5 oracle cross-agreement ({elapsed:.1f}s)")
    _run(checks.check_structured_embedders(), "5 structured embedders", expected_runs=3)


def test_criterion_6_refine_contract():
    """100 seeded refinement instances (n <= 18): final components exactly
    rho-cut-dense, deletions and degree floor within the certified bounds."""
    t0 = time.monotonic()
    res = checks.check_refine_contract(seed=0, count=100)
    elapsed = time.monotonic() - t0
    _run(res, f"6 cut-dense refinement contract ({elapsed:.1f}s)")


def test_criterion_7_matching_bound():
    """1000 random bipartite instances with min degree 1 on Y: |M| >= |Y|/d."""
    t0 = time.monotonic()
    res = checks.check_matching_bound(seed=0, count=1000)
    elapsed = time.monotonic() - t0
    _run(res, f"7 bipartite matching floor ({elapsed:.1f}s)", expected_runs=1000)


def test_criterion_8_diameter_and_even_walk():
    """500 random connected hosts each: the diameter bound at min degree >= 2
    and the even-walk bound at min degree >= alpha*n."""
    t0 = time.monotonic()
    res_d = checks.check_diameter_bound(seed=0, count=500)
    res_w = checks.check_even_walk_bound(seed=0, count=500)
    elapsed = time.monotonic() - t0
    ok = res_d.failures == 0 and res_w.failures == 0
    _report(
        "8 diameter + even-walk bounds",
        ok,
        f"diameter runs={res_d.runs} walk runs={res_w.runs} {elapsed:.1f}s",
    )
    assert res_d.failures == 0, res_d.notes
    assert res_w.failures == 0, res_w.notes


def test_criterion_9_sweep_sanity():
    """The 2k/3 template sweep (k=8..10, 200 trials, tree degree <= 3): zero
    pipeline/oracle inconsistencies and byte-identical reports on replay."""
    t0 = time.monotonic()
    cfg = lab.ExperimentConfig(
        conjecture="2k3",
        k_values=(8, 9, 10),
        tree_max_degree=3,
        trials=200,
        seed=20240817,
    )
    first = lab.run_sweep(cfg)
    second = lab.run_sweep(cfg)
    r1 = lab.render_report(first)
    r2 = lab.render_report(second)
    elapsed = time.monotonic() - t0
    ok = first.summary["consistency_failures"] == 0 and r1 == r2
    _report(
        "9 conjecture sweep sanity",
        ok,
        f"trials={first.summary['trials']} verdicts={first.summary['verdicts']} {elapsed:.1f}s",
    )
    assert first.summary["consistency_failures"] == 0
    assert r1 == r2, "reports are not byte-identical across replays"
