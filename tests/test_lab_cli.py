"""Lab harness and CLI tests: sweeps, reports, file formats, exit codes."""

import argparse
import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from treebed import cli, embed, lab
from treebed.errors import PreconditionViolated
from treebed.generators import gen_three_branch_tree
from treebed.graph import Graph
from treebed.trees import Tree


def test_config_roundtrip_and_digest():
    cfg = lab.ExperimentConfig(
        conjecture="2k3", k_values=(8, 9), tree_max_degree=3, trials=5, seed=1
    )
    again = lab.ExperimentConfig.from_jsonable(json.loads(json.dumps(cfg.to_jsonable())))
    assert again == cfg and again.digest() == cfg.digest()
    with pytest.raises(PreconditionViolated):
        lab.ExperimentConfig(conjecture="nope", k_values=(8,), tree_max_degree=3, trials=1, seed=0)


@pytest.mark.parametrize(
    "change, why",
    [({"k_values": (8, 0)}, "every k >= 1"), ({"oracle_budget": 0}, "oracle_budget >= 1"),
     ({"oracle_budget": -4}, "oracle_budget >= 1")],
    ids=["k-zero", "budget-zero", "budget-negative"],
)
def test_config_refuses_k_or_budget_below_one(change, why):
    # a config file is refused as a flag is: "k_values": [0] used to run, and
    # "oracle_budget": -4 to make every trial inconclusive
    settings = {"conjecture": "2k3", "k_values": (8,), "tree_max_degree": 3, "trials": 1, "seed": 0}
    with pytest.raises(PreconditionViolated, match=why):
        lab.ExperimentConfig(**{**settings, **change})


@pytest.mark.parametrize("workers", [0, -3])
def test_run_sweep_refuses_workers_below_one(workers):
    cfg = lab.ExperimentConfig(conjecture="2k3", k_values=(8,), tree_max_degree=3, trials=1, seed=0)
    with pytest.raises(PreconditionViolated, match="workers >= 1"):
        lab.run_sweep(cfg, workers=workers)


def test_verify_extremal_refuses_k_below_6():
    # at k = 3 the tight host's max degree 2 is under k, so it reported a refutation
    with pytest.raises(PreconditionViolated, match="k >= 6"):
        lab.verify_extremal(3)


def test_csv_columns_are_the_flat_record_fields():
    assert lab.CSV_COLUMNS == [
        "trial_index", "trial_seed", "instance", "k", "host_n", "host_edges", "tree_edges",
        "template_ok", "pipeline_found", "oracle_status", "oracle_nodes", "verdict",
        "consistency_failure",
    ]


def test_empty_sweep():
    cfg = lab.ExperimentConfig(
        conjecture="2k3", k_values=(8,), tree_max_degree=3, trials=0, seed=0
    )
    res = lab.run_sweep(cfg)
    assert res.records == [] and res.summary["trials"] == 0


def test_sweep_reproducible_and_consistent():
    cfg = lab.ExperimentConfig(
        conjecture="2k3", k_values=(8, 9, 10), tree_max_degree=3, trials=12, seed=7
    )
    r1 = lab.run_sweep(cfg)
    r2 = lab.run_sweep(cfg)
    assert lab.render_report(r1) == lab.render_report(r2)
    assert r1.summary["consistency_failures"] == 0
    assert lab.replay_candidates(cfg, r1)


def test_sweep_workers_scheduling_independent():
    cfg = lab.ExperimentConfig(
        conjecture="2k3", k_values=(8,), tree_max_degree=3, trials=6, seed=3
    )
    serial = lab.render_report(lab.run_sweep(cfg, workers=1))
    pooled = lab.render_report(lab.run_sweep(cfg, workers=2))
    assert serial == pooled


def test_extremal_mix_flags_candidates():
    # run one below the conjecture's floor with tight instances planted in:
    # candidates must appear exactly at the plants
    cfg = lab.ExperimentConfig(
        conjecture="2k3",
        k_values=(9,),
        tree_max_degree=3,
        trials=20,
        seed=5,
        min_degree_offset=-1,
        extremal_mix=True,
    )
    res = lab.run_sweep(cfg)
    assert res.summary["consistency_failures"] == 0
    cands = {r.trial_index for r in res.records if r.verdict == "counterexample-candidate"}
    planted = {i for i in range(20) if i % 5 == 0}
    assert cands == planted
    for r in res.records:
        if r.trial_index in cands:
            assert r.oracle_status == "not_found" and r.template_ok


def test_extremal_mix_decides_hosts_above_the_random_order():
    # the planted tight host at k = 15 has 19 vertices, more than any random
    # host of the sweep, and its refutation still gets an oracle verdict
    cfg = lab.ExperimentConfig(
        conjecture="2k3",
        k_values=(15,),
        tree_max_degree=3,
        trials=10,
        seed=5,
        min_degree_offset=-1,
        extremal_mix=True,
    )
    res = lab.run_sweep(cfg)
    cands = {r.trial_index for r in res.records if r.verdict == "counterexample-candidate"}
    assert cands == {0, 5}
    assert {r.host_n for r in res.records if r.trial_index in cands} == {19}
    assert all(r.oracle_status != "skipped" for r in res.records)


def test_sweep_above_k12_decides_every_trial(tmp_path):
    # every trial that meets its template gets an oracle verdict, whatever
    # its k: `skipped` means the template was not met
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--k", "13", "--k", "14", "--trials", "30", "--seed", "1",
            "--tree-max-degree", "4", "--out", str(out)]
    assert cli.main(argv) == 0
    records = json.loads(out.read_text())["records"]
    assert len(records) == 30 and all(r["template_ok"] for r in records)
    assert {r["oracle_status"] for r in records} <= {"found", "not_found"}
    assert "inconclusive" not in {r["verdict"] for r in records}


def test_second_nbhd_template():
    cfg = lab.ExperimentConfig(
        conjecture="second_nbhd", k_values=(6,), tree_max_degree=3, trials=6, seed=2
    )
    res = lab.run_sweep(cfg)
    assert res.summary["consistency_failures"] == 0


def test_alpha_and_k2_templates():
    cfg = lab.ExperimentConfig(
        conjecture="alpha", k_values=(8,), tree_max_degree=3, trials=6, seed=4,
        alpha="1/5",
    )
    res = lab.run_sweep(cfg)
    assert res.summary["consistency_failures"] == 0
    cfg = lab.ExperimentConfig(
        conjecture="k2_maxdeg", k_values=(8,), tree_max_degree=3, trials=6, seed=4
    )
    res = lab.run_sweep(cfg)
    assert res.summary["consistency_failures"] == 0
    # a single edge meets neither of k2_maxdeg's demands at k = 8
    checks = lab.template_check(cfg, Graph(2, [(0, 1)]), 8)
    assert checks == {"min_degree": 1, "max_degree": 1, "min_ok": False, "max_ok": False}


def test_alpha_sweep_beyond_the_envelope_is_usage_error(capsys):
    # alpha = 1/5 at k = 10 asks for a hub of degree ceil(2 * (4/5) * 10) = 16,
    # which no host inside the 16-vertex envelope has
    with pytest.raises(PreconditionViolated, match="k=10"):
        lab.ExperimentConfig(
            conjecture="alpha", k_values=(8, 10), tree_max_degree=3, trials=4, seed=4,
            alpha="1/5",
        )
    lab.ExperimentConfig(
        conjecture="alpha", k_values=(8, 10), tree_max_degree=3, trials=4, seed=4,
        alpha="1/5", envelope_n=17,
    )
    argv = ["sweep", "--conjecture", "alpha", "--alpha", "1/5", "--k", "10", "--trials", "4"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "alpha, why",
    [
        ("abc", "not a fraction"),
        ("1/0", "not a fraction"),
        ("2", "both must be positive"),  # max-degree demand 2(1 - 2)k < 0
        ("-1", "both must be positive"),  # min-degree demand (1 - 1)k/2 = 0
        (None, "needs alpha"),
    ],
)
def test_bad_alpha_is_usage_error(alpha, why, capsys):
    with pytest.raises(PreconditionViolated, match=why):
        lab.ExperimentConfig(
            conjecture="alpha", k_values=(8,), tree_max_degree=3, trials=1, seed=0, alpha=alpha
        )
    argv = ["sweep", "--conjecture", "alpha", "--k", "8", "--trials", "1"]
    assert cli.main(argv + ([] if alpha is None else ["--alpha", alpha])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and why in err and "Traceback" not in err


@pytest.mark.parametrize("conjecture", ["2k3", "k2_maxdeg", "second_nbhd"])
def test_alpha_for_another_conjecture_is_usage_error(conjecture, capsys):
    why = "read only by the alpha conjecture"
    with pytest.raises(PreconditionViolated, match=why):
        lab.ExperimentConfig(
            conjecture=conjecture, k_values=(8,), tree_max_degree=3, trials=1, seed=0, alpha="1/5"
        )
    argv = ["sweep", "--conjecture", conjecture, "--alpha", "1/5", "--k", "8", "--trials", "1"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and why in err and "Traceback" not in err


def test_alpha_is_parsed_once_and_left_out_of_the_config_json():
    cfg = lab.ExperimentConfig(
        conjecture="alpha", k_values=(8,), tree_max_degree=3, trials=1, seed=0, alpha="1/5"
    )
    assert cfg.alpha_value == Fraction(1, 5)
    assert "alpha_value" not in cfg.to_jsonable()
    assert lab.ExperimentConfig.from_jsonable(cfg.to_jsonable()) == cfg


def test_config_json_holds_only_the_settings():
    cfg = lab.ExperimentConfig(
        conjecture="k2_maxdeg", k_values=(8, 9), tree_max_degree=3, trials=1, seed=0
    )
    assert cfg.degree_thresholds == {8: (4, 11), 9: (5, 12)}
    assert sorted(cfg.to_jsonable()) == sorted(
        f.name for f in fields(lab.ExperimentConfig) if f.init
    )
    assert len(cfg.to_jsonable()) == 10


# (conjecture, k values, alpha) at the ranges where each template fits the
# 16-vertex envelope
_TEMPLATES = [
    ("2k3", (8, 9, 10), None),
    ("alpha", (6, 7, 8), "1/5"),
    ("k2_maxdeg", (8, 9, 10), None),
    ("second_nbhd", (8, 9, 10), None),
]


def _offset_sweep(conjecture, ks, alpha, offset):
    cfg = lab.ExperimentConfig(
        conjecture=conjecture, k_values=ks, tree_max_degree=3, trials=30, seed=5, alpha=alpha,
        min_degree_offset=offset,
    )
    return lab.run_sweep(cfg)


def test_offset_plus_one_hosts_meet_every_template():
    # hosts are built to the shifted min-degree demand, so none falls short
    violations = {
        c: _offset_sweep(c, ks, alpha, 1).summary["template_violations"]
        for c, ks, alpha in _TEMPLATES
    }
    assert violations == dict.fromkeys(violations, 0)


def test_offset_minus_one_builds_hosts_one_below():
    # the sweep runs hosts just below each bound: per k, the lowest host min
    # degree drops by exactly one from offset 0 to offset -1
    def lowest(res):
        out = {}
        for r in res.records:
            out[r.k] = min(out.get(r.k, r.degree_checks["min_degree"]), r.degree_checks["min_degree"])
        return out

    for c, ks, alpha in _TEMPLATES:
        at0 = lowest(_offset_sweep(c, ks, alpha, 0))
        below = lowest(_offset_sweep(c, ks, alpha, -1))
        assert below == {k: d - 1 for k, d in at0.items()}, c


def test_report_formats():
    cfg = lab.ExperimentConfig(
        conjecture="2k3", k_values=(8,), tree_max_degree=3, trials=3, seed=1
    )
    res = lab.run_sweep(cfg)
    data = json.loads(lab.render_report(res, "json"))
    assert data["schema"] == "treebed/4"
    assert len(data["records"]) == 3
    assert data["summary"]["trials"] == 3
    lines = lab.render_report(res, "csv").splitlines()
    assert lines[0].split(",") == lab.CSV_COLUMNS
    assert len(lines) == 4
    empty = lab.run_sweep(
        lab.ExperimentConfig(conjecture="2k3", k_values=(8,), tree_max_degree=3, trials=0, seed=1)
    )
    assert lab.render_report(empty, "csv").splitlines() == [",".join(lab.CSV_COLUMNS)]


def test_report_json_roundtrip_parse_equal():
    cfg = lab.ExperimentConfig(
        conjecture="2k3", k_values=(8,), tree_max_degree=3, trials=2, seed=9
    )
    res = lab.run_sweep(cfg)
    assert json.loads(lab.render_report(res)) == json.loads(
        json.dumps(res.to_jsonable(), sort_keys=True)
    )


def test_oracle_budget_is_a_budget_error():
    # an overrun is reported on the report, not raised, and refutes nothing
    rep = lab.verify_extremal(12, budget=100)
    assert rep.complete is False and not rep.ok and rep.degrees_ok
    assert lab.verify_extremal(12).complete is True


def test_cli_props_trials_zero_runs_nothing(tmp_path, capsys):
    out = tmp_path / "props.txt"
    assert cli.main(["props", "--trials", "0", "--out", str(out)]) == 0
    assert out.read_text() == "\n" and capsys.readouterr().err == ""


def test_verify_extremal_k6():
    rep = lab.verify_extremal(6)
    assert rep.ok and rep.tight_min_degree == 3 and rep.tight_max_degree >= 6


def test_verify_extremal_k12_stays_cheap():
    # the twin cut proves avoidance in 149 nodes; without it the search
    # takes millions, so a lost or weakened cut shows up here
    rep = lab.verify_extremal(12)
    assert rep.avoids_tree and rep.avoid_nodes <= 1000


# ---------------------------------------------------------------------------
# CLI


def test_cli_gen_and_embed(tmp_path, capsys):
    host = tmp_path / "g.txt"
    tree = tmp_path / "t.json"
    assert cli.main(["gen", "two_cliques_apex", "--param", "k=6", "--out", str(host)]) == 0
    assert cli.main(["gen", "three_branch", "--param", "k=6", "--out", str(tree)]) == 0
    g = Graph.from_edge_list_text(host.read_text())
    t = Tree.from_json(tree.read_text())
    assert g.n == 7 and t.n == 7
    out = tmp_path / "emb.json"
    assert cli.main(["embed", "--host", str(host), "--tree", str(tree), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["status"] == "not_found"


def test_cli_split_and_decompose(tmp_path):
    tree = tmp_path / "t.json"
    cli.main(["gen", "three_branch", "--param", "k=6", "--out", str(tree)])
    out = tmp_path / "split.json"
    assert cli.main(["split", "--tree", str(tree), "--op", "msf", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["op"] == "msf" and payload["matching"] == []
    host = tmp_path / "g.txt"
    cli.main(["gen", "two_cliques_apex", "--param", "k=6", "--out", str(host)])
    dec = tmp_path / "dec.json"
    assert (
        cli.main(
            ["decompose", "--host", str(host), "--op", "refine", "--k", "4",
             "--a", "1/2", "--eps", "1/4", "--delta", "1/2000", "--out", str(dec)]
        )
        == 0
    )
    payload = json.loads(dec.read_text())
    assert payload["op"] == "refine"
    assert (
        cli.main(
            ["decompose", "--host", str(host), "--op", "classify",
             "--comp", "0,1,2", "--comp", "3,4,5", "--out", str(dec)]
        )
        == 0
    )
    payload = json.loads(dec.read_text())
    assert payload["op"] == "classify"
    assert payload["split_vertices"] == [6] and payload["closed"] == [True, True]


def test_cli_verify_and_sweep(tmp_path):
    out = tmp_path / "ver.txt"
    assert cli.main(["verify-extremal", "--k", "6", "--out", str(out)]) == 0
    assert "avoids_tree=True" in out.read_text()
    rep = tmp_path / "sweep.json"
    rc = cli.main(
        ["sweep", "--conjecture", "2k3", "--k", "8", "--trials", "5", "--seed", "3",
         "--out", str(rep)]
    )
    assert rc == 0
    assert json.loads(rep.read_text())["schema"] == "treebed/4"


def test_cli_sweep_from_config_file(tmp_path):
    cfg = lab.ExperimentConfig(
        conjecture="2k3", k_values=(8,), tree_max_degree=3, trials=4, seed=6
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_jsonable()))
    rep = tmp_path / "rep.json"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["config_digest"] == cfg.digest()
    # byte-identical with the library path
    assert rep.read_text() == lab.render_report(lab.run_sweep(cfg))


def test_cli_sweep_flags_and_their_config_file_write_equal_reports(tmp_path):
    # a config file that leaves out oracle_budget gets the flags' default
    flags = tmp_path / "flags.json"
    assert cli.main(["sweep", "--k", "8", "--trials", "4", "--seed", "6", "--out", str(flags)]) == 0
    settings = {"conjecture": "2k3", "k_values": [8], "tree_max_degree": 3, "trials": 4, "seed": 6}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(settings))
    twin = tmp_path / "twin.json"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(twin)]) == 0
    assert flags.read_bytes() == twin.read_bytes()


@pytest.mark.parametrize(
    "extra",
    [
        ["--conjecture", "second_nbhd"],
        ["--k", "12"],
        ["--alpha", "1/5"],
        ["--tree-max-degree", "4"],
        ["--trials", "1"],
        ["--seed", "0"],  # the default value, given explicitly
        ["--budget", "5"],
    ],
    ids=lambda extra: extra[0],
)
def test_cli_sweep_config_with_a_sweep_flag_is_usage_error(tmp_path, capsys, extra):
    # the file sets the whole sweep, so a flag next to it would be dropped
    cfg = lab.ExperimentConfig(
        conjecture="2k3", k_values=(8,), tree_max_degree=3, trials=4, seed=6
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_jsonable()))
    assert cli.main(["sweep", "--config", str(cfg_path), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and extra[0] in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "5", "sweep"],
        ["--budget", "1", "verify-extremal"],
        ["split", "--seed", "1", "--op", "two"],
        ["gen", "--budget", "5", "complete", "--param", "n=3"],
        ["props", "--format", "csv"],
    ],
    ids=["seed-before-sweep", "budget-before-verify", "split-seed", "gen-budget", "props-format"],
)
def test_cli_flag_the_command_does_not_read_is_usage_error(tmp_path, argv):
    tree = tmp_path / "t.json"
    cli.main(["gen", "path", "--param", "n=4", "--out", str(tree)])
    if argv[0] == "split":
        argv = [*argv, "--tree", str(tree)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_cli_sweep_tree_max_degree_zero_is_usage_error(capsys):
    argv = ["sweep", "--conjecture", "k2_maxdeg", "--tree-max-degree", "0", "--k", "8", "--trials", "1"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_props_small(tmp_path):
    out = tmp_path / "props.txt"
    assert cli.main(["props", "--trials", "5", "--out", str(out)]) == 0
    text = out.read_text()
    assert "failures=0" in text and "FAIL" not in text


def test_cli_props_times_each_check_on_stderr_only(tmp_path, capsys):
    # stdout and the --out file are byte-identical between runs; stderr gets
    # one "<seconds> s  <check name>" line per check
    runs = []
    for i in range(2):
        out = tmp_path / f"props{i}.txt"
        assert cli.main(["props", "--trials", "2", "--out", str(out)]) == 0
        assert cli.main(["props", "--trials", "2"]) == 0
        captured = capsys.readouterr()
        runs.append((out.read_text(), captured.out, captured.err.splitlines()))
    (file0, out0, err0), (file1, out1, err1) = runs
    assert file0 == file1 == out0 == out1
    names = [line[5:].split(": runs=")[0] for line in file0.splitlines() if ": runs=" in line]
    assert len(names) == len(lab.checks.ALL_CHECKS)
    for err in (err0, err1):
        assert [re.fullmatch(r"\d+\.\d{3} s  (.+)", line).group(1) for line in err] == 2 * names


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["split", "--op", "two"])  # missing --tree
    assert exc.value.code == 2


def test_cli_invariant_failure_exit_code(monkeypatch, capsys):
    from treebed.errors import InternalInvariantError

    def broken(args):
        raise InternalInvariantError("produced embedding fails validation")

    monkeypatch.setattr(cli, "cmd_props", broken)
    assert cli.main(["props", "--trials", "1"]) == 1
    assert "internal invariant failed" in capsys.readouterr().err


def test_cli_bad_family_is_usage_error(capsys):
    assert cli.main(["gen", "not_a_family"]) == 2


def test_cli_seed_only_for_seeded_families(tmp_path, capsys):
    # a deterministic family would print the same output for every seed
    assert cli.main(["gen", "two_cliques_apex", "--param", "k=9", "--seed", "1"]) == 2
    assert cli.main(["gen", "path", "--param", "n=4", "--seed", "1"]) == 2
    assert "reads no seed" in capsys.readouterr().err
    outs = []
    for seed in (1, 2):
        out = tmp_path / f"g{seed}.txt"
        argv = ["gen", "random_min_degree", "--param", "n=12", "--param", "delta=4"]
        assert cli.main([*argv, "--seed", str(seed), "--out", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] != outs[1]
    out = tmp_path / "t.json"
    argv = ["gen", "random_tree", "--param", "n=9", "--param", "max_deg=3", "--seed", "1"]
    assert cli.main([*argv, "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "flag, text, argv",
    [
        ("--tree", '{"n": 3, "edges": [[0, 1], [1', ["split", "--op", "two"]),
        ("--tree", '{"edges": [[0, 1], [1, 2]]}', ["split", "--op", "two"]),
        ("--host", "3 2\n0 1\n1 x\n", ["decompose", "--op", "refine"]),
    ],
    ids=["truncated-tree-json", "tree-json-without-n", "edge-list-token-x"],
)
def test_cli_malformed_input_is_usage_error(tmp_path, capsys, flag, text, argv):
    path = tmp_path / "input"
    path.write_text(text)
    assert cli.main([*argv, flag, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "two_cliques_apex"],
        ["gen", "two_cliques_apex", "--param", "k=x"],
        ["gen", "bps_alpha_host", "--param", "k=12", "--param", "alpha=abc"],
        ["gen", "two_cliques_apex", "--param", "k=6", "--param", "kk=7"],
        ["gen", "two_cliques_apex", "--param", "k=6", "--param", "k=9"],
        ["gen", "random_connected", "--param", "n=5", "--seed", "1"],
        ["decompose", "--op", "classify", "--comp", "1,x"],
    ],
    ids=["gen-without-k", "gen-k-not-integer", "gen-alpha-not-fraction", "gen-unknown-param",
         "gen-param-twice", "gen-without-extra-edges", "decompose-classify-comp-not-integer"],
)
def test_cli_malformed_value_is_usage_error(tmp_path, capsys, argv):
    host = tmp_path / "g.txt"
    cli.main(["gen", "complete", "--param", "n=6", "--out", str(host)])
    capsys.readouterr()
    if argv[0] == "decompose":
        argv = [*argv, "--host", str(host)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


# The boundary cases of every option, generated from the parser and
# cli._SCOPES.  Each run gets a cheap command line that exits 0 on its own
# (test_cli_boundary_bases_exit_0), so a refusal that is missed shows as an
# exit other than 2 and runs only small work.
_BASES = {
    ("gen", None): ["gen", "path", "--param", "n=4"],
    **{("split", op): ["split", "--tree", "{tree}", "--op", op]
       for op in ("two", "three", "chain", "subtree", "evenodd", "msf")},
    ("embed", "oracle"): ["embed", "--host", "{host}", "--tree", "{tree}", "--method", "oracle"],
    ("embed", "greedy"): ["embed", "--host", "{host}", "--tree", "{tree}", "--method", "greedy"],
    ("decompose", "rich"): ["decompose", "--host", "{host}", "--op", "rich"],
    ("decompose", "refine"): ["decompose", "--host", "{host}", "--op", "refine", "--k", "4"],
    ("decompose", "classify"): ["decompose", "--host", "{host}", "--op", "classify",
                                "--comp", "0,1,2"],
    ("verify-extremal", None): ["verify-extremal", "--k", "6"],
    ("sweep", None): ["sweep", "--k", "8", "--trials", "1"],
    ("sweep", "{cfg}"): ["sweep", "--config", "{cfg}"],
    ("props", False): ["props", "--trials", "0"],
    ("props", True): ["props", "--trials", "0", "--corpus"],
}
# one value just outside each numeric option's domain
_OUTSIDE = {
    ("split", "m"): "0",
    ("split", "v"): "-1",
    ("embed", "budget"): "0",
    ("embed", "x"): "-1",
    ("decompose", "k"): "0",
    ("decompose", "c"): "-1",
    ("decompose", "rho"): "-1",
    ("decompose", "a"): "0",
    ("decompose", "eps"): "0",
    ("decompose", "delta"): "0",
    ("decompose", "s"): "-1",
    ("decompose", "t"): "-1",
    ("verify-extremal", "k"): "3",  # the tight host needs k >= 6, a multiple of 3
    ("verify-extremal", "budget"): "0",
    ("sweep", "k"): "0",
    ("sweep", "tree_max_degree"): "0",
    ("sweep", "trials"): "-1",
    ("sweep", "budget"): "0",
    ("sweep", "workers"): "0",
    ("props", "trials"): "-1",
    ("props", "budget"): "0",
}
_SEED = "every integer is a seed"
_PATH = "a path; test_cli_unopenable_path_is_usage_error covers one that cannot be opened"
_SWITCH = "a switch, which takes no value"
_FREE_FORM = {
    ("gen", "family"): "a name looked up in cli._FAMILIES; test_cli_bad_family_is_usage_error",
    ("gen", "param"): "key=value items checked against cli._FAMILIES; the gen-* cases of"
                      " test_cli_malformed_value_is_usage_error",
    ("gen", "seed"): _SEED,
    ("sweep", "seed"): _SEED,
    ("props", "seed"): _SEED,
    ("sweep", "alpha"): "its domain depends on --conjecture and --k; test_bad_alpha_is_usage_error",
    ("embed", "pin"): "tree:host pairs; test_cli_malformed_pin_is_usage_error",
    ("decompose", "comp"): "vertex lists; decompose-classify-comp-not-integer in"
                           " test_cli_malformed_value_is_usage_error",
    ("decompose", "relax_delta"): _SWITCH,
    ("props", "corpus"): _SWITCH,
    **{(cmd, "out"): _PATH for cmd in ("gen", "split", "embed", "decompose", "verify-extremal",
                                       "sweep", "props")},
    **{(cmd, dest): _PATH for cmd, dest in (("split", "tree"), ("embed", "host"),
                                            ("embed", "tree"), ("decompose", "host"),
                                            ("sweep", "config"))},
}


def _subcommand_options():
    ap = cli.build_parser()
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        cmd: {a.dest: a for a in parser._actions if not isinstance(a, argparse._HelpAction)}
        for cmd, parser in sub.choices.items()
    }


def _runs_reading(cmd, dest):
    """The runs of `cmd` that read `dest`: all those in the scope table, or
    the first base alone for an option that every run reads."""
    flags = cli._SCOPES.get(cmd, (None, {}))[1]
    runs = [run for c, run in _BASES if c == cmd]
    return [run for run in runs if run in flags[dest][0]] if dest in flags else runs[:1]


def _label(cmd, run):
    if cmd not in cli._SCOPES:
        return ""
    picker = cli._SCOPES[cmd][0]
    return f"without-{picker}" if run in (None, False) else picker if run in (True, "{cfg}") else run


_WORDS = {"0": "zero", "-1": "negative", "1/0": "over-zero"}


def _boundary_cases():
    """(id, base, extra argv, the flag an error must name) per case."""
    cases = []
    for cmd, options in _subcommand_options().items():
        flags = cli._SCOPES.get(cmd, (None, {}))[1]
        for dest, action in options.items():
            flag = action.option_strings[0] if action.option_strings else None
            if dest in flags:
                value = [] if action.nargs == 0 else [action.choices[0] if action.choices else "1"]
                for run in [r for c, r in _BASES if c == cmd and r not in flags[dest][0]]:
                    cases.append((f"{cmd}-{_label(cmd, run)}-unread-{dest}", (cmd, run),
                                  [flag, *value], flag))
            runs = _runs_reading(cmd, dest)
            if (cmd, dest) in _OUTSIDE:  # in each run that reads it: each may pass it on elsewhere
                value = _OUTSIDE[cmd, dest]
                for run in runs:
                    where = f"{_label(cmd, run)}-" if len(runs) > 1 else ""
                    cases.append((f"{cmd}-{where}{dest}-{_WORDS.get(value, value)}", (cmd, run),
                                  [flag, value], None))
            refused = (["abc"] if action.type is not None else []) + (
                ["1/0"] if action.type is cli._fraction else []) + (["nope"] if action.choices else [])
            for value in refused:  # the parser refuses these whatever the run
                cases.append((f"{cmd}-{dest}-{_WORDS.get(value, value)}", (cmd, runs[0]),
                               [flag, value], None))
    return cases


def test_boundary_cases_cover_every_option():
    # each option has an outside value or choices, or is free-form with a reason;
    # each scoped subcommand has a base for every run
    options = _subcommand_options()
    for cmd, opts in options.items():
        for dest, action in opts.items():
            covered = (cmd, dest) in _OUTSIDE or action.choices is not None
            assert covered != ((cmd, dest) in _FREE_FORM), (cmd, dest)
        runs = {run for c, run in _BASES if c == cmd}
        if cmd in cli._SCOPES:
            picker, flags = cli._SCOPES[cmd]
            read = {run for scoped_runs, _ in flags.values() for run in scoped_runs}
            choices = opts[picker].choices
            assert runs == set(choices) if choices else len(runs) == 2 and read < runs, cmd
    assert set(_OUTSIDE) | set(_FREE_FORM) <= {(cmd, d) for cmd in options for d in options[cmd]}


@pytest.fixture(scope="module")
def boundary_files(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("boundary")
    files = {"host": tmp_path / "g.txt", "tree": tmp_path / "t.json", "cfg": tmp_path / "cfg.json",
             "out": tmp_path / "out"}
    files["host"].write_text(Graph.complete(8).to_edge_list_text())
    files["tree"].write_text(gen_three_branch_tree(6).to_json())
    files["cfg"].write_text('{"conjecture": "2k3", "k_values": [8], "tree_max_degree": 3,'
                            ' "trials": 1, "seed": 0}')
    return {name: str(path) for name, path in files.items()}


@pytest.mark.parametrize(
    "base", [b for b in _BASES if b != ("props", True)],
    ids=lambda b: f"{b[0]}-{_label(*b)}".rstrip("-"),
)
def test_cli_boundary_bases_exit_0(boundary_files, base):
    # the corpus run takes seconds, so its base is left out here; its one
    # case, a --budget below 1, is refused while the flags are parsed
    files = boundary_files
    assert cli.main([a.format(**files) for a in _BASES[base]] + ["--out", files["out"]]) == 0


_BOUNDARY_CASES = _boundary_cases()


@pytest.mark.parametrize("base, extra, flag", [c[1:] for c in _BOUNDARY_CASES],
                         ids=[c[0] for c in _BOUNDARY_CASES])
def test_cli_boundary_is_usage_error(boundary_files, capsys, base, extra, flag):
    # an unread flag, a value outside its option's domain, a non-number and
    # a value outside `choices` all exit 2 with an error line and no traceback
    files = boundary_files
    argv = [a.format(**files) for a in _BASES[base]] + extra + ["--out", files["out"]]
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == 2, (argv, err)
    assert re.search(r"^(treebed [\w-]+: )?error: ", err, re.M) and "Traceback" not in err, err
    if flag is not None:  # an unread flag: the error names it
        assert re.search(rf"{flag}\b", err), err


@pytest.mark.parametrize(
    "argv",
    [
        ["embed", "--host", "{d}/missing.txt", "--tree", "{d}/missing.json"],
        ["sweep", "--config", "{d}/missing.json"],
        ["gen", "complete", "--param", "n=5", "--out", "{d}/nodir/x.txt"],
    ],
    ids=["embed-missing-host", "sweep-missing-config", "gen-out-in-missing-directory"],
)
def test_cli_unopenable_path_is_usage_error(tmp_path, capsys, argv):
    # a path that cannot be opened is a usage error, not an invariant failure
    assert cli.main([a.format(d=tmp_path) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "pins",
    [["3"], ["a:1"], ["0:1", "0:2"]],
    ids=["without-colon", "non-integer", "tree-vertex-twice"],
)
def test_cli_malformed_pin_is_usage_error(tmp_path, capsys, pins):
    host = tmp_path / "g.txt"
    tree = tmp_path / "t.json"
    cli.main(["gen", "two_cliques_apex", "--param", "k=6", "--out", str(host)])
    cli.main(["gen", "three_branch", "--param", "k=6", "--out", str(tree)])
    capsys.readouterr()
    argv = ["embed", "--host", str(host), "--tree", str(tree)]
    for pin in pins:
        argv += ["--pin", pin]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "extra",
    [["--method", "greedy", "--pin", "0:0"], ["--method", "oracle", "--x", "5"]],
    ids=["greedy-with-pin", "oracle-with-x"],
)
def test_cli_embed_flag_of_the_other_method_is_usage_error(tmp_path, capsys, extra):
    # greedy takes no pins and the oracle no apex, so neither flag may be dropped silently
    host = tmp_path / "g.txt"
    tree = tmp_path / "t.json"
    cli.main(["gen", "complete", "--param", "n=6", "--out", str(host)])
    cli.main(["gen", "path", "--param", "n=4", "--out", str(tree)])
    capsys.readouterr()
    assert cli.main(["embed", "--host", str(host), "--tree", str(tree), *extra]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "text",
    [
        '{"conjecture": "2k3"',
        '{"conjecture": "2k3", "tree_max_degree": 3, "trials": 2, "seed": 0}',
        '{"conjecture": "2k3", "k_values": [8], "tree_max_degree": 3, "trials": 2, "seed": 0,'
        ' "colour": "red"}',
        # a treebed/3 config: envelope_k is gone since treebed/4
        '{"conjecture": "2k3", "k_values": [8], "tree_max_degree": 3, "trials": 2, "seed": 0,'
        ' "envelope_k": 12}',
        '[8, 9]',
    ],
    ids=["truncated-json", "without-k-values", "unknown-key", "removed-key", "not-an-object"],
)
def test_cli_malformed_sweep_config_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert cli.main(["sweep", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_budget_overrun_is_inconclusive(capsys):
    # an oracle budget overrun is neither a usage error (2) nor a failure (1),
    # and the report's lines are written before the exit
    assert cli.main(["verify-extremal", "--k", "12", "--budget", "1"]) == 3
    captured = capsys.readouterr()
    assert "inconclusive" in captured.err
    assert captured.out.startswith("k=12: degrees_ok=True avoids_tree=False")
    assert captured.out.endswith(" complete=False\n")


def test_cli_failure_beats_a_spent_budget(monkeypatch, capsys):
    # a grown host too small for the tree refutes at once, so the report
    # fails although the avoidance search ran out of its budget
    monkeypatch.setattr(lab, "gen_two_cliques_apex_grown", lambda k: Graph(1, []))
    assert cli.main(["verify-extremal", "--k", "9", "--budget", "1"]) == 1
    from treebed.checks import CheckResult

    monkeypatch.setattr(cli.checks, "ALL_CHECKS", {"x": (lambda: CheckResult("x", 2, 1, 1), None)})
    assert cli.main(["props"]) == 1
    assert capsys.readouterr().out.endswith("FAIL x: runs=2 failures=1 inconclusive=1\n")


def test_cli_props_corpus_budget_overrun_is_inconclusive(tmp_path, capsys):
    # an oracle call that ran out of budget is no passing run: the corpus
    # line is not `ok`, counts it, and the command exits 3
    out = tmp_path / "props.txt"
    argv = ["props", "--corpus", "--trials", "1", "--budget", "3", "--out", str(out)]
    assert cli.main(argv) == 3
    assert "inconclusive" in capsys.readouterr().err
    last = out.read_text().splitlines()[-1]
    assert last == (
        "inc  oracle cross-agreement over the stored corpus: runs=4282 failures=0"
        " inconclusive=3330"
    )
    assert all(line.startswith(("ok ", "       ")) for line in out.read_text().splitlines()[:-1])


def test_cli_sweep_budget_overrun_is_inconclusive(tmp_path):
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--k", "10", "--trials", "4", "--seed", "1", "--budget", "5", "--out", str(out)]
    assert cli.main(argv) == 3
    records = json.loads(out.read_text())["records"]  # the report is still written
    assert len(records) == 4 and "budget_exhausted" in {r["oracle_status"] for r in records}


def test_cli_reads_the_oracle_budget_default_when_it_runs(tmp_path, monkeypatch, capsys):
    # the default is looked up when a command runs, not copied when cli is imported
    host, tree, out = tmp_path / "g.txt", tmp_path / "t.json", tmp_path / "emb.json"
    assert cli.main(["gen", "two_cliques_apex", "--param", "k=6", "--out", str(host)]) == 0
    assert cli.main(["gen", "three_branch", "--param", "k=6", "--out", str(tree)]) == 0
    argv = ["embed", "--host", str(host), "--tree", str(tree), "--out", str(out)]
    assert cli.main(argv) == 0
    assert json.loads(out.read_text())["nodes_explored"] > 3
    monkeypatch.setattr(embed, "DEFAULT_ORACLE_BUDGET", 3)
    assert cli.main(argv) == 3
    assert json.loads(out.read_text())["status"] == "budget_exhausted"
    sweep = ["sweep", "--k", "10", "--trials", "4", "--seed", "1", "--out", str(out)]
    assert cli.main(sweep) == 3
    with pytest.raises(SystemExit):
        cli.main(["sweep", "--help"])
    assert "oracle node budget, default 3" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize(
    "op, flags, field, full, spent",
    [
        ("refine", ["--a", "1/2", "--eps", "1/4", "--delta", "1/4", "--relax-delta"],
         "certified_exact", True, False),
        ("rich", ["--c", "1/2"], "conclusive", [True, True], [True, False]),
    ],
)
def test_cli_decompose_inconclusive_cut_exits_3(tmp_path, monkeypatch, op, flags, field, full,
                                                spent):
    # K6 + K_{3,3} under a one-pop cut budget: the K6 search completes at its
    # root, the K_{3,3} search does not, so the verdict is written and open
    from treebed import kernel

    k6 = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    k33 = [(u, v) for u in range(6, 9) for v in range(9, 12)]
    host = tmp_path / "g.txt"
    host.write_text(Graph(12, k6 + k33).to_edge_list_text())
    out = tmp_path / "d.json"
    argv = ["decompose", "--host", str(host), "--op", op, "--k", "4", "--rho", "1/100", *flags]
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert json.loads(out.read_text())[field] == full
    monkeypatch.setattr(kernel, "CUT_NODE_BUDGET", 1)
    assert cli.main([*argv, "--out", str(out)]) == 3
    assert json.loads(out.read_text())[field] == spent


def test_cli_decompose_rich_spent_cover_budget_exits_3(tmp_path, monkeypatch):
    # a candidate whose vertex cover search runs out is listed as undecided,
    # not dropped as if it had failed a check
    from treebed import graph
    from treebed.generators import gen_random_graph_min_degree

    host = tmp_path / "g.txt"
    host.write_text(gen_random_graph_min_degree(12, 4, 0).to_edge_list_text())
    out = tmp_path / "rich.json"
    argv = ["decompose", "--host", str(host), "--op", "rich", "--k", "3", "--c", "1/2",
            "--rho", "1/100", "--out", str(out)]
    assert cli.main(argv) == 0
    payload = json.loads(out.read_text())
    assert (payload["components"], payload["undecided"]) == ([list(range(12))], [])
    monkeypatch.setattr(graph, "COVER_NODE_BUDGET", 1)
    assert cli.main(argv) == 3
    payload = json.loads(out.read_text())
    assert (payload["components"], payload["conclusive"], payload["coverage"]) == ([], [], "0")
    assert payload["undecided"] == [list(range(12))]


def test_cli_embed_budget_overrun_is_inconclusive(tmp_path, capsys):
    host = tmp_path / "g.txt"
    tree = tmp_path / "t.json"
    cli.main(["gen", "two_cliques_apex", "--param", "k=12", "--out", str(host)])
    cli.main(["gen", "three_branch", "--param", "k=12", "--out", str(tree)])
    capsys.readouterr()
    out = tmp_path / "emb.json"
    argv = ["embed", "--host", str(host), "--tree", str(tree), "--budget", "1", "--out", str(out)]
    assert cli.main(argv) == 3
    assert "inconclusive" in capsys.readouterr().err
    assert json.loads(out.read_text())["status"] == "budget_exhausted"  # still written


def test_cli_decompose_rich_flags_conclusive_components(tmp_path):
    host = tmp_path / "g.txt"
    cli.main(["gen", "two_cliques_apex", "--param", "k=6", "--out", str(host)])
    out = tmp_path / "rich.json"
    assert cli.main(["decompose", "--host", str(host), "--op", "rich", "--k", "6",
                     "--rho", "1/100", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["components"] == [list(range(7))] and payload["conclusive"] == [True]


def test_cli_decompose_rich_certifies_pieces_above_20_vertices(tmp_path):
    # the k = 30 apex host keeps a 39-vertex piece, above 20 vertices; the
    # search with rho as its ceiling finishes on it, so it is certified
    host = tmp_path / "g.txt"
    assert cli.main(["gen", "two_cliques_apex", "--param", "k=30", "--out", str(host)]) == 0
    out = tmp_path / "rich.json"
    assert cli.main(["decompose", "--host", str(host), "--op", "rich", "--k", "30",
                     "--rho", "1/100", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert max(len(c) for c in payload["components"]) > 20
    assert payload["conclusive"] == [True] * len(payload["components"])


def test_cli_rejects_removed_cut_flags(capsys):
    ap = cli.build_parser()
    for argv in (["--exact-cap", "5", "props"], ["decompose", "--host", "g.txt", "--op", "rich",
                                                  "--mode", "heuristic"]):
        with pytest.raises(SystemExit) as exc:
            ap.parse_args(argv)
        assert exc.value.code == 2


def _readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("treebed ")]


def test_readme_cli_examples_parse():
    # every documented command line must be accepted by the real parser, and
    # its run must read every flag it gives
    lines = _readme_cli_lines()
    assert len(lines) >= 10
    ap = cli.build_parser()
    for line in lines:
        args = ap.parse_args(shlex.split(line)[1:])
        cli._scope(args)
        assert callable(args.fn), line


def test_pipeline_oracle_consistency_is_checked():
    # every record carries the flag; the summary aggregates it
    cfg = lab.ExperimentConfig(
        conjecture="2k3", k_values=(8,), tree_max_degree=3, trials=4, seed=11
    )
    res = lab.run_sweep(cfg)
    assert all(not r.consistency_failure for r in res.records)


# Golden digest of the canonical report of a 300-trial `2k3` sweep, the kind
# the benchmark's oracle workload runs.  It pins every record's
# `pipeline_stages`, oracle status and oracle node count.
_SWEEP_REPORT_DIGEST = "f0a2b1029016f5151a50711fb47b32ab1e2660a3de03428f6a8165a8f290eb4e"


def test_sweep_report_pinned():
    cfg = lab.ExperimentConfig(
        conjecture="2k3", k_values=(10, 11, 12), tree_max_degree=4, trials=300, seed=7000
    )
    text = lab.render_report(lab.run_sweep(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == _SWEEP_REPORT_DIGEST


def test_sweep_report_is_byte_equal_across_hash_seeds_workers_and_config(tmp_path):
    # a sweep report depends only on its config: not on the hash seed, which
    # orders sets and dicts, nor on how trials are spread over workers, nor
    # on whether the config came as flags or as a file.  Each run is its own
    # process, so the hash seed differs between them; the CI job of the same
    # name runs this test
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    env["PYTHONPATH"] = src
    flags = ["--k", "10", "--k", "11", "--k", "12", "--tree-max-degree", "4", "--trials", "200",
             "--seed", "3"]
    # the same settings as a config file, with the budget left to its default
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"conjecture": "2k3", "k_values": [10, 11, 12], "tree_max_degree": 4,'
                   ' "trials": 200, "seed": 3}')
    runs = {"hash0": ({"PYTHONHASHSEED": "0"}, flags), "hash1": ({"PYTHONHASHSEED": "1"}, flags),
            "workers2": ({}, [*flags, "--workers", "2"]), "config": ({}, ["--config", str(cfg)])}
    reports = {}
    for name, (extra_env, argv) in runs.items():
        out = tmp_path / f"{name}.json"
        cmd = [sys.executable, "-m", "treebed.cli", "sweep", *argv, "--out", str(out)]
        subprocess.run(cmd, env={**env, **extra_env}, check=True)
        reports[name] = out.read_bytes()
    assert reports["hash0"] == reports["hash1"] == reports["workers2"] == reports["config"]


def test_random_trial_draws_from_one_stream(monkeypatch):
    # a non-planted trial seeds one random.Random, with its trial_seed, and
    # draws its host order, host, hub lift and tree from it
    seeded, shuffled = [], []
    seed, shuffle = random.Random.seed, random.Random.shuffle

    def counting_seed(self, a=None, version=2):
        seeded.append(a)
        return seed(self, a, version)

    def counting_shuffle(self, x):
        shuffled.append(len(x))
        return shuffle(self, x)

    monkeypatch.setattr(random.Random, "seed", counting_seed)
    monkeypatch.setattr(random.Random, "shuffle", counting_shuffle)
    cfg = lab.ExperimentConfig(
        conjecture="2k3", k_values=(9, 10, 11, 12), tree_max_degree=4, trials=40, seed=5,
        extremal_mix=True,
    )
    planted = 0
    for idx in range(cfg.trials):
        seeded.clear()
        record = lab.run_trial(cfg, idx)
        if record.instance == "two_cliques_apex+three_branch":
            planted += 1
            assert seeded == []
        else:
            assert seeded == [record.trial_seed]
    assert planted == 4
    assert shuffled  # some hosts had a hub lifted, on the same stream
