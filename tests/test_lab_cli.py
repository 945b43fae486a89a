"""Lab harness and CLI tests: sweeps, reports, file formats, exit codes."""

import hashlib
import json
import random
import re
import shlex
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from treebed import cli, lab
from treebed.errors import PreconditionViolated
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
    assert len(cfg.to_jsonable()) == 11


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
    assert data["schema"] == "treebed/3"
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
    from treebed.errors import OracleBudget, SearchBudgetExceeded

    assert issubclass(OracleBudget, SearchBudgetExceeded)
    with pytest.raises(OracleBudget):
        lab.verify_extremal(12, budget=100)


def test_property_suite_trials_zero():
    assert lab.property_suite(seed=0, trials=0) == []


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
    assert json.loads(rep.read_text())["schema"] == "treebed/3"


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
        ["decompose", "--op", "rich", "--c", "abc"],
        ["decompose", "--op", "rich", "--rho", "1/0"],
        ["decompose", "--op", "refine", "--eps", "1/x"],
    ],
    ids=["gen-without-k", "gen-k-not-integer", "gen-alpha-not-fraction", "decompose-c-abc",
         "decompose-rho-over-zero", "decompose-eps-not-fraction"],
)
def test_cli_malformed_value_is_usage_error(tmp_path, capsys, argv):
    host = tmp_path / "g.txt"
    cli.main(["gen", "complete", "--param", "n=6", "--out", str(host)])
    capsys.readouterr()
    if argv[0] == "decompose":
        argv = [*argv, "--host", str(host)]
    assert cli.main(argv) == 2
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
        '[8, 9]',
    ],
    ids=["truncated-json", "without-k-values", "unknown-key", "not-an-object"],
)
def test_cli_malformed_sweep_config_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert cli.main(["sweep", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_budget_overrun_is_inconclusive(capsys):
    # an oracle budget overrun is neither a usage error (2) nor a failure (1)
    assert cli.main(["verify-extremal", "--k", "12", "--budget", "1"]) == 3
    assert "inconclusive" in capsys.readouterr().err


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
    # every documented command line must be accepted by the real parser
    lines = _readme_cli_lines()
    assert len(lines) >= 10
    ap = cli.build_parser()
    for line in lines:
        args = ap.parse_args(shlex.split(line)[1:])
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
_SWEEP_REPORT_DIGEST = "e8573d05c57e5ddc86c4604ad08a54213b039f3677c209ed39c40707c2fb8560"


def test_sweep_report_pinned():
    cfg = lab.ExperimentConfig(
        conjecture="2k3", k_values=(10, 11, 12), tree_max_degree=4, trials=300, seed=7000
    )
    text = lab.render_report(lab.run_sweep(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == _SWEEP_REPORT_DIGEST


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
