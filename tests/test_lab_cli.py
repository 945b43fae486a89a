"""Lab harness and CLI tests: sweeps, reports, file formats, exit codes."""

import json
import shlex
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
    with pytest.raises(PreconditionViolated):
        lab.template_check("alpha", Graph(2, [(0, 1)]), 4, alpha=None)


def test_report_formats(tmp_path):
    cfg = lab.ExperimentConfig(
        conjecture="2k3", k_values=(8,), tree_max_degree=3, trials=3, seed=1
    )
    res = lab.run_sweep(cfg)
    jpath = tmp_path / "report.json"
    lab.emit_report(res, "json", str(jpath))
    data = json.loads(jpath.read_text())
    assert data["schema"] == "treebed/1"
    assert len(data["records"]) == 3
    assert data["summary"]["trials"] == 3
    cpath = tmp_path / "report.csv"
    lab.emit_report(res, "csv", str(cpath))
    lines = cpath.read_text().splitlines()
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
    assert json.loads(rep.read_text())["schema"] == "treebed/1"


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


def test_cli_props_small(tmp_path):
    out = tmp_path / "props.txt"
    assert cli.main(["props", "--trials", "5", "--out", str(out)]) == 0
    text = out.read_text()
    assert "failures=0" in text and "FAIL" not in text


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


def test_cli_budget_overrun_is_inconclusive(capsys):
    # an oracle budget overrun is neither a usage error (2) nor a failure (1)
    assert cli.main(["verify-extremal", "--k", "12", "--budget", "1"]) == 3
    assert "inconclusive" in capsys.readouterr().err


def test_cli_decompose_rich_flags_conclusive_components(tmp_path):
    host = tmp_path / "g.txt"
    cli.main(["gen", "two_cliques_apex", "--param", "k=6", "--out", str(host)])
    out = tmp_path / "rich.json"
    assert cli.main(["decompose", "--host", str(host), "--op", "rich", "--k", "6",
                     "--rho", "1/100", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["components"] == [list(range(7))] and payload["conclusive"] == [True]


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
