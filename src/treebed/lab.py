"""Experiment harness: degree-template sweeps, extremal verification, reports.

A sweep is fully determined by its config (seeds included): rerunning one
yields a byte-identical JSON report.  Every trial whose host meets its
template gets an oracle verdict; `skipped` means the template was not met.
`envelope_n`, the random hosts' largest order, is the one size setting, and
every oracle budget here defaults to `embed.DEFAULT_ORACLE_BUDGET`.
Verdicts are conservative: only an exhausted oracle may call a trial a
counterexample candidate, and a pipeline "found" that contradicts an
exhausted oracle is a hard failure of the run.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import partial
from typing import Optional

from . import checks
from .embed import DEFAULT_ORACLE_BUDGET, brute_force_embed
from .errors import EmbedNotFound, PreconditionViolated
from .generators import (
    gen_random_graph_min_degree,
    gen_random_tree,
    gen_three_branch_tree,
    gen_two_cliques_apex,
    gen_two_cliques_apex_grown,
)
from .graph import Graph, second_neighbourhood
from .trees import Tree

SCHEMA = "treebed/4"

CONJECTURES = ("2k3", "alpha", "k2_maxdeg", "second_nbhd")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; two equal configs replay to identical reports."""

    conjecture: str
    k_values: tuple[int, ...]
    tree_max_degree: int
    trials: int
    seed: int
    alpha: Optional[str] = None  # fraction string, used by the alpha template
    oracle_budget: int = DEFAULT_ORACLE_BUDGET
    envelope_n: int = 16  # the random hosts' largest order
    # shifts the template's min-degree floor; -1 reproduces the tight hosts
    min_degree_offset: int = 0
    extremal_mix: bool = False
    # derived once, here, so not part of the config's JSON: alpha parsed, and
    # each k's exact (min degree, max degree) thresholds, offset included
    alpha_value: Optional[Fraction] = field(init=False, default=None, repr=False, compare=False)
    degree_thresholds: dict = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.conjecture not in CONJECTURES:
            raise PreconditionViolated(f"unknown conjecture id {self.conjecture!r}")
        if not self.k_values or self.trials < 0:
            raise PreconditionViolated("need a nonempty k range and trials >= 0")
        if self.tree_max_degree < 1:
            raise PreconditionViolated("need tree_max_degree >= 1")
        if self.alpha is not None:
            if self.conjecture != "alpha":
                raise PreconditionViolated(
                    f"alpha is read only by the alpha conjecture, not by {self.conjecture}"
                )
            try:
                object.__setattr__(self, "alpha_value", Fraction(str(self.alpha)))
            except (ValueError, ZeroDivisionError) as exc:
                raise PreconditionViolated(f"alpha {self.alpha!r} is not a fraction like 1/5") from exc
        elif self.conjecture == "alpha":
            raise PreconditionViolated("the alpha conjecture needs alpha, a fraction like 1/5")
        thresholds = {}
        for k in self.k_values:
            demand = self._demands(k)
            # a demand of 0 or less is met by every host and tests nothing
            if self.conjecture == "alpha" and min(demand) <= 0:
                raise PreconditionViolated(
                    f"alpha = {self.alpha} at k={k} demands degrees {demand}; both must be positive"
                )
            want_min, want_max = demand[0] + self.min_degree_offset, demand[1]
            # a host on at most envelope_n vertices has no degree above
            # envelope_n - 1, so a k demanding more would make every one of
            # its trials inconclusive
            need = max(want_min, want_max)
            if need > self.envelope_n - 1:
                raise PreconditionViolated(
                    f"{self.conjecture} at k={k} asks hosts for degree {need},"
                    f" but they have at most {self.envelope_n} vertices"
                )
            thresholds[k] = (want_min, want_max)
        object.__setattr__(self, "degree_thresholds", thresholds)

    def _demands(self, k: int) -> tuple[int, int]:
        """The conjecture's integer (min degree, max degree) demands at k, before the offset."""
        if self.conjecture == "2k3":
            return (2 * k) // 3, k
        if self.conjecture == "alpha":
            a = self.alpha_value
            return math.ceil((1 + a) * k / 2), math.ceil(2 * (1 - a) * k)
        if self.conjecture == "k2_maxdeg":
            d = self.tree_max_degree
            return -(-k // 2), -(-2 * (d - 1) * k // d)
        # second_nbhd: the max demand is the witness vertex's degree and
        # second-neighbourhood size, both at least 4k/3
        return -(-k // 2), -(-4 * k // 3)

    def to_jsonable(self) -> dict:
        d = asdict(self)
        del d["alpha_value"], d["degree_thresholds"]
        d["k_values"] = list(self.k_values)
        return d

    @classmethod
    def from_jsonable(cls, d: dict) -> "ExperimentConfig":
        try:
            return cls(**{**d, "k_values": tuple(d["k_values"])})
        except (KeyError, TypeError) as exc:
            raise PreconditionViolated(f"bad sweep config: {exc!r}") from exc

    def digest(self) -> str:
        payload = json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class TrialRecord:
    trial_index: int
    trial_seed: int
    instance: str  # which distribution produced the pair (plants are labelled)
    k: int
    host_n: int
    host_edges: int
    tree_edges: int
    template_ok: bool
    degree_checks: dict
    pipeline_stages: list  # [stage, outcome] pairs in attempt order
    pipeline_found: bool
    oracle_status: str  # found | not_found | budget_exhausted | skipped (template not met)
    oracle_nodes: int
    verdict: str  # embedded | counterexample-candidate | inconclusive
    consistency_failure: bool

    def to_jsonable(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Degree templates


def template_check(cfg: ExperimentConfig, g: Graph, k: int) -> dict:
    """Evaluate the conjecture's degree demands at k on a host; all exact counts."""
    want_min, want_max = cfg.degree_thresholds[k]
    dmin = g.min_degree()
    if cfg.conjecture == "second_nbhd":
        witness = any(
            g.degree(x) >= want_max and len(second_neighbourhood(g, x)) >= want_max
            for x in range(g.n)
        )
        return {
            "min_degree": dmin,
            "min_ok": dmin >= want_min,
            "witness_vertex_ok": witness,
            "max_ok": witness,
        }
    dmax = g.max_degree()
    return {
        "min_degree": dmin,
        "max_degree": dmax,
        "min_ok": dmin >= want_min,
        "max_ok": dmax >= want_max,
    }


def _is_planted_trial(cfg: ExperimentConfig, k: int, idx: int) -> bool:
    return cfg.extremal_mix and k % 3 == 0 and idx % 5 == 0


def _host_for_trial(cfg: ExperimentConfig, k: int, rng: random.Random) -> Graph:
    """Build a host aimed at the template from the trial's stream (repairs
    may still miss; the trial then counts as template-violating and is
    skipped)."""
    delta, want_max = cfg.degree_thresholds[k]
    n_hi = cfg.envelope_n
    # the hub needs want_max neighbours, so aim the order above it when possible
    n_lo = max(k + 1, min(want_max + 1, n_hi))
    n = rng.randrange(n_lo, max(n_lo, n_hi) + 1)
    delta = min(delta, n - 1)
    g = gen_random_graph_min_degree(n, delta, rng)
    if g.max_degree() < want_max and want_max <= n - 1:
        # lift one hub to the max-degree demand
        hub = g.degrees().index(g.max_degree())  # the first vertex of maximum degree
        masks = list(g.masks())
        others = [v for v in range(n) if v != hub and not masks[hub] >> v & 1]
        rng.shuffle(others)
        # each step gives the hub one new neighbour, up to want_max
        for v in others[: want_max - g.degree(hub)]:
            masks[hub] |= 1 << v
            masks[v] |= 1 << hub
        g = Graph._from_masks(masks)
    return g


def _trial_seed(cfg: ExperimentConfig, idx: int) -> int:
    return cfg.seed * 1_000_003 + idx


def trial_instance(cfg: ExperimentConfig, idx: int) -> tuple[int, str, Graph, Tree]:
    """Trial idx's k, instance label, host and tree: what `run_trial` runs.
    A random trial draws its host order, host, hub lift and tree, in that
    order, from one stream, random.Random(trial_seed)."""
    k = cfg.k_values[idx % len(cfg.k_values)]
    if _is_planted_trial(cfg, k, idx):
        # a full tight instance: host and tree planted together
        return k, "two_cliques_apex+three_branch", gen_two_cliques_apex(k), gen_three_branch_tree(k)
    rng = random.Random(_trial_seed(cfg, idx))
    g = _host_for_trial(cfg, k, rng)
    t = gen_random_tree(k + 1, cfg.tree_max_degree, rng)
    return k, "random_min_degree+random_tree", g, t


def run_trial(cfg: ExperimentConfig, idx: int) -> TrialRecord:
    k, instance, g, t = trial_instance(cfg, idx)
    degree_checks = template_check(cfg, g, k)
    template_ok = bool(degree_checks.get("min_ok") and degree_checks.get("max_ok"))

    stages: list = []
    pipeline_found = False
    oracle_status = "skipped"
    oracle_nodes = 0
    verdict = "inconclusive"
    consistency_failure = False

    if template_ok:
        for name, attempt in checks.pipeline_attempts(g, t):
            try:
                attempt()
            except PreconditionViolated:
                stages.append([name, "preconditions"])
                continue
            except EmbedNotFound as exc:
                stages.append([name, f"stuck:{exc.stage}"])
                continue
            stages.append([name, "found"])
            pipeline_found = True
            break
        oracle = brute_force_embed(g, t, budget=cfg.oracle_budget)
        oracle_status = oracle.status
        oracle_nodes = oracle.nodes_explored
        if pipeline_found and oracle_status == "not_found":
            consistency_failure = True
        elif pipeline_found or oracle_status == "found":
            verdict = "embedded"
        elif oracle_status == "not_found":
            verdict = "counterexample-candidate"
    return TrialRecord(
        trial_index=idx,
        trial_seed=_trial_seed(cfg, idx),
        instance=instance,
        k=k,
        host_n=g.n,
        host_edges=g.edge_count,
        tree_edges=t.k,
        template_ok=template_ok,
        degree_checks=degree_checks,
        pipeline_stages=stages,
        pipeline_found=pipeline_found,
        oracle_status=oracle_status,
        oracle_nodes=oracle_nodes,
        verdict=verdict,
        consistency_failure=consistency_failure,
    )


@dataclass
class SweepResult:
    config: ExperimentConfig
    records: list[TrialRecord]
    summary: dict

    def to_jsonable(self) -> dict:
        return {
            "schema": SCHEMA,
            "config": self.config.to_jsonable(),
            "config_digest": self.config.digest(),
            "records": [r.to_jsonable() for r in self.records],
            "summary": self.summary,
        }


def run_sweep(cfg: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Execute all trials (optionally in a process pool) and summarize.

    Records are sorted by trial index before emission, so the report does not
    depend on worker scheduling.  A pool gets the config once per batch of
    trials, about four batches per worker, rather than once per trial.
    """
    if workers > 1 and cfg.trials > 1:
        batch = -(-cfg.trials // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(partial(run_trial, cfg), range(cfg.trials), chunksize=batch))
    else:
        records = [run_trial(cfg, i) for i in range(cfg.trials)]
    records.sort(key=lambda r: r.trial_index)
    counts: dict[str, int] = {}
    for r in records:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    summary = {
        "trials": len(records),
        "verdicts": dict(sorted(counts.items())),
        "template_violations": sum(1 for r in records if not r.template_ok),
        "pipeline_found": sum(1 for r in records if r.pipeline_found),
        "oracle_exhaustive_not_found": sum(1 for r in records if r.oracle_status == "not_found"),
        "consistency_failures": sum(1 for r in records if r.consistency_failure),
    }
    return SweepResult(cfg, records, summary)


def replay_candidates(cfg: ExperimentConfig, result: SweepResult) -> bool:
    """Re-derive every counterexample-candidate trial and confirm the oracle
    still proves non-containment (verdict soundness)."""
    for r in result.records:
        if r.verdict != "counterexample-candidate":
            continue
        fresh = run_trial(cfg, r.trial_index)
        if fresh.oracle_status != "not_found":
            return False
    return True


# ---------------------------------------------------------------------------
# Extremal verification


@dataclass
class ExtremalReport:
    """`complete` is False when an oracle search ran out of its budget and no
    finished check failed: `ok` is then False, but nothing is refuted."""

    k: int
    tight_min_degree: int
    tight_max_degree: int
    degrees_ok: bool
    avoids_tree: bool
    avoid_nodes: int
    grown_embeds: bool
    grown_nodes: int
    complete: bool

    @property
    def ok(self) -> bool:
        return self.degrees_ok and self.avoids_tree and self.grown_embeds


def verify_extremal(k: int, budget: Optional[int] = None) -> ExtremalReport:
    """The tight host avoids the three-branch tree; one more vertex per clique
    flips the verdict.  Exhaustive on both sides, within `budget` nodes each
    (None: the oracle's default, read when each search starts)."""
    g = gen_two_cliques_apex(k)
    t = gen_three_branch_tree(k)
    degrees_ok = g.min_degree() == (2 * k) // 3 - 1 and g.max_degree() >= k
    avoid = brute_force_embed(g, t, budget=budget)
    grown = brute_force_embed(gen_two_cliques_apex_grown(k), t, budget=budget)
    refuted = not degrees_ok or avoid.status == "found" or grown.status == "not_found"
    return ExtremalReport(
        k=k,
        tight_min_degree=g.min_degree(),
        tight_max_degree=g.max_degree(),
        degrees_ok=degrees_ok,
        avoids_tree=avoid.status == "not_found",
        avoid_nodes=avoid.nodes_explored,
        grown_embeds=grown.status == "found",
        grown_nodes=grown.nodes_explored,
        complete=refuted or "budget_exhausted" not in (avoid.status, grown.status),
    )


# ---------------------------------------------------------------------------
# Report emission


CSV_COLUMNS = [
    "trial_index",
    "trial_seed",
    "instance",
    "k",
    "host_n",
    "host_edges",
    "tree_edges",
    "template_ok",
    "pipeline_found",
    "oracle_status",
    "oracle_nodes",
    "verdict",
    "consistency_failure",
]


def render_report(result: SweepResult, fmt: str = "json") -> str:
    """Canonical serialization; JSON is byte-stable for equal configs."""
    if fmt == "json":
        return json.dumps(result.to_jsonable(), sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for r in result.records:
            row = r.to_jsonable()
            lines.append(",".join(str(row[c]) for c in CSV_COLUMNS))
        return "\n".join(lines) + "\n"
    raise PreconditionViolated(f"unknown format {fmt!r}")
