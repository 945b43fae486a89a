"""Command-line interface.

Subcommands: gen, split, embed, decompose, verify-extremal, sweep, props.
Exit codes: 0 success, 1 invariant or consistency failure, 2 usage error,
3 inconclusive (a search ran out of its node budget before a verdict).

Cut density needs no flag: one exact branch and bound serves every order,
under a fixed node budget that every graph of at most 20 vertices fits.  A
dense verdict from a search that ran out of it is inconclusive, and
`decompose` says so: `certified_exact` for refine, one `conclusive` flag per
component for rich.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import lab
from .decompose import RichParams, classify_components, refine_cut_dense, rich_decompose
from .embed import Embedding, brute_force_embed, greedy_embed
from .errors import (
    InternalInvariantError,
    PreconditionViolated,
    SearchBudgetExceeded,
    TreebedError,
)
from .generators import (
    GRAPH_FAMILY_NAMES,
    TREE_FAMILY_NAMES,
    FamilySpec,
    build_graph,
    build_tree,
)
from .graph import Graph, VertexSet
from .trees import (
    Tree,
    chain_split,
    even_odd_split,
    msf_decomposition,
    split_three_forests,
    split_two_forests,
    subtree_split,
)


DEFAULT_BUDGET = 10**8


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_graph(path: str) -> Graph:
    with open(path) as fh:
        return Graph.from_edge_list_text(fh.read())


def _load_tree(path: str) -> Tree:
    with open(path) as fh:
        return Tree.from_json(fh.read())


def _parse_params(items: list[str]) -> dict:
    out = {}
    for item in items or []:
        key, _, val = item.partition("=")
        if not val:
            raise PreconditionViolated(f"bad param {item!r}, expected key=value")
        try:
            out[key] = int(val)
        except ValueError:
            out[key] = val
    return out


def cmd_gen(args) -> int:
    params = _parse_params(args.param)
    spec = FamilySpec(args.family, params, args.seed)
    if args.family in GRAPH_FAMILY_NAMES:
        g = build_graph(spec)
        _write_out(g.to_edge_list_text(), args.out)
    elif args.family in TREE_FAMILY_NAMES:
        t = build_tree(spec)
        _write_out(t.to_json() + "\n", args.out)
    else:
        raise PreconditionViolated(
            f"unknown family {args.family!r}; graphs: {GRAPH_FAMILY_NAMES}, trees: {TREE_FAMILY_NAMES}"
        )
    return 0


def cmd_split(args) -> int:
    t = _load_tree(args.tree)
    if args.op == "two":
        s = split_two_forests(t)
        payload = {"op": "two", "pivot": s.pivot, "f1": list(s.f1), "f2": list(s.f2)}
    elif args.op == "three":
        s = split_three_forests(t)
        payload = {
            "op": "three",
            "pivot": s.pivot,
            "f1": list(s.f1),
            "f2": list(s.f2),
            "f3": list(s.f3),
        }
    elif args.op == "chain":
        s = chain_split(t, args.m)
        payload = {
            "op": "chain",
            "s0": {"vertices": list(s.s0.vertices), "edges": [list(e) for e in s.s0.edges]},
            "others": [
                {"vertices": list(p.vertices), "edges": [list(e) for e in p.edges]}
                for p in s.others
            ],
            "attach_points": list(s.attach_points),
        }
    elif args.op == "subtree":
        s1, s2 = subtree_split(t, args.v, args.m)
        payload = {
            "op": "subtree",
            "s1": {"vertices": list(s1.vertices), "edges": [list(e) for e in s1.edges]},
            "s2": {"vertices": list(s2.vertices), "edges": [list(e) for e in s2.edges]},
        }
    elif args.op == "evenodd":
        s = even_odd_split(t)
        payload = {
            "op": "evenodd",
            "root": s.root,
            "components": [list(c) for c in s.components],
            "class1": list(s.class1),
            "class2": list(s.class2),
            "even_counts": list(s.even_counts),
            "odd_counts": list(s.odd_counts),
            "bound": str(s.bound()),
        }
    elif args.op == "msf":
        s = msf_decomposition(t)
        payload = {
            "op": "msf",
            "root": s.root,
            "matching": [list(e) for e in s.matching],
            "s_vertices": list(s.s_vertices),
            "f_components": [list(c) for c in s.f_components],
            "s_size": s.s_size,
            "s_bound_checked": s.s_bound_checked,
        }
    else:
        raise PreconditionViolated(f"unknown split op {args.op!r}")
    _write_out(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_embed(args) -> int:
    g = _load_graph(args.host)
    t = _load_tree(args.tree)
    if args.method == "greedy" and args.pin:
        raise PreconditionViolated("--pin applies only to --method oracle")
    if args.method == "oracle" and args.x is not None:
        raise PreconditionViolated("--x applies only to --method greedy")
    pins = None
    if args.pin:
        try:
            pairs = [(int(tv), int(hv)) for tv, _, hv in (p.partition(":") for p in args.pin)]
        except ValueError:
            raise PreconditionViolated(f"--pin takes tree:host integers, got {args.pin}") from None
        pins = Embedding(tuple(sorted(pairs)))  # rejects a tree vertex pinned twice
    if args.method == "oracle":
        out = brute_force_embed(g, t, pins=pins, budget=args.budget)
    elif args.method == "greedy":
        out = greedy_embed(g, t, x=args.x if args.x is not None else 0)
    else:
        raise PreconditionViolated(f"unknown embed method {args.method!r}")
    payload = {
        "status": out.status,
        "nodes_explored": out.nodes_explored,
        "embedding": dict(out.embedding.mapping) if out.embedding else None,
    }
    _write_out(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_decompose(args) -> int:
    g = _load_graph(args.host)
    if args.op == "rich":
        rho = Fraction(args.rho) if args.rho is not None else Fraction(0)
        p = RichParams(Fraction(args.c), rho, args.k)
        rd = rich_decompose(g, args.k, p)
        payload = {
            "op": "rich",
            "components": [list(c) for c in rd.components],
            "conclusive": [rep.conclusive for rep in rd.reports],
            "uncovered": list(rd.uncovered),
            "coverage": str(rd.coverage),
        }
    elif args.op == "refine":
        res = refine_cut_dense(
            g,
            Fraction(args.a),
            Fraction(args.eps),
            Fraction(args.delta),
            args.k,
            rho=Fraction(args.rho) if args.rho is not None else None,
            relax_delta=args.relax_delta,
        )
        payload = {
            "op": "refine",
            "kept_vertices": list(res.vertices),
            "removed_vertices": list(res.removed_vertices),
            "iterations": len(res.log),
            "rho": str(res.rho),
            "certified_exact": res.certified_exact,
            "components": [list(c) for c in res.graph.components()],
        }
    elif args.op == "classify":
        comps = [
            VertexSet([int(v) for v in grp.split(",") if v != ""], g.n)
            for grp in args.comp or []
        ]
        rep = classify_components(g, comps, s=args.s, t=args.t)
        payload = {
            "op": "classify",
            "split_vertices": list(rep.split_vertices),
            "closed": list(rep.closed),
            "affinities": [
                {
                    "vertex": a.vertex,
                    "best": a.best,
                    "second": a.second,
                    "residual": a.residual_degree,
                }
                for a in rep.affinities
            ],
        }
    else:
        raise PreconditionViolated(f"unknown decompose op {args.op!r}")
    _write_out(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_verify_extremal(args) -> int:
    ks = args.k or [6, 9, 12]
    all_ok = True
    lines = []
    for k in ks:
        rep = lab.verify_extremal(k, budget=args.budget)
        all_ok &= rep.ok
        lines.append(
            f"k={k}: degrees_ok={rep.degrees_ok} avoids_tree={rep.avoids_tree}"
            f" (nodes={rep.avoid_nodes}) grown_embeds={rep.grown_embeds}"
        )
    text = "\n".join(lines) + "\n"
    _write_out(text, args.out)
    return 0 if all_ok else 1


# the sweep flags a config file also sets; they default to absent, so that
# one given next to --config is seen and refused instead of silently dropped
_SWEEP_CONFIG_FLAGS = ("conjecture", "k", "alpha", "tree_max_degree", "trials", "seed", "budget")


def cmd_sweep(args) -> int:
    if args.config:
        given = [f"--{f.replace('_', '-')}" for f in _SWEEP_CONFIG_FLAGS if f in vars(args)]
        if given:
            raise PreconditionViolated(
                f"--config sets the whole sweep; it does not combine with {', '.join(given)}"
            )
        with open(args.config) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise PreconditionViolated(f"bad sweep config JSON: {exc}") from exc
        cfg = lab.ExperimentConfig.from_jsonable(data)
    else:
        cfg = lab.ExperimentConfig(
            conjecture=getattr(args, "conjecture", "2k3"),
            k_values=tuple(getattr(args, "k", (8, 9, 10))),
            tree_max_degree=getattr(args, "tree_max_degree", 3),
            trials=getattr(args, "trials", 50),
            seed=getattr(args, "seed", 0),
            alpha=getattr(args, "alpha", None),
            oracle_budget=getattr(args, "budget", DEFAULT_BUDGET),
        )
    result = lab.run_sweep(cfg, workers=args.workers)
    text = lab.render_report(result, args.format)
    _write_out(text, args.out)
    if result.summary["consistency_failures"]:
        return 1
    return 0


def cmd_props(args) -> int:
    results = lab.property_suite(seed=args.seed or 0, trials=args.trials)
    if args.corpus:
        results.append(lab.timed_check(lab.oracle_corpus_check, budget=args.budget))
    lines = []
    bad = 0
    for r in results:
        mark = "ok  " if r.ok else "FAIL"
        bad += r.failures
        lines.append(f"{mark} {r.name}: runs={r.runs} failures={r.failures}")
        lines.extend(f"       {note}" for note in r.notes)
        # wall times differ between runs, so they stay out of the report
        print(f"{r.seconds:.3f} s  {r.name}", file=sys.stderr)
    _write_out("\n".join(lines) + "\n", args.out)
    return 0 if bad == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="treebed",
        description="tree-embedding workbench: generators, splits, embedders, sweeps",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name: str, flags: tuple[str, ...], **kw):
        # each subcommand takes only the shared flags its handler reads
        p = sub.add_parser(name, **kw)
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=None, help="root seed for randomized steps")
        if "budget" in flags:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="search node budget")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        return p

    g = add("gen", ("seed",), help="emit a host graph or guest tree from a named family")
    g.add_argument("family")
    g.add_argument("--param", action="append", metavar="key=value")
    g.set_defaults(fn=cmd_gen)

    s = add("split", (), help="run a tree-splitting procedure")
    s.add_argument("--tree", required=True, help="tree JSON file")
    s.add_argument("--op", required=True, choices=("two", "three", "chain", "subtree", "evenodd", "msf"))
    s.add_argument("--m", type=int, default=1)
    s.add_argument("--v", type=int, default=0)
    s.set_defaults(fn=cmd_split)

    e = add("embed", ("budget",), help="embed a tree into a host")
    e.add_argument("--host", required=True, help="edge-list file")
    e.add_argument("--tree", required=True, help="tree JSON file")
    e.add_argument("--method", default="oracle", choices=("oracle", "greedy"))
    e.add_argument("--x", type=int, default=None, help="apex/root host vertex for greedy")
    e.add_argument("--pin", action="append", metavar="tree:host", help="pin map entries")
    e.set_defaults(fn=cmd_embed)

    d = add("decompose", (), help="rich decomposition / refinement / classification")
    d.add_argument("--host", required=True)
    d.add_argument("--op", required=True, choices=("rich", "refine", "classify"))
    d.add_argument("--k", type=int, default=10)
    d.add_argument("--c", default="1/2")
    d.add_argument("--rho", default=None)
    d.add_argument("--a", default="1/2")
    d.add_argument("--eps", default="1/4")
    d.add_argument("--delta", default="1/2000")
    d.add_argument("--relax-delta", action="store_true", dest="relax_delta")
    d.add_argument("--s", type=int, default=2)
    d.add_argument("--t", type=int, default=2)
    d.add_argument("--comp", action="append", metavar="v1,v2,...")
    d.set_defaults(fn=cmd_decompose)

    v = add("verify-extremal", ("budget",), help="tightness check at small k")
    v.add_argument("--k", type=int, action="append")
    v.set_defaults(fn=cmd_verify_extremal)

    w = add("sweep", (), help="run a conjecture-template sweep")
    w.add_argument("--config", default=None, help="config JSON file, which sets the whole sweep")
    absent = argparse.SUPPRESS
    w.add_argument("--conjecture", default=absent, choices=lab.CONJECTURES, help="default 2k3")
    w.add_argument("--k", type=int, action="append", default=absent, help="default 8, 9 and 10")
    w.add_argument("--alpha", default=absent, help="fraction like 1/5 (alpha template)")
    w.add_argument("--tree-max-degree", type=int, default=absent, dest="tree_max_degree",
                   help="default 3")
    w.add_argument("--trials", type=int, default=absent, help="default 50")
    w.add_argument("--seed", type=int, default=absent, help="root seed, default 0")
    w.add_argument("--budget", type=int, default=absent, help=f"oracle node budget, default {DEFAULT_BUDGET}")
    w.add_argument("--format", default="json", choices=("json", "csv"))
    w.add_argument("--workers", type=int, default=1)
    w.set_defaults(fn=cmd_sweep)

    p = add("props", ("seed", "budget"), help="run the module invariant suite")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--corpus", action="store_true", help="include the oracle corpus run")
    p.set_defaults(fn=cmd_props)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InternalInvariantError as exc:
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return 1
    except SearchBudgetExceeded as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except TreebedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
