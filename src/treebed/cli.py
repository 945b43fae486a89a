"""Command-line interface.

Subcommands: gen, split, embed, decompose, verify-extremal, sweep, props.
Exit codes: 0 success, 1 invariant or consistency failure, 2 usage error
(a malformed value, or an input or output path that cannot be opened),
3 inconclusive: a search ran out of its node budget before a verdict, and
nothing failed.  `embed`, `verify-extremal`, `decompose`, `sweep` and
`props` write their whole output first, and `_finish` picks the code.
`props` runs the table `checks.ALL_CHECKS`, each check at its stated scale
or at `--trials` runs if that is lower.

Cut density needs no flag: one exact branch and bound serves every order,
under a fixed node budget that every graph of at most 20 vertices fits.  A
dense verdict from a search that ran out of it is inconclusive, and
`decompose` says so, `certified_exact` for refine and one `conclusive` flag
per component for rich, and exits 3.  So does a rich candidate whose vertex
cover search ran out, listed under `undecided`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import partial

from . import checks, embed, lab
from .corpus import all_trees_up_to, host_corpus
from .decompose import RichParams, classify_components, refine_cut_dense, rich_decompose
from .embed import Embedding, brute_force_embed, greedy_embed
from .errors import InternalInvariantError, PreconditionViolated, TreebedError
from .generators import (
    gen_bps_alpha_host,
    gen_caterpillar,
    gen_clique_chain_apex,
    gen_complete_bipartite,
    gen_path,
    gen_random_connected_graph,
    gen_random_graph_min_degree,
    gen_random_tree,
    gen_spider,
    gen_three_branch_tree,
    gen_two_cliques_apex,
    gen_two_cliques_apex_grown,
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


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finish(text: str, out: str | None, failed: bool, complete: bool) -> int:
    """Write a subcommand's output, then pick its exit code: 1 when a check
    failed, else 3 when some search ran out of its node budget, else 0."""
    _write_out(text, out)
    if failed:
        return 1
    if not complete:
        print("inconclusive: a search ran out of its node budget", file=sys.stderr)
        return 3
    return 0


def _load_graph(path: str) -> Graph:
    with open(path) as fh:
        return Graph.from_edge_list_text(fh.read())


def _load_tree(path: str) -> Tree:
    with open(path) as fh:
        return Tree.from_json(fh.read())


def _parse_params(items: list[str]) -> dict[str, str]:
    """`gen`'s key=value items as texts by key; a key given twice is refused."""
    out = {}
    for item in items or []:
        key, _, val = item.partition("=")
        if not val:
            raise PreconditionViolated(f"bad param {item!r}, expected key=value")
        if key in out:
            raise PreconditionViolated(f"parameter {key} is given twice")
        out[key] = val
    return out


def _fraction(flag: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise PreconditionViolated(f"{flag} takes a fraction like 1/2, got {text!r}") from None


# Each `gen` family: its builder, the --param names the builder takes, in
# order and all required, and whether it reads --seed, passed last.  A seed
# given to a family that reads none is refused rather than ignored.
_FAMILIES = {
    "two_cliques_apex": (gen_two_cliques_apex, ("k",), False),
    "two_cliques_apex_grown": (gen_two_cliques_apex_grown, ("k",), False),
    "bps_alpha_host": (lambda k, alpha: gen_bps_alpha_host(k, alpha)[0], ("k", "alpha"), False),
    "clique_chain_apex": (gen_clique_chain_apex, ("k", "d"), False),
    "complete_bipartite": (gen_complete_bipartite, ("m", "n"), False),
    "complete": (Graph.complete, ("n",), False),
    "random_min_degree": (gen_random_graph_min_degree, ("n", "delta"), True),
    "random_connected": (gen_random_connected_graph, ("n", "extra_edges"), True),
    "three_branch": (gen_three_branch_tree, ("k",), False),
    "spider": (gen_spider, ("k", "ell"), False),
    "path": (gen_path, ("n",), False),
    "caterpillar": (gen_caterpillar, ("spine", "legs"), True),
    "random_tree": (gen_random_tree, ("n", "max_deg"), True),
}


def cmd_gen(args) -> int:
    params = _parse_params(args.param)
    if args.family not in _FAMILIES:
        raise PreconditionViolated(
            f"unknown family {args.family!r}; families: {', '.join(sorted(_FAMILIES))}"
        )
    build, names, seeded = _FAMILIES[args.family]
    if args.seed is not None and not seeded:
        raise PreconditionViolated(f"family {args.family!r} reads no seed")
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise PreconditionViolated(
            f"family {args.family!r} takes no parameter {', '.join(unknown)};"
            f" it takes {', '.join(names)}"
        )
    values = []
    for name in names:
        if name not in params:
            raise PreconditionViolated(f"family {args.family!r} needs the parameter {name}=...")
        text = params[name]
        if name == "alpha":
            values.append(_fraction(name, text))
            continue
        try:
            values.append(int(text))
        except ValueError:
            raise PreconditionViolated(f"parameter {name}={text!r} is not an integer") from None
    if seeded:
        values.append(args.seed or 0)
    out = build(*values)
    text = out.to_edge_list_text() if isinstance(out, Graph) else out.to_json() + "\n"
    _write_out(text, args.out)
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
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return _finish(text, args.out, False, out.status != "budget_exhausted")


def cmd_decompose(args) -> int:
    g = _load_graph(args.host)
    complete = True
    if args.op == "rich":
        rho = _fraction("--rho", args.rho) if args.rho is not None else Fraction(0)
        p = RichParams(_fraction("--c", args.c), rho, args.k)
        rd = rich_decompose(g, args.k, p)
        payload = {
            "op": "rich",
            "components": [list(c) for c in rd.components],
            "conclusive": [rep.conclusive for rep in rd.reports],
            "undecided": [list(rep.subgraph) for rep in rd.undecided],
            "uncovered": list(rd.uncovered),
            "coverage": str(rd.coverage),
        }
        complete = all(payload["conclusive"]) and not rd.undecided
    elif args.op == "refine":
        res = refine_cut_dense(
            g,
            _fraction("--a", args.a),
            _fraction("--eps", args.eps),
            _fraction("--delta", args.delta),
            args.k,
            rho=_fraction("--rho", args.rho) if args.rho is not None else None,
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
        complete = res.certified_exact
    elif args.op == "classify":
        try:
            ids = [[int(v) for v in grp.split(",") if v != ""] for grp in args.comp or []]
        except ValueError:
            raise PreconditionViolated(f"--comp takes integers like 1,2,3, got {args.comp}") from None
        comps = [VertexSet(c, g.n) for c in ids]
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
    return _finish(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out, False, complete)


def cmd_verify_extremal(args) -> int:
    reps = [lab.verify_extremal(k, budget=args.budget) for k in args.k or [6, 9, 12]]
    lines = [
        f"k={rep.k}: degrees_ok={rep.degrees_ok} avoids_tree={rep.avoids_tree}"
        f" (nodes={rep.avoid_nodes}) grown_embeds={rep.grown_embeds}"
        + ("" if rep.complete else " complete=False")
        for rep in reps
    ]
    failed = any(rep.complete and not rep.ok for rep in reps)
    complete = all(rep.complete for rep in reps)
    return _finish("\n".join(lines) + "\n", args.out, failed, complete)


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
            oracle_budget=getattr(args, "budget", embed.DEFAULT_ORACLE_BUDGET),
        )
    result = lab.run_sweep(cfg, workers=args.workers)
    text = lab.render_report(result, args.format)
    complete = all(r.oracle_status != "budget_exhausted" for r in result.records)
    return _finish(text, args.out, result.summary["consistency_failures"] > 0, complete)


def cmd_props(args) -> int:
    if args.trials is not None and args.trials < 0:
        raise PreconditionViolated(f"--trials must be at least 0, got {args.trials}")
    runs = []
    if args.trials != 0:
        for fn, scale in checks.ALL_CHECKS.values():
            if scale is not None:  # a seeded check, at its stated scale or --trials if lower
                fn = partial(fn, args.seed or 0, min(scale, args.trials or scale))
            runs.append(fn)
    if args.corpus:  # every stored host against every tree of at most 7 edges
        runs.append(
            lambda: checks.check_oracle_agreement(host_corpus(), all_trees_up_to(8), args.budget)
        )
    results, lines = [], []
    for run in runs:
        start = time.perf_counter()
        r = run()
        # wall times differ between runs, so they stay out of the report
        print(f"{time.perf_counter() - start:.3f} s  {r.name}", file=sys.stderr)
        results.append(r)
        mark = "FAIL" if r.failures else "inc " if r.inconclusive else "ok  "
        line = f"{mark} {r.name}: runs={r.runs} failures={r.failures}"
        lines.append(line + (f" inconclusive={r.inconclusive}" if r.inconclusive else ""))
        lines.extend(f"       {note}" for note in r.notes)
    failed = any(r.failures for r in results)
    complete = not any(r.inconclusive for r in results)
    return _finish("\n".join(lines) + "\n", args.out, failed, complete)


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
            # None: the oracle's default, read when each search starts
            p.add_argument("--budget", type=int, default=None, help="search node budget")
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
    w.add_argument("--budget", type=int, default=absent,
                   help=f"oracle node budget, default {embed.DEFAULT_ORACLE_BUDGET}")
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
    except TreebedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a file named on the command line could not be opened or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
