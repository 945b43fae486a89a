"""Span tracing of treebed's layers, installed from outside the package.

The tracer replaces module attributes that the program calls through (for
example `treebed.kernel.solve_embed` or `treebed.lab.brute_force_embed`) with
wrappers that record one span per call: name, start, end and parent span.
A function imported by name into several modules is replaced in every module
that binds it, so calls made through any of them are seen.  Nothing under
`src/` is modified; `uninstall` puts the original functions back.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import Counter, defaultdict

VERDICTS = ("embedded", "counterexample-candidate", "inconclusive")


def _solve_embed_counts(args, kwargs, out):
    return {"nodes": out[2]}


def _min_density_cut_counts(args, kwargs, out):
    # exhaustive Gray-code scan: 2^(n-1) - 1 bipartitions for n vertices
    n = args[1] if len(args) > 1 else kwargs["n"]
    return {"subsets": (1 << (n - 1)) - 1}


def _status_counts(args, kwargs, out):
    return {out.status: 1}


def _constructive_counts(args, kwargs, out):
    return {"found": int(out.status == "found")}


def _refine_counts(args, kwargs, out):
    return {"iterations": len(out.log)}


def _rich_decompose_counts(args, kwargs, out):
    return {"accepted": len(out.components)}


def _trial_counts(args, kwargs, out):
    return {"verdict." + out.verdict: 1}


# (layer, module, function, counter hook).  Several functions may share a
# layer name; their spans and counters are then aggregated.
TARGETS = (
    ("kernel.solve_embed", "kernel", "solve_embed", _solve_embed_counts),
    ("kernel.min_density_cut", "kernel", "min_density_cut", _min_density_cut_counts),
    ("embed.brute_force_embed", "embed", "brute_force_embed", _status_counts),
    ("embed.constructive", "embed", "greedy_embed", _constructive_counts),
    ("embed.constructive", "embed", "apex_split_embed", _constructive_counts),
    ("embed.constructive", "embed", "apex_three_split_embed", _constructive_counts),
    ("embed.constructive", "embed", "bipartite_apex_embed", _constructive_counts),
    ("embed.validate", "embed", "validate", None),
    ("generators.gen_random_tree", "generators", "gen_random_tree", None),
    ("generators.gen_random_graph_min_degree", "generators", "gen_random_graph_min_degree", None),
    ("trees.balanced_separator_vertex", "trees", "balanced_separator_vertex", None),
    ("trees.split_two_forests", "trees", "split_two_forests", None),
    ("trees.split_three_forests", "trees", "split_three_forests", None),
    ("trees.chain_split", "trees", "chain_split", None),
    ("trees.even_odd_split", "trees", "even_odd_split", None),
    ("trees.msf_decomposition", "trees", "msf_decomposition", None),
    ("graph.cut_density", "graph", "cut_density", None),
    ("graph.vertex_cover_at_most", "graph", "vertex_cover_at_most", None),
    ("decompose.refine_cut_dense", "decompose", "refine_cut_dense", _refine_counts),
    ("decompose.rich_decompose", "decompose", "rich_decompose", _rich_decompose_counts),
    ("decompose.is_rich", "decompose", "is_rich", None),
    ("lab.run_trial", "lab", "run_trial", _trial_counts),
    ("lab.template_check", "lab", "template_check", None),
)

# (metric name, unit) for every per-layer metric, in report order.
_TREES = (
    "balanced_separator_vertex",
    "split_two_forests",
    "split_three_forests",
    "chain_split",
    "even_odd_split",
    "msf_decomposition",
)
LAYER_METRICS = (
    [
        ("kernel.solve_embed.calls", "count"),
        ("kernel.solve_embed.s", "s"),
        ("kernel.solve_embed.nodes", "count"),
        ("kernel.solve_embed.nodes_per_s", "1/s"),
        ("kernel.min_density_cut.calls", "count"),
        ("kernel.min_density_cut.s", "s"),
        ("kernel.min_density_cut.subsets", "count"),
        ("kernel.min_density_cut.subsets_per_s", "1/s"),
        ("embed.brute_force_embed.calls", "count"),
        ("embed.brute_force_embed.s", "s"),
        ("embed.brute_force_embed.self_s", "s"),
        ("embed.brute_force_embed.found", "count"),
        ("embed.brute_force_embed.not_found", "count"),
        ("embed.brute_force_embed.budget_exhausted", "count"),
        ("embed.constructive.calls", "count"),
        ("embed.constructive.s", "s"),
        ("embed.constructive.found", "count"),
        ("embed.constructive.hit_rate", "ratio"),
        ("embed.validate.calls", "count"),
        ("embed.validate.s", "s"),
        ("generators.gen_random_tree.calls", "count"),
        ("generators.gen_random_tree.s", "s"),
        ("generators.gen_random_graph_min_degree.calls", "count"),
        ("generators.gen_random_graph_min_degree.s", "s"),
    ]
    + [(f"trees.{p}.{q}", u) for p in _TREES for q, u in (("calls", "count"), ("s", "s"), ("self_s", "s"))]
    + [
        ("graph.cut_density.calls", "count"),
        ("graph.cut_density.s", "s"),
        ("graph.cut_density.self_s", "s"),
        ("graph.vertex_cover_at_most.calls", "count"),
        ("graph.vertex_cover_at_most.s", "s"),
        ("decompose.refine_cut_dense.calls", "count"),
        ("decompose.refine_cut_dense.s", "s"),
        ("decompose.refine_cut_dense.self_s", "s"),
        ("decompose.refine_cut_dense.iterations", "count"),
        ("decompose.rich_decompose.calls", "count"),
        ("decompose.rich_decompose.s", "s"),
        ("decompose.rich_decompose.accepted", "count"),
        ("decompose.is_rich.calls", "count"),
        ("decompose.is_rich.s", "s"),
        ("lab.run_trial.calls", "count"),
        ("lab.run_trial.s", "s"),
        ("lab.run_trial.self_s", "s"),
        ("lab.template_check.calls", "count"),
        ("lab.template_check.s", "s"),
    ]
    + [(f"lab.verdict.{v.replace('-', '_')}", "count") for v in VERDICTS]
    + [
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
)


class Tracer:
    """In-memory span recorder.  Spans are (name, start, end, parent index)."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()  # "<layer>.<quantity>" -> total
        self.active = False
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, layer, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx] = (layer, start, clock(), parent)
                stack.pop()
            if hook is not None:
                for key, val in hook(args, kwargs, out).items():
                    counts[f"{layer}.{key}"] += val
            return out

        return traced

    def install(self, package: str = "treebed") -> None:
        """Replace every binding of each target function in the package's modules."""
        modules = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        for layer, modname, fname, hook in TARGETS:
            original = getattr(sys.modules[f"{package}.{modname}"], fname)
            wrapper = self._wrap(layer, original, hook)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def layer_times(self) -> dict:
        """Per layer: calls, total seconds and self seconds.

        A span nested inside an open span of the same layer adds to `calls`
        but not to `s`, so recursion is not counted twice.  Self time is a
        span's duration minus the durations of its direct children.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        agg: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, parent) in enumerate(self.spans):
            row = agg[name]
            row["calls"] += 1
            row["self_s"] += end - start - child[idx]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                row["s"] += end - start
        return agg

    def layer_metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        agg = self.layer_times()
        out = {}
        for name, unit in LAYER_METRICS:
            layer, _, quantity = name.rpartition(".")
            if layer == "trace":
                continue
            row = agg[layer]  # all zeros for a layer the workload never called
            if quantity in row:
                val = row[quantity]
            elif quantity.endswith("_per_s"):
                work = self.counts[f"{layer}.{quantity[:-len('_per_s')]}"]
                val = work / row["s"] if row["s"] > 0 else 0.0
            elif quantity == "hit_rate":
                val = self.counts[f"{layer}.found"] / row["calls"] if row["calls"] else 0.0
            elif layer == "lab.verdict":
                val = self.counts[f"lab.run_trial.verdict.{quantity.replace('_', '-')}"]
            else:
                val = self.counts[name]
            out[name] = val
        out["trace.wall_s"] = traced_wall
        out["trace.untraced_wall_s"] = untraced_wall
        out["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start,end,parent\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{idx},{name},{start:.9f},{end:.9f},{parent}\n")
