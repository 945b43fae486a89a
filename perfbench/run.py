#!/usr/bin/env python3
"""treebed benchmark: two workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {oracle,structure} \
        --seed N --seconds S --trace {0,1}

Each run is one process with one caller in a closed loop: the next item
starts when the previous one returns.  No pool and no threads.  The package
is imported from `src/` with whichever kernel backend it selects.

A workload's inputs are numbered units built from the seed, each with the
same mix of items.  A run times units 0, 1, ... (cycling), at least
MIN_UNITS of them and more while the next one still ends within --seconds
of timed work.  items_per_s divides the items by the wall time of the timed
units; item_p50_ms and item_p99_ms are quantiles of the thread CPU times of
every item of the run; setup_s is the median over several rounds of a
fresh `import treebed` plus building the workload's inputs; peak_rss_mb is
the process's peak resident set.  `failed` / `attempted` in the result line
is the share of items that raised, failed an outside check, or ran out of
budget.

--trace 0 times the workload with tracing off and reports the end-to-end
metrics.  --trace 1 runs unit 0 twice untraced and once traced, and reports
the per-layer metrics of the traced unit plus the tracing overhead against
the second untraced one.  Every output is checked by the benchmark's own
code after the timing stops.  Exact work counts per unit must agree between
the times a run executes a unit, and they are stored under
perfbench/results/ keyed by workload, backend, source digest and seed.  A
later run with the same key must reproduce them; a mismatch marks the run
incorrect.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The full record, with the
environment stamp, goes to perfbench/results/BENCH_<workload>_seed<N>_trace<T>.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("kernel", "embed", "generators", "trees", "graph", "decompose", "lab", "checks", "corpus")
SETUP_REPS = 3  # set-up rounds per run: at least this many, and at least SETUP_SECONDS
SETUP_SECONDS = 1.5
MIN_UNITS = 2  # a run times at least this many units
END_TO_END = (
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
clock = time.perf_counter


def fresh_import() -> SimpleNamespace:
    """Import treebed and the modules the workloads use from scratch."""
    for name in [m for m in sys.modules if m == "treebed" or m.startswith("treebed.")]:
        del sys.modules[name]
    tb = SimpleNamespace(treebed=importlib.import_module("treebed"))
    for name in MODULES:
        setattr(tb, name, importlib.import_module(f"treebed.{name}"))
    return tb


def setup(workload: str, seed: int, tiny: bool, **kwargs):
    """Import plus input building, repeated at least SETUP_REPS times and for
    at least SETUP_SECONDS (once when tiny); returns the last round's modules
    and workload, and the median round time."""
    times: list = []
    while not times or (not tiny and (len(times) < SETUP_REPS or sum(times) < SETUP_SECONDS)):
        start = clock()
        tb = fresh_import()
        wl = WORKLOADS[workload](tb, seed, tiny=tiny, **kwargs)
        times.append(clock() - start)
    return tb, wl, statistics.median(times)


def merge_exact(store: dict, key: str, exact: dict) -> list[str]:
    """Merge one unit's exact counts into `store`; report fields that differ."""
    exact = json.loads(json.dumps(exact, sort_keys=True))
    old = store.setdefault(key, {})
    diffs = [f"unit {key}: {f} was {old[f]!r}, now {v!r}" for f, v in exact.items() if f in old and old[f] != v]
    old.update(exact)
    return diffs


def run_units(wl, exact: dict, seconds: float = 0.0, seq: list | None = None, tracer: Tracer | None = None):
    """Closed loop over units: the units in `seq`, or else units 0, 1, ...
    (cycling through the workload's units), at least MIN_UNITS of them and
    more while the next, costed as the last one, still ends within `seconds`
    of timed work."""
    walls: list = []
    item_times: list = []
    attempted = failed = 0
    problems: list = []
    while (len(walls) < len(seq)) if seq is not None else (len(walls) < MIN_UNITS or sum(walls) + walls[-1] <= seconds):
        u = seq[len(walls)] if seq is not None else len(walls) % wl.units
        before = dict(tracer.counts) if tracer else None
        if tracer:
            tracer.active = True
        start = clock()
        raw, times = wl.run_unit(u)
        walls.append(clock() - start)
        if tracer:
            tracer.active = False
        item_times.extend(times)
        checked = wl.check_unit(u, raw)
        if tracer:
            for name in ("kernel.solve_embed.nodes", "kernel.min_density_cut.subsets",
                         "decompose.refine_cut_dense.iterations"):
                checked.exact["trace:" + name] = tracer.counts[name] - before.get(name, 0)
            for name in tracer.counts:
                if name.startswith("lab.run_trial.verdict."):
                    checked.exact["trace:" + name] = tracer.counts[name] - before.get(name, 0)
        attempted += checked.items
        failed += checked.failed
        problems.extend(checked.problems)
        problems.extend(merge_exact(exact, checked.key, checked.exact))
    return SimpleNamespace(walls=walls, item_times=item_times,
                           attempted=attempted, failed=failed, problems=problems)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "treebed").rglob("*")):
        if path.suffix in (".py", ".pyx") and path.is_file():
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False, **kwargs) -> dict:
    """One benchmark run.  `tiny` shrinks the inputs for the self-test and
    skips the exact-count store; `kwargs` go to the workload's constructor."""
    tb, wl, setup_s = setup(workload, seed, tiny, **kwargs)
    # The inputs live for the whole run; keep them out of the cyclic
    # collector, whose full passes would otherwise walk them during items.
    gc.collect()
    gc.freeze()
    backend = tb.treebed.KERNEL_BACKEND
    digest = source_digest()
    env = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "kernel_backend": backend,
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_digest": digest,
    }
    exact: dict = {}
    main = run_units(wl, exact, seq=[0, 0] if trace else None, seconds=seconds)
    problems = list(main.problems)
    times_ms = sorted(t * 1e3 for t in main.item_times)
    metrics = {
        "items_per_s": main.attempted / sum(main.walls),
        "item_p50_ms": statistics.median(times_ms),
        "item_p99_ms": statistics.quantiles(times_ms, n=100, method="inclusive")[98],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {
        "env": env,
        "items": main.attempted,
        "failed": main.failed,
        "failed_frac": main.failed / main.attempted,
        "item_samples": len(times_ms),
        "units": len(main.walls),
        "unit_walls_s": main.walls,
        "timed_s": sum(main.walls),
        "end_to_end": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
    }
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_units(wl, exact, seq=[0], tracer=tracer)
        finally:
            tracer.uninstall()
        problems.extend(traced.problems)
        layers = tracer.layer_metrics(traced.walls[-1], main.walls[-1])
        record["per_layer"] = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS}
        record["spans"] = len(tracer.spans)
    if not tiny:
        RESULTS.mkdir(exist_ok=True)
        store_path = RESULTS / f"exact_{workload}_{backend}_{digest}_seed{seed}.json"
        stored = json.loads(store_path.read_text()) if store_path.is_file() else {}
        for key, fields in exact.items():
            problems.extend(merge_exact(stored, key, fields))
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(stored, sort_keys=True))
        os.replace(tmp, store_path)
        if trace:
            tracer.write_spans(RESULTS / f"spans_{workload}_seed{seed}.csv.gz")
    record["correct"] = not problems
    record["problems"] = problems[:50]
    record["exact"] = exact
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "treebed" / "__init__.py").is_file():
        print(f"error: no treebed package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    saved = {key: val for key, val in record.items() if key != "exact"}  # already in the exact store
    out_path.write_text(json.dumps(saved, indent=2, sort_keys=True) + "\n")

    env = record["env"]
    print(f"workload={env['workload']} seed={env['seed']} backend={env['kernel_backend']} "
          f"python={env['python']} nproc={env['nproc']} commit={env['git_commit']} source={env['source_digest']}")
    print(f"items={record['items']} samples={record['item_samples']} units={record['units']} "
          f"failed={record['failed']} failed_frac={record['failed_frac']:.6g} ratio correct={record['correct']}")
    for msg in record["problems"]:
        print(f"problem: {msg}")
    shown = record["per_layer"] if args.trace else record["end_to_end"]
    for name, m in shown.items():
        print(f"{name:<48} {m['value']:>16.6g} {m['unit']}")
    print(f"full record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["items"],
        "failed": record["failed"],
        "metrics": shown,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
