#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale (a few seconds).

    python3 perfbench/selftest.py

Checks that every workload emits every end-to-end and per-layer metric with
its unit, that the seed code passes every outside check, that exact counts
repeat across two runs with the same seed, and that a deliberately wrong
pinned verdict count drives `failed_frac` above 0.
"""

from __future__ import annotations

import contextlib
import io
import sys

import run
from tracing import LAYER_METRICS
from workloads import PROOF_PINS, TINY_PROOF_HOSTS, WORKLOADS


def tiny_run(workload: str, **kwargs) -> dict:
    return run.run(workload, seed=3, seconds=0.3, trace=True, tiny=True, **kwargs)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for name in sorted(WORKLOADS):
        first = tiny_run(name)
        second = tiny_run(name)
        e2e = {m: u for m, u in run.END_TO_END}
        layers = dict(LAYER_METRICS)
        expect(
            {m: v["unit"] for m, v in first["end_to_end"].items()} == e2e,
            f"{name}: every end-to-end metric present with its unit",
        )
        expect(
            {m: v["unit"] for m, v in first["per_layer"].items()} == layers,
            f"{name}: every per-layer metric present with its unit",
        )
        expect(first["correct"] and first["failed_frac"] == 0, f"{name}: outside checks pass ({first['problems'][:3]})")
        common = first["exact"].keys() & second["exact"].keys()
        expect(
            bool(common) and all(first["exact"][k] == second["exact"][k] for k in common),
            f"{name}: exact counts repeat for the same seed",
        )
        expect(first["env"]["kernel_backend"] in ("python", "c"), f"{name}: backend recorded")

    store = {"0": {"nodes": 5}}
    expect(bool(run.merge_exact(store, "0", {"nodes": 6})), "a changed exact count is reported")

    family = TINY_PROOF_HOSTS[0]
    found, not_found = PROOF_PINS[family]
    wrong = dict(PROOF_PINS, **{family: (found + 1, not_found - 1)})
    bad = tiny_run("oracle", pins=wrong)
    expect(bad["failed_frac"] > 0 and not bad["correct"], "oracle: a wrong pinned proofs count raises failed_frac above 0")

    src, run.SRC = run.SRC, run.HERE / "no-such-source"
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", "structure", "--seed", "1", "--seconds", "1", "--trace", "0"])
    run.SRC = src
    expect(code != 0 and not out.getvalue(), "without src/treebed: nonzero exit and no result")

    print("selftest " + ("failed: " + "; ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
