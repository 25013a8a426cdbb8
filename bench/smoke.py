#!/usr/bin/env python3
"""Smoke test of the benchmark itself; run from the root of a checkout:

    python3 bench/smoke.py

It checks that
1. each workload, cut to one operation of every kind in its first pass,
   passes its output checks untraced and traced;
2. the traced operations give every per-layer metric, finite, and the layer
   the workload is meant to stress shows work;
3. a deliberately wrong expected value fails the check, and the failed
   operation is counted once (not retried) and stays in the denominator;
4. outside a checkout the benchmark exits nonzero without printing a result.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SMOKE_DIR = Path(".bench_out") / "smoke"

# per workload, a per-layer metric that must be positive
STRESSED = {
    "oracle": "quadrature.ell_integral.s",
    "crosscheck": "quadrature.complex_quad.s",
    "design": "rates.pairs_closed_form.calls",
}


def one_per_kind(ops):
    seen = {}
    for op in ops:
        seen.setdefault(op.kind, op)
    return list(seen.values())


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import layers
    import run
    import workloads
    from tracer import Tracer

    shutil.rmtree(SMOKE_DIR, ignore_errors=True)
    problems = []

    def expect(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            problems.append(message)

    for name, build in workloads.WORKLOADS.items():
        root = SMOKE_DIR / name
        root.mkdir(parents=True)
        ops = one_per_kind(build(workloads.Inputs(root, seed=0), 0))
        plain = run.RunRecord()
        run.run_ops(ops, plain)
        expect(plain.failed == 0 and plain.attempted == len(ops),
               f"{name}: {len(ops)} ops pass untraced {plain.failures}")

        tracer = Tracer()
        tracer.install()
        try:
            traced = run.RunRecord()
            run.run_ops(ops, traced, tracer)
        finally:
            tracer.uninstall()
        expect(traced.failed == 0, f"{name}: ops pass traced {traced.failures}")
        metrics = layers.layer_metrics(tracer, 1, traced.stats, {"spdc": 1.0},
                                       sum(plain.latencies()), sum(traced.latencies()))
        expect(set(metrics) == set(layers.UNITS)
               and all(math.isfinite(v) for v in metrics.values()),
               f"{name}: every per-layer metric present and finite")
        expect(metrics[STRESSED[name]] > 0.0,
               f"{name}: {STRESSED[name]} = {metrics[STRESSED[name]]:.4g} > 0")

    # a wrong reference value must be caught and counted once
    original = workloads.expected_closed_form

    def off_by_1e_9(path):
        ref = original(path)
        return dataclasses.replace(
            ref, pairs_per_s_per_mW=ref.pairs_per_s_per_mW * (1.0 + 1e-9))

    root = SMOKE_DIR / "wrong"
    root.mkdir(parents=True)
    ops = workloads.design_pass(workloads.Inputs(root, seed=0), 0)
    rate_ops = sum(op.kind.startswith("rate.") for op in ops)
    workloads.expected_closed_form = off_by_1e_9
    try:
        record = run.RunRecord()
        run.run_ops(ops, record)
    finally:
        workloads.expected_closed_form = original
    expect(record.attempted == len(ops) and record.failed == rate_ops > 0,
           f"wrong expected value: {record.failed} of {record.attempted} failed "
           f"(expected the {rate_ops} rate ops)")

    # no checkout here: nonzero exit and no result line
    empty = SMOKE_DIR / "empty"
    empty.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "design",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=empty, capture_output=True, text=True, timeout=120)
    expect(proc.returncode != 0 and proc.stdout == "",
           f"outside a checkout: exit {proc.returncode}, stdout {proc.stdout!r}")

    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
