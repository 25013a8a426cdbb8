#!/usr/bin/env python3
"""Benchmark of the spdc package: oracle, crosscheck and design workloads.

Run from the root of a source checkout (the package is imported from
``src/``, nothing is installed):

    python3 bench/run.py --workload oracle --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs each pass untraced and then again traced, and reports
the per-layer metrics of the traced passes plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Generated inputs,
the full result with its environment record, and the traced spans go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

WORKLOAD_NAMES = ("oracle", "crosscheck", "design")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
SUBPROCESS_TIMEOUT_S = 120
OUT_DIR = ".bench_out"
THREAD_VARIABLES = ("SPDC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")

# unit of every reported metric; the end-to-end ones come first
UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ops_per_s": "1/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per run; at least one pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ------------------------------------------------------------- environment
def _git_commit(root: Path) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "commit": _git_commit(root),
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


# ------------------------------------------------------------ subprocesses
def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def setup_seconds(src: Path, config_path: str) -> list:
    """Wall time of fresh interpreters that import spdc and load one config."""
    snippet = "import sys, spdc; spdc.load_config(sys.argv[1])"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", snippet, config_path],
                       env=_child_env(src), check=True,
                       timeout=SUBPROCESS_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def import_breakdown(src: Path) -> dict:
    """Cumulative ``-X importtime`` seconds per module, median of repeats."""
    samples = defaultdict(list)
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import spdc"],
                              env=_child_env(src), check=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S, capture_output=True)
        seen = set()
        for line in proc.stderr.splitlines():
            parts = line.partition("import time:")[2].split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            module = parts[2].strip()
            if module not in seen:
                seen.add(module)
                samples[module].append(int(parts[1]) * 1e-6)
    return {m: statistics.median(v) for m, v in samples.items()}


# ------------------------------------------------------------------ running
class RunRecord:
    """Latencies, failures and accuracy figures of a sequence of passes."""

    def __init__(self):
        self.passes: list = []  # per pass: list of (kind, seconds)
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.stats = defaultdict(list)

    def latencies(self) -> list:
        return [dt for ops in self.passes for _, dt in ops]


def run_ops(ops, record: RunRecord, tracer=None) -> list:
    """Run and check each operation once; failures are counted, not retried."""
    from workloads import CheckFailed

    timings = []
    for op in ops:
        record.attempted += 1
        error = None
        if tracer is not None:
            tracer.begin_op(op.kind, op.config_kind)
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # the program failed; keep measuring
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        timings.append((op.kind, dt))
        if error is None:
            try:
                for key, value in op.check(result).items():
                    record.stats[key].append(value)
            except CheckFailed as exc:
                error = str(exc)
        if error is not None:
            record.failed += 1
            record.failures.append(f"{op.kind} {op.path}: {error}")
    record.passes.append(timings)
    return timings


def run_passes(build, inputs, seconds: float, tracer=None) -> tuple:
    """Run pairs of passes until the next pair would end after ``seconds``
    (at least one pair). Whole pairs keep every antithetic (+u, -u) jitter
    pair complete.

    Returns (untraced record, traced record or None). With a tracer, each
    pass runs untraced and then again traced, so that both runs of a pass
    see the same machine load and their difference is the tracing overhead.
    """
    plain = RunRecord()
    traced = RunRecord() if tracer is not None else None
    t_start = time.perf_counter()
    k = 0
    while True:
        if k > 0 and k % 2 == 0:
            elapsed = time.perf_counter() - t_start
            if elapsed + 2.0 * elapsed / k > seconds:
                break
        ops = build(inputs, k)
        run_ops(ops, plain)
        if tracer is not None:
            tracer.install()
            try:
                run_ops(ops, traced, tracer)
            finally:
                tracer.uninstall()
        k += 1
    return plain, traced


def end_to_end_metrics(record: RunRecord, setup_times: list) -> dict:
    lat = record.latencies()
    lat_ms = sorted(dt * 1e3 for dt in lat)
    p90 = (statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
           if len(lat_ms) > 1 else lat_ms[0])
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(sum(dt for _, dt in ops) for ops in record.passes),
        "op_ms.p50": statistics.median(lat_ms),
        "op_ms.p90": p90,
        "ops_per_s": len(lat) / sum(lat),
    }


def accuracy_summary(record: RunRecord) -> dict:
    return {f"max_{key}": max(values) for key, values in record.stats.items()}


def per_kind_ms(record: RunRecord) -> dict:
    by_kind = defaultdict(list)
    for ops in record.passes:
        for kind, dt in ops:
            by_kind[kind].append(dt * 1e3)
    return {k: {"n": len(v), "median_ms": statistics.median(v)}
            for k, v in sorted(by_kind.items())}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: Path, env_record: dict) -> dict:
    import workloads

    out_dir = root / OUT_DIR
    input_dir = out_dir / "inputs" / f"{name}-{seed}"
    shutil.rmtree(input_dir, ignore_errors=True)
    input_dir.mkdir(parents=True)
    inputs = workloads.Inputs(input_dir, seed)
    build = workloads.WORKLOADS[name]
    src = root / "src"

    result = {"workload": name, "environment": env_record}
    if not trace:
        record, _ = run_passes(build, inputs, seconds)
        # after the passes, so every run times set-up on an equally busy CPU
        first_config = next(op.path for op in build(inputs, 0) if op.config_kind)
        setup_times = setup_seconds(src, first_config)
        metrics = end_to_end_metrics(record, setup_times)
        result["setup_samples_s"] = setup_times
    else:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        plain, record = run_passes(build, inputs, seconds, tracer)
        imports = import_breakdown(src)
        metrics = layers.layer_metrics(tracer, len(record.passes), record.stats,
                                       imports, sum(plain.latencies()),
                                       sum(record.latencies()))
        tracer.save(out_dir / f"{name}-seed{seed}-spans.npz")
        result["import_breakdown_s"] = dict(
            sorted(imports.items(), key=lambda kv: -kv[1])[:40])
        record.attempted += plain.attempted
        record.failed += plain.failed
        record.failures = plain.failures + record.failures

    result.update({
        "passes": len(record.passes),
        "ops": len(record.latencies()),
        "attempted": record.attempted,
        "failed": record.failed,
        "failed_frac": record.failed / record.attempted,
        "failures": record.failures[:20],
        "accuracy": accuracy_summary(record),
        "per_kind": per_kind_ms(record),
        "metrics": metrics,
    })
    (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8")
    return result


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    import layers

    return layers.UNITS[metric]


def report(result: dict):
    name = result["workload"]
    print(f"[{name}] passes={result['passes']} ops={result['ops']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={result['failed_frac']:.4g}")
    for kind, row in result["per_kind"].items():
        print(f"[{name}]   {kind:<16} n={row['n']:<5} median {row['median_ms']:.4g} ms")
    for key, value in result["accuracy"].items():
        print(f"[{name}]   {key} = {value:.4g}")
    for failure in result["failures"]:
        print(f"[{name}]   FAILED {failure}")
    for metric, value in result["metrics"].items():
        print(f"[{name}] {metric} = {value:.6g} {unit_of(metric)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "spdc" / "__init__.py").is_file():
        print("bench: run from the root of an spdc checkout (no src/spdc here)",
              file=sys.stderr)
        return 2
    # One program thread: SPDC_THREADS unset (one brute-force worker) and
    # single-threaded BLAS, which on 2 cores is as fast as two threads for
    # these matrix-vector products and far less sensitive to other load.
    os.environ.pop("SPDC_THREADS", None)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, str(src))
    bench_dir = str(Path(__file__).resolve().parent)
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)

    env_record = environment(root, args.seed)
    print("environment: " + json.dumps(env_record, sort_keys=True))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace),
                            root, env_record) for n in names]
    for result in results:
        report(result)

    def key(result, metric):
        return metric if len(results) == 1 else f"{result['workload']}.{metric}"

    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            key(r, m): {"value": v, "unit": unit_of(m)}
            for r in results for m, v in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
