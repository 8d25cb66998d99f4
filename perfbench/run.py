"""Benchmark of the smallhom certifier.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify-batch --seed 1 --seconds 40 --trace 0

Workloads are defined in ``workloads.py``; BENCHMARK.json lists them and the
metrics.  Each run:

* measures ``setup_s``: the median time from starting a fresh interpreter to
  ``import smallhom.cli`` done, over several interpreters;
* starts one fresh worker process (``worker.py``) that runs the workload's
  operations through ``smallhom.cli.main`` for ``--seconds`` and checks every
  certificate against ``golden.json``.

With ``--trace 0`` it prints ``wall_s`` (median wall time of one pass over the
workload's operations), ``wall_ref_s`` (the same, with each operation rescaled
to a reference host speed), ``setup_s``, ``peak_rss_mb`` (the worker's
``ru_maxrss``) and ``fail_ratio`` (failed / attempted operations).  With
``--trace 1`` it makes one untraced pass, then one pass under the span
recorder of ``spans.py``, and prints the per-layer metrics and the tracing
overhead; the spans are written to ``perfbench/traces/``.  The last line of
standard output is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
from spans import METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 600
# Prints the monotonic clock once smallhom.cli is imported; CLOCK_MONOTONIC
# is shared by all processes, so the parent can subtract its own start time.
SETUP_PROBE = ("import time, smallhom.cli, numpy, sys; "
               "print(time.monotonic(), smallhom.cli.__file__, numpy.__version__, sep='\\n')")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def probe_setup(env) -> tuple[float, str]:
    """One fresh interpreter; returns its set-up time and numpy version."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"cannot import smallhom.cli from {SRC}:\n{proc.stderr}")
    ready, module_file, numpy_version = proc.stdout.split("\n")[:3]
    if os.path.commonpath([os.path.abspath(module_file), SRC]) != SRC:
        raise BenchError(f"smallhom.cli was imported from {module_file}, not from {SRC}")
    return float(ready) - start, numpy_version


def measure_setup(env, count: int) -> tuple[float, str]:
    """Median over ``count`` fresh interpreters, after one that fills the bytecode cache."""
    _, numpy_version = probe_setup(env)
    return statistics.median(probe_setup(env)[0] for _ in range(count)), numpy_version


def run_worker(env, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "smallhom")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def provenance(numpy_version: str) -> dict:
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k in THREAD_VARS or k.endswith("_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "smallhom", "cli.py")):
        print(f"perfbench: no program to measure: {SRC}/smallhom/cli.py is missing", file=sys.stderr)
        return 2
    env = child_env()
    try:
        # the traced run reports no setup_s, so one sample checks the import
        setup_s, numpy_version = measure_setup(env, 1 if args.trace else SETUP_SAMPLES)
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
        print("provenance " + json.dumps(provenance(numpy_version), sort_keys=True))
        if args.trace:
            plain = run_worker(env, args.workload, args.seed, 0, 0)
            traced = run_worker(env, args.workload, args.seed, 0, 1)
            runs = [plain, traced]
        else:
            runs = [run_worker(env, args.workload, args.seed, args.seconds, 0)]
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for run in runs:
        for problem in run["problems"]:
            print(f"FAILED {problem}", file=sys.stderr)
    fail_ratio = failed / attempted
    print(f"fail_ratio {fail_ratio:.6g} ratio ({failed} of {attempted} operations failed)")

    if args.trace:
        plain, traced = runs
        if traced["unreached"]:
            print("perfbench: traced run missed wrapped functions: " + ", ".join(traced["unreached"]),
                  file=sys.stderr)
            return 3
        values = dict(traced["layers"])
        values["trace.wall_s"] = traced["walls"][0]
        values["trace.overhead_ratio"] = traced["walls"][0] / plain["walls"][0] - 1
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}
        print(f"tracing overhead {values['trace.overhead_ratio']:.4f} ratio "
              f"(traced pass {traced['walls'][0]:.4f} s, untraced pass {plain['walls'][0]:.4f} s)")
    else:
        (run,) = runs
        walls = run["walls"]
        metrics = {
            "wall_ref_s": {"value": statistics.median(run["rescaled"]), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
        print(f"passes {len(walls)}: " + " ".join(f"{w:.4f}" for w in walls) + " s")
        print(f"wall_s {statistics.median(walls):.6g} s (median pass, not rescaled)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
