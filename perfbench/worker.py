"""One benchmark run of one workload, in a fresh process.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  A single caller issues
the workload's operations one after another through ``smallhom.cli.main``
(closed loop, one client), repeating the whole list ("a pass") until
``--seconds`` have elapsed, and checks every outcome against
``golden.json``.  With ``--trace 1`` it makes exactly one pass under the
span recorder, so the per-layer counts repeat exactly for a given seed, and
writes the spans to ``perfbench/traces/``.
The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from workloads import KERNEL_OF, WORKLOADS, check, load_golden

MAX_PROBLEMS = 20
TRACE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traces")

# On a shared host the speed of the same code drifts by tens of percent over
# minutes, so each operation's time is also reported rescaled by the time of a
# reference kernel run around it.  A kernel tracks the drift only for work of
# its own kind, so each workload names its kernel in workloads.KERNEL_OF.
SMALL = np.arange(200 * 200, dtype=np.int64).reshape(200, 200) % 3
LARGE = np.arange(400 * 400, dtype=np.int64).reshape(400, 400) % 3


def interpreter_kernel() -> None:
    """Python arithmetic and a small int64 product: per-call overhead work."""
    total = 0
    for i in range(60_000):
        total += i * i % 7
    (SMALL @ SMALL) % 3


def product_kernel() -> None:
    """One int64 product too large for the per-core caches."""
    (LARGE @ LARGE) % 3


# kernel, and its time at the reference speed: a rescaled time is the time the
# operation would take at that speed
KERNELS = {"interpreter": (interpreter_kernel, 0.008), "product": (product_kernel, 0.08)}


def kernel_seconds(kernel) -> float:
    """Median time of three runs of ``kernel``."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_op(main, op) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(op.argv))
    return code, out.getvalue(), err.getvalue()


def one_pass(cli, ops, kernel: str, golden, recorder, problems: list[str]) -> tuple[float, float, int]:
    """Run ``ops`` once.

    Returns the summed wall time of the operations, the same sum with each
    operation rescaled to the reference speed (by the mean of the kernel times
    measured just before and just after it), and the failure count.
    """
    run_kernel, reference_s = KERNELS[kernel]
    failed = 0
    wall = rescaled = 0.0
    kernel_before = kernel_seconds(run_kernel)
    for index, op in enumerate(ops):
        if recorder is not None:
            recorder.op = index
        try:
            start = time.perf_counter()
            code, out, err = run_op(cli.main, op)
            elapsed = time.perf_counter() - start
            found = check(cli.parse_tree, op, code, out, err, golden)
        except Exception:  # a crash is a failed operation; keep measuring the rest
            elapsed = time.perf_counter() - start
            found = [f"{op.id}: raised\n{traceback.format_exc()}"]
        kernel_after = kernel_seconds(run_kernel)
        wall += elapsed
        rescaled += elapsed * 2 * reference_s / (kernel_before + kernel_after)
        kernel_before = kernel_after
        failed += bool(found)
        problems.extend(found[: max(0, MAX_PROBLEMS - len(problems))])
    return wall, rescaled, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import smallhom.cli as cli

    golden = load_golden()
    ops = WORKLOADS[args.workload](args.seed)
    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()

    problems: list[str] = []
    walls: list[float] = []
    rescaled: list[float] = []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        wall, wall_rescaled, bad = one_pass(cli, ops, KERNEL_OF[args.workload], golden, recorder, problems)
        walls.append(wall)
        rescaled.append(wall_rescaled)
        attempted += len(ops)
        failed += bad
        if recorder is not None or time.perf_counter() - started >= args.seconds:
            break

    result = {
        "walls": walls,
        "rescaled": rescaled,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if recorder is not None:
        from spans import layer_values

        recorder.uninstall()
        result["layers"] = layer_values(recorder.spans)
        result["unreached"] = recorder.unreached(args.workload)
        os.makedirs(TRACE_DIR, exist_ok=True)
        recorder.write(os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.jsonl.gz"),
                       {"workload": args.workload, "seed": args.seed, "ops": [op.id for op in ops]})
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
