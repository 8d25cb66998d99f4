"""Record golden.json: the expected outcome of every benchmark operation.

Run from the root of a checkout of the commit whose answers are the
reference (it takes about a minute and a half):

    PYTHONPATH=src python3 perfbench/record_golden.py

For each certificate it stores the exit code and the ``results``,
``verdicts`` and ``summary`` subtrees; for the budget-exit command the exit
code and the ``budget error`` prefix; for ``selftest`` the exit code, the
summary and the names of its criteria and controls (whose notes depend on
the seed, so they are not compared).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import smallhom.cli as cli

from workloads import GOLDEN_PATH, all_ops, golden_entry, observe
from worker import run_op


def main() -> int:
    ops = {}
    for op in all_ops():
        code, out, err = run_op(cli.main, op)
        ops[op.id] = golden_entry(observe(cli.parse_tree, op, code, out, err))
        print(f"{op.id}: exit {code}", file=sys.stderr)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({"recorded_from": commit or None, "ops": ops}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(ops)} entries to {os.path.relpath(GOLDEN_PATH)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
