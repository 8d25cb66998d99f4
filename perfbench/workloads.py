"""The benchmark's workloads and the correctness gate for their operations.

An operation is one ``smallhom`` command line, run through the public entry
point ``smallhom.cli.main``.  Every operation has an entry in
``golden.json`` recorded from the seed commit; ``check`` compares what an
operation produced against that entry.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# Certificate subtrees the gate compares.  The config echo and the notes are
# left out, so a called-out format change there does not read as a wrong
# answer.
COMPARED = ("results", "verdicts", "summary")
BUDGET_PREFIX = "budget error"


@dataclass(frozen=True)
class Op:
    id: str
    argv: tuple[str, ...]
    kind: str  # "certificate", "budget" or "selftest"


def _chain(char: int, exponents: str, coproduct: str, power: int = 1, mode: str = "chain") -> tuple[str, ...]:
    return ("certify", "--mode", mode, "--char", str(char), "--exponents", exponents,
            "--coproduct", coproduct, "--power", str(power))


def _cert(op_id: str, argv: tuple[str, ...]) -> Op:
    return Op(op_id, argv, "certificate")


# The 23 certificate operations of certify-batch; selftest is the 24th.
BATCH_CERTIFICATES = (
    _cert("config-bimodule-rank1", ("certify", "--config", "configs/bimodule-rank1.ini")),
    _cert("config-chain-rank2", ("certify", "--config", "configs/chain-rank2.ini")),
    _cert("config-symbolic-rank8", ("certify", "--config", "configs/symbolic-rank8.ini")),
    _cert("crosscheck-f3-33-primitive", _chain(3, "3 3", "primitive", mode="crosscheck")),
    _cert("chain-f3-33-shifted", _chain(3, "3 3", "shifted")),
    _cert("chain-f2-22-primitive-p2", _chain(2, "2 2", "primitive", 2)),
    _cert("chain-f2-22-shifted-p2", _chain(2, "2 2", "shifted", 2)),
    *(_cert(f"chain-f3-3-p{k}", _chain(3, "3", "primitive", k)) for k in (1, 2, 3)),
    *(_cert(f"chain-f5-5-p{k}", _chain(5, "5", "primitive", k)) for k in (1, 2)),
    _cert("chain-f7-7-p1", _chain(7, "7", "primitive", 1)),
    _cert("bimodule-f5-5", ("certify", "--mode", "chain", "--variant", "bimodule",
                            "--char", "5", "--exponents", "5")),
    *(_cert(f"symbolic-r{r}-c{c}", ("certify", "--mode", "symbolic", "--rank", str(r), "--char", str(c)))
      for r in (8, 12, 16) for c in (2, 3, 5)),
)

# The command of tests/test_cli.py::test_budget_exit_code.
BUDGET_EXIT = Op("budget-f3-333-primitive",
                 ("certify", "--mode", "chain", "--char", "3", "--exponents", "3 3 3",
                  "--coproduct", "primitive"), "budget")

def selftest_op(seed: int) -> Op:
    return Op("selftest", ("selftest", "--seed", str(seed)), "selftest")


def batch_ops(seed: int) -> list[Op]:
    """certify-batch: the seed shuffles the order and seeds the selftest."""
    ops = list(BATCH_CERTIFICATES) + [selftest_op(seed)]
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = {
    "certify-batch": batch_ops,
    "budget-exit": lambda seed: [BUDGET_EXIT],
}
# The reference kernel (worker.KERNELS) whose speed tracks each workload's
# work: certify-batch is per-call overhead, budget-exit is 729-dim int64
# products.
KERNEL_OF = {"certify-batch": "interpreter", "budget-exit": "product"}


def all_ops() -> list[Op]:
    """Every distinct operation, with the selftest at seed 0."""
    return list(BATCH_CERTIFICATES) + [selftest_op(0), BUDGET_EXIT]


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["ops"]


def observe(parse_tree, op: Op, code: int, out: str, err: str) -> dict:
    """The part of an operation's outcome that the gate compares."""
    seen: dict = {"exit": code}
    if op.kind == "budget":
        seen["stderr_prefix"] = BUDGET_PREFIX if err.startswith(BUDGET_PREFIX) else err[:40]
        return seen
    cert = parse_tree(out).get("certificate", {})
    if op.kind == "certificate":
        for key in COMPARED:
            seen[key] = cert.get(key)
    else:
        seen["summary"] = cert.get("summary")
        seen["statuses"] = {f"{group}.{name}": entry.get("status")
                            for group in ("criteria", "controls")
                            for name, entry in cert.get(group, {}).items()}
    return seen


def golden_entry(seen: dict) -> dict:
    """What ``record_golden`` stores for an observed outcome."""
    if "statuses" in seen:
        return {"exit": seen["exit"], "summary": seen["summary"], "checks": sorted(seen["statuses"])}
    return dict(seen)


def check(parse_tree, op: Op, code: int, out: str, err: str, golden: dict) -> list[str]:
    """Reasons the operation failed; empty when it matches its golden entry."""
    want = golden.get(op.id)
    if want is None:
        return [f"{op.id}: no golden entry"]
    problems = []
    if code != want["exit"]:
        problems.append(f"{op.id}: exit {code}, expected {want['exit']}")
    try:
        seen = observe(parse_tree, op, code, out, err)
    except ValueError as exc:
        return problems + [f"{op.id}: unreadable certificate ({exc})"]
    if op.kind == "budget":
        if seen["stderr_prefix"] != want["stderr_prefix"]:
            problems.append(f"{op.id}: stderr does not start with {want['stderr_prefix']!r}")
    elif op.kind == "certificate":
        problems += [f"{op.id}: {key} differs from golden" for key in COMPARED if seen[key] != want[key]]
    else:
        if seen["summary"] != want["summary"]:
            problems.append(f"{op.id}: summary {seen['summary']!r}, expected {want['summary']!r}")
        if sorted(seen["statuses"]) != want["checks"]:
            problems.append(f"{op.id}: criteria and controls differ from golden")
        problems += [f"{op.id}: {name} is {status}" for name, status in seen["statuses"].items()
                     if status != "pass"]
    return problems
