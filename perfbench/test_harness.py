"""Self-test of the benchmark harness: the correctness gate can fail, and the
span recorder measures what it claims to.

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import smallhom.chain  # noqa: E402
import smallhom.cli as cli  # noqa: E402
import smallhom.construction  # noqa: E402

import spans  # noqa: E402
from workloads import (  # noqa: E402
    BATCH_CERTIFICATES, BUDGET_EXIT, KERNEL_OF, WORKLOADS, batch_ops, check, load_golden, selftest_op,
)
from worker import run_op  # noqa: E402

SYMBOLIC = next(op for op in BATCH_CERTIFICATES if op.id == "symbolic-r8-c3")


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.fixture(scope="module")
def symbolic_outcome():
    return run_op(cli.main, SYMBOLIC)


def test_matching_certificate_passes(golden, symbolic_outcome):
    assert check(cli.parse_tree, SYMBOLIC, *symbolic_outcome, golden) == []


def test_corrupted_golden_entry_is_a_failure(golden, symbolic_outcome):
    bad = copy.deepcopy(golden)
    verdicts = bad[SYMBOLIC.id]["verdicts"]
    verdicts[next(iter(verdicts))] = "fail"
    assert check(cli.parse_tree, SYMBOLIC, *symbolic_outcome, bad) == [f"{SYMBOLIC.id}: verdicts differs from golden"]
    bad[SYMBOLIC.id]["results"]["total"] = "0"
    assert f"{SYMBOLIC.id}: results differs from golden" in check(cli.parse_tree, SYMBOLIC, *symbolic_outcome, bad)


def test_wrong_exit_code_is_a_failure(golden, symbolic_outcome):
    _, out, err = symbolic_outcome
    assert check(cli.parse_tree, SYMBOLIC, 2, out, err, golden) == [f"{SYMBOLIC.id}: exit 2, expected 0"]


def test_config_echo_is_not_compared(golden, symbolic_outcome):
    code, out, err = symbolic_outcome
    assert check(cli.parse_tree, SYMBOLIC, code, out.replace("\n    seed = 0", "\n    seed = 7"), err, golden) == []


def test_unreadable_certificate_is_a_failure(golden):
    found = check(cli.parse_tree, SYMBOLIC, 0, "certificate\n      bad indent = 1\n x = 2\n", "", golden)
    assert found and all(p.startswith(SYMBOLIC.id) for p in found)


def test_budget_exit_needs_the_budget_prefix(golden):
    assert check(cli.parse_tree, BUDGET_EXIT, 65, "", "budget error: too big\n", golden) == []
    assert check(cli.parse_tree, BUDGET_EXIT, 65, "", "usage error: bad\n", golden) != []
    assert check(cli.parse_tree, BUDGET_EXIT, 0, "", "budget error: too big\n", golden) != []


def _selftest_text(golden, status_of) -> str:
    tree = {"criteria": {}, "controls": {}}
    for name in golden["selftest"]["checks"]:
        group, _, key = name.partition(".")
        tree[group][key] = {"status": status_of(name)}
    tree["summary"] = golden["selftest"]["summary"]
    return cli.render_tree({"certificate": tree})


def test_selftest_criterion_not_pass_is_a_failure(golden):
    op = selftest_op(0)
    good = _selftest_text(golden, lambda name: "pass")
    assert check(cli.parse_tree, op, 0, good, "", golden) == []
    bad = _selftest_text(golden, lambda name: "fail" if name == "controls.control-sign-corruption" else "pass")
    assert check(cli.parse_tree, op, 0, bad, "", golden) == ["selftest: controls.control-sign-corruption is fail"]


def test_batch_seed_shuffles_order_and_seeds_selftest():
    assert [op.id for op in batch_ops(3)] == [op.id for op in batch_ops(3)]
    assert [op.id for op in batch_ops(3)] != [op.id for op in batch_ops(4)]
    assert len(batch_ops(3)) == 24
    assert selftest_op(3) in batch_ops(3)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS) == sorted(KERNEL_OF)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(spans.METRICS)


def test_recorder_wraps_every_binding_and_restores_it():
    original = smallhom.chain.homology_space
    assert smallhom.construction.homology_space is original
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert smallhom.chain.homology_space is not original
        assert smallhom.construction.homology_space is smallhom.chain.homology_space
        assert run_op(cli.main, SYMBOLIC)[0] == 0
    finally:
        recorder.uninstall()
    assert smallhom.chain.homology_space is original
    assert smallhom.construction.homology_space is original

    by_id = {span[0]: span for span in recorder.spans}
    (main,) = [s for s in recorder.spans if s[1] == "cli.main"]
    children = [s for s in recorder.spans if s[4] == main[0]]
    assert children and all(by_id[s[4]] is main for s in children)
    covered = sum(s[3] - s[2] for s in children)
    assert main[6] == pytest.approx((main[3] - main[2]) - covered, abs=1e-9)
    values = spans.layer_values(recorder.spans)
    assert values["cli.main.calls"] == 1
    assert values["lefschetz.verify_lefschetz_profile.incl_s"] > 0
    # run.py adds the two metrics that compare the traced pass with an untraced one
    assert {name for name, _, _ in spans.METRICS} - set(values) == {"trace.wall_s", "trace.overhead_ratio"}


def test_missing_target_is_reported(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("chain.renamed", "smallhom.chain", "no_such_function", "certify-batch"),))
    with pytest.raises(spans.MissingTargets, match="chain.renamed"):
        spans.Recorder().install()
    assert not hasattr(smallhom.chain.homology_space, "__wrapped__")


def test_pass_time_is_rescaled_by_the_kernel_around_each_operation(golden, monkeypatch):
    import worker

    reference_s = worker.KERNELS["interpreter"][1]
    monkeypatch.setattr(worker, "kernel_seconds", lambda kernel: 2 * reference_s)
    problems: list[str] = []
    wall, rescaled, failed = worker.one_pass(cli, [SYMBOLIC, SYMBOLIC], "interpreter", golden, None, problems)
    assert failed == 0 and problems == []
    assert rescaled == pytest.approx(wall / 2)
