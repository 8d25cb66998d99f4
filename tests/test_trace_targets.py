"""The traced run's span targets name functions the program defines, and
each workload's operations reach the targets homed on it."""

import ast
import contextlib
import importlib
import importlib.util
import io
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _targets() -> list[tuple]:
    """``TARGETS`` of ``perfbench/spans.py``, read as a literal without importing it."""
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no TARGETS")


def _resolve(module: str, attr: str):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return obj


def test_every_span_target_resolves_to_a_callable():
    # a renamed target would pass the suite but stop a traced run with MissingTargets
    targets = _targets()
    missing = [f"{module}.{attr}" for _, module, attr, _ in targets if not callable(_resolve(module, attr))]
    assert targets and missing == []


def _workloads(monkeypatch):
    """``perfbench/workloads.py``, loaded from its path (it imports no ``smallhom``)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


def _count_calls(monkeypatch, targets) -> Counter:
    """Wrap each target with a call counter: a method on its class, a
    function in every ``smallhom`` module that binds it, as the traced run
    does.  A morphism counts only when it is checked, as in the traced run."""
    counts = Counter()
    for name, module_name, attr, _ in targets:
        module = importlib.import_module(module_name)
        owner, _, leaf = attr.rpartition(".")
        holder = getattr(module, owner) if owner else module
        fn = vars(holder)[leaf]

        def counted(*args, fn=fn, key=(name, attr), **kwargs):
            checked = args[4] if len(args) > 4 else kwargs.get("check", True)
            if key[0] != "algebra.morphism_check" or checked:
                counts[key] += 1
            return fn(*args, **kwargs)

        holders = [holder] if owner else [m for n, m in list(sys.modules.items())
                                          if n.split(".")[0] == "smallhom" and vars(m).get(leaf) is fn]
        for h in holders:
            monkeypatch.setattr(h, leaf, counted)
    return counts


def test_every_span_target_is_reached_on_its_home_workload(monkeypatch):
    # a deletion that leaves a target unreached would pass the resolve check
    # above but stop the traced benchmark run
    from smallhom import cli

    workloads, targets = _workloads(monkeypatch), _targets()
    golden = workloads.load_golden()
    monkeypatch.chdir(ROOT)  # operations name configs/*.ini relative to the root
    counts = _count_calls(monkeypatch, targets)
    for workload, ops in workloads.WORKLOADS.items():
        counts.clear()
        for op in ops(1):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(op.argv))
            assert code == golden[op.id]["exit"], op.id
        unreached = [f"{name} ({attr})" for name, _, attr, home in targets
                     if home == workload and not counts[name, attr]]
        assert unreached == [], workload


def test_budget_exit_builds_one_class_and_one_pushout_and_reaches_its_targets(monkeypatch):
    # the parameter search builds a class when a tuple reads it, and solves
    # one right inverse per syzygy degree for all of them; the first tuple of
    # F_3 [3, 3, 3] is sized from its first pushout and trips the budget, so
    # 1 of the 6 degree-2 classes and 1 pushout are built, and the traced run
    # must still reach the targets homed here
    from smallhom import cli, construction
    from smallhom.linalg import FpMatrix

    workloads = _workloads(monkeypatch)
    (op,) = workloads.WORKLOADS["budget-exit"](1)
    targets = [t for t in _targets() if t[3] == "budget-exit"]
    assert {attr for _, _, attr, _ in targets} == {
        "find_parameter_system", "verify_parameter_system", "Module.verify_relations", "Budget.check"}
    counts = _count_calls(monkeypatch, targets)
    built, solved, pushouts = [], [], []
    real_class, real_solve = construction.class_from_images, FpMatrix.solve
    real_pushout = construction.pushout_module
    monkeypatch.setattr(construction, "class_from_images",
                        lambda res, n, images: built.append(n) or real_class(res, n, images))
    monkeypatch.setattr(construction, "pushout_module", lambda z: pushouts.append(z) or real_pushout(z))
    monkeypatch.setattr(FpMatrix, "solve", lambda self, b: solved.append(self.shape) or real_solve(self, b))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(op.argv))
    assert code == workloads.load_golden()[op.id]["exit"] == 65
    assert built == [2]
    assert len(pushouts) == 1
    assert len(solved) <= len(set(built))
    assert [f"{name} ({attr})" for name, _, attr, _ in targets if not counts[name, attr]] == []
