"""The traced run's span targets name functions the program defines."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
