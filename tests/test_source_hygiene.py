"""Source hygiene, read with ``ast`` only: no import a module leaves unused,
and no top-level function or class, nor any method of one, that nothing names."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "smallhom"
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _docstrings(tree: ast.Module) -> set[int]:
    """``id`` of every docstring constant in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.add(id(first.value))
    return out


def _uses(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, name)`` of every name the code reads, and of the identifiers
    inside string constants that are not docstrings (quoted annotations,
    ``__all__``, span targets)."""
    docs = _docstrings(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.lineno, node.id))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            out += [(node.lineno, word) for word in IDENT.findall(node.value)]
    return out


def _references(tree: ast.Module) -> list[tuple[int, str]]:
    """:func:`_uses` plus attribute names and imported names."""
    out = _uses(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.append((node.lineno, node.attr))
        elif isinstance(node, ast.alias):
            out += [(node.lineno, part) for part in node.name.split(".")]
    return out


def _bound_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, name)`` of every name an import binds, ``from __future__`` aside."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(node.lineno, a.asname or a.name) for a in node.names]
    return out


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = _parse(path)
        used = {name for _, name in _uses(tree)}
        unused += [f"{path.name}:{line} {name}" for line, name in _bound_imports(tree) if name not in used]
    assert unused == []


def _top_level_definitions() -> list[tuple[Path, ast.stmt]]:
    return [(path, node) for path in sorted(SRC.glob("*.py")) for node in _parse(path).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _methods() -> list[tuple[Path, ast.stmt]]:
    """Every method and property of a top-level class, dunders aside."""
    return [(path, node) for path, cls in _top_level_definitions() if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _unnamed(definitions: list[tuple[Path, ast.stmt]]) -> list[str]:
    """The definitions whose name appears nowhere in ``src``, ``tests``,
    ``perfbench`` or ``pyproject.toml`` outside their own body."""
    files = sorted(ROOT.glob("src/smallhom/*.py")) + sorted(ROOT.glob("tests/*.py")) \
        + sorted(ROOT.glob("perfbench/*.py"))
    refs = {path: _references(_parse(path)) for path in files}
    toml = set(IDENT.findall((ROOT / "pyproject.toml").read_text()))
    unnamed = []
    for path, node in definitions:
        own = range(node.lineno, node.end_lineno + 1)
        named = node.name in toml or any(
            name == node.name and not (where == path and line in own)
            for where, lines in refs.items() for line, name in lines)
        if not named:
            unnamed.append(f"{path.name}:{node.lineno} {node.name}")
    return unnamed


def test_every_top_level_definition_is_named_elsewhere():
    assert _unnamed(_top_level_definitions()) == []


def test_every_method_is_named_outside_its_body():
    methods = _methods()
    assert methods
    assert _unnamed(methods) == []
