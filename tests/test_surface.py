"""Every public name has a caller outside the tests.

A name in a module's ``__all__`` is surface every later change must keep
working, so it must be used somewhere that is not the tests: in the
package's own modules, in a README example, or in the benchmark.  A use
is a name or attribute reference in Python code (README's ``python``
blocks included) outside the name's own top-level definition; import
statements and ``__all__`` lists name a symbol without using it.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trajfuse"


def _sources() -> list[str]:
    """The Python source of every place a use counts."""
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return ([path.read_text(encoding="utf-8") for path in files]
            + re.findall(r"```python\n(.*?)```", readme, re.S))


def _defined(node: ast.stmt) -> set[str]:
    """The names a top-level statement binds by definition."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return {t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)}


def _used() -> set[str]:
    """Every name referenced outside its own definition."""
    used: set[str] = set()
    for source in _sources():
        for statement in ast.parse(source).body:
            own = _defined(statement)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in own:
                    used.add(name)
    return used


USED = _used()

MODULES = sorted("trajfuse" if path.stem == "__init__" else f"trajfuse.{path.stem}"
                 for path in PACKAGE.glob("*.py"))

PUBLIC = [(module, name) for module in MODULES
          for name in getattr(importlib.import_module(module), "__all__", ())
          if not name.startswith("__")]


def test_every_public_module_is_checked():
    assert {module for module, _ in PUBLIC} == {
        "trajfuse", "trajfuse.cli", "trajfuse.core", "trajfuse.fusion", "trajfuse.io",
        "trajfuse.metrics", "trajfuse.synth", "trajfuse.workers"}


@pytest.mark.parametrize("module, name", PUBLIC, ids=[f"{m}.{n}" for m, n in PUBLIC])
def test_public_name_has_a_caller(module, name):
    assert name in USED, (f"{module}.{name} is in __all__ but nothing outside the tests "
                          "uses it: drop it, or give it a caller")
