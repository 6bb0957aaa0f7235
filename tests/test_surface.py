"""Every public name, and every public method and property, has a caller outside the tests.

A name in a module's ``__all__`` is surface every later change must keep
working, so it must be used somewhere that is not the tests: in the
package's own modules, in a README example, or in the benchmark.  A use
is a name or attribute reference in Python code (README's ``python``
blocks included) outside the name's own top-level definition; import
statements and ``__all__`` lists name a symbol without using it.  A
public class's own methods and properties (dunders aside) are surface
too: each must be read as an attribute in those same sources, outside
its class's own body.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trajfuse"


def _sources() -> list[tuple[Path, str]]:
    """The Python source of every place a use counts, with the file it is in."""
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    readme = ROOT / "README.md"
    return ([(path, path.read_text(encoding="utf-8")) for path in files]
            + [(readme, block) for block in
               re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)])


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
    for _, source in _sources():
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


def _read_attributes() -> dict[str, set[tuple[Path, str | None]]]:
    """Each attribute name that is read, with every (file, top-level class or None) it is read in."""
    reads: dict[str, set[tuple[Path, str | None]]] = {}
    for path, source in _sources():
        for statement in ast.parse(source).body:
            owner = (path, statement.name if isinstance(statement, ast.ClassDef) else None)
            for node in ast.walk(statement):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.setdefault(node.attr, set()).add(owner)
    return reads


USED = _used()
READ = _read_attributes()

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


_MEMBER_KINDS = (types.FunctionType, property, classmethod, staticmethod)

# (module, class, member) for each public method and property of a class whose home is module.
MEMBERS = [(module, cls.__name__, member)
           for module, name in PUBLIC
           for cls in [getattr(importlib.import_module(module), name)]
           if inspect.isclass(cls) and cls.__module__ == module
           for member, value in vars(cls).items()
           if not member.startswith("_") and isinstance(value, _MEMBER_KINDS)]


def test_members_are_found():
    assert {("trajfuse.core", "Trajectory", "horizon"),
            ("trajfuse.metrics", "ErrorLedger", "add"),
            ("trajfuse.fusion", "CovarianceSummary", "from_matrix"),
            ("trajfuse.metrics", "OverlapReport", "as_dict")} <= set(MEMBERS)


@pytest.mark.parametrize("module, cls, member", MEMBERS,
                         ids=[f"{m}.{c}.{a}" for m, c, a in MEMBERS])
def test_public_member_has_a_caller(module, cls, member):
    home = (Path(inspect.getsourcefile(importlib.import_module(module))).resolve(), cls)
    assert READ.get(member, set()) - {home}, (
        f"{module}.{cls}.{member} is read nowhere outside the tests and its own class: "
        "drop it, or give it a caller")
