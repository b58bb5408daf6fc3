"""Every top-level import in the package is used by the module that makes it,
every private module-level name is read somewhere in the package, and the
package re-exports every name its modules declare public and no other.

No linter ships with the test dependencies, so this is the one check of it.
An import counts as used when the module reads it anywhere (annotations
included) or lists it in ``__all__``; ``__init__.py`` only re-exports, and
is exempt. A private name counts as read when any module of the package
loads it, as a name or as an attribute.
"""

import ast
import importlib
from pathlib import Path

import pytest

import cellcloud

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cellcloud"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"cli", "core", "ingest", "spatial", "nie", "hsp", "clinical"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_top_level_import(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_package_reexports_module_all(path):
    module = importlib.import_module(f"cellcloud.{path.stem}")
    names = getattr(module, "__all__", [])
    assert [n for n in names if not hasattr(module, n)] == []
    assert [n for n in names if getattr(cellcloud, n, None) is not getattr(module, n)] == []


def test_package_binds_only_module_all():
    # The modules' __all__ are the one list of public names: __init__.py
    # star-imports them and binds no other public name.
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom)]
    assert imports and all([a.name for a in n.names] == ["*"] for n in imports)
    declared = set()
    for path in MODULES:
        declared |= set(getattr(importlib.import_module(f"cellcloud.{path.stem}"), "__all__", []))
    extra = [
        name for name, value in vars(cellcloud).items()
        if not name.startswith("_") and name not in declared
        and getattr(value, "__name__", None) != f"cellcloud.{name}"
    ]
    assert extra == []


def _module_level_names(tree: ast.Module) -> dict[str, int]:
    """Names a module binds at its top level, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        names[n.id] = node.lineno
    return names


def test_every_private_module_name_is_read():
    # A module-level _name that no module of the package reads is dead.
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    dead = [
        f"{name}:{line}: {ident}"
        for name, tree in sorted(trees.items())
        for ident, line in _module_level_names(tree).items()
        if ident.startswith("_") and not ident.startswith("__") and ident not in read
    ]
    assert dead == []
