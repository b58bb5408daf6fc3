"""Every top-level import in the package is used by the module that makes it,
and the package re-exports every name its modules declare public.

No linter ships with the test dependencies, so this is the one check of it.
A name counts as used when the module reads it anywhere (annotations
included) or lists it in ``__all__``. ``__init__.py`` only re-exports, and
is exempt.
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
