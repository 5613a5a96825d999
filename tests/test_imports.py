"""Every name a module of the package imports is used in that module,
every name its `__all__` lists is bound in it, and no module imports a
`_`-prefixed name from a sibling.

No linter runs over the package, and a deletion easily leaves an import
behind, or a rename a stale `__all__` entry, on which `import *` raises
`AttributeError`. The import check leaves `__init__.py` out: it imports
names to export them. A private name belongs to its module: a sibling
that needs it needs a public function of that module instead.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "locmod"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
EXPORTING = sorted(PACKAGE.glob("*.py"))


def exported(tree: ast.Module) -> list[str]:
    """The names the module's `__all__` lists, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def unused_imports(source: str) -> list[str]:
    """The names bound by an import, at any depth, that the module never
    reads and does not list in `__all__`."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - set(exported(tree)))


def unbound_exports(source: str) -> list[str]:
    """The names `__all__` lists that no top-level statement binds."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return sorted(set(exported(tree)) - bound)


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re as regex\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "def f():\n"
        "    from sys import argv\n"
        "    return regex.compile('x')\n"
    )
    assert unused_imports(source) == ["argv", "dumps", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unbound_export():
    source = (
        "from json import dumps as write\n"
        "import os.path\n"
        "A, (B, C) = 1, (2, 3)\n"
        "D: int = 4\n"
        "class E: pass\n"
        "def f():\n"
        "    g = 5\n"
        "__all__ = ['write', 'os', 'A', 'C', 'D', 'E', 'f', 'g', 'dumps', 'verdict_in']\n"
    )
    assert unbound_exports(source) == ["dumps", "g", "verdict_in"]


@pytest.mark.parametrize("path", EXPORTING, ids=lambda p: p.name)
def test_every_export_is_bound(path):
    assert unbound_exports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """The `_`-prefixed names imported, at any depth, from a module of the
    same package."""
    tree = ast.parse(source)
    return sorted(
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for a in node.names
        if a.name.startswith("_")
    )


def test_the_check_finds_a_private_import():
    source = (
        "from os import _exit\n"
        "from .parser import _conflict, parse_signature\n"
        "from .model import Ontology as _Ontology\n"
        "def f():\n"
        "    from .tableau import _State\n"
    )
    assert private_imports(source) == ["_State", "_conflict"]


@pytest.mark.parametrize("path", EXPORTING, ids=lambda p: p.name)
def test_no_private_name_is_imported(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
