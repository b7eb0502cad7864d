"""Every name a poirec module imports is used in that module, every
module-level private function or class is referenced there beyond its
definition, and the package depends on nothing beyond the standard library
and numpy."""

import ast
import pathlib
import re
import sys

import pytest

import poirec

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "poirec"
# __init__.py imports only to re-export.
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_guard_sees_an_unused_import():
    assert unused_imports("import math\nfrom typing import Iterable, Optional\nx: Optional[int]\n") == [
        "math", "Iterable"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_definitions(source: str) -> list[str]:
    tree = ast.parse(source)
    defined = [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in defined if name not in used]


def test_guard_sees_a_dead_private_helper():
    source = "def _dead():\n    pass\n\ndef _used():\n    pass\n\nclass _Kept:\n    x = _used()\n"
    assert unreferenced_private_definitions(source) == ["_dead", "_Kept"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_helper_is_used(path):
    assert unreferenced_private_definitions(path.read_text(encoding="utf-8")) == []


def imported_packages(source: str) -> set[str]:
    """Top-level names of every absolute import."""
    packages = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            packages |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


def test_guard_sees_a_third_party_import():
    source = "import os.path\nfrom numpy import ones\nfrom . import model\nimport scipy.sparse\n"
    assert imported_packages(source) == {"os", "numpy", "scipy"}


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_only_numpy_beyond_the_standard_library(path):
    allowed = sys.stdlib_module_names | {"numpy", "poirec"}
    assert imported_packages(path.read_text(encoding="utf-8")) - allowed == set()


def test_version_matches_pyproject():
    pyproject = (SRC.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    project = pyproject.split("[project]", 1)[1]
    assert re.search(r'^version = "([^"]*)"$', project, re.M).group(1) == poirec.__version__
