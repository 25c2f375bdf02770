"""No package module imports a name it never uses, or defines a private
module-level name that it never reads.

Deletions tend to leave their imports behind, and a private helper whose
last caller went is dead code.  For imports __init__.py is left out: it
imports names to re-export them.  A line marked ``# noqa`` is exempt.
"""

import ast
from pathlib import Path

import pytest

import cfmmrep

PACKAGE = Path(cfmmrep.__file__).parent
ALL_MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))
MODULES = [name for name in ALL_MODULES if name != "__init__.py"]


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def unread_private_names(source: str) -> list:
    """Module-level _function, _Class and _CONSTANT names the module never reads."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for target in targets for t in ast.walk(target)
                        if isinstance(t, ast.Name)]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_the_check_finds_a_stale_import():
    source = "import math\nimport sys\nfrom bisect import bisect_left, insort  # noqa\n"
    assert unused_imports(source + "x = math.pi\n") == ["sys"]


def test_the_check_finds_an_unread_private_name():
    source = ("_TOL = 1e-12\n_A, _B = 1, 2\nclass _Box:\n    _inner = 0\n"
              "def _mint(p):\n    return _Box(), p * _TOL\n"
              "def public():\n    _local = 1\n    return _A\n__all__ = []\n")
    assert unread_private_names(source) == ["_B", "_mint"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    source = (PACKAGE / module).read_text("utf-8")
    assert unused_imports(source) == []


@pytest.mark.parametrize("module", ALL_MODULES)
def test_every_private_name_is_read(module):
    source = (PACKAGE / module).read_text("utf-8")
    assert unread_private_names(source) == []
