"""No package module imports a name it never uses.

Deletions tend to leave their imports behind.  __init__.py is left out: it
imports names to re-export them.  A line marked ``# noqa`` is exempt.
"""

import ast
from pathlib import Path

import pytest

import cfmmrep

PACKAGE = Path(cfmmrep.__file__).parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


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


def test_the_check_finds_a_stale_import():
    source = "import math\nimport sys\nfrom bisect import bisect_left, insort  # noqa\n"
    assert unused_imports(source + "x = math.pi\n") == ["sys"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    source = (PACKAGE / module).read_text("utf-8")
    assert unused_imports(source) == []
