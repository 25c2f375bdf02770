"""README's Python quickstart runs as written, and its quoted CLI output
is what the CLI prints.

The first python block under "Library quickstart" is executed; its last
statement is the earnings identity up to rounding, which must be True.
"""

import ast
import contextlib
import io
import re
from pathlib import Path

from cfmmrep.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quickstart_runs_and_its_identity_holds():
    tree = ast.parse(quickstart())
    last = tree.body.pop()
    assert isinstance(last, ast.Expr)
    namespace = {}
    exec(compile(tree, str(README), "exec"), namespace)
    assert eval(compile(ast.Expression(last.value), str(README), "eval"), namespace) is True


def test_quoted_simulate_line_is_what_simulate_prints():
    # The theory-column paragraph quotes one run's summary line.
    text = " ".join(README.read_text(encoding="utf-8").split())
    argv, line = re.search(r"`(simulate [^`]+)` prints `([^`]+)`", text).groups()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv.split()) == 0
    assert out.getvalue().splitlines()[-1] == line
