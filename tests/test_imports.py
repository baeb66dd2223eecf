"""Every name a module of `diagram_gram` or a test file imports is used in
that file, and what importing the CLI loads.

No linter is part of the toolchain, so this check parses each file with
`ast`. The package's `__init__.py` is left out: its imports are the
package's exports.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "diagram_gram"
FILES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + sorted(TESTS.glob("*.py"))


@pytest.mark.parametrize(
    "path", FILES, ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}"
)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}


# every module of the package; the CLI imports each subcommand's layers at
# start, so no work moves from start-up into a command
CLI_MODULES = [
    "diagram_gram",
    "diagram_gram.cli",
    "diagram_gram.determinant",
    "diagram_gram.diagrams",
    "diagram_gram.families",
    "diagram_gram.golden",
    "diagram_gram.gram",
    "diagram_gram.partitions",
    "diagram_gram.polynomials",
    "diagram_gram.reduction",
    "diagram_gram.semisimplicity",
    "diagram_gram.stirling",
    "diagram_gram.verify",
    "diagram_gram.z2diagrams",
]


def test_cli_import_loads_no_code_generator():
    """In a fresh interpreter, since pytest itself loads `inspect`, and
    without `site`, which may load modules of its own: the records are
    `NamedTuple`s and plain classes, so importing the CLI loads neither
    `dataclasses` nor the `inspect` it brings in, and the fixtures are read
    without `importlib.resources`, which loads `inspect` on Python 3.12."""
    code = (
        "import json, sys; import diagram_gram.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'diagram_gram'"
        " or m in ('dataclasses', 'inspect', 'importlib.resources'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(run.stdout) == CLI_MODULES
