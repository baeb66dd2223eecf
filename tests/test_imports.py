"""Every name a module of `diagram_gram` or a test file imports is used in
that file.

No linter is part of the toolchain, so this check parses each file with
`ast`. The package's `__init__.py` is left out: its imports are the
package's exports.
"""

import ast
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
