"""Every function in `src/diagram_gram` is reached by some CLI call.

A fresh interpreter runs a fixed list of small CLI calls under a
`sys.setprofile` hook, which records the code object of every Python frame
that starts or resumes. Each non-dunder `def` of the package, found by
parsing its modules with `ast`, must be among them. A function that only
the tests call belongs in the tests, as an oracle or a fixture builder.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# small calls: each family, each subcommand, every output format
CALLS = [
    [command, "--algebra", algebra, "--k", "3", *profile, *extra]
    for algebra, profile in (
        ("partition", ["--s", "1"]),
        ("z2", ["--s1", "1", "--s2", "0"]),
        ("signed", ["--s1", "1", "--s2", "0"]),
    )
    for command, extra in (
        ("enumerate", ["--format", "pretty"]),
        ("gram", ["--format", "csv"]),
        ("gram", ["--format", "pretty"]),
        ("reduce", []),
        ("det", []),
    )
] + [
    ["semisimple", "--algebra", algebra, "--k", "3", "--q", "2"]
    for algebra in ("partition", "z2", "signed")
] + [
    ["enumerate", "--algebra", "z2", "--k", "2", "--s1", "1", "--s2", "0"],
    ["gram", "--algebra", "z2", "--k", "2", "--s1", "1", "--s2", "0"],
    ["semisimple", "--algebra", "signed", "--k", "2"],
    ["stirling", "--algebra", "partition", "--s", "1", "--r", "2", "--p", "1"],
    ["stirling", "--s1", "1", "--s2", "0", "--table", "--format", "pretty"],
    ["verify", "--k", "1"],
]

# functions no CLI call reaches, each with the reason it stays in src
ALLOWED = {
    # perfbench/spans.py wraps it by name to time the brute-force counts
    "stirling.count_coarser_bruteforce",
}

RUNNER = """
import contextlib, io, json, sys
from diagram_gram.cli import main

reached = set()

def hook(frame, event, arg):
    if event == "call":
        reached.add(frame.f_code)

codes = []
sys.setprofile(hook)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(main(argv))
sys.setprofile(None)
json.dump({
    "codes": codes,
    "reached": sorted({(c.co_filename, c.co_firstlineno) for c in reached}),
}, sys.stdout)
"""


def package_defs():
    """{(path, first line): dotted name} for each non-dunder def of the
    package; the first line is a decorator's when there is one, as in
    `co_firstlineno`."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = {}
    for path in sorted((SRC / "diagram_gram").glob("*.py")):
        stack = [(ast.parse(path.read_text(), filename=str(path)), path.stem)]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                name = prefix
                if isinstance(child, (*functions, ast.ClassDef)):
                    name = f"{prefix}.{child.name}"
                if isinstance(child, functions) and not (
                    child.name.startswith("__") and child.name.endswith("__")
                ):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[str(path), first] = name
                stack.append((child, name))
    return out


def test_every_function_is_reached_by_a_cli_call():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-c", RUNNER, json.dumps(CALLS)],
        capture_output=True, text=True, env=env, check=True,
    )
    result = json.loads(run.stdout)
    assert result["codes"] == [0] * len(CALLS)
    reached = {(str(Path(path).resolve()), line) for path, line in result["reached"]}
    defs = package_defs()
    assert ALLOWED <= set(defs.values())
    unreached = sorted(
        name for where, name in defs.items() if where not in reached and name not in ALLOWED
    )
    assert not unreached, "no CLI call reaches " + ", ".join(unreached)
