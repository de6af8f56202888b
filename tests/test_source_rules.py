"""Rules on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import hullcount

SOURCES = sorted(Path(hullcount.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def test_no_assert_statements():
    # python -O strips assert statements, so invariants must raise errors
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_no_raise_assertion_error():
    # a broken invariant is an ArithmeticError or a package error, not a
    # stand-in for an assert statement
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        and _raised_name(node) == "AssertionError"
    ]
    assert SOURCES
    assert found == []


def test_cli_import_does_not_load_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize, and building its
    # classes execs generated methods: every CLI process would pay for it
    src = str(Path(hullcount.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys; bare = 'dataclasses' in sys.modules; import hullcount.cli; "
        "print(bare, 'dataclasses' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert out in (["False", "False"], ["True", "True"])
