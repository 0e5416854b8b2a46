"""Source hygiene: no module of the package imports a name it never uses
or reads an environment variable.

No linter runs on this repository, so these `ast` walks are the guard.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "protostudent"


def unused_imports(source: str) -> list:
    """(line, name) of every imported name that is never read. A name is
    read when it appears as a bare name (attribute chains start with one)
    or is listed in __all__; __future__ imports are directives."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_accepts_used():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from . import heads as H\n"
              "from .tensor import Tensor, no_grad\n"
              "def f(x: Tensor):\n"
              "    return np.asarray(os.path.join(x))\n")
    assert unused_imports(source) == [(4, "H"), (5, "no_grad")]


def environment_reads(source: str) -> list:
    """(line, expression) of every `os.environ`, `os.getenv` or bare
    `getenv` in the source; the package takes its settings from the config
    and the command line only."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            reads.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Name) and node.id in ("environ", "getenv"):
            reads.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads.extend((node.lineno, f"from os import {alias.name}") for alias in node.names
                         if alias.name in ("environ", "getenv"))
    return sorted(reads)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_reads(path):
    assert environment_reads(path.read_text()) == []


def test_environment_checker_flags_reads():
    source = ("import os\n"
              "from os import getenv\n"
              "a = os.environ.get('X', '1')\n"
              "b = os.getenv('Y')\n"
              "c = getenv('Z')\n"
              "d = os.path.join('environ', 'getenv')\n")
    assert environment_reads(source) == [(2, "from os import getenv"), (3, "os.environ"),
                                         (4, "os.getenv"), (5, "getenv")]
