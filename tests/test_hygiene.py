"""Source hygiene: no module of the package imports a name it never uses,
reads an environment variable, writes into a gradient buffer in place or
defines a name that only tests call.

No linter runs on this repository, so these `ast` walks are the guard.
"""
import ast
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "protostudent"


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


def _rooted_at_grad(node) -> bool:
    """Whether an assignment target reaches a `.grad` attribute through
    attribute, subscript and call links (`t.grad`, `t.grad.reshape(-1)[i]`)."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        if isinstance(node, ast.Attribute) and node.attr == "grad":
            return True
        node = node.func if isinstance(node, ast.Call) else node.value
    return False


def gradient_writes(source: str) -> list:
    """(line, target) of every augmented assignment, and every assignment
    into a subscript, whose target is rooted at a `.grad` attribute. A node
    may hold another node's gradient buffer as its own, so the package
    only ever rebinds `.grad` (`t.grad = t.grad + g`)."""
    writes = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.Assign):
            targets = [t for t in node.targets if isinstance(t, ast.Subscript)]
        else:
            continue
        writes.extend((node.lineno, ast.unparse(t)) for t in targets if _rooted_at_grad(t))
    return sorted(writes)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_in_place_gradient_writes(path):
    assert gradient_writes(path.read_text()) == []


def test_gradient_write_checker_flags_in_place_writes():
    source = ("t.grad += g\n"
              "pairs.grad.reshape(-1)[flat] += g\n"
              "t.grad[0] = 1.0\n"
              "t.grad[:, 1][mask] = 0.0\n"
              "t.grad = t.grad + g\n"
              "t.grad = None\n"
              "buf[t.grad > 0] = 0.0\n"
              "v += clip * p.grad\n"
              "gm.reshape(-1)[flat] += g\n")
    assert gradient_writes(source) == [(1, "t.grad"), (2, "pairs.grad.reshape(-1)[flat]"),
                                       (3, "t.grad[0]"), (4, "t.grad[:, 1][mask]")]


def name_occurrences(source: str) -> list:
    """(line, name) of every identifier the source reads, imports or names
    as a string constant (as when a tracer patches a function by name)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.alias):
            found.extend((node.lineno, part) for part in node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found.append((node.lineno, node.value))
    return found


def definitions(source: str) -> list:
    """(qualified name, name, first line, last line) of every top-level
    function and class, and of every method that is not a dunder."""
    defs = []
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.parse(source).body:
        if not isinstance(node, kinds):
            continue
        defs.append((node.name, node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            defs.extend((f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno)
                        for item in node.body
                        if isinstance(item, kinds[:2]) and not
                        (item.name.startswith("__") and item.name.endswith("__")))
    return defs


def uncalled_definitions(library: dict, users: dict, entry_names=()) -> list:
    """(file, qualified name) of each definition in `library` (file name ->
    source) whose name occurs nowhere in `library` or `users` outside its
    own definition, and is not one of `entry_names`."""
    places = {}
    for path, source in {**users, **library}.items():
        for line, name in name_occurrences(source):
            places.setdefault(name, []).append((path, line))
    missing = []
    for path, source in library.items():
        for qualname, name, first, last in definitions(source):
            if name not in entry_names and all(
                    where == path and first <= line <= last
                    for where, line in places.get(name, [])):
                missing.append((path, qualname))
    return sorted(missing)


def test_every_library_definition_has_a_caller():
    library = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    users = {f"perfbench/{p.name}": p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))}
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    entry_names = {target.rsplit(":", 1)[1] for target in scripts.values()}
    assert uncalled_definitions(library, users, entry_names) == []


def test_caller_checker_flags_uncalled_definitions():
    lib = ("def used(x):\n"
           "    return x\n"
           "def recursive(n):\n"
           "    return recursive(n - 1)\n"
           "def patched():\n"
           "    pass\n"
           "def main():\n"
           "    return used(1)\n"
           "class Box:\n"
           "    def __len__(self):\n"
           "        return 0\n"
           "    def size(self):\n"
           "        return self.size_of()\n"
           "    def size_of(self):\n"
           "        return Box()\n")
    users = {"bench.py": "import lib\nwrap(lib, 'patched')\n"}
    assert uncalled_definitions({"lib.py": lib}, users, {"main"}) == [
        ("lib.py", "Box"), ("lib.py", "Box.size"), ("lib.py", "recursive")]
