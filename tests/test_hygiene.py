"""Source hygiene: no module of the package imports a name it never uses,
imports inside a function or class, reads an environment variable, draws
random numbers that no seed fixes, writes into a gradient buffer in
place, applies a separate ReLU to a conv2d result, writes a file other
than through `imagefiles.write_file`, defines a name that only tests
call or names a head kind outside `heads.py`.

No linter runs on this repository, so these `ast` walks are the guard.
"""
import ast
import tomllib
from pathlib import Path

import pytest

from protostudent.heads import HEAD_KINDS

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


def nested_imports(source: str) -> list:
    """(line, statement) of every import that is not a statement of the
    module body itself: inside a function, a class or a block such as
    `if` or `try`. Every module names what it depends on at its head."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return sorted((node.lineno, ast.unparse(node)) for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_level_imports(path):
    assert nested_imports(path.read_text()) == []


def test_nested_import_checker_flags_imports_below_the_module_body():
    source = ("import json\n"
              "from .heads import HEAD_KINDS\n"
              "def validate(x):\n"
              "    from .heads import HEAD_KINDS\n"
              "    import numpy as np\n"
              "    return np.asarray(x)\n"
              "class Config:\n"
              "    import os\n"
              "    def load(self):\n"
              "        def inner():\n"
              "            from . import tensor as T\n"
              "if json:\n"
              "    import zlib\n")
    assert nested_imports(source) == [
        (4, "from .heads import HEAD_KINDS"), (5, "import numpy as np"), (8, "import os"),
        (11, "from . import tensor as T"), (13, "import zlib")]


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


# numpy.random names that hold no global state: the seeded Generator API
SEEDED_RANDOM_API = {"default_rng", "Generator", "BitGenerator", "SeedSequence", "PCG64",
                     "PCG64DXSM", "Philox", "SFC64", "MT19937"}


def unseeded_randomness(source: str) -> list:
    """(line, expression) of every random source that no seed fixes: an
    `np.random.default_rng` call without a seed (or with None), any name
    of numpy's global-state generator (`np.random.seed`, `rand`, `normal`,
    `RandomState`, ...: every `numpy.random` name outside the Generator
    API) and any import of the standard library's `random` module. Every
    artifact must repeat byte for byte from the run's seed."""
    tree = ast.parse(source)
    numpy_names, random_names, rng_names = set(), set(), set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "random":
                    found.append((node.lineno, f"import {alias.name}"))
                elif alias.name == "numpy.random" and alias.asname:
                    random_names.add(alias.asname)
                elif alias.name.split(".")[0] == "numpy":
                    numpy_names.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                if (node.module or "").split(".")[0] == "random":
                    found.append((node.lineno, f"from {node.module} import {alias.name}"))
                elif node.module == "numpy" and alias.name == "random":
                    random_names.add(alias.asname or alias.name)
                elif node.module == "numpy.random" and alias.name not in SEEDED_RANDOM_API:
                    found.append((node.lineno, f"from numpy.random import {alias.name}"))
                elif node.module == "numpy.random" and alias.name == "default_rng":
                    rng_names.add(alias.asname or alias.name)

    def numpy_random(node) -> bool:
        return (isinstance(node, ast.Name) and node.id in random_names) or (
            isinstance(node, ast.Attribute) and node.attr == "random"
            and isinstance(node.value, ast.Name) and node.value.id in numpy_names)

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and numpy_random(node.value) \
                and node.attr not in SEEDED_RANDOM_API:
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Name) and node.func.id in rng_names) or
                (isinstance(node.func, ast.Attribute) and node.func.attr == "default_rng"
                 and numpy_random(node.func.value))):
            seeds = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "seed"]
            if not seeds or all(isinstance(v, ast.Constant) and v.value is None for v in seeds):
                found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unseeded_randomness(path):
    assert unseeded_randomness(path.read_text()) == []


def test_randomness_checker_flags_unseeded_sources():
    source = ("import random\n"
              "import numpy as np\n"
              "from numpy.random import default_rng as make, rand\n"
              "from random import choice\n"
              "a = np.random.default_rng()\n"
              "b = np.random.default_rng(seed=None)\n"
              "c = make()\n"
              "np.random.seed(0)\n"
              "d = np.random.normal(0.0, 0.02, size=(3, 4))\n"
              "e = np.random.default_rng([seed, 0x5B]).uniform(0, 1)\n"
              "def draw(rng: np.random.Generator, seed):\n"
              "    return make(seed).integers(0, 3) + rng.normal()\n"
              "g = np.random.RandomState(1)\n"
              "from numpy import random as npr\n"
              "h = npr.rand(2) + npr.default_rng(5).random()\n")
    assert unseeded_randomness(source) == [
        (1, "import random"), (3, "from numpy.random import rand"),
        (4, "from random import choice"), (5, "np.random.default_rng()"),
        (6, "np.random.default_rng(seed=None)"), (7, "make()"), (8, "np.random.seed"),
        (9, "np.random.normal"), (13, "np.random.RandomState"), (15, "npr.rand")]


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


def _calls(node, names) -> bool:
    """Whether node is a call of a function named in `names`, bare or as
    an attribute (`relu(...)`, `T.relu(...)`, `np.maximum(...)`)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id in names) or \
        (isinstance(func, ast.Attribute) and func.attr in names)


def unfused_activations(source: str) -> list:
    """(line, call) of every `relu(...)` or `maximum(...)` call with an
    argument that is a `conv2d(...)` result, or an attribute of one
    (`.data`). `conv2d(..., relu=True)` clamps its own output in place,
    so no second activation-sized array exists, forward or backward."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not _calls(node, ("relu", "maximum")):
            continue
        for arg in node.args:
            while isinstance(arg, ast.Attribute):
                arg = arg.value
            if _calls(arg, ("conv2d",)):
                found.append((node.lineno, ast.unparse(node)))
                break
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_relu_applied_to_conv2d_results(path):
    assert unfused_activations(path.read_text()) == []


def test_unfused_activation_checker_flags_relu_on_conv2d():
    source = ("h = T.relu(T.conv2d(h, k, b, stride=2, pad=1))\n"
              "a = np.maximum(T.conv2d(Tensor(a), k, b).data, 0.0)\n"
              "y = relu(conv2d(x, k))\n"
              "h = T.conv2d(h, k, b, stride=2, pad=1, relu=True)\n"
              "z = T.relu(s_raw)\n"
              "np.maximum(self.conv1d_w.data, 0.0, out=self.conv1d_w.data)\n"
              "c = np.maximum(conv2d_cols, 0.0)\n")
    assert unfused_activations(source) == [
        (1, "T.relu(T.conv2d(h, k, b, stride=2, pad=1))"),
        (2, "np.maximum(T.conv2d(Tensor(a), k, b).data, 0.0)"),
        (3, "relu(conv2d(x, k))")]


def _write_mode(call) -> bool:
    """Whether an `open(...)` call names a mode, positional (after the path
    of a bare `open`, first for a method such as `Path.open`) or keyword,
    that is a string containing w, a, x or +."""
    pos = 1 if isinstance(call.func, ast.Name) else 0
    modes = call.args[pos:pos + 1] + [kw.value for kw in call.keywords if kw.arg == "mode"]
    return any(isinstance(m, ast.Constant) and isinstance(m.value, str)
               and set(m.value) & set("wax+") for m in modes)


def file_writes(source: str, writer: str | None = None) -> list:
    """(line, call) of every file write that bypasses the package's one
    writer: `open(...)` (bare or as a method, `Path.open`) with a write
    mode, any `.write_text(...)` or `.write_bytes(...)`, and any
    `os.open(...)` outside the function named `writer`."""
    tree = ast.parse(source)
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == writer:
            exempt.update(id(n) for n in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        is_os_open = isinstance(func, ast.Attribute) and func.attr == "open" and \
            isinstance(func.value, ast.Name) and func.value.id == "os"
        if (is_os_open and id(node) not in exempt) or \
                (name == "open" and not is_os_open and _write_mode(node)) or \
                name in ("write_text", "write_bytes"):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_one_file_writer(path):
    """Every artifact goes through `imagefiles.write_file`, which overwrites
    in place instead of truncating to zero first."""
    writer = "write_file" if path.name == "imagefiles.py" else None
    assert file_writes(path.read_text(), writer) == []


def test_file_write_checker_flags_writes_outside_the_writer():
    source = ("import os\n"
              "def write_file(path, data):\n"
              "    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)\n"
              "def save(path, text, blob):\n"
              "    with open(path, 'w') as fh:\n"
              "        fh.write(text)\n"
              "    open(path, mode='ab')\n"
              "    path.open('r+b')\n"
              "    path.write_text(text)\n"
              "    path.write_bytes(blob)\n"
              "    fd = os.open(path, os.O_RDONLY)\n"
              "    open(path, 'rb').read()\n"
              "    open(path).read()\n"
              "    write_file(path, blob)\n")
    assert file_writes(source, "write_file") == [
        (5, "open(path, 'w')"), (7, "open(path, mode='ab')"), (8, "path.open('r+b')"),
        (9, "path.write_text(text)"), (10, "path.write_bytes(blob)"),
        (11, "os.open(path, os.O_RDONLY)")]
    assert [line for line, _ in file_writes(source)] == [3, 5, 7, 8, 9, 10, 11]


def head_kind_literals(source: str, exempt_field: str | None = None) -> list:
    """(line, value) of every string constant that names a head kind or
    a head family ("II", "III"), except the default of an annotated field
    named `exempt_field`. What a kind computes is decided in `heads.py`;
    every other module reads the record's fields or asks `make_head`."""
    tree = ast.parse(source)
    exempt = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name) and node.target.id == exempt_field}
    names = set(HEAD_KINDS) | {"II", "III"}
    return sorted((node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value in names and id(node) not in exempt)


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "heads.py"],
                         ids=lambda p: p.name)
def test_no_head_kind_literals(path):
    """`RunConfig.head`'s default is the one kind named outside `heads.py`."""
    exempt = "head" if path.name == "config.py" else None
    assert head_kind_literals(path.read_text(), exempt) == []


def test_head_kind_checker_flags_kind_names():
    source = ("class RunConfig:\n"
              "    head: str = 'II-B'\n"
              "    other: str = 'III-C'\n"
              "def relevance(rec, kind):\n"
              "    if rec.kind == 'I' or kind.startswith('III'):\n"
              "        return {'II-A': 1, 'II': 2}\n"
              "    return 'I ' + 'IV' + 'aligned'\n")
    assert head_kind_literals(source, "head") == [
        (3, "III-C"), (5, "I"), (5, "III"), (6, "II"), (6, "II-A")]
    assert head_kind_literals(source)[0] == (2, "II-B")


def name_occurrences(source: str) -> list:
    """(line, name, kind) of every identifier the source reads (kind
    "name" bare, "attr" as an attribute), imports ("import") or names as a
    string constant ("str", as when a tracer patches a function by name)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.append((node.lineno, node.id, "name"))
        elif isinstance(node, ast.Attribute):
            found.append((node.lineno, node.attr, "attr"))
        elif isinstance(node, ast.alias):
            found.extend((node.lineno, part, "import") for part in node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found.append((node.lineno, node.value, "str"))
    return found


def module_reads(source: str, modules) -> set:
    """(module, name) of every read that names a package module as the
    owner: `alias.name` with `alias` bound to one of `modules` (`from .
    import tensor as T`, `from protostudent import lrp`, `import
    protostudent.lrp as X`), or `from .module import name`."""
    tree = ast.parse(source)
    aliases, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if not node.level and parts[0] != "protostudent":
                continue   # not an import from the package
            for alias in node.names:
                if parts[-1] in modules:
                    reads.add((parts[-1], alias.name))
                elif alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            aliases.update((alias.asname, alias.name.split(".")[-1]) for alias in node.names
                           if alias.asname and alias.name.startswith("protostudent."))
    reads.update((aliases[node.value.id], node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in aliases)
    return reads


def definitions(source: str) -> list:
    """(qualified name, name, first line, last line, top-level function?)
    of every top-level function and class, and of every method that is not
    a dunder."""
    defs = []
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.parse(source).body:
        if not isinstance(node, kinds):
            continue
        defs.append((node.name, node.name, node.lineno, node.end_lineno,
                     not isinstance(node, ast.ClassDef)))
        if isinstance(node, ast.ClassDef):
            defs.extend((f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno, False)
                        for item in node.body
                        if isinstance(item, kinds[:2]) and not
                        (item.name.startswith("__") and item.name.endswith("__")))
    return defs


def uncalled_definitions(library: dict, users: dict, entry_names=()) -> list:
    """(file, qualified name) of each definition in `library` (file name ->
    source) that nothing outside its own definition uses, and is not one of
    `entry_names`.

    A class or method is used when its name occurs anywhere else in
    `library` or `users`. A top-level function is used only through a read
    that names its module: `alias.name` with the alias bound to that
    module, `from .module import name`, its bare name in its own module, or
    a string constant. So `np.exp` does not count as a use of `tensor.exp`.
    """
    modules = {path.removesuffix(".py") for path in library}
    places, reads = {}, set()
    for path, source in {**users, **library}.items():
        for line, name, kind in name_occurrences(source):
            places.setdefault(name, []).append((path, line, kind))
        reads |= module_reads(source, modules)
    missing = []
    for path, source in library.items():
        for qualname, name, first, last, function in definitions(source):
            outside = [(where, kind) for where, line, kind in places.get(name, [])
                       if not (where == path and first <= line <= last)]
            if function:
                used = (path.removesuffix(".py"), name) in reads or any(
                    kind == "str" or (kind == "name" and where == path) for where, kind in outside)
            else:
                used = bool(outside)
            if name not in entry_names and not used:
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


def test_caller_checker_resolves_the_owner_module():
    """`np.exp` and `np.log` share names with `tensor.exp` and `tensor.log`
    but read numpy; only `T.log` and the imported `sqrt` read the module."""
    lib = {"tensor.py": ("def exp(t):\n    return t\n"
                         "def log(t):\n    return t\n"
                         "def sqrt(t):\n    return t\n"),
           "losses.py": ("import numpy as np\n"
                         "from . import tensor as T\n"
                         "from .tensor import sqrt\n"
                         "def loss(x):\n"
                         "    return np.exp(x) + np.log(x) + T.log(x) + sqrt(x)\n")}
    users = {"bench.py": "import numpy as np\nfrom protostudent import tensor\nnp.exp(1.0)\n"}
    assert uncalled_definitions(lib, users, {"loss"}) == [("tensor.py", "exp")]
    users["bench.py"] += "tensor.exp(1.0)\n"
    assert uncalled_definitions(lib, users, {"loss"}) == []
