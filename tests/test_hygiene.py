"""Static checks on the package source."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "secantlab"
TRACED = TESTS.parent / "perfbench" / "traced.py"


def _unused_imports(path: Path) -> list:
    """Names a module imports but neither uses, exports in ``__all__``,
    nor marks with ``# noqa: F401`` on the import line."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}   # bound name -> line of the import statement
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            marked = any("# noqa: F401" in lines[i - 1]
                         for i in range(node.lineno, node.end_lineno + 1))
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if not marked:
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def test_check_sees_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from functools import lru_cache\n"
                   "import os  # noqa: F401\n"
                   "from re import compile\n"
                   "__all__ = ['compile']\n")
    assert _unused_imports(mod) == ["lru_cache (line 1)"]


def _references(node) -> Counter:
    """How often each name is read, read as an attribute, or imported
    under ``node``."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.split(".")[-1]] += 1
    return out


def _definitions(tree):
    """(label, node) for each module-level function and class of ``tree``,
    and for each non-dunder method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node
            for meth in node.body:
                if (isinstance(meth, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (meth.name.startswith("__")
                                 and meth.name.endswith("__"))):
                    yield f"{node.name}.{meth.name}", meth


def _trees(package: Path, others):
    """The ``*.py`` files of ``package``, and the parsed trees of those and
    of the ``*.py`` files in each directory of ``others``."""
    paths = sorted(package.glob("*.py"))
    trees = {path: ast.parse(path.read_text())
             for path in paths + [p for d in others for p in d.glob("*.py")]}
    return paths, trees


def _unreferenced_definitions(package: Path, others) -> list:
    """Module-level functions and classes of ``package``, and the
    non-dunder methods of those classes, that no file in ``package`` or
    ``others`` refers to, other than from inside their own definition (a
    recursive call is not a use).  A method counts as referenced when
    its name is read anywhere, whatever the object."""
    paths, trees = _trees(package, others)
    total = sum((_references(tree) for tree in trees.values()), Counter())
    return [f"{path.name}:{label}" for path in paths
            for label, node in _definitions(trees[path])
            if total[node.name] == _references(node)[node.name]]


def test_every_definition_is_referenced():
    assert _unreferenced_definitions(SRC, [TESTS]) == []


def test_check_sees_an_unreferenced_definition(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text("def used():\n    return 1\n\n"
                              "def orphan(n):\n    return orphan(n - 1)\n\n"
                              "class Kept:\n"
                              "    def __repr__(self):\n        return ''\n"
                              "    def called(self):\n        return 1\n"
                              "    def unused(self):\n"
                              "        return self.unused()\n")
    (pkg / "b.py").write_text("from .a import used\nX = used()\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_a.py").write_text("import pkg.a\npkg.a.Kept().called()\n")
    assert _unreferenced_definitions(pkg, [tests]) == ["a.py:orphan",
                                                       "a.py:Kept.unused"]


def _private_definitions_unused_in_package(package: Path) -> list:
    """Definitions of ``package`` with a ``_``-prefixed name, or inside a
    ``_``-prefixed class, that ``package`` itself never refers to: code
    that only the tests run belongs with the tests.  A public name that
    only the tests use is API, and is not listed."""
    return [label for label in _unreferenced_definitions(package, [])
            if any(part.startswith("_")
                   for part in label.split(":")[1].split("."))]


def test_every_private_definition_is_used_in_the_package():
    assert _private_definitions_unused_in_package(SRC) == []


def test_check_sees_a_private_definition_unused_in_the_package(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text("def api():\n    return 1\n\n"
                              "def run():\n    return _used()\n\n"
                              "def _used():\n    return 1\n\n"
                              "def _tested(n):\n    return _tested(n - 1)\n\n"
                              "class _Box:\n"
                              "    def fill(self):\n        return 1\n")
    (pkg / "b.py").write_text("from .a import run\nX = run()\n")
    assert _private_definitions_unused_in_package(pkg) == [
        "a.py:_tested", "a.py:_Box", "a.py:_Box.fill"]


def _private_functions(tree):
    """(label, node, is_method) for each function of ``tree``, nested ones
    included, with a ``_``-prefixed name or inside a ``_``-prefixed class;
    dunder methods are left out."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                private = name.startswith("_") or (owner or "").startswith("_")
                if private and not (name.startswith("__")
                                    and name.endswith("__")):
                    label = f"{owner}.{name}" if owner else name
                    yield label, child, owner is not None
                yield from walk(child, None)
            else:
                yield from walk(child, owner)
    yield from walk(tree, None)


def _unpassed_defaults(package: Path) -> list:
    """Defaulted parameters of the private functions of ``package`` that
    no call in ``package`` passes, by position or by keyword: a default
    that every caller keeps is a constant.  Calls are matched by name,
    whatever the object; a function whose name is also read other than
    as a call, so that it may be called elsewhere, is left out."""
    paths, trees = _trees(package, [])
    calls = {}      # name -> [(positional count, keywords, unpacks)]
    called = set()  # ids of the name nodes that are called
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                name = getattr(fn, "id", None) or getattr(fn, "attr", None)
                called.add(id(fn))
                unpacks = (any(isinstance(a, ast.Starred) for a in node.args)
                           or any(k.arg is None for k in node.keywords))
                calls.setdefault(name, []).append(
                    (len(node.args), {k.arg for k in node.keywords},
                     unpacks))
    other_reads = {n.id if isinstance(n, ast.Name) else n.attr
                   for tree in trees.values() for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute))
                   and isinstance(n.ctx, ast.Load) and id(n) not in called}
    out = []
    for path in paths:
        for label, fn, is_method in _private_functions(trees[path]):
            if fn.name in other_reads:
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            if is_method and not any(getattr(d, "id", None) == "staticmethod"
                                     for d in fn.decorator_list):
                positional = positional[1:]
            first = len(positional) - len(a.defaults)
            defaulted = [(k, arg.arg) for k, arg in enumerate(positional)
                         if k >= first]
            defaulted += [(None, arg.arg) for arg, d in
                          zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for k, name in defaulted:
                if not any(unpacks or name in keywords
                           or k is not None and npos > k
                           for npos, keywords, unpacks
                           in calls.get(fn.name, [])):
                    out.append(f"{path.name}:{label}({name})")
    return out


def test_every_default_of_a_private_function_is_passed():
    assert _unpassed_defaults(SRC) == []


def test_check_sees_an_unpassed_default(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "def api(n, step=1):\n    return _run(n, True)\n\n"
        "def _run(n, fast=False, step=1, *, cap=None, log=None):\n"
        "    return _run(n, cap=3)\n\n"
        "def _spread(*args, scale=1):\n    return args\n\n"
        "def _hook(n=0):\n    return n\n\n"
        "class _Box:\n"
        "    def __init__(self, size=0):\n        self.size = size\n"
        "    def fill(self, n, twice=False):\n        return n\n"
        "    @staticmethod\n"
        "    def make(size=0):\n        return _Box()\n")
    (pkg / "b.py").write_text(
        "from .a import _Box, _hook, _spread\n"
        "X = _Box().fill(2, True)\nY = _Box.make()\n"
        "Z = _spread(**{'scale': 2})\nHOOK = _hook\n")
    assert _unpassed_defaults(pkg) == ["a.py:_run(step)", "a.py:_run(log)",
                                       "a.py:_Box.make(size)"]


def _attribute_reads(node) -> set:
    """Names read as an attribute, ``obj.name`` in a load, under ``node``."""
    return {n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _unread_slots(package: Path, others) -> list:
    """``__slots__`` entries of the classes of ``package`` that no file in
    ``package`` or ``others`` reads as an attribute: a slot that is only
    ever stored holds nothing anyone uses."""
    paths, trees = _trees(package, others)
    read = set().union(*map(_attribute_reads, trees.values()))
    out = []
    for path in paths:
        for cls in ast.walk(trees[path]):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.Assign)
                        and any(isinstance(t, ast.Name)
                                and t.id == "__slots__"
                                for t in node.targets)):
                    out += [f"{path.name}:{cls.name}.{slot}"
                            for slot in ast.literal_eval(node.value)
                            if slot not in read]
    return out


def test_every_slot_is_read():
    assert _unread_slots(SRC, [TESTS]) == []


def test_check_sees_an_unread_slot(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text("class Packed:\n"
                              "    __slots__ = ('used', 'stored', 'tested')\n"
                              "    def __init__(self):\n"
                              "        self.used = self.stored = 1\n"
                              "        self.tested = 2\n"
                              "    def get(self):\n"
                              "        return self.used\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_a.py").write_text("from pkg.a import Packed\n"
                                     "assert Packed().tested == 2\n")
    assert _unread_slots(pkg, [tests]) == ["a.py:Packed.stored"]


def _traced_hooks():
    """HOOKS and METHOD_HOOKS of the benchmark's tracer, read from its
    file; nothing is installed."""
    spec = importlib.util.spec_from_file_location("_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced.HOOKS, traced.METHOD_HOOKS


def test_every_traced_binding_site_exists():
    # a refactor that drops or rebinds a hooked name would otherwise break
    # only the traced benchmark run
    hooks, method_hooks = _traced_hooks()
    for label, sites in hooks.items():
        found = [getattr(importlib.import_module(f"secantlab.{mod}"), attr,
                         None) for mod, attr in sites]
        assert all(callable(fn) for fn in found), (label, sites)
        assert all(fn is found[0] for fn in found), (label, sites)
    for label, (mod, cls, attr) in method_hooks.items():
        owner = getattr(importlib.import_module(f"secantlab.{mod}"), cls)
        assert callable(getattr(owner, attr, None)), label


LAYERS = ("arith", "poly", "gb", "homalg", "ideal_ops", "curves", "oracle",
          "cli")


def _package_imports(node, package: str) -> list:
    """The modules of ``package`` that an import statement names."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = package if node.level else ""
        module = ".".join(filter(None, (base, node.module)))
        names = ([f"{module}.{alias.name}" for alias in node.names]
                 if module == package else [module])
    else:
        return []
    return [name.split(".")[1] for name in names
            if name.startswith(package + ".")]


def _upward_imports(package: Path, layers) -> list:
    """Imports of a package module from itself or a module after it in
    ``layers``; ``__init__`` may import anything."""
    out = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        rank = layers.index(path.stem)
        for node in ast.walk(ast.parse(path.read_text())):
            out += [f"{path.name} imports {target}"
                    for target in _package_imports(node, package.name)
                    if target in layers and layers.index(target) >= rank]
    return out


def test_modules_import_only_earlier_layers():
    assert _upward_imports(SRC, LAYERS) == []


def test_check_sees_an_upward_import(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .top import f\n")
    (pkg / "low.py").write_text("from .top import f\nimport pkg.low\n"
                                "from pkg import top\n")
    (pkg / "top.py").write_text("from . import low\nimport os\n"
                                "from pkg.low import g\n")
    assert _upward_imports(pkg, ("low", "top")) == [
        "low.py imports top", "low.py imports low", "low.py imports top"]


def test_cli_import_loads_no_dataclasses_or_inspect():
    # every CLI call is a fresh process that imports the whole package, and
    # dataclasses (with inspect, ast, dis and tokenize) would be the
    # largest part of that import; -S keeps site from importing anything
    probe = ("import sys, secantlab.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    res = subprocess.run([sys.executable, "-S", "-c", probe],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert res.stdout.strip() == "[]"
