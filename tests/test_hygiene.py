"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "secantlab"


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
