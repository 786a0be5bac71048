"""Library modules import each other at the top; a function-level import is
kept only where the top-level one would be a cycle."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wittkit"

# witt -> algrec -> witt: algrec builds on WittVector
ALLOWED = [("witt", "_component_degree", "algrec")]


def _function_level_imports(tree: ast.Module, module: str) -> list[tuple[str, str, str]]:
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and node.level:
                    names = [node.module] if node.module else [alias.name for alias in node.names]
                    found += [(module, fn.name, name) for name in names]
    return found


def test_only_a_cycle_keeps_an_import_inside_a_function():
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    found = []
    for path in files:
        found += _function_level_imports(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert sorted(found) == ALLOWED


def test_scan_flags_a_relative_import_in_a_method():
    tree = ast.parse("from . import a\nclass C:\n    def f(self):\n        from .b import x\n        import os\n")
    assert _function_level_imports(tree, "m") == [("m", "f", "b")]
