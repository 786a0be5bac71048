"""Every top-level def and class in the library is named outside its own definition.

A name counts as used where src/, tests/ or perfbench/ refer to it: as a
name, an attribute, an import, or a part of a dotted string such as the
"witt.find_modulus" targets perfbench traces.  Docstrings, comments and the
definition's own body (a recursive call) do not count.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wittkit"
CORPUS = ("src", "tests", "perfbench")
_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _mentions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) for every reference to a name in the module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(alias.name.split(".")[-1], node.lineno) for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.fullmatch(node.value):
            found += [(part, node.lineno) for part in node.value.split(".")]
    return found


def _definitions(tree: ast.Module) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each top-level def and class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [(n.name, n.lineno, n.end_lineno) for n in tree.body if isinstance(n, kinds)]


def _dead_names(modules: dict[str, str], corpus: dict[str, str]) -> list[str]:
    """Definitions in `modules` that no file of `corpus` (path -> source) names
    outside the definition itself."""
    where: dict[str, list[tuple[str, int]]] = {}
    for path, text in corpus.items():
        for name, line in _mentions(ast.parse(text, filename=path)):
            where.setdefault(name, []).append((path, line))
    dead = []
    for path, text in modules.items():
        for name, first, last in _definitions(ast.parse(text, filename=path)):
            if all(p == path and first <= line <= last for p, line in where.get(name, [])):
                dead.append(f"{Path(path).name}:{first} {name}")
    return dead


def test_library_has_no_dead_names():
    corpus = {
        str(path): path.read_text()
        for top in CORPUS
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    modules = {str(path): corpus[str(path)] for path in sorted(SRC.glob("*.py"))}
    assert modules, f"no sources under {SRC}"
    dead = _dead_names(modules, corpus)
    assert not dead, "top-level names nothing refers to: " + ", ".join(dead)


def test_scan_flags_a_dead_name():
    lib = (
        "def used():\n"
        "    '''Unlike dead(), this one is called.'''\n"
        "def dead(n):\n"
        "    return dead(n - 1)  # recursion is not a use\n"
        "class Traced:\n"
        "    pass\n"
        "class Unreached:\n"
        "    pass\n"
    )
    user = "from lib import used\nused()\nTARGET = 'lib.Traced.calls'\nNOTE = 'Unreached is dead'\n"
    modules = {"lib.py": lib}
    assert _dead_names(modules, {"lib.py": lib, "user.py": user}) == ["lib.py:3 dead", "lib.py:7 Unreached"]
