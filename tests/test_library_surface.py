"""Every name the library defines is used by the library or the benchmark.

A function, class or method that only tests call is surface without a
caller: it belongs in `tests/oracles.py` or in the test.  This collects
each top-level function and class, and each non-dunder method, defined in
`src/cig/*.py`, and asks that its name appear as a name, an attribute or
an import somewhere in `src/cig/*.py` or `perfbench/*.py`.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
LIBRARY = sorted((REPO / "src" / "cig").glob("*.py"))
CALLERS = LIBRARY + sorted((REPO / "perfbench").glob("*.py"))


def _defined(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [
                item.name
                for item in node.body
                if isinstance(item, ast.FunctionDef)
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return names


def _referenced(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_library_name_has_a_caller():
    referenced = set()
    for path in CALLERS:
        referenced |= _referenced(ast.parse(path.read_text(), str(path)))
    unused = [
        f"{path.name}:{name}"
        for path in LIBRARY
        for name in _defined(ast.parse(path.read_text(), str(path)))
        if name not in referenced
    ]
    assert not unused, "defined but never used outside tests: " + ", ".join(unused)
