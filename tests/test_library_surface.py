"""Every name the library defines is used by the library or the benchmark.

A function, class or method that only tests call is surface without a
caller: it belongs in `tests/oracles.py` or in the test.  This collects
each top-level function and class, and each non-dunder method, defined in
`src/cig/*.py`, and asks that its name appear as a name, an attribute or
an import somewhere in `src/cig/*.py` or `perfbench/*.py`.

A bare name can be matched by a namesake, so a classmethod must be called
through its own class: as `<Class>.<name>` in those files, or as
`cls.<name>` inside the class.  Instance methods that share a name (the
`to_json`s, the `induced`s) are still matched by name only.
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


def _classmethods(tree: ast.Module) -> list[tuple[str, str]]:
    return [
        (node.name, item.name)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
        and any(
            isinstance(d, ast.Name) and d.id == "classmethod"
            for d in item.decorator_list
        )
    ]


def _attribute_pairs(node: ast.AST) -> set[tuple[str, str]]:
    """(owner, name) for each `owner.name`, and for each `x.owner.name`."""
    pairs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            if isinstance(sub.value, ast.Name):
                pairs.add((sub.value.id, sub.attr))
            elif isinstance(sub.value, ast.Attribute):
                pairs.add((sub.value.attr, sub.attr))
    return pairs


def _class_calls(tree: ast.Module) -> set[tuple[str, str]]:
    """(class, name) for each `<Class>.<name>`, and for each `cls.<name>`
    inside a class body."""
    pairs = _attribute_pairs(tree)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            pairs |= {
                (node.name, name)
                for owner, name in _attribute_pairs(node)
                if owner == "cls"
            }
    return pairs


def test_every_classmethod_is_called_through_its_class():
    calls = set()
    for path in CALLERS:
        calls |= _class_calls(ast.parse(path.read_text(), str(path)))
    unused = [
        f"{path.name}:{owner}.{name}"
        for path in LIBRARY
        for owner, name in _classmethods(ast.parse(path.read_text(), str(path)))
        if (owner, name) not in calls
    ]
    assert not unused, "classmethods never called through their class: " + ", ".join(unused)
