"""Every name the library defines is used by the library or the benchmark.

A function, class or method that only tests call is surface without a
caller: it belongs in `tests/oracles.py` or in the test.  This collects
each top-level function and class, and each non-dunder method, defined in
`src/cig/*.py`, and asks that its name appear as a name, an attribute or
an import somewhere in `src/cig/*.py` or `perfbench/*.py`.

A bare name can be matched by a namesake, so a classmethod must be called
through its own class: as `<Class>.<name>` in those files, or as
`cls.<name>` inside the class.  Likewise a top-level function or class of
`cig.m` must be used through its own module: by `m` itself, or by another
of those files importing it from `cig.m` (or through `cig`'s re-export of
it) or reading `m.<name>`; `digraphs.wreath_product` then does not cover a
namesake in another module.  Instance methods that share a name (the
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


def _module_uses(tree: ast.Module, reexported: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) for each `from cig.<module> import <name>`, each
    `from cig import <name>` of a name `cig` re-exports from `<module>`, and
    each `<module>.<name>`."""
    uses = _attribute_pairs(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if node.module.startswith("cig."):
                    uses.add((node.module[len("cig."):], alias.name))
                elif node.module == "cig" and alias.name in reexported:
                    uses.add((reexported[alias.name], alias.name))
    return uses


def test_every_top_level_name_is_used_through_its_module():
    init = ast.parse((REPO / "src" / "cig" / "__init__.py").read_text())
    reexported = {
        alias.name: node.module[len("cig."):]
        for node in init.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cig.")
        for alias in node.names
    }
    trees = {path: ast.parse(path.read_text(), str(path)) for path in CALLERS}
    uses = {path: _module_uses(tree, reexported) for path, tree in trees.items()}
    unused = []
    for path in LIBRARY:
        module, tree = path.stem, trees[path]
        own = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        others = set().union(*(u for other, u in uses.items() if other != path))
        unused += [
            f"{path.name}:{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in own
            and (module, node.name) not in others
        ]
    assert not unused, "top-level names never used through their module: " + ", ".join(unused)


def test_every_name_imported_from_cig_is_used_where_it_is_imported():
    # An import counts as a use in the scans above, so a dead import would
    # keep its name covered there.  `cig/__init__.py` imports to re-export.
    unused = []
    for path in LIBRARY:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{alias.asname or alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module == "cig" or (node.module or "").startswith("cig."))
            for alias in node.names
            if (alias.asname or alias.name) not in used
        ]
    assert not unused, "imported from cig but never used: " + ", ".join(unused)
