"""src/asymint holds only what a command runs.

Every function or class defined in the package must be named somewhere in
the package outside its own definition: a name that only tests use is a
reference implementation and belongs in tests/oracles.py, and a name that
nothing uses is dead.  Dunder methods are called by the interpreter, and
the allow-list holds hooks that a library calls by name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "asymint"

# argparse calls ArgumentParser.error on a usage error
ALLOWED = {"_Parser.error"}


def _definitions(tree):
    """(qualified name, node) for every function and class in the tree."""
    stack = [(node, "") for node in tree.body]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualified = f"{prefix}{node.name}"
            yield qualified, node
            stack.extend((child, f"{qualified}.") for child in node.body)
        else:
            stack.extend((child, prefix) for child in ast.iter_child_nodes(node))


def _references(tree):
    """(name, line) for every plain name and attribute name read in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unreferenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    refs = [(file, name, line) for file, tree in trees.items()
            for name, line in _references(tree)]
    found = []
    for file, tree in trees.items():
        for qualified, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__") or qualified in ALLOWED:
                continue
            # a reference inside the definition itself (recursion) does not count
            if not any(ref == name and not (ref_file == file
                                            and node.lineno <= line <= node.end_lineno)
                       for ref_file, ref, line in refs):
                found.append(f"{file}:{qualified}")
    return sorted(found)


def test_every_definition_is_named_elsewhere_in_the_package():
    assert unreferenced() == []
