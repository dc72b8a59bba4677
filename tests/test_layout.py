"""src/asymint holds only what a command runs.

Every function or class defined in the package must be named somewhere in
the package outside its own definition: a name that only tests use is a
reference implementation and belongs in tests/oracles.py, and a name that
nothing uses is dead.  Dunder methods are called by the interpreter, and
the allow-list holds hooks that a library calls by name.  No module reads
the environment: every choice a command makes is one of its options.  No
module imports a name that it never reads.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "asymint"

# argparse calls ArgumentParser.error on a usage error
ALLOWED = {"_Parser.error"}

# the os names that read or write the process environment
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


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


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def unreferenced():
    trees = _trees()
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


def environment_reads():
    """file:line of every `os.<name>` or `from os import <name>` that touches
    the process environment."""
    found = []
    for file, tree in _trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append(f"{file}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                    alias.name in ENVIRONMENT for alias in node.names):
                found.append(f"{file}:{node.lineno}")
    return found


def test_no_module_reads_the_environment():
    assert environment_reads() == []


def unused_imports():
    """file:name of every name a module imports and never reads;
    `__future__` is a switch."""
    found = []
    for file, tree in _trees().items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        found.append(f"{file}:{name}")
    return found


def test_no_module_imports_a_name_it_never_reads():
    assert unused_imports() == []
