"""src/asymint holds only what a command runs.

Every function or class defined in the package must be named somewhere in
the package outside its own definition: a name that only tests use is a
reference implementation and belongs in tests/oracles.py, and a name that
nothing uses is dead.  Dunder methods are called by the interpreter, and
the allow-list holds hooks that a library calls by name.  No module reads
the environment: every choice a command makes is one of its options.  No
module imports a name that it never reads.  No parameter keeps a default
that no call in the package overrides, and none defaults to True or False:
a mode switch is two code paths behind one name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "asymint"

# the hooks that a library calls by name; src/asymint defines none
ALLOWED = set()

# defaults that no call in the package sets: the command line's entry point,
# and the defaults that bind a slot setter to a local name
UNSET_DEFAULTS = {"main.argv"} | {
    f"{fn}.{name}" for fn, names in (
        ("_ratfunc", ("new", "set_num", "set_den")),
        ("_element", ("new", "set_field", "set_even", "set_odd")),
    ) for name in names
}

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


def _defaults(tree):
    """(function, parameter, position or None, default) for every parameter
    with a default.  A method's position leaves out self or cls.  Dunder
    methods are called by the interpreter under other names, so they are
    left out."""
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body}
    for _, node in _definitions(tree):
        if isinstance(node, ast.ClassDef) or node.name.startswith("__") and node.name.endswith("__"):
            continue
        a = node.args
        bound = id(node) in methods and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        positional = (a.posonlyargs + a.args)[bound:]
        first = len(positional) - len(a.defaults)
        for position, (arg, default) in enumerate(zip(positional[first:], a.defaults), first):
            yield node.name, arg.arg, position, default
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None, default


def _sets(call, param, position):
    """Whether the call passes the parameter, by position or by keyword."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(x, ast.Starred) for x in call.args)


def unset_defaults():
    """file:function.parameter of every default that no call in the package
    sets, matched on the callee's name."""
    trees = _trees()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    found = []
    for file, tree in trees.items():
        for function, param, position, _ in _defaults(tree):
            if f"{function}.{param}" in UNSET_DEFAULTS:
                continue
            if not any(_sets(call, param, position) for call in calls.get(function, [])):
                found.append(f"{file}:{function}.{param}")
    return sorted(found)


def test_every_default_is_set_by_some_call_in_the_package():
    assert unset_defaults() == []


def boolean_defaults():
    """file:function.parameter of every parameter that defaults to True or
    False."""
    return sorted(f"{file}:{function}.{param}"
                  for file, tree in _trees().items()
                  for function, param, _, default in _defaults(tree)
                  if isinstance(default, ast.Constant) and isinstance(default.value, bool))


def test_no_parameter_defaults_to_a_boolean():
    assert boolean_defaults() == []
