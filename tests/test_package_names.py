"""Every module-level function and class in the package, and every method
and property of its classes, has a caller.

The check reads the syntax trees of ``src/pmqkd/*.py``: a name counts as
used when a ``Name``, an ``Attribute`` or an import alias in the package
refers to it, or when ``pmqkd.__all__`` exports it.  Comments and
docstrings do not count.  Dunder methods, and a module's dunder
functions (PEP 562's ``__getattr__`` and ``__dir__``), are called by
Python itself and are not checked.
"""
import ast
from pathlib import Path

import pmqkd

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_module_level_definition_has_a_caller():
    package = Path(pmqkd.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    used = set(pmqkd.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    dunder = lambda name: name.startswith("__") and name.endswith("__")
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, DEFS) and node.name not in used and not dunder(node.name):
                unused.append(f"{module}:{node.name}")
            if isinstance(node, ast.ClassDef):
                unused += [f"{module}:{node.name}.{method.name}" for method in node.body
                           if isinstance(method, DEFS[:2]) and method.name not in used
                           and not dunder(method.name)]
    assert unused == []
