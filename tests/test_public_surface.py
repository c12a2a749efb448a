"""Every name the package exports has a caller inside the package."""
import ast
from pathlib import Path

import npcount

PACKAGE = Path(npcount.__file__).parent

def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def referenced_names():
    """Names loaded, or read as attributes, anywhere in the package outside ``__init__``.

    A definition does not reference itself; docstrings and comments are not code.
    """
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_caller_in_the_package():
    exported = exported_names()
    unused = exported - referenced_names()
    assert not unused, f"exported but never used in src/npcount: {sorted(unused)}"
