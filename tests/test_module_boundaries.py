"""No library module imports another module's private name.

A private name (one leading underscore; a dunder such as ``__version__`` is
public) belongs to its module: code that needs it from elsewhere belongs
beside it.  The check reads the source with ``ast``, so it covers every
``from .module import _name`` in ``src/ultmax`` whether or not the import
runs.
"""

import ast
from pathlib import Path

import ultmax

SRC = Path(ultmax.__file__).resolve().parent


def private_imports(path):
    """``module:_name`` for each private name the file at ``path`` imports from a library module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "ultmax"):
            source = "." * node.level + (node.module or "")
            found += [f"{source}:{alias.name}" for alias in node.names
                      if alias.name.startswith("_") and not alias.name.startswith("__")]
    return found


def test_no_module_imports_a_private_name_of_another():
    found = {path.name: private_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 10
    assert {name: names for name, names in found.items() if names} == {}
