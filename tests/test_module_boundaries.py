"""No library module imports another module's private name or a package
outside the run-time dependencies, and every exported name has a reader at
run time.

A private name (one leading underscore; a dunder such as ``__version__`` is
public) belongs to its module: code that needs it from elsewhere belongs
beside it.  A name in a module's ``__all__`` that no library code reads is
API nobody runs: it belongs in the tests that use it, or nowhere.  An
import that is not relative names the standard library, numpy or PyYAML,
so no test-only package reaches the run path, and only the stepper calls
foreign code through ``ctypes``.  All four checks read the
source with ``ast``, so they cover every module in ``src/ultmax`` whether
or not it is imported.
"""

import ast
import sys
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


# The run path's only third-party packages: SciPy, mpmath and Hypothesis are
# test dependencies and must not come back into the library.
RUN_TIME_PACKAGES = {"numpy", "yaml"}


def absolute_imports(path):
    """The name of each module the file at ``path`` imports absolutely."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
    return found


def foreign_imports(path):
    """Each absolute import in the file at ``path`` of neither the standard library nor a run-time package."""
    return [name for name in absolute_imports(path)
            if name.split(".")[0] not in sys.stdlib_module_names | RUN_TIME_PACKAGES]


def test_library_imports_only_relative_stdlib_numpy_and_yaml():
    found = {path.name: foreign_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 10
    assert {name: modules for name, modules in found.items() if modules} == {}


# The one module that calls foreign code: the name of numpy's bundled dgttrs
# and the ``ctypes`` call into it stay behind it.
CTYPES_MODULE = "stepping.py"


def test_only_the_stepper_imports_ctypes():
    importers = sorted(path.name for path in SRC.glob("*.py")
                       if any(name.split(".")[0] == "ctypes" for name in absolute_imports(path)))
    assert importers == [CTYPES_MODULE]


def exports(tree):
    """The names a module's ``__all__`` lists, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_every_export_has_a_run_time_reader():
    """A name counts as read where a ``Name`` or an ``Attribute`` loads it in library code.

    Its own module counts; a re-export in ``__init__.py`` (an import alias) and
    the ``__all__`` strings do not.  Names are matched by spelling, not by the
    module they come from.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
    exported = {module: set(exports(tree)) for module, tree in trees.items()}
    assert sum(map(bool, exported.values())) > 10
    unread = {module: sorted(names - read) for module, names in exported.items()}
    assert {module: names for module, names in unread.items() if names} == {}
