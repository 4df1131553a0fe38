"""No module of the package imports a name it never reads, and no private
module-level name is left that nothing else in the package names."""

import ast
from pathlib import Path

import pytest

import ariset

SOURCES = sorted(Path(ariset.__file__).parent.glob("*.py"))


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    """Names bound by module-level imports of ``source`` that the module
    never reads, except those in ``__all__`` and on ``# noqa: F401`` lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name != "*" and "noqa: F401" not in lines[alias.lineno - 1]
    ]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(set(bound) - read - _exported(tree))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_an_unused_import():
    src = ("import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n"
           "__all__ = ['tau']\n")
    assert unused_imports(src) == ["os", "pi"]


def _defined_name(node):
    """The name a module-level def, class or single-target assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    if len(targets) == 1 and isinstance(targets[0], ast.Name):
        return targets[0].id
    return None


def orphaned_privates(sources):
    """Private module-level functions, classes and constants of ``sources``
    (``_name``, not dunder) that no other statement of any of them names:
    read as a variable, taken as an attribute or imported. A definition
    that only names itself, as a recursion does, is still an orphan."""
    defined, named = set(), set()
    for source in sources:
        for node in ast.parse(source).body:
            own = _defined_name(node)
            if own and own.startswith("_") and not own.startswith("__"):
                defined.add(own)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                elif isinstance(sub, ast.alias):
                    name = sub.name
                else:
                    continue
                if name != own:
                    named.add(name)
    return sorted(defined - named)


def test_no_private_name_is_orphaned():
    assert orphaned_privates([path.read_text() for path in SOURCES]) == []


def test_the_scan_sees_an_orphaned_private():
    lib = ("_RTOL = 1e-8\n_UNUSED = 2\n__version__ = '1'\n"
           "def _used():\n    return _RTOL\n"
           "def _segments(n):\n    return _segments(n - 1)\n"
           "class _Kept:\n    pass\n")
    user = "from lib import _Kept\nimport lib\nlib._used()\n"
    assert orphaned_privates([lib, user]) == ["_UNUSED", "_segments"]
