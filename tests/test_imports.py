"""No module of the package imports a name it never reads."""

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
