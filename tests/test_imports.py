"""No module of the package imports a name it never reads, no private
module-level name is left that nothing else in the package names, no
private function or class is left that the package only imports, no
function takes a parameter it never reads, no private function has a
default that no call in the package sets, no object gets state past its
frozen dataclass's fields through ``object.__setattr__`` outside a
``__post_init__``, and no test module imports a module that is neither
in the standard library nor declared in pyproject.toml, other than
through ``pytest.importorskip``."""

import ast
import re
import sys
from collections import Counter
from itertools import chain
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


def _loaded(node):
    """The name ``node`` loads, as a variable or an attribute, or None."""
    if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
        return node.id if isinstance(node, ast.Name) else node.attr
    return None


def unloaded_privates(sources):
    """Private functions and classes of ``sources``, methods and nested
    ones too (``_name``, not dunder), that no expression of any of them
    loads, as a variable or an attribute, outside their own definition.
    An import does not load a name, so a helper that only tests call is
    found."""
    defined, loads, own = set(), Counter(), Counter()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            loads[_loaded(node)] += 1
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_") and not node.name.startswith("__"):
                defined.add(node.name)
                own[node.name] += sum(_loaded(sub) == node.name for sub in ast.walk(node))
    return sorted(name for name in defined if loads[name] <= own[name])


def test_every_private_function_and_class_is_loaded():
    assert unloaded_privates([path.read_text() for path in SOURCES]) == []


def test_the_scan_sees_a_private_that_is_only_imported():
    lib = ("def _used():\n    return 1\n"
           "def _imported():\n    return 2\n"
           "def _recursive(n):\n    return _recursive(n - 1)\n"
           "class _Box:\n    def _get(self):\n        return self._put()\n"
           "    def _put(self):\n        return _used()\n")
    user = "from lib import _imported, _Box\n"
    assert unloaded_privates([lib, user]) == ["_Box", "_get", "_imported", "_recursive"]


# the CLI's command handlers, which main calls with one shared signature
# whether or not a command needs every argument
DISPATCHED_PREFIX = "_cmd_"


def unused_parameters(source):
    """``function:parameter`` for every parameter of a function in
    ``source``, nested ones too, that the function's body never reads (a
    read in a nested function counts), except in ``_cmd_*`` handlers."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith(DISPATCHED_PREFIX):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{node.name}:{p.arg}" for p in params if p and p.arg not in read]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_takes_a_parameter_it_never_reads(path):
    assert unused_parameters(path.read_text()) == []


def test_the_scan_sees_an_unused_parameter():
    src = ("def solve(form, split, tol=None, *rest, **options):\n"
           "    def inner(x, y=0):\n        return form + x\n"
           "    return inner(split)\n"
           "def _cmd_bounds(args, form):\n    return form\n")
    assert unused_parameters(src) == ["solve:tol", "solve:rest", "solve:options", "inner:y"]


def _defaulted(node):
    """Position (None for keyword-only) of every defaulted parameter of a
    function definition, by name; a method's position skips ``self``."""
    args = node.args
    positional = args.posonlyargs + args.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    out = {p.arg: i - skip for i, p in enumerate(positional)
           if i >= len(positional) - len(args.defaults)}
    out.update({p.arg: None for p, d in zip(args.kwonlyargs, args.kw_defaults) if d})
    return out


def dead_defaults(sources):
    """``function:parameter`` for every defaulted parameter of a private
    function of ``sources`` (``_name``, not dunder) that no call in them
    sets, by position or by keyword."""
    defaults, calls = {}, []
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defaults.setdefault(node.name, {}).update(_defaulted(node))
            elif isinstance(node, ast.Call):
                calls.append(node)
    for call in calls:
        params = defaults.get(getattr(call.func, "id", getattr(call.func, "attr", None)), {})
        keywords = {k.arg for k in call.keywords}
        for param, pos in list(params.items()):
            if param in keywords or (pos is not None and pos < len(call.args)):
                del params[param]
    return sorted(f"{name}:{param}" for name, params in defaults.items() for param in params)


def test_no_private_function_has_a_default_that_no_call_sets():
    assert dead_defaults([path.read_text() for path in SOURCES]) == []


def test_the_scan_sees_a_dead_default():
    lib = ("def _fmt(m, indent='  ', width=8, *, sep=' ', fill='0'):\n"
           "    return m\n"
           "class _Box:\n    def _pad(self, m, size=2, edge=0):\n        return m\n"
           "def __dunder__(x=1):\n    return x\n"
           "def public(x=1):\n    return x\n")
    user = "_fmt(1, ' ', sep=',')\n_Box()._pad(1, 3)\n"
    assert dead_defaults([lib, user]) == ["_fmt:fill", "_fmt:width", "_pad:edge"]


def setattr_outside_post_init(source):
    """Line of every ``object.__setattr__`` in ``source`` that is not in the
    body of a ``__post_init__``, the one place where a frozen dataclass
    sets its own fields; a function nested in one does not count as it."""
    found = []

    def visit(node, in_post_init):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name == "__post_init__")
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "__setattr__"
                    and isinstance(child.value, ast.Name) and child.value.id == "object"
                    and not in_post_init):
                found.append(child.lineno)
            visit(child, in_post_init)

    visit(ast.parse(source), False)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_object_setattr_only_in_post_init(path):
    assert setattr_outside_post_init(path.read_text()) == []


def test_the_scan_sees_a_setattr_outside_post_init():
    src = ("class Box:\n"
           "    def __post_init__(self):\n"
           "        object.__setattr__(self, 'a', 1)\n"
           "        def later():\n"
           "            object.__setattr__(self, 'b', 2)\n"
           "    def _build(self):\n"
           "        set_it = object.__setattr__\n"
           "        return set_it(self, 'c', 3)\n"
           "object.__setattr__(Box(), 'd', 4)\n")
    assert setattr_outside_post_init(src) == [5, 7, 9]


TESTS = sorted(Path(__file__).parent.glob("*.py"))
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# modules of the test suite and of bench/, which its tests put on the path
LOCAL_MODULES = {"conftest", "oracles", "workloads", "problems"}


def undeclared_imports(source, declared):
    """Top-level modules of every import statement in ``source``, at any
    depth, that are not in the standard library, not in ``declared`` and
    not local: ``LOCAL_MODULES`` or a ``test_*`` module. A module reached
    through ``pytest.importorskip`` is a call, not an import statement."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    tops = {name.split(".")[0] for name in names}
    return sorted(top for top in tops - set(sys.stdlib_module_names) - set(declared) - LOCAL_MODULES
                  if not top.startswith("test_"))


@pytest.fixture(scope="module")
def declared():
    """``ariset`` and the distributions pyproject.toml declares, runtime
    and optional, by the name they are imported under."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    requirements = [*project["dependencies"], *chain.from_iterable(
        project.get("optional-dependencies", {}).values())]
    return {"ariset"} | {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
                         for r in requirements}


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_tests_import_only_declared_modules(path, declared):
    assert undeclared_imports(path.read_text(), declared) == []


def test_the_scan_sees_an_undeclared_import():
    src = ("import os.path\nimport numpy as np\nimport sympy\nfrom mpmath import mp\n"
           "import conftest\nfrom test_systems import _pbh_oracle\nfrom ariset.linalg import as_matrix\n"
           "from . import sibling\n"
           "def f():\n    import workloads\n    from scipy.linalg import schur\n    import yaml\n"
           "    return pytest.importorskip('networkx')\n")
    assert undeclared_imports(src, {"ariset", "numpy", "scipy"}) == ["mpmath", "sympy", "yaml"]
