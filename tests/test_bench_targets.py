"""The traced benchmark wraps package functions by name; keep them bound."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    """``TARGETS`` of bench/spans.py, read without importing the module."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {SPANS}")


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    missing = [
        f"{mod}.{fn}"
        for mod, fns in targets.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"ariset.{mod}"), fn, None))
    ]
    assert not missing, f"traced names no longer bound: {missing}"
