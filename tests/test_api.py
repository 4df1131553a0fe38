"""The public surface: exported names, the validation of Tolerances and the
default tolerances of the public kernels."""

import dataclasses
import importlib
import inspect
import pathlib
import re

import numpy as np
import pytest

import ariset
from ariset import DEFAULT, InvalidInput, Tolerances

MODULES = ("analysis", "errors", "linalg", "riccati", "systems", "tolerances")

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# kernels that nothing in the pipeline calls; the last three stay defined in
# ariset.linalg for the benchmark's tracer, and the two errors that only
# those raise stay in ariset.errors
REMOVED = ("sym_eig", "kalman_rank", "solve_sylvester", "solve_lyapunov_stable",
           "schur_complement", "NotHurwitz", "SingularBlock")


@pytest.mark.parametrize("module", ("",) + MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"ariset.{module}" if module else "ariset")
    names = getattr(mod, "__all__", [])
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"{mod.__name__}.__all__ names unbound {missing}"


def test_top_level_all_is_sorted_and_unique():
    assert ariset.__all__ == sorted(set(ariset.__all__))


def test_removed_names_are_not_exported():
    assert not set(REMOVED) & set(ariset.__all__)
    assert not any(hasattr(ariset, name) for name in REMOVED)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Tolerances)])
def test_tolerances_reject_invalid_values(field):
    for bad in (np.nan, np.inf, -np.inf, -1.0, -1e-300, True, "1e-8", None):
        with pytest.raises(InvalidInput, match=field):
            Tolerances(**{field: bad})
        with pytest.raises(InvalidInput, match=field):
            dataclasses.replace(DEFAULT, **{field: bad})
    for good in (0.0, 0, 1e-3, np.float64(2.0)):
        assert getattr(Tolerances(**{field: good}), field) == good


def _readme_thresholds():
    """``{"module.NAME": value}`` of the README's fixed-threshold table."""
    lines = iter(README.read_text(encoding="utf-8").splitlines())
    next(line for line in lines if line.startswith("| Threshold | Where | Decision |"))
    next(lines)  # the separator row
    table = {}
    for line in lines:
        if not line.startswith("|"):
            break
        value, where = (cell.strip() for cell in line.split("|")[1:3])
        table[where.strip("`")] = float(value)
    return table


def test_readme_threshold_table_names_every_fixed_threshold():
    # every public module-level float constant is a fixed threshold
    constants = {}
    for module in MODULES + ("cli",):
        for name, value in vars(importlib.import_module(f"ariset.{module}")).items():
            if not name.startswith("_") and type(value) is float:
                constants[f"{module}.{name}"] = value
    assert all(name.endswith(("_RTOL", "_ATOL")) or name == "riccati.FAMILY_BACKWARD_ERROR"
               for name in constants)
    assert _readme_thresholds() == constants


@pytest.mark.parametrize("func,param,field", [
    ("linalg.symmetrize", "sym_tol", "sym"),
    ("linalg.definiteness", "tol", "definiteness"),
    ("linalg.definiteness", "sym_tol", "sym"),
    ("systems.pbh_classify", "rank_tol", "rank"),
    ("linalg.solve_lyapunov_stable", "axis_tol", "axis"),
    ("linalg.solve_lyapunov_stable", "sym_tol", "sym"),
    ("linalg.schur_complement", "rank_tol", "rank"),
    ("linalg.schur_complement", "sym_tol", "sym"),
])
def test_default_tolerances_come_from_default(func, param, field):
    module, name = func.split(".")
    fn = getattr(importlib.import_module(f"ariset.{module}"), name)
    assert inspect.signature(fn).parameters[param].default == getattr(DEFAULT, field)



def module_references(text):
    """The distinct ``module.name`` references in backticks of ``text``,
    ``ariset.`` prefix optional, as sorted (module, name) pairs."""
    pattern = rf"`(?:ariset\.)?({'|'.join(MODULES + ('cli',))})\.(\w+)`"
    return sorted(set(re.findall(pattern, text)))


def test_every_readme_reference_resolves():
    refs = module_references(README.read_text(encoding="utf-8"))
    assert len(refs) >= 16  # as many as the README held when this test was written
    missing = [f"{module}.{name}" for module, name in refs
               if not hasattr(importlib.import_module(f"ariset.{module}"), name)]
    assert missing == []


def test_the_scan_sees_every_module_reference():
    text = "`riccati.gone`, `linalg.as_matrix`, `ariset.cli.main`, `numpy.zeros` and `riccati`"
    assert module_references(text) == [("cli", "main"), ("linalg", "as_matrix"), ("riccati", "gone")]
