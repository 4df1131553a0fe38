"""Smoke test: every script in demos/ runs to completion in-process."""

import contextlib
import io
import pathlib
import runpy

import numpy as np
import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    out = io.StringIO()
    # the demos set numpy print options; restore them for later tests
    with np.printoptions(), contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()
