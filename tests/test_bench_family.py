"""The benchmark's family check on its first problems, on every problem
with a planted uncontrollable block of seeds 1-3 and on every problem of
seed 2, so that a change in the family's output, its absent subsets
included, shows in the test suite without a benchmark run. On the first
and the uncontrollable problems every subset is also solved on its own
(``conftest.assert_family_is_direct``), and every member's Lcoord is
checked against the inertia law (``conftest.assert_inertia_law``). The
bench/ sources are imported, never modified."""

from pathlib import Path

import pytest

import ariset

from conftest import (
    assert_family_is_direct,
    assert_inertia_law,
    assert_residuals_are_the_members_own,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _family_workload(monkeypatch, tmp_path, seed):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    return workloads.Family(ariset, seed, tmp_path)


@pytest.fixture
def family(monkeypatch, tmp_path):
    return _family_workload(monkeypatch, tmp_path, 1)


def test_bench_family_check_passes_on_the_first_problems(family):
    for case in family.cases[:5]:
        out = family.run(case)
        assert family.check(case, out) == [], case.label
        assert_family_is_direct(*out)
        assert_inertia_law(*out[1:])


def test_bench_family_check_passes_on_the_uncontrollable_problems(monkeypatch, tmp_path):
    # the family leaves out the clusters the split tags uncontrollable; the
    # direct route never reads the tags, so it checks them against the
    # Gramian rank rule on every subset (24 problems over the three seeds)
    for seed in (1, 2, 3):
        family = _family_workload(monkeypatch, tmp_path, seed)
        uncontrollable = [case for case in family.cases if "-unc" in case.label]
        assert uncontrollable
        for case in uncontrollable:
            out = family.run(case)
            assert family.check(case, out) == [], case.label
            assert_family_is_direct(*out)
            assert_inertia_law(*out[1:])


def test_bench_family_check_passes_on_every_problem_of_seed_2(monkeypatch, tmp_path):
    # the planted member counts catch a union pruned that holds a solution
    family = _family_workload(monkeypatch, tmp_path, 2)
    for case in family.cases:
        out = family.run(case)
        assert family.check(case, out) == [], case.label
        assert_inertia_law(*out[1:])


def test_bench_family_members_residuals_are_their_own(monkeypatch, tmp_path):
    # each member's Ric(X) is ric_residual of its own X, bit for bit, and
    # the bulk read's |Ric(X)|_max and verdicts are the members', on
    # every problem of seeds 1-3 (their B = 9 families span four chunks)
    for seed in (1, 2, 3):
        family = _family_workload(monkeypatch, tmp_path, seed)
        for case in family.cases:
            form, _, members = family.run(case)
            assert_residuals_are_the_members_own(form, members)
