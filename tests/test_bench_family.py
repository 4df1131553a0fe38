"""The benchmark's family check on its first problems, so that a change in
the family's output shows in the test suite without a benchmark run. The
bench/ sources are imported, never modified."""

from pathlib import Path

import ariset

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_family_check_passes_on_the_first_problems(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    family = workloads.Family(ariset, 1, tmp_path)
    for case in family.cases[:5]:
        assert family.check(case, family.run(case)) == [], case.label
