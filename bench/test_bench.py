"""Tests of the benchmark itself: generator, output checks, span arithmetic.

Run from the root of the checkout:

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import gc
import os
import tempfile

import numpy as np
import pytest

import problems as gen
import run
import spans
import speed
import workloads

ar = run.load_ariset()


def _fingerprint(problems):
    out = []
    for p in problems:
        out.append((p.label, p.A.tobytes(), p.B.tobytes(),
                    None if p.param is None else p.param.tobytes(), p.truth))
    return out


@pytest.mark.parametrize("make", [gen.family_problems, gen.ladder_problems, gen.cli_problems])
def test_same_seed_gives_byte_identical_problems(make):
    assert _fingerprint(make(7)) == _fingerprint(make(7))
    assert _fingerprint(make(7)) != _fingerprint(make(8))


def test_planted_spectrum_is_exact():
    for p in gen.ladder_problems(3)[1:8]:
        got = np.linalg.eigvals(p.A)
        assert workloads.spectrum_gap(got, workloads.expand(p.modes)) < 1e-8


def test_planted_truth():
    truths = {p.label: p.truth for p in gen.ladder_problems(1)}
    assert truths["ladder-n6-ctrl-a"].verdict == "bounded"
    assert truths["ladder-n6-unc-rhp"].verdict == "bounded-below-only"
    assert truths["ladder-n6-unc-lhp"].antistabilizing is False
    assert truths["ladder-n6-unc-both"].verdict == "unbounded-both"
    assert truths["ladder-n6-zero"].antistabilizing is None
    assert truths["ladder-n6-imag"].free_families == 1
    for p in gen.family_problems(1):
        ctrl = sum(1 for md in p.modes if md.controllable)
        assert p.truth.members == 2 ** ctrl
        assert 5 <= p.truth.nonaxis_blocks <= 9 and 6 <= p.n <= 10


def test_generator_gives_up_with_a_clear_error():
    rng = np.random.default_rng(0)
    modes = gen.place_modes(rng, gen.balanced_blocks(4, 1))
    with pytest.raises(gen.GenerationError, match="in 3 tries"):
        gen.build_pair(rng, modes, m=1, margin=2.0, max_tries=3)


def _unbounded_ladder_draw(seed, n, variant):
    """A ladder draw as the generator makes it, but without the norm bound."""
    plan = [(k, v) for v in gen.LADDER_VARIANTS for k in gen.LADDER_RUNGS]
    rng = gen.rng_for(seed, "ladder", 1 + plan.index((n, variant)))
    modes = gen.ladder_modes(rng, n, variant)
    a, b = gen.build_pair(rng, modes, gen.inputs_for(n))
    return a, b, modes


def test_solution_norm_is_the_norm_of_the_library_base():
    a, b, modes = _unbounded_ladder_draw(5, 20, "ctrl-b")
    form = ar.solve_base_are(ar.RiccatiProblem(A=a, B=b), kind="antistabilizing")
    assert gen.half_plane_solution_norm(a, b, modes, gen.LHP) == pytest.approx(
        np.linalg.norm(form.K0, 2), rel=1e-8)


def test_ladder_problems_keep_their_solutions_within_the_bound():
    for p in gen.ladder_problems(31):
        for plane in (gen.RHP, gen.LHP):
            assert gen.half_plane_solution_norm(p.A, p.B, p.modes, plane) <= gen.X_MAX


@pytest.mark.xfail(raises=ar.NoBaseSolution, strict=True,
                   reason="the base residual bound scales with ||A|| but not with ||X||")
def test_library_accepts_the_base_of_an_ill_conditioned_problem():
    # the ladder keeps its problems within X_MAX because of this refusal
    a, b, modes = _unbounded_ladder_draw(31, 6, "ctrl-b")
    assert gen.half_plane_solution_norm(a, b, modes, gen.LHP) > 10 * gen.X_MAX
    form = ar.solve_base_are(ar.RiccatiProblem(A=a, B=b), kind="antistabilizing")
    assert workloads.ric_max_abs(a, form.M, form.K0) <= workloads.RESID_TOL


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as path:
        yield path


def test_family_check_rejects_a_perturbed_solution(workdir):
    family = workloads.Family(ar, 1, workdir)
    case = family.cases[0]
    form, split, members = family.run(case)
    assert family.check(case, (form, split, members)) == []
    bad = list(members)
    top = bad[-1]
    bad[-1] = dataclasses.replace(top, X=top.X + 1e-3 * np.eye(top.X.shape[0]))
    assert any("residual" in f for f in family.check(case, (form, split, bad)))
    assert any("members" in f for f in family.check(case, (form, split, members[:-1])))


def test_ladder_check_rejects_a_wrong_verdict_and_a_perturbed_k(workdir):
    ladder = workloads.Ladder(ar, 1, workdir)
    case = ladder.cases[0]
    assert case.label == "paper-n3"
    out = ladder.run(case)
    assert ladder.check(case, out) == []
    wrong = dict(out, bounds=ar.BoundednessReport(verdict="unbounded-both", witnesses=()))
    assert any("verdict" in f for f in ladder.check(case, wrong))
    shifted = dict(out, K=out["K"] + 0.5 * np.eye(3))
    assert ladder.check(case, shifted)


def test_ladder_check_tells_a_declined_certificate_from_a_wrong_flip(workdir):
    ladder = workloads.Ladder(ar, 1, workdir)
    case = ladder.cases[0]
    out = ladder.run(case)
    declined = dict(out, flip=dataclasses.replace(out["flip"], matched=False))
    fails = ladder.check(case, declined)
    assert len(fails) == 1 and isinstance(fails[0], workloads.Declined)
    wrong_sol = dataclasses.replace(out["eq_sol"], X=0.5 * out["eq_sol"].X)
    fails = ladder.check(case, dict(declined, eq_sol=wrong_sol))
    assert fails and not all(isinstance(f, workloads.Declined) for f in fails)
    runner = run.Runner(ladder)
    ladder.check = lambda case, out: [workloads.Declined("certificate")]
    runner.one(case)
    assert runner.correct and runner.failures[0]["kind"] == "declined"


@pytest.mark.parametrize("error, kind", [
    (workloads.BaseRefused("residual 2e-7"), "declined"),
    (ar.Uncontrollable("mode 3"), "wrong"),
    (ar.NoBaseSolution("no base"), "wrong"),
    (ValueError("bad shape"), "wrong"),
])
def test_only_a_refused_hamiltonian_base_is_declined(workdir, error, kind):
    ladder = workloads.Ladder(ar, 1, workdir)

    def raise_(case):
        raise error

    ladder.run = raise_
    runner = run.Runner(ladder)
    runner.one(ladder.cases[0])
    assert runner.failures[0]["kind"] == kind
    assert runner.correct == (kind == "declined")


def test_ladder_turns_a_refused_hamiltonian_base_into_base_refused(workdir, monkeypatch):
    ladder = workloads.Ladder(ar, 1, workdir)
    case = next(c for c in ladder.cases if c.problem.truth.antistabilizing)

    def refuse(*args, **kwargs):
        raise ar.NoBaseSolution("residual check failed")

    monkeypatch.setattr(ar, "solve_base_are", refuse)
    with pytest.raises(workloads.BaseRefused):
        ladder.run(case)


def test_cli_check_rejects_a_wrong_exit_code(workdir):
    cli = workloads.Cli(ar, 1, workdir)
    case = next(c for c in cli.cases if c.argv[0] == "extremal" and c.expect_code == 5)
    code, stdout, stderr = cli.run(case)
    assert code == 5 and cli.check(case, (code, stdout, stderr)) == []
    assert cli.check(case, (0, stdout, stderr))
    case = next(c for c in cli.cases if c.argv[0] == "bounds" and "--json" in c.argv)
    code, stdout, stderr = cli.run(case)
    assert cli.check(case, (code, stdout, stderr)) == []
    assert cli.check(case, (code, stdout.replace('"verdict": "', '"verdict": "x'), stderr))


def _span(name, start, end, parent, op=0):
    s = spans.Span(name, start, parent, op)
    s.end = end
    return s


def test_self_time_is_exact_on_a_nested_trace():
    trace = [
        _span("op", 0, 100, -1),
        _span("a", 10, 40, 0),
        _span("b", 20, 30, 1),
        _span("c", 50, 90, 0),
        _span("d", 55, 60, 3),
        _span("d", 70, 85, 3),
    ]
    selfs = spans.self_times(trace)
    assert selfs == [30, 20, 10, 20, 5, 15]
    assert sum(selfs) == 100
    assert spans.self_sum_gaps(trace, selfs) == {0: 0}


def test_self_time_clips_children_to_the_parent():
    trace = [_span("op", 0, 10, -1), _span("a", 5, 20, 0), _span("b", 6, 8, 0)]
    assert spans.self_times(trace)[0] == 5


def test_tracer_wraps_every_binding_and_restores_it(workdir):
    before = (ar.riccati.reduce, ar.analysis.reduce_blocks, ar.cli.schur_family,
              ar.riccati.solve_sylvester)
    tracer = spans.Tracer(ar)
    family = workloads.Family(ar, 2, workdir)
    with tracer.installed():
        assert ar.analysis.reduce_blocks is not before[1]
        with tracer.operation("one"):
            family.run(family.cases[0])
    assert (ar.riccati.reduce, ar.analysis.reduce_blocks, ar.cli.schur_family,
            ar.riccati.solve_sylvester) == before
    metrics, selfs = spans.layer_metrics(tracer.spans, 1)
    nb = family.cases[0].problem.truth.nonaxis_blocks
    assert metrics["riccati.schur_family.calls"][0] == 1
    assert metrics["riccati.schur_family.subsets_tried"][0] == 2 ** nb - 1
    assert metrics["riccati.schur_family.members"][0] == family.cases[0].problem.truth.members
    assert spans.self_sum_gaps(tracer.spans, selfs) == {0: 0}


def test_missing_sources_exit_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", os.path.join(tempfile.gettempdir(), "no-such-src"))
    assert run.main(["--workload", "family", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


class _ScriptedReference:
    def __init__(self, samples_ms):
        self._samples = iter(samples_ms)

    def sample_ns(self):
        return next(self._samples) * 1e6


def test_clock_scales_each_operation_by_the_blocks_around_it():
    ref = speed.REFERENCE_MS
    # one block per operation (every_ns=1); each block is three samples
    blocks = [ref, ref, ref, ref, ref, 3 * ref, 3 * ref, 3 * ref, 3 * ref]
    clock = speed.Clock(_ScriptedReference(blocks), every_ns=1)
    clock.add("fast", 1e6)
    clock.add("slow", 4e6)
    clock.close()
    scaled = clock.scaled()
    # block medians: ref, ref, 3 ref; the second op sits between ref and 3 ref
    assert len(clock.blocks) == 3
    assert scaled["fast"] == [pytest.approx(1e6)]
    assert scaled["slow"] == [pytest.approx(4e6 / 2)]


def test_reference_runs_with_the_collector_off():
    reference = speed.Reference()
    collections = []
    threshold = gc.get_threshold()
    gc.callbacks.append(lambda phase, info: collections.append(phase))
    gc.set_threshold(1)
    try:
        reference.sample_ns()
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.pop()
    assert collections == [] and gc.isenabled()
