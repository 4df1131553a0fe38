import numpy as np
import pytest

from ariset import (
    InvalidInput,
    NotAnEquationSolution,
    NotASolution,
    NotRHPSelection,
    ParamPoint,
    SingularInput,
    Uncontrollable,
    boundedness,
    definiteness,
    extremal_solutions,
    feedback_flip,
    full_rank_simplified_solution,
    parametrize,
    rank_one_classify,
    recover_parameter,
    reduce,
    ric_residual,
    schur_family,
    verify,
)
from ariset import analysis
from ariset.linalg import solve_lyapunov_stable

from conftest import (
    LHAT,
    LL,
    LR,
    build_system,
    char_poly_eigs,
    draw_spectrum,
    homogeneous_setup,
)


# ---------------------------------------------------------------------------
# rank-one classification


def test_rank_one_eigenvector_of_left_mode(paper):
    _, form, _ = paper
    v = np.array([0.0, 0.0, 1.0])
    assert rank_one_classify(form, v, -8.0) == "semidefinite-rank<=1"
    # alpha = -8 is the minimum solution: residual exactly zero
    assert np.abs(ric_residual(form, -8.0 * np.outer(v, v))).max() <= 1e-12


def test_rank_one_eigenvector_generic():
    form, _ = homogeneous_setup(np.diag([1.0, 2.0]), [[1.0], [1.0]])
    assert rank_one_classify(form, [1.0, 0.0], 3.0) == "semidefinite-rank<=1"


def test_rank_one_non_eigenvector_indefinite():
    form, _ = homogeneous_setup(np.diag([1.0, 2.0]), [[1.0], [1.0]])
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert rank_one_classify(form, v, 1.0) == "indefinite"
    # hand value: Ric(vv^T) = [[0, -1/2], [-1/2, -1]] with determinant -1/4,
    # so one eigenvalue of each sign
    resid = ric_residual(form, np.outer(v, v))
    assert np.allclose(resid, [[0.0, -0.5], [-0.5, -1.0]], atol=1e-12)
    assert definiteness(resid).kind == "indefinite"


def test_rank_one_agrees_with_definiteness():
    rng = np.random.default_rng(67)
    for _ in range(6):
        a0, b = build_system(rng, ctrl=draw_spectrum(rng, 4), m=2)
        form, split = homogeneous_setup(a0, b)
        real_blocks = [i for i, blk in enumerate(split.blocks)
                       if blk.size == 1]
        for _ in range(50):
            if real_blocks and rng.random() < 0.5:
                # a genuine invariant direction from a random real block
                i = real_blocks[rng.integers(len(real_blocks))]
                v = reduce(form, split, [i]).Lk[:, 0]
            else:
                v = rng.standard_normal(4)
                v /= np.linalg.norm(v)
            # alpha = 0: X = 0 and Ric(X) = 0 whatever v is
            for alpha in (float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])), 0.0):
                label = rank_one_classify(form, v, alpha)
                verdict = definiteness(ric_residual(form, alpha * np.outer(v, v)))
                if label == "semidefinite-rank<=1":
                    assert verdict.kind != "indefinite"
                else:
                    assert verdict.kind == "indefinite"


def test_rank_one_requires_unit_vector(paper):
    _, form, _ = paper
    with pytest.raises(InvalidInput):
        rank_one_classify(form, [1.0, 1.0, 0.0], 1.0)


@pytest.mark.parametrize("v", [[np.nan, 0.0, 0.0], np.array([1.0 + 0.5j, 0.0, 0.0])],
                         ids=["nan", "complex"])
def test_rank_one_requires_a_real_finite_vector(paper, v):
    # NaN slips past a norm test, and the complex v's real part is a unit vector
    _, form, _ = paper
    with pytest.raises(InvalidInput, match="^v "):
        rank_one_classify(form, v, 1.0)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
def test_rank_one_requires_finite_alpha(paper, alpha):
    _, form, _ = paper
    with pytest.raises(InvalidInput):
        rank_one_classify(form, [1.0, 0.0, 0.0], alpha)


# ---------------------------------------------------------------------------
# extremal solutions


def test_extremal_worked_example(paper):
    _, form, split = paper
    pair = extremal_solutions(form, split)
    assert np.abs(pair.Lr.X - LR).max() <= 1e-10
    assert np.abs(pair.Ll.X - LL).max() <= 1e-10
    assert np.abs(pair.K_max - LR).max() <= 1e-10  # K0 = 0
    assert np.abs(pair.K_min - LL).max() <= 1e-10
    assert np.linalg.eigvalsh(pair.Lr.X).min() >= -1e-10
    assert np.linalg.eigvalsh(pair.Ll.X).max() <= 1e-10


def test_extremal_all_rhp_minimum_is_zero():
    rng = np.random.default_rng(71)
    a0, b = build_system(rng, ctrl=draw_spectrum(rng, 3, half_planes=("RHP",)), m=1)
    form, split = homogeneous_setup(a0, b)
    pair = extremal_solutions(form, split)
    assert pair.Ll.rank == 0 and np.all(pair.Ll.X == 0.0)
    full = full_rank_simplified_solution(
        reduce(form, split, range(len(split.blocks)))
    )
    assert np.abs(pair.Lr.X - full.X).max() <= 1e-9


def test_extremal_scalar_interval():
    form, split = homogeneous_setup([[1.0]], [[1.0]])
    pair = extremal_solutions(form, split)
    assert abs(pair.Lr.X[0, 0] - 2.0) < 1e-12
    assert abs(pair.Ll.X[0, 0]) < 1e-12
    # feasibility matches the interval [0, 2] of -2x + x^2 <= 0
    for x in (0.0, 0.5, 1.0, 2.0):
        assert verify(form, [[x]]).passed
    for x in (-0.2, 2.2, 5.0):
        assert not verify(form, [[x]]).passed


def test_extremal_requires_controllability():
    form, split = homogeneous_setup(np.diag([1.0, -1.0]), [[1.0], [0.0]])
    with pytest.raises(Uncontrollable):
        extremal_solutions(form, split)


# ---------------------------------------------------------------------------
# boundedness


def _sweep_ok(form, witness, tol=1e-7):
    signs = {"+": [1.0], "-": [-1.0], "+-": [1.0, -1.0]}[witness.sign]
    a0n = np.linalg.norm(form.A0, 2)
    mn = np.linalg.norm(form.M, 2)
    for s in signs:
        for alpha in (1.0, 10.0, 100.0, 1000.0):
            resid = ric_residual(form, s * alpha * witness.direction)
            cut = tol * max(1.0, alpha * a0n, alpha ** 2 * mn)
            if np.linalg.eigvalsh(resid)[-1] > cut:
                return False
    return True


def test_bounded_worked_example(paper):
    _, form, split = paper
    report = boundedness(form, split)
    assert report.verdict == "bounded" and report.witnesses == ()


def test_bounded_above_only_left_uncontrollable():
    form, split = homogeneous_setup(np.diag([1.0, -1.0]), [[1.0], [0.0]])
    report = boundedness(form, split)
    assert report.verdict == "bounded-above-only"
    assert len(report.witnesses) == 1
    w = report.witnesses[0]
    assert w.sign == "-"
    e2 = np.zeros((2, 2))
    e2[1, 1] = 1.0
    assert np.abs(w.direction - e2).max() <= 1e-10
    assert _sweep_ok(form, w)


def test_unbounded_both_with_zero_input():
    form, split = homogeneous_setup(np.diag([1.0, -1.0]), [[0.0], [0.0]])
    report = boundedness(form, split)
    assert report.verdict == "unbounded-both"
    assert sorted(w.sign for w in report.witnesses) == ["+", "-"]
    assert all(_sweep_ok(form, w) for w in report.witnesses)


def test_unbounded_both_with_uncontrollable_pair():
    a0 = np.zeros((3, 3))
    a0[0, 1] = 1.5
    a0[1, 0] = -1.5
    a0[2, 2] = -1.0
    form, split = homogeneous_setup(a0, [[0.0], [0.0], [1.0]])
    report = boundedness(form, split)
    assert report.verdict == "unbounded-both"
    assert [w.sign for w in report.witnesses] == ["+-"]
    assert _sweep_ok(form, report.witnesses[0])


def test_bounded_below_only_complex_uncontrollable():
    rng = np.random.default_rng(73)
    a0, b = build_system(rng, ctrl=[-1.2, 2.0], unc=[1.0 + 1.5j], m=2)
    form, split = homogeneous_setup(a0, b)
    report = boundedness(form, split)
    assert report.verdict == "bounded-below-only"
    assert all(w.sign == "+" for w in report.witnesses)
    assert all(_sweep_ok(form, w) for w in report.witnesses)
    for w in report.witnesses:
        assert abs(np.linalg.norm(w.direction) - 1.0) <= 1e-12


def test_boundedness_and_parametrize_factor_no_schur_form(schur_calls):
    # rays on an uncontrollable RHP pair and LHP mode, and a parametrized
    # solution, all on the Schur forms reduce already hands back
    rng = np.random.default_rng(139)
    a0, b = build_system(rng, ctrl=[1.3, complex(0.8, 1.1), -0.9],
                         unc=[complex(1.7, 0.6), -1.2], m=2)
    form, split = homogeneous_setup(a0, b)
    del schur_calls[:]
    report = boundedness(form, split)
    rhp = split.indices(half_plane="RHP", controllable=True)
    eqn = reduce(form, split, rhp)
    sol = parametrize(eqn, np.eye(eqn.k))
    assert schur_calls == []
    assert report.verdict == "unbounded-both"
    assert sorted(w.sign for w in report.witnesses) == ["+", "-"]
    assert all(_sweep_ok(form, w) for w in report.witnesses)
    assert sol.certificate.strict and sol.certificate.passed
    # each ray against the general Lyapunov solver on Dk P + P Dkᵀ = ±I
    for w in report.witnesses:
        blk_eqn = reduce(form, split, [w.block])
        sign = 1.0 if w.sign == "+" else -1.0
        p = solve_lyapunov_stable(-sign * blk_eqn.Dk.T, np.eye(blk_eqn.k))
        x = blk_eqn.Lk @ p @ blk_eqn.Lk.T
        assert np.abs(w.direction - x / np.linalg.norm(x)).max() <= 1e-12


# ---------------------------------------------------------------------------
# parametrization


def test_parametrize_zero_recovers_equation_solution(paper):
    _, form, split = paper
    eqn = reduce(form, split, [0, 1])
    sol = parametrize(eqn, np.zeros((2, 2)))
    assert np.abs(sol.Lcoord - LR[:2, :2]).max() <= 1e-9
    assert sol.certificate.strict is False and sol.certificate.passed


def test_parametrize_identity_hand_values(paper):
    # oracle: entrywise formula Delta_ij = P_ij / (d_i + d_j) for diagonal
    # Dk = diag(1, 2), then a 2x2 inversion by hand
    _, form, split = paper
    eqn = reduce(form, split, [0, 1])
    sol = parametrize(eqn, np.eye(2))
    delta = np.diag([0.5, 0.25])
    y_hat = np.array([[0.5, 1 / 3], [1 / 3, 0.25]]) + delta
    det = y_hat[0, 0] * y_hat[1, 1] - y_hat[0, 1] ** 2
    lhat = np.array(
        [[y_hat[1, 1], -y_hat[0, 1]], [-y_hat[0, 1], y_hat[0, 0]]]
    ) / det
    assert np.abs(sol.Lcoord - lhat).max() <= 1e-12
    assert sol.certificate.strict and sol.certificate.passed
    # strict feasibility of the embedded solution on its support
    reduced = eqn.Lk.T @ ric_residual(form, sol.X) @ eqn.Lk
    assert np.linalg.eigvalsh(reduced)[-1] < -1e-8


def test_parametrize_accepts_param_point(paper):
    _, form, split = paper
    eqn = reduce(form, split, [0, 1])
    p = np.array([[2.0, 0.5], [0.5, 1.0]])
    bound = parametrize(eqn, ParamPoint(P=p, block_set=eqn.block_set))
    bare = parametrize(eqn, p)
    assert np.array_equal(bound.X, bare.X)
    assert np.array_equal(bound.Lcoord, bare.Lcoord)
    assert bound.certificate == bare.certificate


def test_parametrize_rejects_param_point_of_other_blocks(paper):
    _, form, split = paper
    eqn = reduce(form, split, [0, 1])
    with pytest.raises(InvalidInput, match="bound to blocks"):
        parametrize(eqn, ParamPoint(P=np.eye(2), block_set=(0,)))


def test_parametrize_scalar_sweep_fills_interval():
    form, split = homogeneous_setup([[1.0]], [[1.0]])
    eqn = reduce(form, split, [0])
    for p in (0.0, 0.25, 1.0, 4.0, 30.0):
        sol = parametrize(eqn, [[p]])
        assert abs(sol.Lcoord[0, 0] - 2.0 / (1.0 + p)) <= 1e-12
    values = [parametrize(eqn, [[p]]).Lcoord[0, 0] for p in np.linspace(0, 50, 40)]
    assert max(values) <= 2.0 + 1e-12 and min(values) > 0.0


def test_parametrize_requires_rhp(paper):
    _, form, split = paper
    eqn = reduce(form, split, [2])
    with pytest.raises(NotRHPSelection):
        parametrize(eqn, [[1.0]])


def test_parametrize_requires_controllable():
    form, split = homogeneous_setup(np.diag([1.0, 2.0]), [[1.0], [0.0]])
    bad = split.indices(controllable=False)
    eqn = reduce(form, split, bad)
    with pytest.raises(Uncontrollable):
        parametrize(eqn, [[1.0]])


def test_parametrize_rejects_indefinite_parameter(paper):
    _, form, split = paper
    eqn = reduce(form, split, [0, 1])
    with pytest.raises(InvalidInput):
        parametrize(eqn, np.diag([1.0, -1.0]))


def test_parametrize_boundary_is_non_strict(paper):
    _, form, split = paper
    eqn = reduce(form, split, [0, 1])
    sol = parametrize(eqn, np.diag([1.0, 1e-12]))
    assert sol.certificate.strict is False and sol.certificate.passed


def test_recover_at_maximum_gives_zero(paper):
    _, form, split = paper
    eqn = reduce(form, split, [0, 1])
    point = recover_parameter(eqn, LR[:2, :2])
    assert np.abs(point.P).max() <= 1e-9


def test_recover_on_restricted_inequality_solution(paper):
    # restrict the worked inequality solution to the RHP blocks by a Schur
    # complement against its own (3,3) entry
    _, form, split = paper
    eqn = reduce(form, split, [0, 1])
    head = LHAT[:2, :2] - np.outer(LHAT[:2, 2], LHAT[2, :2]) / LHAT[2, 2]
    point = recover_parameter(eqn, head)
    assert np.linalg.eigvalsh(point.P).min() >= -1e-8


def test_recover_roundtrip_both_ways(paper):
    _, form, split = paper
    rng = np.random.default_rng(79)
    eqn = reduce(form, split, [0, 1])
    for _ in range(20):
        g = rng.standard_normal((2, 2))
        p = g @ g.T + 0.05 * np.eye(2)
        sol = parametrize(eqn, p)
        back = recover_parameter(eqn, sol.Lcoord).P
        assert np.abs(back - p).max() <= 1e-7 * max(1.0, np.abs(p).max())
        again = parametrize(eqn, back)
        assert np.abs(again.Lcoord - sol.Lcoord).max() <= 1e-9


def test_recover_rejects_singular_and_violating(paper):
    _, form, split = paper
    eqn = reduce(form, split, [0, 1])
    with pytest.raises(SingularInput):
        recover_parameter(eqn, np.zeros((2, 2)))
    with pytest.raises(NotASolution):
        recover_parameter(eqn, 2.0 * LR[:2, :2])


# ---------------------------------------------------------------------------
# eigenvalue flip


def test_flip_zero_solution_is_identity(paper):
    _, form, split = paper
    from ariset import zero_solution

    a1, report = feedback_flip(form, zero_solution(form))
    assert np.array_equal(a1, form.A0)
    assert report.matched and report.flipped == ()


def test_flip_maximum_solution(paper):
    _, form, split = paper
    sol = full_rank_simplified_solution(reduce(form, split, [0, 1]))
    a1, report = feedback_flip(form, sol)
    oracle = np.sort(char_poly_eigs(a1).real)
    assert np.allclose(oracle, [-4.0, -2.0, -1.0], atol=1e-8)
    assert report.matched


def test_flip_full_rank_solution(paper):
    _, form, split = paper
    sol = full_rank_simplified_solution(reduce(form, split, [0, 1, 2]))
    a1, report = feedback_flip(form, sol)
    oracle = np.sort(char_poly_eigs(a1).real)
    assert np.allclose(oracle, [-2.0, -1.0, 4.0], atol=1e-8)
    assert report.matched


def test_flip_rejects_strict_inequality_solutions(paper):
    _, form, split = paper
    eqn = reduce(form, split, [0, 1])
    sol = parametrize(eqn, np.eye(2))
    with pytest.raises(NotAnEquationSolution):
        feedback_flip(form, sol)


def test_flip_involution():
    rng = np.random.default_rng(83)
    a0, b = build_system(rng, ctrl=draw_spectrum(rng, 4), m=2)
    form, split = homogeneous_setup(a0, b)
    sol = full_rank_simplified_solution(
        reduce(form, split, range(len(split.blocks)))
    )
    a1, report = feedback_flip(form, sol)
    assert report.matched
    form2, split2 = homogeneous_setup(a1, b)
    sol2 = full_rank_simplified_solution(
        reduce(form2, split2, range(len(split2.blocks)))
    )
    _, report2 = feedback_flip(form2, sol2)
    assert report2.matched
    back = np.sort_complex(np.array(report2.eig_after))
    orig = np.sort_complex(np.linalg.eigvals(a0))
    assert np.abs(back - orig).max() <= 1e-6 * max(1.0, np.abs(orig).max())


def _flipped_by_lists(before, flipped):
    """The flip's expected spectrum as first written: one nearest-entry
    search over a Python list per flipped eigenvalue."""
    expected = list(before)
    for lam in flipped:
        idx = int(np.argmin([abs(e - lam) for e in expected]))
        expected[idx] = -lam
    return np.array(expected)


def _flip_spectra(rng):
    """(before, flipped) pairs: generic spectra, real-only spectra, repeated
    eigenvalues (exact ties), and flipped lists whose later entries sit on
    earlier replacements or repeat."""
    for n in (1, 3, 8, 30):
        before = np.linalg.eigvals(rng.standard_normal((n, n)))
        for k in range(n + 1):
            yield before, [complex(v) for v in rng.permutation(before)[:k]]
    real = np.linalg.eigvals(np.diag(rng.standard_normal(6)))
    yield real, []
    yield real, [complex(v) for v in real[:3]]
    tied = np.array([1.0, 1.0, -1.0, 2.0 + 1.0j, 2.0 - 1.0j, 0.0, 0.0])
    for flipped in ([1.0], [1.0, 1.0], [1.0, -1.0], [0.0, 0.0, 0.0], [1.5 + 0.0j],
                    [2.0 + 1.0j, -2.0 - 1.0j], [1.0, -1.0, -1.0, 1.0], [0.5, 0.5]):
        yield tied, [complex(v) for v in flipped]


def test_flipped_spectrum_matches_the_list_form():
    # the array form replaces the same entries, ties and sequential
    # replacements included, and keeps the list form's dtype
    for before, flipped in _flip_spectra(np.random.default_rng(89)):
        want = _flipped_by_lists(before, flipped)
        got = analysis._flipped_spectrum(before, flipped)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert tuple(got) == tuple(want)


def test_flip_report_matches_the_list_form():
    rng = np.random.default_rng(97)
    a0, b = build_system(rng, ctrl=draw_spectrum(rng, 6), m=2)
    form, split = homogeneous_setup(a0, b)
    for sol in schur_family(form, split):
        _, report = feedback_flip(form, sol)
        want = _flipped_by_lists(np.array(report.eig_before), sol.eigenvalues)
        assert np.array_equal(np.array(report.expected_after), want)
        assert report.matched


# ---------------------------------------------------------------------------
# verification


def test_verify_base_solution_passes_non_strict_only(paper):
    _, form, _ = paper
    cert = verify(form, form.K0)
    assert cert.passed and abs(cert.residual_max_eig) <= 1e-12
    assert not verify(form, form.K0, strict=True).passed


def test_verify_paper_inequality_solution(paper):
    _, form, _ = paper
    cert = verify(form, LHAT)
    assert cert.passed


def test_verify_rejects_beyond_maximum(paper):
    _, form, _ = paper
    cert = verify(form, 2.0 * LR)
    assert not cert.passed and cert.residual_max_eig > 1.0


def test_verify_inhomogeneous_problem():
    # a = 1, b = 1, q = 3: feasible K exactly in [-1, 3]
    from ariset import RiccatiProblem, solve_base_are

    problem = RiccatiProblem(A=[[1.0]], B=[[1.0]], Q=[[3.0]])
    form = solve_base_are(problem, kind="antistabilizing")
    for k in (-1.0, 0.0, 1.5, 3.0):
        assert verify(form, [[k]]).passed
    for k in (-1.2, 3.2):
        assert not verify(form, [[k]]).passed
    assert verify(form, [[1.0]], strict=True).passed
