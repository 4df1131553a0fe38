import dataclasses
import json
import re
import sys
import warnings

import numpy as np
import pytest

from ariset import (
    InvalidInput,
    NotAnEquationSolution,
    NotASolution,
    NotRHPSelection,
    ParamPoint,
    RiccatiError,
    SingularInput,
    SingularY,
    Uncontrollable,
    are_residual,
    boundedness,
    definiteness,
    degenerate_classify,
    extremal_solutions,
    feedback_flip,
    full_rank_simplified_solution,
    parametrize,
    pbh_classify,
    rank_one_classify,
    recover_parameter,
    reduce,
    ric_residual,
    schur_family,
    spectral_split,
    verify,
)
from ariset import Tolerances, analysis, linalg
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


def test_rank_one_takes_v_as_a_row_or_column_of_n_entries():
    # four entries in a 2×2 array are not a vector of length 4
    form, _ = homogeneous_setup(np.diag([1.0, 2.0, -3.0, 4.0]), np.ones((4, 1)))
    e1 = np.eye(4)[0]
    for v in (e1, e1[:, None], e1[None, :]):
        assert rank_one_classify(form, v, 1.0) == "semidefinite-rank<=1"
    for v in ([[1.0, 0.0], [0.0, 0.0]], np.eye(4)[:2], np.eye(4)[:, :2]):
        with pytest.raises(InvalidInput, match=r"^v must have shape \(4,\), \(4, 1\) or \(1, 4\)"):
            rank_one_classify(form, v, 1.0)


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


@pytest.mark.parametrize("alpha", ["abc", "1.0", None, 1j, True, np.ones(2), np.array(1.0)],
                         ids=["string", "numeric-string", "none", "complex", "bool",
                              "array", "0-d-array"])
def test_rank_one_requires_a_real_alpha(paper, alpha):
    _, form, _ = paper
    with pytest.raises(InvalidInput, match="^alpha must be a finite real number"):
        rank_one_classify(form, [1.0, 0.0, 0.0], alpha)


@pytest.mark.parametrize("alpha", [2, np.int64(2), np.float64(2.0), 2.0])
def test_rank_one_takes_any_real_alpha(paper, alpha):
    _, form, _ = paper
    assert rank_one_classify(form, [1.0, 0.0, 0.0], alpha) == \
        rank_one_classify(form, [1.0, 0.0, 0.0], 2.0)


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


def _repeated_rhp_pair():
    r = np.array([[1.0, 2.0], [-2.0, 1.0]])
    a = np.zeros((5, 5))
    a[:2, :2] = a[2:4, 2:4] = r
    a[4, 4] = -1.0
    return a


@pytest.mark.parametrize("a0, b, verdict", [
    (np.diag([1.0, 1.0, -1.0]), np.eye(3)[:, [2]], "bounded-below-only"),
    (np.diag([-1.0, -1.0, 2.0]), np.eye(3)[:, [2]], "bounded-above-only"),
    (_repeated_rhp_pair(), np.eye(5)[:, [4]], "bounded-below-only"),
    (-_repeated_rhp_pair(), np.eye(5)[:, [4]], "bounded-above-only"),
], ids=["real-rhp", "real-lhp", "pair-rhp", "pair-lhp"])
def test_boundedness_of_a_repeated_uncontrollable_mode(a0, b, verdict, tmp_path, capsys):
    # the two copies share a cluster, so neither has an invariant subspace
    # of its own: each takes a ray from the kernel of [A0ᵀ − λI; Bᵀ]
    from ariset.cli import main

    form, split = homogeneous_setup(a0, b)
    unc = split.indices(controllable=False)
    assert len(unc) == 2 and split.blocks[unc[0]].cluster == split.blocks[unc[1]].cluster
    report = boundedness(form, split)
    assert report.verdict == verdict
    assert [w.block for w in report.witnesses] == unc
    sign = "+" if verdict == "bounded-below-only" else "-"
    assert all(w.sign == sign for w in report.witnesses)
    assert all(_sweep_ok(form, w) for w in report.witnesses)
    for w in report.witnesses:
        assert abs(np.linalg.norm(w.direction) - 1.0) <= 1e-12
        assert np.linalg.matrix_rank(w.direction, tol=1e-8) == split.blocks[w.block].size
    # one witness per block, on different directions
    assert np.abs(report.witnesses[0].direction - report.witnesses[1].direction).max() > 0.1
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps({"A": a0.tolist(), "B": b.tolist(),
                                "K0": np.zeros(a0.shape).tolist()}))
    assert main(["classify", str(path)]) == 0
    assert main(["bounds", str(path)]) == 0
    assert verdict in capsys.readouterr().out


def test_boundedness_of_a_jordan_chain_off_the_axis():
    # an uncontrollable Jordan chain at 1: the kernel of [A0ᵀ − I; Bᵀ] has
    # one direction, which both blocks of the chain carry
    a0 = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
    form, split = homogeneous_setup(a0, np.eye(3)[:, [2]])
    report = boundedness(form, split)
    assert report.verdict == "bounded-below-only"
    assert len(report.witnesses) == 2
    assert np.abs(report.witnesses[0].direction - report.witnesses[1].direction).max() <= 1e-12
    assert all(_sweep_ok(form, w) for w in report.witnesses)


def test_boundedness_and_parametrize_factor_no_schur_form(schur_calls, monkeypatch):
    # rays on an uncontrollable RHP pair and LHP mode, and a parametrized
    # solution, all on the Schur forms reduce already hands back; the
    # parametrized solution is one Sylvester kernel call
    rng = np.random.default_rng(139)
    a0, b = build_system(rng, ctrl=[1.3, complex(0.8, 1.1), -0.9],
                         unc=[complex(1.7, 0.6), -1.2], m=2)
    form, split = homogeneous_setup(a0, b)
    del schur_calls[:]
    report = boundedness(form, split)
    rhp = split.indices(half_plane="RHP", controllable=True)
    eqn = reduce(form, split, rhp)
    solve, solves = linalg.lapack.dtrsyl, []
    monkeypatch.setattr(linalg.lapack, "dtrsyl",
                        lambda *a, **k: solves.append(1) or solve(*a, **k))
    sol = parametrize(eqn, np.eye(eqn.k))
    monkeypatch.setattr(linalg.lapack, "dtrsyl", solve)
    assert schur_calls == [] and len(solves) == 1
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
@pytest.mark.parametrize("p", [np.eye(2), np.diag([1.0, 0.0])])
def test_parametrize_and_recover_parameter_symmetrize_once(paper, p, monkeypatch):
    # only the caller's P (or Lhat) is checked for symmetry; X, its
    # residual and the recovered P are built exactly symmetric
    _, form, split = paper
    eqn = reduce(form, split, split.indices(half_plane="RHP"))
    original, calls = linalg.symmetrize, []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("name"))
        return original(*args, **kwargs)

    bindings = [m for name, m in sorted(sys.modules.items())
                if name.split(".")[0] == "ariset" and getattr(m, "symmetrize", None) is original]
    assert {m.__name__ for m in bindings} >= {"ariset", "ariset.linalg", "ariset.riccati",
                                              "ariset.analysis"}
    for module in bindings:
        monkeypatch.setattr(module, "symmetrize", counting)
    sol = parametrize(eqn, p)
    assert calls == ["P"]
    point = recover_parameter(eqn, sol.Lcoord)
    assert calls == ["P", "Lhat"]
    monkeypatch.undo()
    again = parametrize(eqn, p)
    assert np.array_equal(sol.X, again.X) and np.array_equal(sol.residual, again.residual)
    assert np.array_equal(point.P, recover_parameter(eqn, sol.Lcoord).P)




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


def test_parametrize_and_recover_refuse_a_matrix_of_the_wrong_order(paper):
    _, form, split = paper
    eqn = reduce(form, split, [0, 1])
    with pytest.raises(InvalidInput, match=r"^P must be 2x2, got \(3, 3\)$"):
        parametrize(eqn, np.eye(3))
    with pytest.raises(InvalidInput, match=r"^Lhat must be 2x2, got \(3, 3\)$"):
        recover_parameter(eqn, np.eye(3))


@pytest.mark.parametrize("caller, error, message", [
    ("full_rank_simplified_solution", SingularY,
     r"^reduced Gramian is singular \(smallest singular value \d\.\d{3}e[+-]\d+\); "
     r"the selected blocks admit no full-rank solution$"),
    ("parametrize", SingularInput, r"^perturbed Gramian is singular$"),
    ("recover_parameter", SingularInput,
     r"^Lhat is singular; restrict to its support blocks first$"),
])
def test_checked_inverse_refusals_keep_their_type_and_message(paper, caller, error, message):
    # at rank = 1 no matrix passes the rule σ_min > rank · max(1, σ_max)
    _, form, split = paper
    eqn = reduce(form, split, [0, 1])
    args = {"full_rank_simplified_solution": (eqn,),
            "parametrize": (eqn, np.eye(2)),
            "recover_parameter": (eqn, parametrize(eqn, np.eye(2)).Lcoord)}[caller]
    with pytest.raises(error, match=message) as info:
        globals()[caller](*args, tol=Tolerances(rank=1.0))
    assert type(info.value) is error


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


def test_residuals_and_verify_refuse_a_matrix_of_the_wrong_order(paper):
    # a 2×2 K against n = 3 used to reach the matmul and raise numpy's ValueError
    problem, form, _ = paper
    k = np.eye(2)
    with pytest.raises(InvalidInput, match=r"^K must be 3x3, got \(2, 2\)"):
        are_residual(problem, k)
    with pytest.raises(InvalidInput, match=r"^K must be 3x3, got \(2, 2\)"):
        verify(form, k)
    with pytest.raises(InvalidInput, match=r"^X must be 3x3, got \(2, 2\)"):
        ric_residual(form, k)


def test_verify_refuses_a_base_solution_inconsistent_with_the_data(paper):
    # K0 moved off the base solution while A0 and M stay: Ric(K − K0) no
    # longer equals the inhomogeneous residual at K
    _, form, _ = paper
    moved = dataclasses.replace(form, K0=form.K0 + 1)
    with pytest.raises(RiccatiError, match=r"^residual routes disagree by .*; base solution "
                                           r"is inconsistent with the problem data$"):
        verify(moved, form.K0)


@pytest.mark.parametrize("size", [1e154, 1e160, 1e300, 1e308])
def test_verify_refuses_a_k_whose_residual_overflows(paper, size):
    # k_max ** 2 used to raise a raw OverflowError, and a nan residual a
    # raw LinAlgError from eigvalsh; an infinite scale would certify at an
    # infinite cutoff. At 1e308 symmetrizing K must not overflow first
    _, form, _ = paper
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = f"the residual of K or its scale overflows: |K|_max = {size:.3e}"
        with pytest.raises(RiccatiError, match=f"^{re.escape(message)}$"):
            verify(form, size * np.eye(3))


def test_verify_keeps_the_certificate_of_a_large_finite_k(paper):
    problem, form, _ = paper
    k = 1e150 * np.eye(3)
    cert = verify(form, k)
    w = np.linalg.eigvalsh(are_residual(problem, k))
    assert not cert.passed
    assert (cert.residual_max_eig, cert.residual_min_eig) == (w[-1], w[0])
    assert cert.tol_used == Tolerances().definiteness * 1e150 ** 2


def test_verify_certifies_a_k_whose_squared_norm_alone_overflows():
    # |K|²_max overflows but |K|²_max·|M|_max = 1e120 does not, and both
    # residuals are finite: the scale is formed as k_max·(k_max·|M|_max)
    from ariset import RiccatiProblem, solve_base_are

    problem = RiccatiProblem(A=np.diag([1.0, 2.0, -4.0]), B=1e-100 * np.ones((3, 1)))
    form = solve_base_are(problem, kind="given", k0=np.zeros((3, 3)))
    k = 1e160 * np.eye(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = verify(form, k)
    w = np.linalg.eigvalsh(are_residual(problem, k))
    assert not cert.passed
    assert (cert.residual_max_eig, cert.residual_min_eig) == (w[-1], w[0])
    assert cert.tol_used == Tolerances().definiteness * 1e160


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


def _orders_2_and_3(paper):
    """A 2×2 form, A = diag(1, −3) with B = (0, 1)ᵀ and K0 = 0, beside the
    worked example's 3×3 split and an equation solution of it."""
    _, form3, split3 = paper
    form2, _ = homogeneous_setup(np.diag([1.0, -3.0]), [[0.0], [1.0]])
    return form2, split3, full_rank_simplified_solution(reduce(form3, split3, [0, 1]))


ORDER_CALLS = {
    "boundedness": lambda f, s, sol: boundedness(f, s),
    "degenerate_classify": lambda f, s, sol: degenerate_classify(f, s),
    "pbh_classify": lambda f, s, sol: pbh_classify(f.A0, f.problem.B, s),
    "reduce": lambda f, s, sol: reduce(f, s, [0]),
    "schur_family": lambda f, s, sol: schur_family(f, s),
    "extremal_solutions": lambda f, s, sol: extremal_solutions(f, s),
    "feedback_flip": lambda f, s, sol: feedback_flip(f, sol),
}


@pytest.mark.parametrize("name", sorted(ORDER_CALLS))
def test_a_form_and_a_split_of_different_orders_are_refused(paper, name):
    # the form's own split gives "bounded-below-only"; read against the
    # 3×3 split, it would say "bounded" or fail inside numpy
    form2, split3, sol3 = _orders_2_and_3(paper)
    assert boundedness(form2, spectral_split(form2.A0, form2.problem.B)).verdict == \
        "bounded-below-only"
    other = "solution" if name == "feedback_flip" else "split"
    first = "A0" if name == "pbh_classify" else "the form"
    with pytest.raises(InvalidInput, match=f"^{first} is of order 2 but the {other} is of order 3$"):
        ORDER_CALLS[name](form2, split3, sol3)


SPLIT_READERS = ("boundedness", "degenerate_classify", "extremal_solutions", "schur_family")


@pytest.mark.parametrize("name", SPLIT_READERS)
def test_a_split_of_another_problem_of_the_same_order_is_refused(paper, name):
    # the form's own split gives "bounded-below-only"; read against the
    # worked example's split, whose tags say every block is controllable,
    # it would say "bounded"
    _, _, split = paper
    form, own = homogeneous_setup(np.diag([1.0, -3.0, 5.0]), [[0.0], [1.0], [1.0]])
    assert boundedness(form, own).verdict == "bounded-below-only"
    with pytest.raises(InvalidInput, match=r"^the split is not a Schur form of the form's A0ᵀ: "
                                           r"invariance residual 9\.000e\+00$"):
        ORDER_CALLS[name](form, split, None)


@pytest.mark.parametrize("name", SPLIT_READERS)
def test_a_split_tagged_for_another_b_is_refused(name):
    # A0 = diag(1, 2, −4) under B = (0, 1, 1)ᵀ and B = (1, 1, 1)ᵀ: the two
    # splits share U and T and differ only in their tags. Read against the
    # other's split, boundedness would say "bounded" for the first form,
    # and schur_family of the second would give 4 members where its own
    # split gives 8
    a0 = np.diag([1.0, 2.0, -4.0])
    form, own = homogeneous_setup(a0, [[0.0], [1.0], [1.0]])
    other_form, other = homogeneous_setup(a0, [[1.0], [1.0], [1.0]])
    assert boundedness(form, own).verdict == "bounded-below-only"
    assert boundedness(other_form, other).verdict == "bounded"
    refused = "^the split's controllability tags were computed for another B than the form's$"
    for f, s in ((form, other), (other_form, own)):
        with pytest.raises(InvalidInput, match=refused):
            ORDER_CALLS[name](f, s, None)
    # a copy by dataclasses.replace keeps no record of its B; pbh_classify
    # tags it for the form's B
    copy = dataclasses.replace(other)
    assert copy._tagged_b is None
    retagged = pbh_classify(form.A0, form.problem.B, copy)
    assert [blk.controllable for blk in retagged.blocks] == [blk.controllable for blk in own.blocks]
    assert boundedness(form, retagged).verdict == "bounded-below-only"
