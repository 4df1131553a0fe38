import dataclasses
import itertools
import json
import re

import numpy as np
import pytest

from ariset import (
    AriSolution,
    BaseResidualTooLarge,
    DegenerateSpectrum,
    InvalidInput,
    NoBaseSolution,
    RiccatiError,
    RiccatiProblem,
    SingularSylvester,
    SingularY,
    Tolerances,
    are_residual,
    definiteness,
    degenerate_classify,
    full_rank_simplified_solution,
    parametrize,
    reduce,
    ric_residual,
    schur_family,
    solve_base_are,
    spectral_split,
    zero_solution,
)
from ariset import DEFAULT, linalg, riccati
from ariset.cli import main
from ariset.linalg import solve_lyapunov_stable

from conftest import (
    L1,
    LL,
    LR,
    LSTAR,
    PAPER_A,
    PAPER_B,
    assert_family_is_direct,
    build_system,
    direct_family,
    draw_spectrum,
    gauss_solve,
    homogeneous_setup,
)
from oracles import level_reference


# ---------------------------------------------------------------------------
# base solution


def test_base_given_worked_example(paper):
    problem, form, _ = paper
    assert np.array_equal(form.A0, PAPER_A)
    assert np.allclose(form.M, PAPER_B @ PAPER_B.T)
    assert form.base_residual == 0.0


def test_base_zero_solves_homogeneous():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 2))
    form = solve_base_are(RiccatiProblem(A=a, B=b), kind="given", k0=np.zeros((4, 4)))
    assert form.base_residual == 0.0


def test_base_scalar_quadratic_oracle():
    # -2k - 3 + k^2 = 0 has roots from the quadratic formula
    roots = sorted(np.roots([1.0, -2.0, -3.0]))  # k^2 - 2k - 3
    problem = RiccatiProblem(A=[[1.0]], B=[[1.0]], Q=[[3.0]])
    anti = solve_base_are(problem, kind="antistabilizing")
    stab = solve_base_are(problem, kind="stabilizing")
    assert abs(anti.K0[0, 0] - roots[0]) < 1e-12  # k = -1, A0 = 2
    assert abs(stab.K0[0, 0] - roots[1]) < 1e-12  # k = 3, A0 = -2
    assert anti.A0[0, 0] > 0 > stab.A0[0, 0]


def test_base_antistabilizing_flips_left_modes():
    problem = RiccatiProblem(A=PAPER_A, B=PAPER_B)
    form = solve_base_are(problem, kind="antistabilizing")
    assert np.allclose(sorted(np.linalg.eigvals(form.A0).real), [1.0, 2.0, 4.0],
                       atol=1e-8)
    assert np.allclose(form.K0, np.diag([0.0, 0.0, -8.0]), atol=1e-8)


def test_base_stabilizing_is_the_maximum_solution():
    problem = RiccatiProblem(A=PAPER_A, B=PAPER_B)
    form = solve_base_are(problem, kind="stabilizing")
    assert np.allclose(sorted(np.linalg.eigvals(form.A0).real),
                       [-4.0, -2.0, -1.0], atol=1e-8)
    assert np.allclose(form.K0, LR, atol=1e-8)


def test_base_rejects_bad_user_k0():
    problem = RiccatiProblem(A=[[1.0]], B=[[1.0]], Q=[[3.0]])
    with pytest.raises(BaseResidualTooLarge):
        solve_base_are(problem, kind="given", k0=[[1.0]])


def test_base_no_solution():
    problem = RiccatiProblem(A=[[0.0]], B=[[0.0]], Q=[[1.0]])
    with pytest.raises(NoBaseSolution):
        solve_base_are(problem, kind="antistabilizing")


def test_base_refuses_a_computed_solution_that_fails_verification():
    # with a zero residual bound, the rounding of any computed K fails it
    rng = np.random.default_rng(17)
    problem = RiccatiProblem(A=rng.standard_normal((5, 5)), B=rng.standard_normal((5, 2)))
    for kind in ("antistabilizing", "stabilizing"):
        with pytest.raises(NoBaseSolution, match=r"^computed base solution fails "
                                                 r"verification: residual "):
            solve_base_are(problem, kind=kind, tol=Tolerances(base=0.0))


def test_base_refuses_a_pair_that_straddles_the_subspace(monkeypatch):
    # real Schur forms never split a pair by its real part, so the ordered
    # form is faked: one 2x2 block across the boundary at n = 1
    problem = RiccatiProblem(A=[[1.0]], B=[[1.0]])
    fake = (np.eye(2), np.zeros((2, 2)), [linalg.SchurBlock(0, 2, (1j, -1j))])
    monkeypatch.setattr(riccati, "real_schur_ordered", lambda ham, classify: fake)
    with pytest.raises(NoBaseSolution, match=r"^a complex-conjugate pair straddles"):
        solve_base_are(problem, kind="antistabilizing")


def test_base_unknown_kind():
    problem = RiccatiProblem(A=[[1.0]], B=[[1.0]])
    with pytest.raises(InvalidInput):
        solve_base_are(problem, kind="newton")


def test_base_given_requires_k0():
    problem = RiccatiProblem(A=[[1.0]], B=[[1.0]])
    with pytest.raises(InvalidInput, match=r'^kind="given" requires k0$'):
        solve_base_are(problem, kind="given")


def test_problem_refuses_b_and_q_of_the_wrong_size():
    with pytest.raises(InvalidInput, match=r"^B must have 2 rows, got 3$"):
        RiccatiProblem(A=np.eye(2), B=np.ones((3, 1)))
    with pytest.raises(InvalidInput, match=r"^Q must be 2x2, got \(3, 3\)$"):
        RiccatiProblem(A=np.eye(2), B=np.ones((2, 1)), Q=np.eye(3))


# ---------------------------------------------------------------------------
# residual


def test_ric_residual_zero(paper):
    _, form, _ = paper
    assert np.abs(ric_residual(form, np.zeros((3, 3)))).max() == 0.0


def test_ric_residual_on_rank_two_solution(paper):
    _, form, _ = paper
    assert np.abs(ric_residual(form, L1)).max() <= 1e-8


def test_ric_residual_rank_one_formula(paper):
    # for an eigenvector v of A0^T: Ric(a v v^T) = a(-2 lam + a v^T M v) vv^T
    _, form, _ = paper
    for idx, lam in ((0, 1.0), (2, -4.0)):
        v = np.eye(3)[idx]
        for alpha in (1.0, -2.0, 0.5):
            got = ric_residual(form, alpha * np.outer(v, v))
            vmv = v @ form.M @ v
            want = alpha * (-2 * lam + alpha * vmv) * np.outer(v, v)
            assert np.abs(got - want).max() <= 1e-12


def test_homogenization_identity_random():
    rng = np.random.default_rng(43)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, int(rng.integers(1, 3))))
        g = rng.standard_normal((n, n))
        q = g @ g.T + np.eye(n)
        problem = RiccatiProblem(A=a, B=b, Q=q)
        try:
            form = solve_base_are(problem, kind="antistabilizing")
        except NoBaseSolution:
            continue
        gx = rng.standard_normal((n, n))
        x = 0.5 * (gx + gx.T)
        lhs = are_residual(problem, form.K0 + x)
        rhs = ric_residual(form, x)
        scale = max(1.0, np.abs(lhs).max())
        assert np.abs(lhs - rhs).max() <= 1e-8 * scale


# ---------------------------------------------------------------------------
# reduction


def test_reduce_leading_blocks(paper):
    _, form, split = paper
    eqn = reduce(form, split, [0, 1])
    assert np.allclose(eqn.Dk, np.diag([1.0, 2.0]), atol=1e-12)
    assert np.allclose(eqn.Mk, np.ones((2, 2)), atol=1e-12)


def test_reduce_full_selection_is_identity(paper):
    _, form, split = paper
    eqn = reduce(form, split, [0, 1, 2])
    assert np.array_equal(eqn.Lk, split.U)
    assert np.array_equal(eqn.Dk, split.T)
    assert np.allclose(eqn.Mk, split.U.T @ form.M @ split.U)


def test_reduce_reorders_noncontiguous(paper):
    _, form, split = paper
    eqn = reduce(form, split, [0, 2])
    assert np.allclose(np.sort(np.diag(eqn.Dk)), [-4.0, 1.0], atol=1e-12)
    assert np.abs(form.A0.T @ eqn.Lk - eqn.Lk @ eqn.Dk).max() <= 1e-12


def test_reduce_invariance_random_subsets():
    rng = np.random.default_rng(47)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        a0, b = build_system(rng, ctrl=draw_spectrum(rng, n), m=2)
        form, split = homogeneous_setup(a0, b)
        nblk = len(split.blocks)
        size = int(rng.integers(1, nblk + 1))
        subset = sorted(rng.choice(nblk, size=size, replace=False))
        eqn = reduce(form, split, subset)
        scale = max(1.0, np.linalg.norm(a0, 2))
        assert np.abs(a0.T @ eqn.Lk - eqn.Lk @ eqn.Dk).max() <= 1e-8 * scale
        assert np.allclose(eqn.Mk, eqn.Lk.T @ b @ b.T @ eqn.Lk, atol=1e-8)
        assert np.abs(eqn.Lk.T @ eqn.Lk - np.eye(eqn.k)).max() <= 1e-10



def test_reduce_moves_blocks_past_conjugate_pairs():
    rng = np.random.default_rng(53)
    ctrl = [complex(1.1, 0.9), complex(1.8, 0.6), 0.7, complex(-1.3, 1.2), -2.1, 2.4,
            complex(-0.6, 2.0)]
    a0, b = build_system(rng, ctrl=ctrl, m=2)
    form, split = homogeneous_setup(a0, b)
    singles = [i for i, blk in enumerate(split.blocks) if blk.size == 1]
    # some selected block must pass an unselected pair on its way forward
    assert any(blk.size == 2 for blk in split.blocks[:singles[-1]])
    for subset in (singles, singles[1:], [singles[-1]]):
        eqn = reduce(form, split, subset)
        scale = max(1.0, np.linalg.norm(a0, 2))
        assert np.abs(a0.T @ eqn.Lk - eqn.Lk @ eqn.Dk).max() <= 1e-9 * scale
        assert np.abs(eqn.Lk.T @ eqn.Lk - np.eye(eqn.k)).max() <= 1e-12
        want = sorted(split.blocks[i].eigenvalues[0].real for i in subset)
        assert np.allclose(sorted(np.linalg.eigvals(eqn.Dk).real), want, atol=1e-9)


def test_reduce_rejects_cluster_splitting():
    form, split = homogeneous_setup(
        np.diag([1.0, 1.0, 3.0]), np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    )
    one_blocks = [
        i for i, blk in enumerate(split.blocks)
        if abs(blk.eigenvalues[0] - 1.0) < 1e-9
    ]
    with pytest.raises(DegenerateSpectrum):
        reduce(form, split, [one_blocks[0]])


def test_a_wider_axis_band_merges_clusters_and_reduce_and_the_family_follow():
    a0, b = np.diag([1.0, 1.01, 3.0]), np.ones((3, 1))
    form, split = homogeneous_setup(a0, b)
    # the cluster gap is 1e-2 · ||A0||₂ = 0.03 > 0.01
    wide = spectral_split(form.A0, b, Tolerances(axis=1e-2))
    one, near, three = (
        [i for i, blk in enumerate(split.blocks) if abs(blk.eigenvalues[0] - lam) < 1e-9]
        for lam in (1.0, 1.01, 3.0)
    )
    assert len({blk.cluster for blk in split.blocks}) == 3
    assert wide.blocks[one[0]].cluster == wide.blocks[near[0]].cluster != wide.blocks[three[0]].cluster
    assert reduce(form, split, one).block_set == tuple(one)
    with pytest.raises(DegenerateSpectrum):
        reduce(form, wide, one)
    assert reduce(form, wide, one + near).block_set == tuple(sorted(one + near))
    assert len(schur_family(form, split)) == 8
    merged = {sol.block_set for sol in schur_family(form, wide)}
    assert merged == {(), tuple(three), tuple(sorted(one + near)), (0, 1, 2)}


def test_reduce_rejects_bad_block_sets(paper):
    _, form, split = paper
    with pytest.raises(InvalidInput):
        reduce(form, split, [])
    with pytest.raises(InvalidInput):
        reduce(form, split, [5])


@pytest.mark.parametrize("index", [0.7, 1.9, True, "1", np.float64(2.0)],
                         ids=repr)
def test_reduce_rejects_non_integer_indices(paper, index):
    _, form, split = paper
    with pytest.raises(InvalidInput, match="not an integer"):
        reduce(form, split, [index])


def test_reduce_accepts_numpy_integers(paper):
    _, form, split = paper
    assert reduce(form, split, [np.int64(1)]).block_set == (1,)


# ---------------------------------------------------------------------------
# full-rank reduced solutions


def test_full_rank_paper_values(paper):
    _, form, split = paper
    cases = [
        ([0, 1], LR),
        ([2], LL),
        ([0, 2], L1),
        ([0, 1, 2], LSTAR),
    ]
    for block_set, expected in cases:
        sol = full_rank_simplified_solution(reduce(form, split, block_set))
        assert np.abs(sol.X - expected).max() <= 1e-10
        assert np.abs(sol.residual).max() <= 1e-10
        assert sol.rank == len(sol.eigenvalues)
        assert sol.residual_verdict.kind == "zero"


def test_full_rank_gramian_values(paper):
    _, form, split = paper
    eqn = reduce(form, split, [0, 1])
    sol = full_rank_simplified_solution(eqn)
    assert np.allclose(np.linalg.inv(sol.Lcoord), [[0.5, 1 / 3], [1 / 3, 0.25]],
                       atol=1e-12)


def test_full_rank_uncontrollable_block_is_singular():
    form, split = homogeneous_setup(np.diag([1.0, 2.0]), [[1.0], [0.0]])
    bad = split.indices(controllable=False)
    with pytest.raises(SingularY):
        full_rank_simplified_solution(reduce(form, split, bad))


def test_full_rank_mirrored_pair_is_singular():
    form, split = homogeneous_setup(np.diag([1.0, -1.0]), [[1.0], [1.0]])
    with pytest.raises(SingularSylvester):
        full_rank_simplified_solution(reduce(form, split, [0, 1]))


def test_full_rank_axis_block_is_singular():
    a0 = np.zeros((3, 3))
    a0[0, 1] = 2.0
    a0[1, 0] = -2.0
    a0[2, 2] = 1.0
    form, split = homogeneous_setup(a0, np.ones((3, 1)))
    axis = split.indices(half_plane="AXIS")
    with pytest.raises(SingularSylvester):
        full_rank_simplified_solution(reduce(form, split, axis))


# ---------------------------------------------------------------------------
# the solution family


def test_family_worked_example(paper):
    _, form, split = paper
    family = schur_family(form, split)
    assert len(family) == 8
    for expected in (np.zeros((3, 3)), LR, LL, L1, LSTAR):
        assert any(np.abs(s.X - expected).max() <= 1e-8 for s in family)
    for sol in family:
        assert np.abs(sol.residual).max() <= 1e-8
        assert sol.residual_verdict.kind == "zero"


def test_family_scalar():
    form, split = homogeneous_setup([[1.0]], [[1.0]])
    family = schur_family(form, split)
    values = sorted(s.X[0, 0] for s in family)
    assert np.allclose(values, [0.0, 2.0], atol=1e-12)


def test_family_matches_hand_oracle_on_diagonal_system():
    # oracle: entrywise Lyapunov formula Y_ij = 1/(d_i + d_j), singles and
    # pairs inverted in closed form, the full inverse by Gaussian elimination
    d = np.array([1.0, 2.0, 3.0])
    form, split = homogeneous_setup(np.diag(d), np.ones((3, 1)))
    order = np.argsort([blk.eigenvalues[0].real for blk in split.blocks])

    expected = {(): np.zeros((3, 3))}
    for i in range(3):
        e = np.zeros((3, 3))
        e[i, i] = 2 * d[i]
        expected[(i,)] = e
    for i in range(3):
        for j in range(i + 1, 3):
            y11, y22, y12 = 1 / (2 * d[i]), 1 / (2 * d[j]), 1 / (d[i] + d[j])
            det = y11 * y22 - y12 ** 2
            e = np.zeros((3, 3))
            e[i, i] = y22 / det
            e[j, j] = y11 / det
            e[i, j] = e[j, i] = -y12 / det
            expected[(i, j)] = e
    y_full = 1.0 / (d[:, None] + d[None, :])
    inv_cols = [gauss_solve(y_full, np.eye(3)[:, c]) for c in range(3)]
    expected[(0, 1, 2)] = np.column_stack(inv_cols)

    family = schur_family(form, split)
    assert len(family) == 8
    lstar = expected[(0, 1, 2)]
    for sol in family:
        key = tuple(sorted(int(order[i]) for i in sol.block_set))
        assert np.abs(sol.X - expected[key]).max() <= 1e-9
        # maximum-solution ordering: every member below the full-rank one
        assert np.linalg.eigvalsh(lstar - sol.X).min() >= -1e-9
        assert np.linalg.eigvalsh(sol.X).min() >= -1e-9


def test_family_reports_cluster_subsets_absent():
    form, split = homogeneous_setup(
        np.diag([1.0, 1.0, 3.0]), np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    )
    family = schur_family(form, split)
    sizes = sorted(len(s.block_set) for s in family)
    assert sizes == [0, 1, 2, 3]
    # the two blocks carrying the repeated eigenvalue only appear together
    for sol in family:
        carried = [
            abs(split.blocks[i].eigenvalues[0] - 1.0) < 1e-9
            for i in sol.block_set
        ]
        assert sum(carried) in (0, 2)


def test_family_signs_follow_half_planes():
    rng = np.random.default_rng(53)
    for _ in range(8):
        entries = draw_spectrum(rng, 4)
        a0, b = build_system(rng, ctrl=entries, m=2)
        form, split = homogeneous_setup(a0, b)
        family = schur_family(form, split)
        for sol in family:
            planes = {split.blocks[i].half_plane for i in sol.block_set}
            assert sol.rank == sum(split.blocks[i].size for i in sol.block_set)
            w = np.linalg.eigvalsh(sol.X)
            scale = max(1.0, np.abs(sol.X).max())
            if planes <= {"RHP"}:
                assert w.min() >= -1e-8 * scale
            if planes <= {"LHP"}:
                assert w.max() <= 1e-8 * scale
            resid_scale = max(1.0, np.linalg.norm(a0) * scale)
            assert np.abs(sol.residual).max() <= 1e-7 * resid_scale


def test_family_ordering_rhp_only():
    rng = np.random.default_rng(59)
    entries = draw_spectrum(rng, 4, half_planes=("RHP",))
    a0, b = build_system(rng, ctrl=entries, m=2)
    form, split = homogeneous_setup(a0, b)
    family = schur_family(form, split)
    assert len(family) == 2 ** len(split.blocks)
    full = max(family, key=lambda s: s.rank)
    for sol in family:
        assert np.linalg.eigvalsh(full.X - sol.X).min() >= -1e-7


def test_family_ordering_lhp_mirrored():
    rng = np.random.default_rng(97)
    entries = draw_spectrum(rng, 4, half_planes=("LHP",))
    a0, b = build_system(rng, ctrl=entries, m=2)
    form, split = homogeneous_setup(a0, b)
    family = schur_family(form, split)
    full = min(family, key=lambda s: -s.rank)
    for sol in family:
        assert np.linalg.eigvalsh(sol.X - full.X).min() >= -1e-7
        assert np.linalg.eigvalsh(sol.X).max() <= 1e-8 * max(1.0, np.abs(sol.X).max())


def _mixed_system():
    rng = np.random.default_rng(101)
    ctrl = [complex(1.2, 0.8), -0.7, 2.1, complex(-1.5, 1.1)]
    return build_system(rng, ctrl=ctrl, m=2)


def _uncontrollable_system():
    rng = np.random.default_rng(103)
    return build_system(rng, ctrl=[1.1, complex(-0.9, 0.7), 2.0], unc=[1.6, -2.3], m=2)


def _mirrored_system():
    rng = np.random.default_rng(107)
    return build_system(rng, ctrl=[1.0, -1.0, 2.2, complex(0.6, 1.4)], m=2)


def _separated_cluster_system():
    # A0ᵀ is already in Schur form: eigenvalue 1 (a Jordan block) sits in
    # positions 0 and 2, with the block of 3 between them
    t = np.array([[1.0, 0.5, 0.3, 0.2], [0.0, 3.0, 0.4, -0.3],
                  [0.0, 0.0, 1.0, 0.6], [0.0, 0.0, 0.0, -2.0]])
    b = np.array([[1.0, 0.2], [0.3, 1.0], [0.5, -0.4], [1.0, 1.0]])
    return t.T, b


def _near_axis_system():
    # ||A0||₂ = 2, so the axis band and reduce's gap tolerance are 2e-8:
    # 1.8e-8 is an axis block and 3e-8 an eligible block within the gap
    s, _ = np.linalg.qr(np.random.default_rng(109).standard_normal((4, 4)))
    a0 = s @ np.diag([2.0, 1.8e-8, 3e-8, -1.0]) @ s.T
    b = s @ np.array([[1.0, 0.0], [0.5, 1.0], [1.0, -0.7], [1.0, 1.0]])
    return a0, b


FAMILY_CASES = {
    "mixed": _mixed_system,
    "uncontrollable-rhp-lhp": _uncontrollable_system,
    "mirrored-pair": _mirrored_system,
    "separated-cluster": _separated_cluster_system,
    "near-axis": _near_axis_system,
}


def _seeded_system(seed):
    """A random draw with n <= 8 and m in {1, 2}; every third one plants one
    or two uncontrollable entries (a real mode or a pair each)."""
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(3, 9))
    entries = draw_spectrum(rng, n)
    n_unc = 1 + seed % 2 if seed % 3 == 0 and len(entries) > 2 else 0
    return build_system(rng, ctrl=entries[n_unc:], unc=entries[:n_unc], m=1 + seed % 2)


SEEDED_CASES = {f"draw-{seed}": seed for seed in range(20)}


def _family_case(case):
    if case in SEEDED_CASES:
        return _seeded_system(SEEDED_CASES[case])
    return FAMILY_CASES[case]()


@pytest.mark.parametrize("case", sorted(FAMILY_CASES) + list(SEEDED_CASES))
def test_family_matches_direct_route_on_every_subset(case):
    form, split = homogeneous_setup(*_family_case(case))
    assert_family_is_direct(form, split, schur_family(form, split))


def test_family_case_geometry():
    # the planted structure each case above is meant to exercise, and the
    # subsets it leaves absent
    absent = {
        case: (2 ** sum(blk.half_plane != "AXIS" for blk in split.blocks) - 1)
        - (len(schur_family(form, split)) - 1)
        for case, (form, split) in (
            (c, homogeneous_setup(*build())) for c, build in FAMILY_CASES.items()
        )
    }
    assert absent == {"mixed": 0, "uncontrollable-rhp-lhp": 24, "mirrored-pair": 4,
                      "separated-cluster": 8, "near-axis": 4}
    _, split = homogeneous_setup(*_separated_cluster_system())
    ones = [i for i, blk in enumerate(split.blocks) if abs(blk.eigenvalues[0] - 1.0) < 1e-12]
    assert len(ones) == 2 and ones[1] - ones[0] == 2
    _, split = homogeneous_setup(*_near_axis_system())
    planes = sorted(blk.half_plane for blk in split.blocks)
    assert planes == ["AXIS", "LHP", "RHP", "RHP"]
    _, split = homogeneous_setup(*_uncontrollable_system())
    assert {split.blocks[i].half_plane for i in split.indices(controllable=False)} == {"RHP", "LHP"}
    _, split = homogeneous_setup(*_mixed_system())
    assert {blk.size for blk in split.blocks} == {1, 2}



def test_seeded_cases_cover_both_input_widths_and_uncontrollable_modes():
    shapes = [_seeded_system(seed) for seed in SEEDED_CASES.values()]
    assert max(a0.shape[0] for a0, _ in shapes) <= 8
    assert {b.shape[1] for _, b in shapes} == {1, 2}
    planted = 0
    for a0, b in shapes:
        _, split = homogeneous_setup(a0, b)
        planted += bool(split.indices(controllable=False))
    assert planted >= 5


@pytest.mark.parametrize("seed", [6, 8, 10])
def test_family_verdicts_of_large_exact_members(seed):
    # members with |X|_max of 1e3 and more carry residuals far above an
    # absolute 1e-8; scaled by the size of Ric's terms, none reads positive
    rng = np.random.default_rng(seed)
    form, split = homogeneous_setup(*build_system(rng, ctrl=draw_spectrum(rng, 8), m=1))
    family = schur_family(form, split)
    assert max(np.abs(sol.X).max() for sol in family) >= 1e3
    kinds = {sol.residual_verdict.kind for sol in family}
    assert not kinds & {"positive-definite", "positive-semidefinite", "indefinite"}
    # the direct route gives the same verdict on the largest member
    big = max(family, key=lambda sol: np.abs(sol.X).max())
    direct = full_rank_simplified_solution(reduce(form, split, big.block_set))
    assert direct.residual_verdict.kind in ("zero", "negative-semidefinite")


def test_form_caches_the_a0_norm(paper):
    _, form, _ = paper
    assert form.a0_norm == np.linalg.norm(form.A0, 2)
    assert form.a0_norm is form.a0_norm
    with pytest.raises(AttributeError):
        form.a0_norm = 1.0


def test_family_rejects_a_perturbed_decoupling(monkeypatch):
    form, split = homogeneous_setup(*_mixed_system())
    exact = riccati._cluster_bases

    def perturbed(eqn, cols):
        lp, lam = exact(eqn, cols)
        return lp + 1e-4 * np.triu(np.ones_like(lp), 1), lam

    monkeypatch.setattr(riccati, "_cluster_bases", perturbed)
    with pytest.raises(RiccatiError, match="not invariant"):
        schur_family(form, split)


def test_family_rejects_a_member_over_its_residual_gate(monkeypatch):
    rng = np.random.default_rng(6)
    form, split = homogeneous_setup(*build_system(rng, ctrl=draw_spectrum(rng, 5), m=1))
    assert len(schur_family(form, split)) > 1
    exact = riccati._cluster_gramian

    def perturbed(lam, c, cols):
        y, clash = exact(lam, c, cols)
        return (1 + 1e-4) * y + 1e-4 * np.abs(y).max() * np.eye(len(y)), clash

    monkeypatch.setattr(riccati, "_cluster_gramian", perturbed)
    with pytest.raises(RiccatiError, match="family member residual .* exceeds"):
        schur_family(form, split)


def _unions(cols, clash):
    """Every union of non-clashing clusters, as its columns."""
    for r in range(1, len(cols) + 1):
        for units in itertools.combinations(range(len(cols)), r):
            if not clash[np.ix_(units, units)].any():
                yield np.concatenate([cols[u] for u in units])


def _backward_error(form, x):
    """η(X) = ‖Ric(X)‖_F / (2‖A0‖_F ‖X‖_F + ‖M‖_F ‖X‖²_F)."""
    x_fro = np.linalg.norm(x)
    return float(np.linalg.norm(ric_residual(form, x))
                 / (2.0 * np.linalg.norm(form.A0) * x_fro + np.linalg.norm(form.M) * x_fro ** 2))


def test_family_gates_members_of_a_middle_column_count(monkeypatch):
    # a small perturbation of the Gramian's block between the two
    # two-column clusters breaks only their four-column union; its
    # three-cluster supersets and the six-column maximal set dilute it
    # below the gate, while the present members have one to six columns:
    # the gate covers every batch
    form, split = homogeneous_setup(*_seeded_system(14))
    bases, gramian = riccati._cluster_bases, riccati._cluster_gramian
    seen = {}

    def spy(eqn, cols):
        seen["lp"], lam = bases(eqn, cols)
        return seen["lp"], lam

    def perturbed(lam, c, cols):
        y, clash = gramian(lam, c, cols)
        cu, cv = [cu for cu in cols if len(cu) == 2]
        y[np.ix_(cu, cv)] += 1e-11 * np.abs(y).max()
        y[np.ix_(cv, cu)] = y[np.ix_(cu, cv)].T
        seen.update(y=y, cols=cols, clash=clash)
        return y, clash

    monkeypatch.setattr(riccati, "_cluster_bases", spy)
    monkeypatch.setattr(riccati, "_cluster_gramian", perturbed)
    with pytest.raises(RiccatiError, match="family member residual .* exceeds"):
        schur_family(form, split)

    lp, y = seen["lp"], seen["y"]
    present, broken = set(), set()
    for idx in _unions(seen["cols"], seen["clash"]):
        sv = np.linalg.svd(y[np.ix_(idx, idx)], compute_uv=False)
        if not linalg._full_rank(sv[-1], sv[0], DEFAULT.rank):
            continue
        present.add(len(idx))
        x = lp[:, idx] @ np.linalg.inv(y[np.ix_(idx, idx)]) @ lp[:, idx].T
        if _backward_error(form, 0.5 * (x + x.T)) > riccati.FAMILY_BACKWARD_ERROR:
            broken.add(len(idx))
    assert present == {1, 2, 3, 4, 5, 6}
    assert broken == {4}


@pytest.mark.parametrize("seed", range(10))
def test_family_refuses_a_near_jordan_triple_split_into_two_clusters(seed):
    # one input and a triple eigenvalue −1.81 make one Jordan chain, which
    # roundoff splits into two clusters about 1e-6 apart; the member over
    # both is 99% off the direct route on 7 of these seeds, and its
    # backward error, 4.9e-11 or more, is refused until ROADMAP item 2
    # makes it right
    a0, b = build_system(np.random.default_rng(seed),
                         ctrl=[-1.81, -1.81, 1.81 + 1e-6, -1.81], m=1)
    form, split = homogeneous_setup(a0, b)
    with pytest.raises(RiccatiError, match=r"family member residual over blocks \(.+\) "
                                           r"exceeds .*: η = "):
        schur_family(form, split)


def test_family_refuses_a_member_over_two_clusters_moved_off_the_solution_set(monkeypatch):
    form, split = homogeneous_setup(*_seeded_system(14))
    family = schur_family(form, split)
    target = next(sol for sol in family
                  if len({split.blocks[i].cluster for i in sol.block_set}) == 2)
    assert _backward_error(form, target.X) <= riccati.FAMILY_BACKWARD_ERROR / 100
    e = np.random.default_rng(3).standard_normal(target.X.shape)
    e += e.T
    e *= 1e-10 * np.linalg.norm(target.X) / np.linalg.norm(e)  # 1e-10 relative
    gate, moved = riccati._gated_residuals, []

    def perturbed(form, x, block_ids, block_rows):
        (p,) = [p for p, row in enumerate(block_rows)
                if tuple(block_ids[row].tolist()) == target.block_set]
        x[p] += e
        moved.append(_backward_error(form, x[p]))
        return gate(form, x, block_ids, block_rows)

    monkeypatch.setattr(riccati, "_gated_residuals", perturbed)
    blocks = re.escape(str(target.block_set))
    with pytest.raises(RiccatiError, match=f"family member residual over blocks {blocks} exceeds"):
        schur_family(form, split)
    assert moved[0] > riccati.FAMILY_BACKWARD_ERROR


def _family_clusters(split):
    """The clusters the family takes part in: those that hold no axis block
    and no block the split tags uncontrollable."""
    excluded = {blk.cluster for blk in split.blocks
                if blk.half_plane == "AXIS" or not blk.controllable}
    return {blk.cluster for blk in split.blocks} - excluded


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_family_reduces_once(case, monkeypatch):
    # one reduction over the blocks of the clusters that hold no axis block
    # and no uncontrollable one; no block set is reduced a second time to
    # check the family
    form, split = homogeneous_setup(*FAMILY_CASES[case]())
    exact, selections = riccati.reduce, []

    def counting(form, split, block_set):
        selections.append(tuple(block_set))
        return exact(form, split, block_set)

    monkeypatch.setattr(riccati, "reduce", counting)
    assert len(schur_family(form, split)) > 1
    live = _family_clusters(split)
    assert selections == [tuple(i for i, blk in enumerate(split.blocks) if blk.cluster in live)]


def _eigvalsh_inputs(monkeypatch):
    """Spy on ``np.linalg.eigvalsh``: the list of the arrays it is given."""
    eigvalsh, calls = np.linalg.eigvalsh, []

    def recording(a, *args, **kwargs):
        calls.append(np.array(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return calls


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_family_takes_no_eigvalsh_when_the_certificate_decides(case, monkeypatch):
    # the inverse's residual certifies every union's rank test, and the
    # residual verdicts wait until they are read
    form, split = homogeneous_setup(*FAMILY_CASES[case]())
    calls = _eigvalsh_inputs(monkeypatch)
    family = schur_family(form, split)
    assert not calls
    assert len(family) > 1 and [sol.X for sol in family] and not calls


def test_family_takes_eigvalsh_on_exactly_the_undecided_union(monkeypatch):
    # diag(1, −2) with B = (1e-5, 1): cluster {0} alone has the Gramian
    # 5e-11, half the rank cut, which no certificate can pass; {1} (−0.25)
    # and the union (smallest singular value 4.5e-10) are certified
    form, split = homogeneous_setup(np.diag([1.0, -2.0]), np.array([[1e-5], [1.0]]))
    calls = _eigvalsh_inputs(monkeypatch)
    family = schur_family(form, split)
    assert [call.shape for call in calls] == [(1, 1, 1)]
    assert abs(calls[0][0, 0, 0] - 5e-11) <= 1e-20
    assert [sol.block_set for sol in family] == [(), (1,), (0, 1)]
    monkeypatch.undo()
    assert_family_is_direct(form, split, family)


def test_family_takes_one_qr_and_two_inv_per_level_and_one_certificate(monkeypatch):
    # six clusters, two of them pairs, make 63 unions over 8 column counts.
    # Each column count is one level, and only the work whose shapes depend
    # on it runs per level: one qr and two inv (of R and of the Gramians).
    # The certificate runs once for the whole family, and, as it certifies
    # every union, no eigvalsh runs
    rng = np.random.default_rng(113)
    ctrl = [1.1, -0.7, 2.1, complex(-1.5, 1.1), 1.6, complex(0.9, 0.6)]
    form, split = homogeneous_setup(*build_system(rng, ctrl=ctrl, m=2))
    calls = dict.fromkeys(["qr", "inv", "eigvalsh", "_certified_full_rank"], 0)
    for owner, name in [(np.linalg, "qr"), (np.linalg, "inv"), (np.linalg, "eigvalsh"),
                        (riccati, "_certified_full_rank")]:
        def counting(*args, _exact=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _exact(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    family = schur_family(form, split)
    monkeypatch.undo()
    assert len(family) == 2 ** len(ctrl)
    assert len({sol.rank for sol in family[1:]}) == 8
    assert calls == {"qr": 8, "inv": 16, "eigvalsh": 0, "_certified_full_rank": 1}


@pytest.mark.parametrize("case", sorted(FAMILY_CASES) + list(SEEDED_CASES))
def test_family_members_equal_the_level_reference_bitwise(case, monkeypatch):
    # every clash-free union of k columns, factored in one level by the
    # reference arithmetic of oracles.level_reference from the family's own
    # L' and Y', gives each member's X and Lcoord bit for bit, and exactly
    # the family's present unions
    form, split = homogeneous_setup(*_family_case(case))
    bases, gramian, seen = riccati._cluster_bases, riccati._cluster_gramian, {}

    def spy_bases(eqn, cols):
        seen["lp"], lam = bases(eqn, cols)
        return seen["lp"], lam

    def spy_gramian(lam, c, cols):
        seen["y"], seen["clash"] = gramian(lam, c, cols)
        seen["cols"] = cols
        return seen["y"], seen["clash"]

    monkeypatch.setattr(riccati, "_cluster_bases", spy_bases)
    monkeypatch.setattr(riccati, "_cluster_gramian", spy_gramian)
    family = schur_family(form, split)
    monkeypatch.undo()
    lp, y = seen["lp"], seen["y"]
    levels = {}
    for idx in _unions(seen["cols"], seen["clash"]):
        levels.setdefault(len(idx), []).append(np.sort(idx))
    want = {}
    for idx in map(np.array, levels.values()):
        ok, q, lcoord = level_reference(lp[:, idx].transpose(1, 0, 2),
                                        y[idx[:, :, None], idx[:, None, :]], DEFAULT)
        x = np.matmul(q @ lcoord, np.swapaxes(q, 1, 2))
        x = 0.5 * (x + np.swapaxes(x, 1, 2))
        want.update((tuple(cols.tolist()), (xs, lc)) for cols, xs, lc in zip(idx[ok], x, lcoord))
    rows = family._members.col_rows
    got = {tuple(np.flatnonzero(row).tolist()): sol for row, sol in zip(rows, family[1:])}
    assert got.keys() == want.keys() and len(got) == len(family) - 1
    for cols, sol in got.items():
        xs, lc = want[cols]
        assert sol.X.tobytes() == xs.tobytes() and sol.Lcoord.tobytes() == lc.tobytes()


@pytest.mark.parametrize("case", sorted(FAMILY_CASES) + list(SEEDED_CASES))
def test_family_as_lists_gives_every_member_field_bitwise(case):
    # the bulk read of a fresh family equals what every member holds or
    # gives, read from another family of the same problem; plain reads
    # build no member and take no verdict
    form, split = homogeneous_setup(*_family_case(case))
    members = list(schur_family(form, split))
    for full in (False, True):
        family = schur_family(form, split)
        rows = family.as_lists(full=full)
        assert family._built == [None] * len(family)
        assert ("_extremes" in vars(family)) == (full and len(family) > 1)
        assert rows["block_set"] == [sol.block_set for sol in members]
        assert rows["rank"] == [sol.rank for sol in members]
        assert rows["X"] == [sol.X.tolist() for sol in members]
        assert list(map(float.hex, rows["residual_max"])) == [
            float(np.abs(sol.residual).max()).hex() for sol in members]
        if full:
            assert rows["Lcoord"] == [sol.Lcoord.tolist() for sol in members]
            assert rows["eigenvalues"] == [sol.eigenvalues for sol in members]
            assert rows["residual_verdict"] == [sol.residual_verdict.kind for sol in members]
        else:
            assert rows.keys() == {"block_set", "rank", "X", "residual_max"}


def _planted_pair_system():
    # an uncontrollable conjugate pair: a two-column cluster that B misses
    rng = np.random.default_rng(139)
    return build_system(rng, ctrl=[1.1, -0.7, complex(-1.8, 0.6), 2.4],
                        unc=[complex(1.5, 0.9)], m=1)


def _factored_supports(form, split, monkeypatch):
    """The family, its cluster columns and the column sets of the supports
    that reach ``_factor_level``; ``L'`` and the cluster columns are None
    when ``_cluster_bases`` is never called."""
    bases, factor = riccati._cluster_bases, riccati._factor_level
    seen, supports = {}, []

    def spy_bases(eqn, cols):
        lp, lam = bases(eqn, cols)
        seen.update(lp=lp, cols=cols)
        return lp, lam

    def spy_factor(ls, ys, upper):
        supports.extend(ls)
        return factor(ls, ys, upper)

    monkeypatch.setattr(riccati, "_cluster_bases", spy_bases)
    monkeypatch.setattr(riccati, "_factor_level", spy_factor)
    family = schur_family(form, split)
    monkeypatch.undo()
    lp = seen.get("lp")
    held = [{int(np.flatnonzero((lp == col[:, None]).all(axis=0))[0]) for col in ls.T}
            for ls in supports]
    return family, lp, seen.get("cols"), held


@pytest.mark.parametrize("system", [_uncontrollable_system, _planted_pair_system])
def test_family_factors_no_union_holding_an_uncontrollable_cluster(system, monkeypatch):
    a0, b = system()
    form, split = homogeneous_setup(a0, b)
    family, lp, cols, held = _factored_supports(form, split, monkeypatch)
    # the clusters the split tags uncontrollable never reach L': it holds
    # the columns of the other clusters only, and B misses none of them
    assert split.indices(controllable=False)
    live = _family_clusters(split)
    assert len(cols) == len(live)
    assert lp.shape[1] == sum(blk.size for blk in split.blocks if blk.cluster in live)
    assert not (np.abs(b.T @ lp).max(axis=0) <= 1e-12 * np.abs(b).max()).any()
    assert held
    assert_family_is_direct(form, split, family)


@pytest.mark.parametrize("a0, b_weak, members", [
    # the PBH test tags the weak mode controllable. Y'_uu = 5e-11 fails the
    # rank test on its own, but the union with the stable mode has Gramian
    # [[5e-11, -1e-5], [-1e-5, -0.25]], whose smallest singular value,
    # 4.5e-10, passes it
    (np.diag([1.0, -2.0]), 1e-5, [(), (1,), (0, 1)]),
    # the same weak mode with an unstable partner: the union's Gramian is
    # positive semidefinite, so its smallest eigenvalue is at most 5e-11
    (np.diag([1.0, 2.0]), 1e-5, [(), (1,)]),
    # at 1e-10 the PBH test tags the weak mode uncontrollable, so its
    # cluster is left out: the stable mode's is the only support factored
    (np.diag([1.0, -2.0]), 1e-10, [(), (1,)]),
])
def test_family_factors_every_union_of_a_weakly_controllable_cluster(
        a0, b_weak, members, monkeypatch):
    form, split = homogeneous_setup(a0, np.array([[b_weak], [1.0]]))
    family, lp, cols, held = _factored_supports(form, split, monkeypatch)
    tagged = b_weak > 1e-6
    assert [blk.controllable for blk in split.blocks] == [tagged, True]
    assert [sol.block_set for sol in family] == members
    assert len(cols) == lp.shape[1] == (2 if tagged else 1)
    assert sorted(map(sorted, held)) == ([[0], [0, 1], [1]] if tagged else [[0]])
    assert_family_is_direct(form, split, family)


def test_family_of_axis_blocks_only_is_the_zero_solution():
    # the controllable pair ±i is the only block, and axis blocks never
    # take part: nothing is reduced or solved
    form, split = homogeneous_setup(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[1.0], [0.0]]))
    assert [(blk.half_plane, blk.controllable) for blk in split.blocks] == [("AXIS", True)]
    family = schur_family(form, split)
    assert len(family) == 1 and family[0].block_set == () and not family[0].X.any()


def test_family_of_a_system_b_misses_is_the_zero_solution(monkeypatch):
    # every cluster is left out, so nothing is factored
    form, split = homogeneous_setup(np.diag([1.0, -2.0, 3.0]), np.zeros((3, 1)))
    family, _, _, held = _factored_supports(form, split, monkeypatch)
    assert [sol.block_set for sol in family] == [()] and not held
    assert direct_family(form, split) == {}


def _verdict_now(form, sol):
    """``sol``'s residual verdict, computed eagerly from its definition."""
    x_max = np.abs(sol.X).max()
    cut = DEFAULT.definiteness * max(1.0, np.abs(form.A0).max() * x_max,
                                     np.abs(form.M).max() * x_max ** 2)
    eig = np.linalg.eigvalsh(sol.residual)
    return linalg.verdict_from_extremes(float(eig[0]), float(eig[-1]), cut)


def _assert_verdict_on_read(form, sol):
    assert "residual_verdict" not in vars(sol)
    verdict = sol.residual_verdict
    assert verdict == _verdict_now(form, sol)
    assert sol.residual_verdict is verdict
    # a copy with another X keeps the residual, and reads its verdict anew
    moved = dataclasses.replace(sol, X=sol.X + 1e-3 * np.eye(len(sol.X)))
    assert "residual_verdict" not in vars(moved)
    assert moved.residual_verdict == verdict


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_family_verdicts_are_computed_on_first_read(case):
    form, split = homogeneous_setup(*FAMILY_CASES[case]())
    family = schur_family(form, split)
    assert not any("residual_verdict" in vars(sol) for sol in family)
    for sol in family:
        _assert_verdict_on_read(form, sol)


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_family_verdicts_come_from_one_stacked_eigvalsh(case, monkeypatch):
    # reading X builds every member and takes no eigvalsh; the first
    # verdict read takes one over the whole residual stack, and the zero
    # solution, which is not in it, one of its own
    form, split = homogeneous_setup(*FAMILY_CASES[case]())
    family = schur_family(form, split)
    calls = _eigvalsh_inputs(monkeypatch)
    assert [sol.X for sol in family] and not calls
    family[-1].residual_verdict
    assert [call.shape for call in calls] == [family._members.residual.shape]
    verdicts = [sol.residual_verdict for sol in family]
    assert [call.shape for call in calls[1:]] == [form.A0.shape]
    monkeypatch.undo()
    assert verdicts == [_verdict_now(form, sol) for sol in family]


def test_direct_and_zero_verdicts_are_computed_on_first_read(paper):
    _, form, split = paper
    _assert_verdict_on_read(form, full_rank_simplified_solution(reduce(form, split, [0, 1])))
    zero = zero_solution(form)
    _assert_verdict_on_read(form, zero)
    assert zero.residual_verdict.kind == "zero"


def _eager_family(form, family):
    """The family as a list built field by field from the stacks the
    family keeps, sorted by Python's tuple order."""
    m = family._members
    lcoords = [lc for batch in m.lcoords for lc in batch]
    members = [
        AriSolution(X=m.x[p], Lcoord=lcoords[p],
                    block_set=tuple(int(i) for i in m.block_ids[m.block_rows[p]]),
                    rank=int(m.col_rows[p].sum()), residual=m.residual[p],
                    residual_cut=float(m.cut[p]),
                    eigenvalues=tuple(m.eigenvalues[m.col_rows[p]]))
        for p in range(len(m.x))
    ]
    return [zero_solution(form)] + sorted(members, key=lambda s: (s.rank, s.block_set))


def _same_member(got, want):
    for field in ("X", "Lcoord", "residual"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
    for field in ("block_set", "rank", "residual_cut", "eigenvalues", "certificate"):
        a, b = getattr(got, field), getattr(want, field)
        assert a == b and type(a) is type(b), field
    for a, b in zip(got.block_set + got.eigenvalues, want.block_set + want.eigenvalues):
        assert type(a) is type(b)


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_family_is_sorted_by_rank_and_block_set(case):
    form, split = homogeneous_setup(*FAMILY_CASES[case]())
    members = list(schur_family(form, split))
    ordered = sorted(members, key=lambda s: (s.rank, s.block_set))
    assert all(a is b for a, b in zip(members, ordered))
    assert members[0].block_set == () and members[0].rank == 0


def _svd_rank(m):
    """Singular values of ``m`` above DEFAULT.rank times the largest."""
    sv = np.linalg.svd(m, compute_uv=False) if m.size else np.zeros(0)
    return int(np.count_nonzero(sv > DEFAULT.rank * sv.max(initial=0.0)))


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_family_member_rank_is_its_column_count(case):
    # the rank test on the Gramian (or the perturbed Gramian of parametrize)
    # leaves every singular value of its inverse, Lcoord, above tol.rank
    # times the largest, so counting them gives the column count
    form, split = homogeneous_setup(*FAMILY_CASES[case]())
    solutions = list(schur_family(form, split))
    for sol in solutions[1:]:
        eqn = reduce(form, split, sol.block_set)
        solutions.append(full_rank_simplified_solution(eqn))
        if all(split.blocks[i].half_plane == "RHP" for i in sol.block_set):
            solutions.append(parametrize(eqn, np.eye(eqn.k)))
    assert any(sol.certificate is not None for sol in solutions)
    for sol in solutions:
        assert sol.rank == sol.Lcoord.shape[0] == _svd_rank(sol.Lcoord)


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_family_members_compare_by_identity(case):
    form, split = homogeneous_setup(*FAMILY_CASES[case]())
    family = schur_family(form, split)
    for i, sol in enumerate(family):
        assert family[i] is sol
        assert family.index(sol) == i and family.count(sol) == 1 and sol in family
    copy = dataclasses.replace(family[-1])
    assert copy != family[-1] and copy not in family
    assert len(set(family)) == len(family)


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_family_reads_as_an_immutable_sequence(case):
    form, split = homogeneous_setup(*FAMILY_CASES[case]())
    family = schur_family(form, split)
    assert isinstance(family, riccati.SolutionFamily)
    members = list(family)
    n = len(family)
    assert n == len(members) > 1
    assert all(family[i] is sol and family[i - n] is sol for i, sol in enumerate(members))
    for cut in (slice(None, -1), slice(1, 3), slice(None, None, -2), slice(n, None)):
        part = family[cut]
        assert type(part) is list and len(part) == len(members[cut])
        assert all(a is b for a, b in zip(part, members[cut]))
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            family[bad]
    with pytest.raises(TypeError):
        family[1.0]
    with pytest.raises(TypeError):
        family[0] = members[0]


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_family_builds_each_member_on_its_first_read(case, monkeypatch):
    form, split = homogeneous_setup(*FAMILY_CASES[case]())
    built = []

    def counting(*args, **kwargs):
        built.append(AriSolution(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(riccati, "AriSolution", counting)
    family = schur_family(form, split)
    assert not built
    last = family[-1]
    assert len(built) == 1 and built[0] is last
    assert family[-1] is last and family[len(family) - 1] is last
    first = family[0]
    assert len(built) == 2 and built[1] is first and family[0] is first
    members = list(family)
    assert len(built) == len(family)
    assert all(a is b for a, b in zip(list(family), members))


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_family_members_equal_an_eager_reference(case):
    form, split = homogeneous_setup(*FAMILY_CASES[case]())
    family = schur_family(form, split)
    eager = _eager_family(form, family)
    assert len(family) == len(eager)
    for got, want in zip(family, eager):
        _same_member(got, want)
        assert got.residual_verdict == want.residual_verdict
    top = family[-1]
    moved = dataclasses.replace(top, X=top.X + 1.0)
    assert np.array_equal(moved.X, top.X + 1.0) and moved.block_set == top.block_set
    assert family[-1] is top


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_cluster_bases_are_orthonormal_invariant_and_uncoupled(case, monkeypatch):
    form, split = homogeneous_setup(*FAMILY_CASES[case]())
    exact = riccati._cluster_bases
    seen = []

    def spy(eqn, cols):
        lp, lam = exact(eqn, cols)
        seen.append((eqn, cols, lp, lam))
        return lp, lam

    monkeypatch.setattr(riccati, "_cluster_bases", spy)
    schur_family(form, split)
    (eqn, cols, lp, lam), = seen
    assert len(cols) >= 2
    for u, cu in enumerate(cols):
        assert np.abs(lp[:, cu].T @ lp[:, cu] - np.eye(len(cu))).max() <= 1e-12
        # Λ's part on the cluster carries the cluster's eigenvalues
        want = np.sort_complex(linalg._row_eigenvalues(eqn.Dk)[cu])
        got = np.sort_complex(linalg._row_eigenvalues(lam[np.ix_(cu, cu)]))
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
        for v, cv in enumerate(cols):
            if u != v:
                assert not lam[np.ix_(cu, cv)].any()
    resid = np.abs(form.A0.T @ lp - lp @ lam).max()
    assert resid <= riccati.INVARIANCE_RTOL * max(1.0, form.a0_norm) * max(1.0, np.abs(lp).max())
    # Dk's 1x1 / 2x2 layout, and nothing below it
    starts = linalg._block_spectrum(eqn.Dk)[0]
    assert linalg._block_spectrum(lam)[0] == starts
    pairs = [i for i, blk in zip(starts, eqn.blocks) if blk.size == 2]
    below = np.tril(lam, -1)
    below[[i + 1 for i in pairs], pairs] = 0.0
    assert not below.any()
    if case == "separated-cluster":
        # the cluster of eigenvalue 1 is not contiguous in Dk, and keeps its coupling
        (cu,) = [cu for cu in cols if len(cu) == 2]
        assert cu[1] - cu[0] == 2 and lam[cu[0], cu[1]] != 0.0
    if case == "mixed":
        assert pairs


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_family_factors_no_schur_form_beyond_the_split(case, schur_calls):
    a0, b = FAMILY_CASES[case]()
    form = solve_base_are(RiccatiProblem(A=a0, B=b), kind="given", k0=np.zeros(a0.shape))
    del schur_calls[:]
    split = spectral_split(form.A0, b)
    assert schur_calls == [a0.shape[0]]
    schur_family(form, split)
    assert schur_calls == [a0.shape[0]]


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_family_solves_the_gramian_with_one_kernel_call_per_cluster(case, monkeypatch):
    form, split = homogeneous_setup(*FAMILY_CASES[case]())
    sylvester = {"direct": 0, "gramian": 0, "bases": 0, "cluster-gramian": 0}
    reorder = dict.fromkeys(sylvester, 0)
    phase, returned = ["direct"], {}

    def counting(calls, fn):
        def wrapped(*args, **kwargs):
            calls[phase[-1]] += 1
            return fn(*args, **kwargs)
        return wrapped

    def in_phase(name, fn):
        def wrapped(*args, **kwargs):
            phase.append(name)
            try:
                returned[name] = args, fn(*args, **kwargs)
                return returned[name][1]
            finally:
                phase.pop()
        return wrapped

    monkeypatch.setattr(linalg.lapack, "dtrsyl", counting(sylvester, linalg.lapack.dtrsyl))
    monkeypatch.setattr(linalg.lapack, "dtrsen", counting(reorder, linalg.lapack.dtrsen))
    phases = {"_gramian_members": "gramian", "_cluster_bases": "bases",
              "_cluster_gramian": "cluster-gramian"}
    for name, label in phases.items():
        monkeypatch.setattr(riccati, name, in_phase(label, getattr(riccati, name)))
    schur_family(form, split)

    clusters = _family_clusters(split)
    # one call for the whole Gramian; only when a pair clashes does the
    # kernel go pair by pair, at most C(C+1)/2 calls more
    assert len(clusters) >= 2
    (lam, _, cols), (_, clash) = returned["cluster-gramian"]
    pairs = len(clusters) * (len(clusters) + 1) // 2
    assert 1 <= sylvester["cluster-gramian"] <= (1 + pairs if clash.any() else 1)
    assert clash.any() == (case == "mirrored-pair")
    # each cluster's subspace is one Schur reordering, and nothing else
    # in the family's Gramian route solves a Sylvester equation
    assert reorder["bases"] == len(clusters)
    assert reorder["gramian"] == reorder["cluster-gramian"] == 0
    assert sylvester["gramian"] == sylvester["bases"] == 0
    # and nothing outside it: no block set is solved a second way
    assert sylvester["direct"] == 0
    # the clashes are exactly the pairs the kernel refuses on their own
    monkeypatch.undo()
    assert _clash_pairs(clash) == _kernel_refusals(lam, cols)


def test_family_refuses_clusters_the_reordering_cannot_separate(monkeypatch, tmp_path, capsys):
    # dtrsen reports a failed swap whenever it reorders a cluster out of
    # the identity basis, which only the cluster bases start from
    a0, b = _mixed_system()
    form, split = homogeneous_setup(a0, b)
    assert np.abs(np.abs(split.U) - np.eye(len(a0))).max() > 0.1
    reorder = linalg.lapack.dtrsen

    def failing(select, t, q, **kwargs):
        out = reorder(select, t, q, **kwargs)
        return out[:-1] + (1,) if np.array_equal(q, np.eye(len(q))) else out

    monkeypatch.setattr(linalg.lapack, "dtrsen", failing)
    with pytest.raises(DegenerateSpectrum, match="reordering failed"):
        schur_family(form, split)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"A": a0.tolist(), "B": b.tolist(),
                                "K0": np.zeros(a0.shape).tolist()}))
    assert main(["solve", str(path), "--family"]) == 3
    assert "error: DegenerateSpectrum" in capsys.readouterr().err


def _clustered_lambda(rng, blocks, labels):
    """Quasi-triangular matrix with the given 1x1 / 2x2 diagonal blocks and
    random coupling above them only between blocks of one cluster; returns
    it with the cluster of every row."""
    sizes = [blk.shape[0] for blk in blocks]
    lam = np.zeros((sum(sizes), sum(sizes)))
    unit_of_col = np.repeat(labels, sizes)
    ends = np.cumsum(sizes)
    for blk, end, size in zip(blocks, ends, sizes):
        lam[end - size:end, end - size:end] = blk
        same = unit_of_col[end:] == unit_of_col[end - 1]
        lam[end - size:end, end:] = rng.standard_normal((size, len(same))) * same
    return lam, unit_of_col


def _planted_clash_lambda(factor):
    # cluster 0 {1, 2.5} meets cluster 2 {-1 + d02, -3}; cluster 1 {2 ± 1.5i}
    # meets cluster 3 {-2 + d13 ± 1.5i, 9}; cluster 4 {0.6, -0.6 + d44}
    # meets itself. Each d is factor times the cutoff at max(1, ρ_u + ρ_v).
    # At factor 2, d02 is below the cutoff at the whole Λ's scale, 9 + 9,
    # so the kernel refuses one call for the whole Gramian.
    cut = linalg.SYLVESTER_SEP_RTOL
    d02, d13, d44 = (factor * cut * scale for scale in (2.5 + 3.0, 2.5 + 9.0, 1.2))
    pair = lambda re, im: np.array([[re, im], [-im, re]])
    blocks = [np.array([[1.0]]), pair(2.0, 1.5), np.array([[-1.0 + d02]]), np.array([[2.5]]),
              pair(-2.0 + d13, 1.5), np.array([[0.6]]), np.array([[-3.0]]), np.array([[9.0]]),
              np.array([[-0.6 + d44]])]
    labels = [0, 1, 2, 0, 3, 4, 2, 3, 4]
    return _clustered_lambda(np.random.default_rng(113), blocks, labels)


def _kernel_refusals(lam, cols):
    """The cluster pairs (u <= v) whose Gramian block the kernel refuses on
    its own: its separation test at the pair's scale, or a perturbed solve."""
    rng = np.random.default_rng(127)
    refused = set()
    for u, v in itertools.combinations_with_replacement(range(len(cols)), 2):
        c = rng.standard_normal((len(cols[u]), len(cols[v])))
        try:
            linalg._solve_quasi_triangular(lam[np.ix_(cols[u], cols[u])],
                                           lam[np.ix_(cols[v], cols[v])], c, trana="T")
        except SingularSylvester:
            refused.add((u, v))
    return refused


def _clash_pairs(clash):
    assert np.array_equal(clash, clash.T)
    return {(u, v) for u, v in zip(*np.nonzero(clash)) if u <= v}


# the clashes planted at each factor: at 0.5 three pairs sit below their
# cutoff; at 2.0 none does, though the whole Λ's larger scale refuses the
# one call; at 3e9 every pair is separated by 0.3 times its scale
PLANTED_CLASHES = {0.5: {(0, 2), (1, 3), (4, 4)}, 2.0: set(), 3e9: set()}


@pytest.mark.parametrize("factor, planted", sorted(PLANTED_CLASHES.items()))
def test_clash_table_marks_exactly_the_pairs_the_kernel_refuses(factor, planted):
    lam, unit_of_col = _planted_clash_lambda(factor)
    cols = [np.flatnonzero(unit_of_col == u) for u in range(5)]
    g = np.random.default_rng(131).standard_normal((lam.shape[0], 3))
    _, clash = riccati._cluster_gramian(lam, g @ g.T, cols)
    refused = _kernel_refusals(lam, cols)
    assert refused == planted
    assert _clash_pairs(clash) == refused


def _pairwise_gramian(lam, c, cols, clash):
    """Oracle for _cluster_gramian: every non-clashing cluster pair on its own."""
    y = np.zeros_like(c)
    for u, v in itertools.combinations_with_replacement(range(len(cols)), 2):
        if not clash[u, v]:
            cu, cv = cols[u], cols[v]
            y[np.ix_(cu, cv)] = linalg._solve_quasi_triangular(
                lam[np.ix_(cu, cu)], lam[np.ix_(cv, cv)], c[np.ix_(cu, cv)], trana="T")
            y[np.ix_(cv, cu)] = y[np.ix_(cu, cv)].T
    return y


@pytest.mark.parametrize("factor", sorted(PLANTED_CLASHES))
def test_cluster_gramian_solves_every_non_clashing_pair(factor, monkeypatch):
    lam, unit_of_col = _planted_clash_lambda(factor)
    cols = [np.flatnonzero(unit_of_col == u) for u in range(5)]
    g = np.random.default_rng(131).standard_normal((lam.shape[0], 3))
    c = g @ g.T
    calls = []
    solve = linalg.lapack.dtrsyl
    monkeypatch.setattr(linalg.lapack, "dtrsyl", lambda *a, **k: calls.append(1) or solve(*a, **k))
    y, clash = riccati._cluster_gramian(lam, c, cols)
    monkeypatch.undo()
    assert _clash_pairs(clash) == PLANTED_CLASHES[factor]
    # one call for the whole Gramian when its separation test passes (at
    # 3e9); otherwise the test refuses it before dtrsyl runs, and every
    # pair the kernel accepts is one call
    assert len(calls) == (1 if factor == 3e9 else 15 - len(PLANTED_CLASHES[factor]))
    want = _pairwise_gramian(lam, c, cols, clash)
    assert np.abs(y - want).max() <= 1e-12 * np.abs(want).max()
    solved = ~clash[np.ix_(unit_of_col, unit_of_col)]
    resid = (y @ lam + lam.T @ y - c)[solved]
    assert np.abs(resid).max() <= 1e-10 * max(1.0, np.abs(y).max())
    assert not y[~solved].any()


def test_cluster_gramian_solves_a_perturbed_row_pair_by_pair(monkeypatch):
    # dtrsyl reports a perturbation on the whole Gramian, which passes the
    # separation test, and on the pair of clusters 0 and 2: the Gramian is
    # solved pair by pair, and only that pair becomes a clash
    lam, unit_of_col = _planted_clash_lambda(3e9)
    cols = [np.flatnonzero(unit_of_col == u) for u in range(5)]
    g = np.random.default_rng(137).standard_normal((lam.shape[0], 2))
    c = g @ g.T
    blocks = {u: lam[np.ix_(cu, cu)] for u, cu in enumerate(cols)}
    solve, calls = linalg.lapack.dtrsyl, []

    def perturbing(tf, tg, rhs, **kwargs):
        calls.append(len(tf))
        if len(tf) == len(lam) or np.array_equal(tf, blocks[0]) and np.array_equal(tg, blocks[2]):
            return rhs, 1.0, 1
        return solve(tf, tg, rhs, **kwargs)

    monkeypatch.setattr(linalg.lapack, "dtrsyl", perturbing)
    y, clash = riccati._cluster_gramian(lam, c, cols)
    monkeypatch.undo()
    assert calls[0] == len(lam) and len(calls) == 1 + 15
    assert _clash_pairs(clash) == {(0, 2)}
    want = _pairwise_gramian(lam, c, cols, clash)
    assert np.abs(y - want).max() <= 1e-12 * np.abs(want).max()
    assert not y[np.ix_(cols[0], cols[2])].any()


@pytest.mark.parametrize("seed", range(6))
def test_clash_free_unions_are_the_unions_with_no_clashing_pair(seed):
    # random symmetric clash tables over six clusters, a cluster clashing
    # with itself included, and none at seed 0: the rows are the unions
    # with no clashing pair, each once, with their column counts
    clash = np.random.default_rng(seed).random((6, 6)) < 0.2 * min(seed, 1)
    clash |= clash.T
    rows, ncols = riccati._clash_free_unions(clash, np.ones(6, dtype=int))
    assert rows.dtype == bool and rows.shape[1] == 6
    assert np.array_equal(ncols, rows.sum(axis=1))
    masks = rows @ (1 << np.arange(6))
    assert len(set(masks.tolist())) == len(masks)
    want = set()
    for mask in range(1, 64):
        units = np.flatnonzero((mask >> np.arange(6)) & 1)
        if not clash[np.ix_(units, units)].any():
            want.add(mask)
    assert set(masks.tolist()) == want
    assert (len(want) == 63) == (seed == 0)


@pytest.mark.parametrize("seed", range(40))
def test_clash_free_unions_come_out_in_the_family_order(seed):
    # random layouts of 1- and 2-column blocks into clusters, interleaved
    # and labelled by their first block, under random clash tables: the
    # rows are the clash-free unions, sorted by (column count, block tuple)
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 3, size=rng.integers(1, 9))
    labels = []
    for j in range(len(sizes)):
        labels.append(j if not labels or rng.random() < 0.6 else int(rng.choice(labels)))
    units, unit_of_block = np.unique(labels, return_inverse=True)
    clash = rng.random((len(units), len(units))) < rng.choice([0.0, 0.15, 0.4])
    clash |= clash.T
    widths = np.bincount(unit_of_block, weights=sizes).astype(int)
    rows, ncols = riccati._clash_free_unions(clash, widths)
    got = [(int(k), tuple(np.flatnonzero(row[unit_of_block]).tolist()))
           for row, k in zip(rows, ncols)]
    want = []
    for units_in in itertools.product([False, True], repeat=len(units)):
        pick = np.array(units_in)
        if pick.any() and not clash[np.ix_(pick, pick)].any():
            blocks = np.flatnonzero(pick[unit_of_block])
            want.append((int(sizes[blocks].sum()), tuple(blocks.tolist())))
    assert got == sorted(want)


def test_lyapunov_factors_one_schur_form(schur_calls):
    f = -np.eye(5) + np.triu(np.ones((5, 5)), 1)
    solve_lyapunov_stable(f, np.eye(5))
    assert schur_calls == [5]


def test_degenerate_everything_zero_and_uncontrolled():
    # A0 = 0, B = 0: every direction is a free family and nothing errors
    form, split = homogeneous_setup(np.zeros((2, 2)), np.zeros((2, 1)))
    outcomes = degenerate_classify(form, split)
    assert len(outcomes) == 2
    for _, out in outcomes:
        assert out.kind == "free-family"
        assert np.abs(ric_residual(form, 100.0 * out.generator)).max() <= 1e-12
    from ariset import boundedness

    assert boundedness(form, split).verdict == "unbounded-both"


# ---------------------------------------------------------------------------
# degenerate axis blocks


def test_rays_refuse_a_shared_cluster_whose_kernel_is_empty(monkeypatch):
    # A0 = 0, B = 0: two uncontrollable zero blocks share one cluster
    form, split = homogeneous_setup(np.zeros((2, 2)), np.zeros((2, 1)))
    assert len({blk.cluster for blk in split.blocks}) == 1
    monkeypatch.setattr(riccati, "_uncontrollable_directions", lambda form, lam, tol: [])
    with pytest.raises(DegenerateSpectrum, match=r"^uncontrollable block 0 shares its "
                                                 r"cluster but .* has no kernel$"):
        degenerate_classify(form, split)


def test_rays_refuse_a_direction_that_b_reaches():
    # at rank tolerance 1 the PBH rule tags every block uncontrollable, so
    # the worked example's controllable blocks get rays, and Ric(G) keeps
    # its quadratic term G M G, which fails the gate
    problem = RiccatiProblem(A=PAPER_A, B=PAPER_B)
    form = solve_base_are(problem, kind="given", k0=np.zeros((3, 3)))
    tol = Tolerances(rank=1.0)
    split = spectral_split(form.A0, PAPER_B, tol=tol)
    assert not any(blk.controllable for blk in split.blocks)
    with pytest.raises(RiccatiError, match=r"^ray of block 0 has residual "):
        riccati._uncontrollable_rays(form, split, [0], tol)


def test_degenerate_controllable_zero_is_trivial():
    form, split = homogeneous_setup([[0.0]], [[1.0]])
    outcomes = degenerate_classify(form, split)
    assert len(outcomes) == 1
    assert outcomes[0][1].kind == "trivial-only"


def test_degenerate_uncontrollable_pair_generator():
    a0 = np.zeros((3, 3))
    mu = 2.0
    a0[0, 1] = mu
    a0[1, 0] = -mu
    a0[2, 2] = -1.0
    form, split = homogeneous_setup(a0, [[0.0], [0.0], [1.0]])
    outcomes = degenerate_classify(form, split)
    assert len(outcomes) == 1
    blk, out = outcomes[0]
    assert blk.size == 2 and out.kind == "free-family"
    want = np.diag([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    assert np.abs(out.generator - want).max() <= 1e-10
    for alpha in (1.0, -1.0, 10.0, -10.0, 1e3, -1e3):
        assert np.abs(ric_residual(form, alpha * out.generator)).max() <= 1e-10 * abs(alpha)


def test_degenerate_uncontrollable_zero_generator():
    form, split = homogeneous_setup(np.diag([0.0, -1.0]), [[0.0], [1.0]])
    outcomes = degenerate_classify(form, split)
    assert len(outcomes) == 1
    blk, out = outcomes[0]
    assert out.kind == "free-family"
    e1 = np.zeros((2, 2))
    e1[0, 0] = 1.0
    assert np.abs(out.generator - e1).max() <= 1e-12
    for alpha in (1.0, -1.0, 1e3, -1e3):
        assert np.abs(ric_residual(form, alpha * out.generator)).max() <= 1e-10 * abs(alpha)


def test_degenerate_controllable_zero_with_stable_mode():
    form, split = homogeneous_setup(np.diag([0.0, -1.0]), [[1.0], [1.0]])
    outcomes = degenerate_classify(form, split)
    assert [out.kind for _, out in outcomes] == ["trivial-only"]


def test_non_invariant_rank_two_residual_is_indefinite():
    rng = np.random.default_rng(61)
    hits = 0
    for _ in range(10):
        n = 4
        a0, b = build_system(rng, ctrl=draw_spectrum(rng, n), m=2)
        form, _ = homogeneous_setup(a0, b)
        g = rng.standard_normal((n, 2))
        c = rng.standard_normal((2, 2))
        x = g @ (c + c.T) @ g.T
        # the random span is almost surely not A0^T-invariant
        verdict = definiteness(ric_residual(form, x), tol=1e-8)
        if verdict.kind == "indefinite":
            hits += 1
    assert hits == 10


def _repeated_pair_system(variant):
    """A = R ⊕ R ⊕ 1 with R = [[0, 2], [−2, 0]]: B misses both copies of
    the pair ±2i, reaches one of them, or misses both after a random
    orthogonal change of state."""
    r = np.array([[0.0, 2.0], [-2.0, 0.0]])
    a, b = np.zeros((5, 5)), np.eye(5)[:, [4]]
    a[:2, :2] = a[2:4, 2:4] = r
    a[4, 4] = 1.0
    if variant == "reaches-one":
        b = np.eye(5)[:, [4, 0]]
    if variant == "changed-state":
        s, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((5, 5)))
        a, b = s.T @ a @ s, s.T @ b
    return a, b


@pytest.mark.parametrize("variant, directions", [
    ("misses-both", 2), ("reaches-one", 1), ("changed-state", 2),
])
def test_degenerate_repeated_uncontrollable_pair(variant, directions, tmp_path, capsys):
    # the two copies of ±2i share a cluster, so neither has an invariant
    # plane of its own: the generators come from the kernel of
    # [A0ᵀ − 2iI; Bᵀ], one per dimension
    from ariset import boundedness

    a0, b = _repeated_pair_system(variant)
    form, split = homogeneous_setup(a0, b)
    axis = split.indices(half_plane="AXIS")
    assert len(axis) == 2 and not any(split.blocks[i].controllable for i in axis)
    assert split.blocks[axis[0]].cluster == split.blocks[axis[1]].cluster
    gens = [out.generator for _, out in degenerate_classify(form, split)]
    assert len(gens) == directions
    for g in gens:
        assert np.linalg.matrix_rank(g, tol=1e-8) == 2
        assert abs(np.linalg.norm(g) - 1.0) <= 1e-12
        resid = np.abs(ric_residual(form, g)).max()
        assert resid <= riccati.GENERATOR_RESIDUAL_RTOL * max(1.0, form.a0_norm)
    if directions == 2:
        assert np.abs(gens[0] - gens[1]).max() > 0.1
    report = boundedness(form, split)
    assert report.verdict == "unbounded-both" and len(report.witnesses) == directions
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"A": a0.tolist(), "B": b.tolist(),
                                "K0": np.zeros(a0.shape).tolist()}))
    assert main(["classify", str(path)]) == 0
    assert main(["bounds", str(path)]) == 0
    assert "unbounded-both" in capsys.readouterr().out


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: LAPACK returns the double zero as one 2×2 block "
                          "with imaginary part about 1e-16, which gets one ray")
def test_degenerate_double_zero_read_as_a_near_real_pair():
    # an uncontrollable double zero: the kernel of [A0ᵀ; Bᵀ] is a plane,
    # so it carries two free directions
    from ariset import boundedness

    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
    a0, b = q @ np.diag([0.0, 0.0, -1.0]) @ q.T, q[:, [2]]
    form, split = homogeneous_setup(a0, b)
    assert 3 - np.linalg.matrix_rank(np.vstack([a0.T, b.T])) == 2
    gens = [out.generator for _, out in degenerate_classify(form, split)
            if out.kind == "free-family"]
    assert len(gens) == 2
    assert len(boundedness(form, split).witnesses) == 2


@pytest.mark.xfail(strict=True, raises=DegenerateSpectrum,
                   reason="ROADMAP item 2: a shared cluster takes its kernel at Re λ := 0, "
                          "where two uncontrollable copies of δ inside the AXIS band leave "
                          "none; at the computed λ it has two directions")
def test_degenerate_near_axis_copies_that_share_a_cluster():
    # δ lies inside the AXIS band (1e-8 · ‖A0‖₂) but [A0ᵀ; Bᵀ] has σ_min
    # about δ, above tol.rank · σ_max; a lone copy of δ gets its ray from
    # reduce, as the first loop shows
    from ariset import boundedness

    lone, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    for delta in (1e-9, 5e-9):
        a0 = lone @ np.diag([delta, -1.0, 2.0]) @ lone.T
        form, split = homogeneous_setup(a0, lone[:, [1]] + lone[:, [2]])
        assert [out.kind for _, out in degenerate_classify(form, split)] == ["free-family"]
        a0 = q @ np.diag([delta, delta, -1.0, 2.0]) @ q.T
        form, split = homogeneous_setup(a0, q[:, [2]] + q[:, [3]])
        assert [blk.cluster for blk in split.blocks if blk.half_plane == "AXIS"] == [0, 0]
        assert [out.kind for _, out in degenerate_classify(form, split)] == ["free-family"] * 2
        assert boundedness(form, split).verdict == "unbounded-both"


def test_degenerate_jordan_chain_hands_out_each_kernel_direction_once():
    # two uncontrollable zero blocks in one Jordan chain; the kernel of
    # [A0ᵀ; Bᵀ] is one-dimensional, so the chain carries one free direction
    a0 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    b = np.array([[0.0], [0.0], [1.0]])
    form, split = homogeneous_setup(a0, b)
    kernel = np.linalg.matrix_rank(np.vstack([a0.T, b.T]))
    assert 3 - kernel == 1
    unc = split.indices(controllable=False)
    assert len(unc) == 2
    assert len(riccati._uncontrollable_rays(form, split, unc, DEFAULT)) == 1
    gens = [out.generator for _, out in degenerate_classify(form, split)
            if out.kind == "free-family"]
    assert len(gens) == 1
    for g in gens:
        assert np.abs(ric_residual(form, 10.0 * g)).max() <= 1e-10
    from ariset import boundedness

    report = boundedness(form, split)
    assert report.verdict == "unbounded-both"
    assert len(report.witnesses) == 1
