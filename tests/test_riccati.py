import itertools
import json

import numpy as np
import pytest

from ariset import (
    BaseResidualTooLarge,
    DegenerateSpectrum,
    InvalidInput,
    NoBaseSolution,
    RiccatiError,
    RiccatiProblem,
    SingularSylvester,
    SingularY,
    are_residual,
    definiteness,
    degenerate_classify,
    full_rank_simplified_solution,
    reduce,
    ric_residual,
    schur_family,
    solve_base_are,
    spectral_split,
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
    build_system,
    direct_family,
    draw_spectrum,
    gauss_solve,
    homogeneous_setup,
)


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


def test_base_unknown_kind():
    problem = RiccatiProblem(A=[[1.0]], B=[[1.0]])
    with pytest.raises(InvalidInput):
        solve_base_are(problem, kind="newton")


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
    direct = direct_family(form, split)
    family = {sol.block_set: sol for sol in schur_family(form, split)}
    assert set(family) == set(direct) | {()}
    for block_set, want in direct.items():
        got = family[block_set]
        assert got.rank == want.rank
        assert np.abs(got.X - want.X).max() <= 1e-9 * max(1.0, np.abs(want.X).max())
        # both Lcoord are in orthonormal bases of the same support
        eig_got, eig_want = np.linalg.eigvalsh(got.Lcoord), np.linalg.eigvalsh(want.Lcoord)
        assert np.abs(eig_got - eig_want).max() <= 1e-9 * max(1.0, np.abs(eig_want).max())


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
    phase = ["direct"]

    def counting(calls, fn):
        def wrapped(*args, **kwargs):
            calls[phase[-1]] += 1
            return fn(*args, **kwargs)
        return wrapped

    def in_phase(name, fn):
        def wrapped(*args, **kwargs):
            phase.append(name)
            try:
                return fn(*args, **kwargs)
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

    labels = riccati._clusters(split, DEFAULT.axis * form.a0_norm)
    at_axis = {labels[i] for i, blk in enumerate(split.blocks) if blk.half_plane == "AXIS"}
    live = [i for i, blk in enumerate(split.blocks)
            if blk.half_plane != "AXIS" and labels[i] not in at_axis]
    clusters = {labels[i] for i in live}
    # pair by pair it would take C(C+1)/2 calls, more than C once C >= 2
    assert len(clusters) >= 2
    assert 1 <= sylvester["cluster-gramian"] <= len(clusters)
    # each cluster's subspace is one Schur reordering, and nothing else
    # in the family's Gramian route solves a Sylvester equation
    assert reorder["bases"] == len(clusters)
    assert reorder["gramian"] == reorder["cluster-gramian"] == 0
    assert sylvester["gramian"] == sylvester["bases"] == 0
    assert sylvester["direct"] >= 1


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
    # At factor 2, d02 is below the cutoff at cluster 0's ρ plus the
    # largest ρ of its row, 2.5 + 9.
    cut = linalg.SYLVESTER_SEP_RTOL
    d02, d13, d44 = (factor * cut * scale for scale in (2.5 + 3.0, 2.5 + 9.0, 1.2))
    pair = lambda re, im: np.array([[re, im], [-im, re]])
    blocks = [np.array([[1.0]]), pair(2.0, 1.5), np.array([[-1.0 + d02]]), np.array([[2.5]]),
              pair(-2.0 + d13, 1.5), np.array([[0.6]]), np.array([[-3.0]]), np.array([[9.0]]),
              np.array([[-0.6 + d44]])]
    labels = [0, 1, 2, 0, 3, 4, 2, 3, 4]
    return _clustered_lambda(np.random.default_rng(113), blocks, labels)


@pytest.mark.parametrize("factor, planted", [(0.5, {(0, 2), (1, 3), (4, 4)}), (2.0, set())])
def test_clash_table_marks_exactly_the_pairs_the_kernel_refuses(factor, planted):
    lam, unit_of_col = _planted_clash_lambda(factor)
    cols = [np.flatnonzero(unit_of_col == u) for u in range(5)]
    table = riccati._clash_table(lam, unit_of_col)
    assert np.array_equal(table, table.T)
    rng = np.random.default_rng(127)
    refused = set()
    for u, v in itertools.combinations_with_replacement(range(5), 2):
        c = rng.standard_normal((len(cols[u]), len(cols[v])))
        try:
            linalg._solve_quasi_triangular(lam[np.ix_(cols[u], cols[u])],
                                           lam[np.ix_(cols[v], cols[v])], c, trana="T")
        except SingularSylvester:
            refused.add((u, v))
    assert refused == planted
    assert {(u, v) for u, v in zip(*np.nonzero(table)) if u <= v} == refused


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


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_cluster_gramian_solves_every_non_clashing_pair(factor, monkeypatch):
    lam, unit_of_col = _planted_clash_lambda(factor)
    cols = [np.flatnonzero(unit_of_col == u) for u in range(5)]
    g = np.random.default_rng(131).standard_normal((lam.shape[0], 3))
    c = g @ g.T
    clash = riccati._clash_table(lam, unit_of_col)
    calls = []
    solve = linalg.lapack.dtrsyl
    monkeypatch.setattr(linalg.lapack, "dtrsyl", lambda *a, **k: calls.append(1) or solve(*a, **k))
    y = riccati._cluster_gramian(lam, c, cols, clash.copy())
    monkeypatch.undo()
    # one call per cluster row that has a non-clashing partner
    assert len(calls) == sum(not clash[u, u:].all() for u in range(5))
    want = _pairwise_gramian(lam, c, cols, clash)
    assert np.abs(y - want).max() <= 1e-12 * np.abs(want).max()
    solved = ~clash[np.ix_(unit_of_col, unit_of_col)]
    resid = (y @ lam + lam.T @ y - c)[solved]
    assert np.abs(resid).max() <= 1e-10 * max(1.0, np.abs(y).max())
    assert not y[~solved].any()


def test_cluster_gramian_solves_a_perturbed_row_pair_by_pair(monkeypatch):
    # dtrsyl reports a perturbation on cluster 0's whole row and on its
    # pair with cluster 2: the row is re-solved pair by pair, and only
    # that pair becomes a clash
    lam, unit_of_col = _planted_clash_lambda(2.0)
    cols = [np.flatnonzero(unit_of_col == u) for u in range(5)]
    g = np.random.default_rng(137).standard_normal((lam.shape[0], 2))
    c = g @ g.T
    clash = riccati._clash_table(lam, unit_of_col)
    assert not clash.any()
    blocks = {u: lam[np.ix_(cu, cu)] for u, cu in enumerate(cols)}
    solve = linalg.lapack.dtrsyl

    def perturbing(tf, tg, rhs, **kwargs):
        if np.array_equal(tf, blocks[0]) and (len(tg) > len(cols[0]) + len(cols[1])
                                             or np.array_equal(tg, blocks[2])):
            return rhs, 1.0, 1
        return solve(tf, tg, rhs, **kwargs)

    monkeypatch.setattr(linalg.lapack, "dtrsyl", perturbing)
    y = riccati._cluster_gramian(lam, c, cols, clash)
    monkeypatch.undo()
    expected = np.zeros((5, 5), dtype=bool)
    expected[0, 2] = expected[2, 0] = True
    assert np.array_equal(clash, expected)
    want = _pairwise_gramian(lam, c, cols, expected)
    assert np.abs(y - want).max() <= 1e-12 * np.abs(want).max()


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


def test_degenerate_jordan_chain_hands_out_each_kernel_direction_once():
    # two uncontrollable zero blocks in one Jordan chain; the kernel of
    # [A0ᵀ; Bᵀ] is one-dimensional, so the chain carries one free direction
    a0 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    b = np.array([[0.0], [0.0], [1.0]])
    form, split = homogeneous_setup(a0, b)
    kernel = np.linalg.matrix_rank(np.vstack([a0.T, b.T]))
    assert 3 - kernel == 1
    gens = [out.generator for _, out in degenerate_classify(form, split)
            if out.kind == "free-family"]
    assert len(gens) == 1
    for g in gens:
        assert np.abs(ric_residual(form, 10.0 * g)).max() <= 1e-10
    from ariset import boundedness

    report = boundedness(form, split)
    assert report.verdict == "unbounded-both"
    assert len(report.witnesses) == 1
