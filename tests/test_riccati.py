import numpy as np
import pytest

import itertools

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
    exact = riccati._decouple_blocks

    def perturbed(d, spans, cluster):
        w, lam = exact(d, spans, cluster)
        return w + 1e-4 * np.triu(np.ones_like(w), 1), lam

    monkeypatch.setattr(riccati, "_decouple_blocks", perturbed)
    with pytest.raises(RiccatiError, match="not invariant"):
        schur_family(form, split)


def test_decoupling_carries_same_cluster_coupling_past_other_clusters():
    # blocks 3 | 0.5 ± i | 1 | -2 | 1: the coupling between the two blocks
    # of eigenvalue 1 enters the right-hand sides of the blocks above them
    rng = np.random.default_rng(149)
    d = np.triu(rng.standard_normal((6, 6)), 1)
    d[np.diag_indices(6)] = [3.0, 0.5, 0.5, 1.0, -2.0, 1.0]
    d[1, 2], d[2, 1] = 1.0, -1.0
    spans = [slice(0, 1), slice(1, 3), slice(3, 4), slice(4, 5), slice(5, 6)]
    cluster = [0, 1, 2, 3, 2]
    w, lam = riccati._decouple_blocks(d, spans, cluster)
    assert np.abs(lam - np.linalg.solve(w, d @ w)).max() <= 1e-12 * np.abs(w).max() ** 2
    for i, si in enumerate(spans):
        for j, sj in enumerate(spans):
            if i == j:
                assert np.array_equal(w[si, sj], np.eye(si.stop - si.start))
            elif i > j or cluster[i] != cluster[j]:
                assert not lam[si, sj].any()
            if i > j or (i != j and cluster[i] == cluster[j]):
                assert not w[si, sj].any()
    assert lam[3, 5] != 0.0 and w[0, 3] != 0.0


def _pairwise_decoupling(d, spans, cluster):
    """Oracle for _decouple_blocks: the recurrence d W = W Λ solved one pair
    of blocks at a time, each block column from the bottom up."""
    w = np.eye(d.shape[0])
    lam = np.zeros_like(d)
    for s in spans:
        lam[s, s] = d[s, s]
    for j in range(1, len(spans)):
        sj = spans[j]
        for i in range(j - 1, -1, -1):
            si = spans[i]
            # blocks i+1 .. j-1 occupy rows lo:mid, blocks i+1 .. j rows lo:hi
            lo, mid, hi = spans[i + 1].start, sj.start, sj.stop
            rhs = w[si, lo:mid] @ lam[lo:mid, sj] - d[si, lo:hi] @ w[lo:hi, sj]
            if cluster[i] == cluster[j]:
                lam[si, sj] = -rhs
            else:
                w[si, sj] = linalg._solve_quasi_triangular(d[si, si], d[sj, sj], rhs, isgn=-1)
    return w, lam


def _random_quasi_triangular(rng, values, cluster):
    """Quasi-triangular d whose block i carries eigenvalue ``values[cluster[i]]``
    (a real value or a pair), with random coupling above the blocks."""
    blocks = []
    for label in cluster:
        v = complex(values[label])
        if v.imag:
            b = rng.uniform(0.5, 2.0)  # non-symmetric standardized pair block
            blocks.append(np.array([[v.real, b], [-v.imag ** 2 / b, v.real]]))
        else:
            blocks.append(np.array([[v.real]]))
    sizes = [blk.shape[0] for blk in blocks]
    ends = np.cumsum(sizes)
    spans = [slice(end - size, end) for end, size in zip(ends, sizes)]
    d = np.triu(rng.standard_normal((ends[-1], ends[-1])), 1)
    for s, blk in zip(spans, blocks):
        d[s, s] = blk
    return d, spans


def _assert_same_decoupling(got, want):
    (w, lam), (w_ref, lam_ref) = got, want
    assert np.abs(w - w_ref).max() <= 1e-12 * np.abs(w_ref).max()
    assert np.abs(lam - lam_ref).max() <= 1e-12 * np.abs(lam_ref).max()
    assert np.array_equal(lam == 0.0, lam_ref == 0.0)
    assert np.array_equal(w == 0.0, w_ref == 0.0)


def test_decoupling_by_block_column_matches_the_pairwise_recurrence(monkeypatch):
    rng = np.random.default_rng(151)
    calls = []
    solve = linalg.lapack.dtrsyl
    monkeypatch.setattr(linalg.lapack, "dtrsyl", lambda *a, **k: calls.append(1) or solve(*a, **k))
    split_runs = mixed = 0
    for _ in range(40):
        nclusters = int(rng.integers(2, 6))
        values = [complex(rng.uniform(-3, 3), rng.uniform(0.3, 2.0) * (rng.random() < 0.5))
                  for _ in range(nclusters)]
        cluster = rng.integers(nclusters, size=int(rng.integers(3, 10))).tolist()
        d, spans = _random_quasi_triangular(rng, values, cluster)
        del calls[:]
        got = riccati._decouple_blocks(d, spans, cluster)
        # one call per maximal run of earlier blocks outside a column's cluster
        runs = sum(cluster[i] != cluster[j] and (i == 0 or cluster[i - 1] == cluster[j])
                   for j in range(len(spans)) for i in range(j))
        assert len(calls) == runs
        _assert_same_decoupling(got, _pairwise_decoupling(d, spans, cluster))
        split_runs += runs > len(spans) - 1
        mixed += len({s.stop - s.start for s in spans}) == 2
    # draws where a same-cluster block splits a column into several runs,
    # and draws mixing 1x1 and 2x2 blocks
    assert split_runs >= 10 and mixed >= 10


def test_decoupling_runs_are_refused_only_where_a_pair_is(monkeypatch):
    # block 0 (eigenvalue 1e3) widens the run's scale: at the run's ρ the
    # kernel would refuse blocks 1 and 2 (1 and 1 + 1e-9), at the pair's it
    # separates them, and column 2 is still one call
    d = np.triu(np.random.default_rng(157).standard_normal((3, 3)), 1)
    d[np.diag_indices(3)] = [1e3, 1.0, 1.0 + 1e-9]
    spans = [slice(i, i + 1) for i in range(3)]
    calls = []
    solve = linalg.lapack.dtrsyl
    monkeypatch.setattr(linalg.lapack, "dtrsyl", lambda *a, **k: calls.append(1) or solve(*a, **k))
    got = riccati._decouple_blocks(d, spans, [0, 1, 2])
    assert len(calls) == 2
    _assert_same_decoupling(got, _pairwise_decoupling(d, spans, [0, 1, 2]))
    # a pair below the cutoff at its own scale refuses as the pair solve does
    d[2, 2] = 1.0 + 1e-11
    with pytest.raises(SingularSylvester) as want:
        _pairwise_decoupling(d, spans, [0, 1, 2])
    with pytest.raises(SingularSylvester) as got:
        riccati._decouple_blocks(d, spans, [0, 1, 2])
    assert str(got.value) == str(want.value)


def test_decoupling_solves_a_perturbed_run_pair_by_pair(monkeypatch):
    # dtrsyl reports a perturbation on every run of two blocks or more:
    # those columns are solved pair by pair, to the pairwise answer; a
    # perturbed pair then refuses
    rng = np.random.default_rng(163)
    cluster = [0, 1, 2, 0, 3, 1]
    d, spans = _random_quasi_triangular(rng, [1.0, 0.5 + 1.2j, -2.0, 2.5], cluster)
    want = _pairwise_decoupling(d, spans, cluster)
    singles = [d[s, s] for s in spans]
    solve = linalg.lapack.dtrsyl
    runs = []

    def perturbing(tf, tg, rhs, **kwargs):
        if not any(tf.shape == blk.shape and np.array_equal(tf, blk) for blk in singles):
            runs.append(len(tf))
            return rhs, 1.0, 1
        return solve(tf, tg, rhs, **kwargs)

    monkeypatch.setattr(linalg.lapack, "dtrsyl", perturbing)
    _assert_same_decoupling(riccati._decouple_blocks(d, spans, cluster), want)
    assert len(runs) >= 2

    def perturbing_pair(tf, tg, rhs, **kwargs):
        if np.array_equal(tf, d[spans[1], spans[1]]) and np.array_equal(tg, d[spans[2], spans[2]]):
            return rhs, 1.0, 1
        return perturbing(tf, tg, rhs, **kwargs)

    monkeypatch.setattr(linalg.lapack, "dtrsyl", perturbing_pair)
    with pytest.raises(SingularSylvester, match="perturbed"):
        riccati._decouple_blocks(d, spans, cluster)


def test_decoupling_hands_back_the_exact_lambda(monkeypatch):
    form, split = homogeneous_setup(*_separated_cluster_system())
    exact = riccati._decouple_blocks
    seen = []

    def spy(d, spans, cluster):
        w, lam = exact(d, spans, cluster)
        seen.append((d, spans, cluster, w, lam))
        return w, lam

    monkeypatch.setattr(riccati, "_decouple_blocks", spy)
    schur_family(form, split)
    (d, spans, cluster, w, lam), = seen
    gap = np.abs(lam - np.linalg.solve(w, d @ w)).max()
    assert gap <= 1e-12 * max(1.0, np.abs(d).max()) * np.abs(w).max()
    coupled = 0
    for i, si in enumerate(spans):
        for j, sj in enumerate(spans):
            if i == j:
                assert np.array_equal(lam[si, sj], d[si, sj])
            elif i > j or cluster[i] != cluster[j]:
                assert not lam[si, sj].any()
            else:
                coupled += np.count_nonzero(lam[si, sj])
    # the two blocks of eigenvalue 1 share a cluster and stay coupled
    assert coupled


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
    calls = {"direct": 0, "gramian": 0, "decouple": 0}
    phase = ["direct"]
    solve = linalg.lapack.dtrsyl

    def counting(*args, **kwargs):
        calls[phase[-1]] += 1
        return solve(*args, **kwargs)

    def in_phase(name, fn):
        def wrapped(*args, **kwargs):
            phase.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                phase.pop()
        return wrapped

    monkeypatch.setattr(linalg.lapack, "dtrsyl", counting)
    monkeypatch.setattr(riccati, "_gramian_members", in_phase("gramian", riccati._gramian_members))
    monkeypatch.setattr(riccati, "_decouple_blocks", in_phase("decouple", riccati._decouple_blocks))
    schur_family(form, split)

    labels = riccati._clusters(split, DEFAULT.axis * form.a0_norm)
    at_axis = {labels[i] for i, blk in enumerate(split.blocks) if blk.half_plane == "AXIS"}
    live = [i for i, blk in enumerate(split.blocks)
            if blk.half_plane != "AXIS" and labels[i] not in at_axis]
    clusters = {labels[i] for i in live}
    # pair by pair it would take C(C+1)/2 calls, more than C once C >= 2
    assert len(clusters) >= 2
    assert 1 <= calls["gramian"] <= len(clusters)
    # the decoupling solves once per maximal run of earlier blocks outside
    # a column's cluster: B - 1 calls here, fewer than one per pair of
    # blocks in different clusters once three blocks are live
    runs = 0
    for j, lj in enumerate(live):
        outside = [labels[i] != labels[lj] for i in live[:j]]
        runs += sum(out and (i == 0 or not outside[i - 1]) for i, out in enumerate(outside))
    assert calls["decouple"] == runs == len(live) - 1
    pairs = sum(labels[i] != labels[j] for i, j in itertools.combinations(live, 2))
    assert calls["decouple"] < pairs if len(live) > 2 else calls["decouple"] == pairs
    assert calls["direct"] >= 1


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
    cut = riccati.SYLVESTER_SEP_RTOL
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
