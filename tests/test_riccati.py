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
)
from ariset import riccati

from conftest import (
    L1,
    LL,
    LR,
    LSTAR,
    PAPER_A,
    PAPER_B,
    build_system,
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
    assert np.allclose(eqn.Mk, split.M)


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


def _direct_family(form, split):
    """Every subset solved on its own by reduce + full_rank_simplified_solution."""
    eligible = [i for i, blk in enumerate(split.blocks) if blk.half_plane != "AXIS"]
    found = {}
    for r in range(1, len(eligible) + 1):
        for subset in itertools.combinations(eligible, r):
            try:
                found[subset] = full_rank_simplified_solution(reduce(form, split, subset))
            except (SingularSylvester, SingularY, DegenerateSpectrum):
                pass
    return found


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_family_matches_direct_route_on_every_subset(case):
    form, split = homogeneous_setup(*FAMILY_CASES[case]())
    direct = _direct_family(form, split)
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


def test_family_rejects_a_perturbed_decoupling(monkeypatch):
    form, split = homogeneous_setup(*_mixed_system())
    exact = riccati._decouple_blocks

    def perturbed(d, spans, cluster):
        w = exact(d, spans, cluster)
        return w + 1e-4 * np.triu(np.ones_like(w), 1)

    monkeypatch.setattr(riccati, "_decouple_blocks", perturbed)
    with pytest.raises(RiccatiError, match="not invariant"):
        schur_family(form, split)


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
