import numpy as np
import pytest

from ariset import InvalidInput, pbh_classify, spectral_split
from ariset.systems import AXIS, LHP, RHP, _half_plane

from conftest import build_system, draw_spectrum, kalman_rank


def test_kalman_rank_worked_example():
    assert kalman_rank(np.diag([1.0, 2.0, -4.0]), [[1.0], [1.0], [1.0]]) == 3


def test_kalman_rank_repeated_eigenvalue_single_input():
    assert kalman_rank(np.eye(2), [[1.0], [0.0]]) == 1


def test_kalman_rank_integrator_chain():
    assert kalman_rank([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]]) == 2


def test_pbh_all_controllable_worked_example():
    a0 = np.diag([1.0, 2.0, -4.0])
    b = np.array([[1.0], [1.0], [1.0]])
    split = spectral_split(a0, b)
    assert all(blk.controllable for blk in split.blocks)


def test_pbh_zero_row_in_eigenbasis():
    split = spectral_split(np.diag([1.0, 2.0]), [[1.0], [0.0]])
    tags = {blk.eigenvalues[0].real: blk.controllable for blk in split.blocks}
    assert tags[1.0] is True and tags[2.0] is False


def test_pbh_decoupled_rotation_block():
    mu = 2.0
    a0 = np.zeros((3, 3))
    a0[0, 1] = mu
    a0[1, 0] = -mu
    a0[2, 2] = -1.0
    split = spectral_split(a0, [[0.0], [0.0], [1.0]])
    pair = [blk for blk in split.blocks if blk.size == 2]
    assert len(pair) == 1 and not pair[0].controllable


def test_pbh_classify_retags():
    a0 = np.diag([1.0, -3.0])
    split = spectral_split(a0, [[1.0], [1.0]])
    retagged = pbh_classify(a0, np.zeros((2, 1)), split)
    assert all(blk.controllable for blk in split.blocks)
    assert not any(blk.controllable for blk in retagged.blocks)


def test_split_groups_worked_example():
    split = spectral_split(np.diag([1.0, 2.0, -4.0]), np.ones((3, 1)))
    assert [blk.half_plane for blk in split.blocks] == ["RHP", "RHP", "LHP"]
    assert split.indices(half_plane="AXIS") == []


def test_split_refuses_b_of_the_wrong_row_count():
    with pytest.raises(InvalidInput, match=r"^B must have 2 rows, got 3$"):
        spectral_split(np.eye(2), np.ones((3, 1)))


def test_pbh_refuses_b_of_the_wrong_row_count():
    a0 = np.diag([1.0, -3.0])
    split = spectral_split(a0, np.ones((2, 1)))
    for rows in (1, 3):
        with pytest.raises(InvalidInput, match=rf"^B must have 2 rows, got {rows}$"):
            pbh_classify(a0, np.ones((rows, 1)), split)


def test_split_scalar_axis():
    split = spectral_split([[0.0]], [[1.0]])
    assert len(split.blocks) == 1
    blk = split.blocks[0]
    assert blk.half_plane == "AXIS" and blk.controllable


def test_split_mixed_with_imaginary_pair():
    rng = np.random.default_rng(23)
    a0, b = build_system(rng, ctrl=[2j, 3.0, -1.0], m=2)
    split = spectral_split(a0, b)
    assert [blk.half_plane for blk in split.blocks] == ["AXIS", "RHP", "LHP"]
    assert [blk.size for blk in split.blocks] == [2, 1, 1]


def test_split_is_similarity_and_gram_is_psd():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 4))
        a0 = rng.standard_normal((n, n))
        b = rng.standard_normal((n, m))
        split = spectral_split(a0, b)
        assert np.abs(a0.T @ split.U - split.U @ split.T).max() <= 1e-9 * max(
            1.0, np.linalg.norm(a0)
        )
        got = np.sort_complex(
            np.array([lam for blk in split.blocks for lam in blk.eigenvalues])
        )
        want = np.sort_complex(np.linalg.eigvals(a0))
        assert np.abs(got - want).max() <= 1e-7 * max(1.0, np.abs(want).max())


def test_pbh_kalman_equivalence_random():
    rng = np.random.default_rng(31)
    for trial in range(40):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        plant_unc = trial % 2 == 1
        if plant_unc and n >= 2:
            eigs = draw_spectrum(rng, n, allow_complex=False)
            a0, b = build_system(rng, ctrl=eigs[:-1], unc=eigs[-1:], m=m)
        else:
            a0, b = build_system(rng, ctrl=draw_spectrum(rng, n), m=m)
        split = spectral_split(a0, b)
        all_ctrl = all(blk.controllable for blk in split.blocks)
        assert all_ctrl == (kalman_rank(a0, b) == n)


def test_planted_uncontrollable_mode_is_detected():
    rng = np.random.default_rng(37)
    lam = 1.7
    a0, b = build_system(rng, ctrl=[-0.8, 2.4], unc=[lam], m=1)
    split = spectral_split(a0, b)
    bad = [blk for blk in split.blocks if not blk.controllable]
    assert len(bad) == 1
    assert abs(bad[0].eigenvalues[0] - lam) < 1e-8
    # the left eigenvector of A0 at lam is orthogonal to B
    w, vl = np.linalg.eig(a0.T)
    idx = np.argmin(np.abs(w - lam))
    v = np.real(vl[:, idx])
    assert np.linalg.norm(v @ b) <= 1e-8


def test_build_system_keeps_the_planted_spectrum():
    rng = np.random.default_rng(71)
    for trial in range(20):
        ctrl = draw_spectrum(rng, int(rng.integers(2, 7)))
        unc = [complex(-1.3, 0.9)] if trial % 2 else [2.9]
        a0, _ = build_system(rng, ctrl=ctrl, unc=unc, m=2)
        planted = []
        for lam in ctrl + unc:
            planted += [lam, lam.conjugate()] if lam.imag else [lam]
        got = np.sort_complex(np.linalg.eigvals(a0))
        assert np.abs(got - np.sort_complex(np.array(planted))).max() <= 1e-9


def test_draw_spectrum_gives_up_on_an_infeasible_request():
    # eight real magnitudes in [0.4, 2.5], pairwise 0.3 apart, need a span
    # of exactly 2.1: a set of measure zero
    with pytest.raises(RuntimeError, match="no spectrum"):
        draw_spectrum(np.random.default_rng(5), 8, allow_complex=False)


def _pbh_oracle(a0, b, lam, rank_tol=1e-10):
    """Per-block PBH verdict on one complex pencil ``[lam I - A0, B]``."""
    n = a0.shape[0]
    pencil = np.hstack([lam * np.eye(n) - a0, b.astype(complex)])
    sv = np.linalg.svd(pencil, compute_uv=False)
    return bool(sv[-1] > rank_tol * max(1.0, sv[0]))


def test_pbh_batched_tags_match_the_per_block_oracle():
    rng = np.random.default_rng(43)
    seen = {(size, tag): 0 for size in (1, 2) for tag in (True, False)}
    for n in (3, 6, 10, 16, 24, 30):
        for _ in range(3):
            entries = draw_spectrum(rng, n, min_gap=0.1)
            real = [lam for lam in entries if not lam.imag]
            pairs = [lam for lam in entries if lam.imag]
            unc = real[-1:] + pairs[-1:]
            ctrl = [lam for lam in entries if lam not in unc]
            a0, b = build_system(rng, ctrl=ctrl, unc=unc, m=int(rng.integers(1, 4)))
            split = spectral_split(a0, b)
            for blk in split.blocks:
                assert blk.controllable == _pbh_oracle(a0, b, blk.eigenvalues[0])
                seen[blk.size, blk.controllable] += 1
    # both stacks ran, on controllable and uncontrollable blocks
    assert min(seen.values()) >= 10


@pytest.mark.parametrize("factor, controllable", [(0.5, False), (2.0, True)])
def test_pbh_flips_at_the_cutoff_on_a_real_eigenvalue(factor, controllable):
    # at lam_i the pencil [lam_i I - diag(lam), eps e_i] has the singular
    # values |lam_i - lam_j| (j != i) and eps; here sigma_max = 2 and the
    # cutoff is tol.rank * 2 (default tol.rank = 1e-10)
    lam = np.array([-2.0, -0.5, 1.0, 1.5])
    i = 1
    eps = factor * 1e-10 * max(1.0, np.abs(lam[i] - lam).max())
    b = np.zeros((4, 1))
    b[i, 0] = eps
    split = spectral_split(np.diag(lam), b)
    tags = {blk.eigenvalues[0].real: blk.controllable for blk in split.blocks}
    assert tags == {-2.0: False, -0.5: controllable, 1.0: False, 1.5: False}


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_pbh_conjugate_pair_near_the_cutoff_matches_the_oracle(factor):
    # the pair 0.7 +- 1.1i of a normal A0 gets input eps e_1; to first
    # order the smallest singular value of its pencil is eps / sqrt(2)
    a0 = np.zeros((4, 4))
    a0[:2, :2] = [[0.7, 1.1], [-1.1, 0.7]]
    a0[2, 2], a0[3, 3] = -1.8, 2.4
    lam = complex(0.7, 1.1)
    sigma_max = np.linalg.svd(lam * np.eye(4) - a0, compute_uv=False)[0]
    b = np.zeros((4, 1))
    b[0, 0] = factor * np.sqrt(2.0) * 1e-10 * max(1.0, sigma_max)
    split = spectral_split(a0, b)
    (pair,) = [blk for blk in split.blocks if blk.size == 2]
    assert pair.controllable == (factor > 1.0)
    assert pair.controllable == _pbh_oracle(a0, b, pair.eigenvalues[0])


@pytest.mark.parametrize("entries, planted, kind", [
    ([2.1, -0.7, 1.4, -1.9, 0.6], 0.3, "f"),
    ([complex(0.8, 1.2), complex(-1.3, 0.5), complex(2.0, 0.9)], complex(0.4, 0.7), "c"),
    ([complex(0.8, 1.2), 2.1, -0.7, complex(-1.3, 0.5), 1.4, -1.9], complex(-0.4, 1.6), "c"),
], ids=["all-real", "all-pairs", "mixed"])
def test_pbh_makes_one_svd_call_per_arithmetic(monkeypatch, entries, planted, kind):
    # every pencil gets one Cholesky certificate; only the pencils it
    # cannot decide reach the SVD, all of one arithmetic in one stack
    from scipy.linalg import lapack

    svd, stacks, factored = np.linalg.svd, [], []

    def counting_svd(*args, **kwargs):
        stacks.append(np.asarray(args[0]))
        return svd(*args, **kwargs)

    def counting(name):
        potrf = getattr(lapack, name)

        def call(*args, **kwargs):
            factored.append(name)
            return potrf(*args, **kwargs)
        return call

    rng = np.random.default_rng(47)
    systems = [build_system(rng, ctrl=entries, m=2),
               build_system(rng, ctrl=entries, unc=[planted], m=2)]
    splits = [spectral_split(a0, b) for a0, b in systems]
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for name in ("dpotrf", "zpotrf"):
        monkeypatch.setattr(lapack, name, counting(name))

    (a0, b), split = systems[0], splits[0]
    retagged = pbh_classify(a0, b, split)
    assert stacks == []
    assert sorted(factored) == sorted("zpotrf" if blk.size == 2 else "dpotrf"
                                      for blk in split.blocks)
    assert all(blk.controllable for blk in retagged.blocks)

    (a0, b), split = systems[1], splits[1]
    del factored[:]
    retagged = pbh_classify(a0, b, split)
    assert len(factored) == len(split.blocks)
    (stack,) = stacks
    n = a0.shape[0]
    assert stack.dtype.kind == kind and stack.shape == (1, n, n + 2)
    assert np.abs(np.diag(stack[0, :, :n]) + np.diag(a0) - planted).max() <= 1e-9
    (bad,) = [blk for blk in retagged.blocks if not blk.controllable]
    assert abs(bad.eigenvalues[0] - planted) <= 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e150, 1e160, 1e300])
def test_split_reads_pairs_whose_eigenvalue_formula_overflows(scale):
    # above about 1e154 the discriminant of the planted controllable pair
    # overflows; its block is read scaled by a power of two, so the pair
    # keeps its own cluster and its tag, as at 1e150. Nothing overflows on
    # the way: no norm, Gram matrix or certificate shift warns
    rng = np.random.default_rng(53)
    a0, b = build_system(rng, ctrl=[1.2, complex(-0.6, 0.9), -1.7], unc=[0.4], m=2)
    split = spectral_split(scale * a0, scale * b)
    assert [blk.cluster for blk in split.blocks] == [0, 1, 2, 3]
    assert [blk.controllable for blk in split.blocks] == [True, False, True, True]
    pair = split.blocks[3].eigenvalues
    assert abs(pair[0] - scale * complex(-0.6, 0.9)) <= 1e-12 * scale and pair[1] == pair[0].conjugate()


def test_pair_eigenvalues_scale_exactly_by_powers_of_two():
    from ariset import linalg

    # dyadic entries: the mean and the discriminant are exact, and a
    # correctly rounded square root commutes with scaling by 4^k, so the
    # pair read through the scaled block equals the unscaled one, scaled
    block = (-0.5, 1.25, -0.75, -0.25)
    want = linalg._pair_eigenvalues(*block)
    assert want[0].imag > 0.0
    for exponent in (0, 520, 1000):
        scale = 2.0 ** exponent
        got = linalg._pair_eigenvalues(*(scale * v for v in block))
        assert got == tuple(complex(scale * lam.real, scale * lam.imag) for lam in want)


@pytest.mark.parametrize("scale", [1e-100, 1e100])
def test_pbh_leaves_pencils_outside_the_certified_range_to_the_svd(monkeypatch, scale):
    # (|λ|√n + ‖[A0, B]‖_F)² is near 1e±200, outside the certificate's
    # range, so every pencil goes to the SVD, whose tags match the oracle
    from ariset import systems

    rng = np.random.default_rng(53)
    a0, b = build_system(rng, ctrl=[1.2, complex(-0.6, 0.9), -1.7], unc=[0.4], m=2)
    a0, b = scale * a0, scale * b
    split = spectral_split(a0, b)
    svd_rule, undecided = systems._svd_rule, []

    def recording(am, bm, shifts, rank_tol):
        undecided.extend(shifts)
        return svd_rule(am, bm, shifts, rank_tol)

    monkeypatch.setattr(systems, "_svd_rule", recording)
    retagged = pbh_classify(a0, b, split)
    assert len(undecided) == len(split.blocks)
    for blk in retagged.blocks:
        assert blk.controllable == _pbh_oracle(a0, b, blk.eigenvalues[0])


@pytest.mark.parametrize("band", [0.0, 2e-8, 3.0])
def test_half_plane_band_edge(band):
    # the band is closed: |Re λ| equal to its half-width is AXIS, the next
    # float beyond it is not
    above = np.nextafter(band, np.inf)
    for imag in (0.0, 1.5):
        assert _half_plane(complex(band, imag), band) == AXIS
        assert _half_plane(complex(-band, imag), band) == AXIS
        assert _half_plane(complex(above, imag), band) == RHP
        assert _half_plane(complex(-above, imag), band) == LHP
