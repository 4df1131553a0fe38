import numpy as np
import pytest

from ariset import InvalidInput, kalman_rank, pbh_classify, spectral_split

from conftest import build_system, draw_spectrum


def test_kalman_rank_worked_example():
    assert kalman_rank(np.diag([1.0, 2.0, -4.0]), [[1.0], [1.0], [1.0]]) == 3


def test_kalman_rank_repeated_eigenvalue_single_input():
    assert kalman_rank(np.eye(2), [[1.0], [0.0]]) == 1


def test_kalman_rank_integrator_chain():
    assert kalman_rank([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]]) == 2


def test_kalman_rank_dimension_mismatch():
    with pytest.raises(InvalidInput):
        kalman_rank(np.eye(2), [[1.0], [1.0], [1.0]])


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
        w = np.linalg.eigvalsh(split.M)
        assert w.min() >= -1e-10 * max(1.0, w.max())
        rank_m = np.count_nonzero(w > 1e-10 * max(1.0, w.max()))
        assert rank_m == np.linalg.matrix_rank(b)


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
