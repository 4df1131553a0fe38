import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm, schur, solve_continuous_lyapunov

from ariset import (
    DegenerateSpectrum,
    InvalidInput,
    RiccatiProblem,
    SingularSylvester,
    definiteness,
    real_schur_ordered,
    symmetrize,
)
from ariset import linalg
from ariset.errors import NotHurwitz, SingularBlock
from ariset.linalg import (
    as_matrix,
    schur_complement,
    solve_lyapunov_stable,
    solve_sylvester,
)

from conftest import (
    LHAT,
    LR,
    LSTAR,
    build_system,
    char_poly_eigs,
    draw_spectrum,
    gauss_solve,
)


# ---------------------------------------------------------------------------
# validation helpers


def test_as_matrix_rejects_nan():
    with pytest.raises(InvalidInput):
        as_matrix([[1.0, np.nan]])


def test_as_matrix_rejects_inf_and_shape():
    with pytest.raises(InvalidInput):
        as_matrix([[np.inf]])
    with pytest.raises(InvalidInput):
        as_matrix([[1.0, 2.0]], square=True)


@pytest.mark.parametrize("bad", ["abc", [[1, 2], [3]], {"a": 1}, np.array([[1 + 2j]]),
                                 [[1, 0], [0, "x"]], [["1", "2"]], [[True, False]],
                                 np.eye(2, dtype=bool), [[1.5, "2"]], [[1.0, True]],
                                 [[1, True]], [[np.float64(1.0), np.bool_(False)]],
                                 [[10 ** 400]], [[10 ** 20, True]]],
                         ids=["string", "ragged", "dict", "complex", "non-numeric-entry",
                              "numeric-strings", "booleans", "boolean-array",
                              "numeric-string-entry", "float-boolean", "integer-boolean",
                              "numpy-boolean", "too-large-integer", "big-integer-boolean"])
@pytest.mark.filterwarnings("error")
def test_as_matrix_rejects_what_is_not_a_real_array(bad):
    with pytest.raises(InvalidInput, match="^A "):
        as_matrix(bad, name="A")
    with pytest.raises(InvalidInput, match="^A "):
        RiccatiProblem(A=bad, B=1)


def test_as_matrix_reads_integers_beyond_64_bits_as_floats():
    got = as_matrix([[10 ** 20, 1], [2.5, -(10 ** 30)]])
    assert got.dtype == np.float64
    assert np.array_equal(got, [[1e20, 1.0], [2.5, -1e30]])
    assert np.array_equal(as_matrix(np.array([10 ** 20], dtype=object)), [[1e20]])


def test_norm2_is_numpys_spectral_norm_bit_for_bit():
    rng = np.random.default_rng(61)
    cases = [rng.standard_normal((n, n)) * 10.0 ** rng.integers(-5, 6) for n in range(1, 31)]
    cases += [rng.standard_normal((4, 7)), rng.standard_normal((7, 4)), np.array([[-3.0]]),
              np.zeros((3, 3))]
    low = rng.standard_normal((6, 2))
    cases.append(low @ low.T)  # rank 2
    for m in cases:
        assert linalg._norm2(m) == float(np.linalg.norm(m, 2))
        assert type(linalg._norm2(m)) is float


def test_symmetrize_checks_and_averages():
    s = symmetrize([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
    assert np.array_equal(s, s.T)
    with pytest.raises(InvalidInput):
        symmetrize([[1.0, 2.0], [0.0, 3.0]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_symmetrize_keeps_finite_entries_finite():
    # (S + Sᵀ)/2 overflowed above about 9e307; S/2 + Sᵀ/2 does not, and
    # halving is exact in the normal range, so normal results keep their bits
    big = np.array([[1.5e308, 1.7e308], [1.7e308 * (1 + 1e-15), -1.6e308]])
    assert np.array_equal(symmetrize(big), [[1.5e308, 0.5 * big[0, 1] + 0.5 * big[1, 0]],
                                            [0.5 * big[0, 1] + 0.5 * big[1, 0], -1.6e308]])
    rng = np.random.default_rng(8)
    for scale in (1e-300, 1.0, 1e300):
        m = scale * rng.standard_normal((5, 5))
        m = m + 1e-12 * np.abs(m).max() * rng.standard_normal((5, 5)) + m.T
        assert np.array_equal(symmetrize(m), 0.5 * (m + m.T))


# ---------------------------------------------------------------------------
# signature of the full-rank solution


def test_full_rank_solution_signature():
    # L* has one negative and two positive eigenvalues; independent oracle:
    # characteristic-polynomial roots
    w = np.linalg.eigvalsh(LSTAR)
    oracle = np.sort(char_poly_eigs(LSTAR).real)
    assert np.allclose(w, oracle, atol=1e-8)
    assert (w < 0).sum() == 1 and (w > 0).sum() == 2


# ---------------------------------------------------------------------------
# ordered real Schur form


def _halfplane_rank(lam, axis=1e-9):
    if abs(lam.real) <= axis:
        return 0
    return 1 if lam.real > 0 else 2


def test_schur_ordered_diagonal_rhp_first():
    a = np.diag([1.0, 2.0, -4.0])

    def rhp_first(lam):
        return 0 if lam.real > 0 else 1

    u, t, blocks = real_schur_ordered(a, rhp_first)
    eigs = [blk.eigenvalues[0].real for blk in blocks]
    assert sorted(eigs[:2]) == [1.0, 2.0] and eigs[2] == -4.0
    assert np.abs(a @ u - u @ t).max() < 1e-12


def test_schur_ordered_rotation_block():
    mu = 3.0
    a = np.array([[0.0, mu], [-mu, 0.0]])
    _, _, blocks = real_schur_ordered(a, _halfplane_rank)
    assert len(blocks) == 1 and blocks[0].size == 2
    lam = blocks[0].eigenvalues[0]
    assert abs(lam - 1j * mu) < 1e-12


def test_schur_ordered_constructed_spectrum():
    # spectrum {3, 1 +- 2i, -2, -5} via a random similarity
    rng = np.random.default_rng(3)
    core = np.zeros((5, 5))
    core[0, 0] = 3.0
    core[1:3, 1:3] = [[1.0, 2.0], [-2.0, 1.0]]
    core[3, 3] = -2.0
    core[4, 4] = -5.0
    s = rng.standard_normal((5, 5))
    a = s @ core @ np.linalg.inv(s)
    u, t, blocks = real_schur_ordered(a, _halfplane_rank)
    assert [blk.size for blk in blocks] == [1, 2, 1, 1]
    recovered = sorted(
        (lam for blk in blocks for lam in blk.eigenvalues),
        key=lambda z: (round(z.real, 6), z.imag),
    )
    expected = sorted(
        [3.0, 1 + 2j, 1 - 2j, -2.0, -5.0],
        key=lambda z: (round(np.real(z), 6), np.imag(z)),
    )
    assert np.allclose(recovered, expected, atol=1e-8)


def test_schur_ordered_random_properties():
    rng = np.random.default_rng(11)
    for n in range(2, 11):
        a = rng.standard_normal((n, n))
        u, t, blocks = real_schur_ordered(a, _halfplane_rank)
        assert np.abs(u.T @ u - np.eye(n)).max() <= 1e-9
        ranks = [_halfplane_rank(blk.eigenvalues[0]) for blk in blocks]
        assert ranks == sorted(ranks)
        got = np.sort_complex(
            np.array([lam for blk in blocks for lam in blk.eigenvalues])
        )
        want = np.sort_complex(np.linalg.eigvals(a))
        assert np.abs(got - want).max() <= 1e-7 * max(1.0, np.abs(want).max())


def _three_class_rank(lam):
    if lam.real > 0.5:
        return 0
    return 1 if lam.real > -0.5 else 2


def test_schur_ordered_is_stable_within_classes():
    rng = np.random.default_rng(19)
    for n in (3, 8, 15, 22, 30):
        a = rng.standard_normal((n, n))
        t0, _ = schur(a, output="real")
        initial = [blk.eigenvalues[0] for blk in linalg._schur_blocks(t0)]
        # no eigenvalue near a class boundary, so reordering cannot reclassify
        assert min(abs(abs(lam.real) - 0.5) for lam in initial) > 1e-6
        want = sorted(initial, key=_three_class_rank)  # sorted() is stable
        _, _, blocks = real_schur_ordered(a, _three_class_rank)
        got = [blk.eigenvalues[0] for blk in blocks]
        assert len({_three_class_rank(lam) for lam in got}) == 3
        assert len(got) == len(want)
        assert np.abs(np.array(got) - np.array(want)).max() <= 1e-8 * max(
            1.0, np.abs(want).max()
        )


def test_schur_reorder_failure_carries_the_gap(monkeypatch):
    def refuse(select, t, u, job):
        return t, u, None, None, 0, 0.0, 0.0, 1

    monkeypatch.setattr(linalg.lapack, "dtrsen", refuse)
    with pytest.raises(DegenerateSpectrum) as err:
        real_schur_ordered(np.diag([3.0, -1.0, 2.5]), lambda lam: 0 if lam.real > 0 else 1)
    # the blocks led (3, 2.5) against the one left behind (-1)
    assert err.value.gap == pytest.approx(3.5)


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_schur_accuracy_gate_holds_past_the_overflow_of_the_norm(monkeypatch, scale):
    # ||A||_F² overflows above about 1e154; the gate's scale must not, or a
    # reordering that breaks A U = U T would pass
    select_leading = linalg._select_leading

    def perturbing(t, u, rows):
        t, u = select_leading(t, u, rows)
        t = t.copy()
        t[0, -1] += 1e-6 * scale
        return t, u

    monkeypatch.setattr(linalg, "_select_leading", perturbing)
    with pytest.raises(DegenerateSpectrum, match="lost accuracy"):
        real_schur_ordered(scale * np.diag([3.0, -1.0, 2.5]), lambda lam: 0 if lam.real > 0 else 1)


def _reference_blocks(t):
    """Diagonal blocks read entry by entry in numpy scalars: ``(offset, size,
    eigenvalues)`` by the closed form of each 1x1 / 2x2 block."""
    out = []
    i = 0
    while i < t.shape[0]:
        if i + 1 < t.shape[0] and t[i + 1, i] != 0.0:
            a, b, c, d = t[i, i], t[i, i + 1], t[i + 1, i], t[i + 1, i + 1]
            mean = 0.5 * (a + d)
            disc = 0.25 * (a - d) ** 2 + b * c
            if disc < 0.0:
                lam = (complex(mean, np.sqrt(-disc)), complex(mean, -np.sqrt(-disc)))
            else:
                lam = (complex(mean + np.sqrt(disc)), complex(mean - np.sqrt(disc)))
            out.append((i, 2, lam))
            i += 2
        else:
            out.append((i, 1, (complex(t[i, i]),)))
            i += 1
    return out


def _check_block_readers(t):
    blocks = linalg._schur_blocks(t)
    assert [tuple(blk) for blk in blocks] == _reference_blocks(t)
    rows = linalg._row_eigenvalues(t)
    assert rows.tolist() == [lam for blk in blocks for lam in blk.eigenvalues]
    want = np.sort_complex(np.linalg.eigvals(t))
    assert np.abs(np.sort_complex(rows) - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    return blocks


def test_block_readers_agree_with_eigvals_on_real_schur_forms():
    rng = np.random.default_rng(53)
    sizes = set()
    for n in range(1, 31):
        t, _ = schur(rng.standard_normal((n, n)), output="real")
        sizes |= {blk.size for blk in _check_block_readers(t)}
        # all 1x1: a real spectrum
        t, _ = schur(_planted(rng, draw_spectrum(rng, n, allow_complex=False, min_gap=0.01)),
                     output="real")
        assert {blk.size for blk in _check_block_readers(t)} == {1}
        if n % 2 == 0:
            # all 2x2: conjugate pairs only
            pairs = [complex(rng.uniform(-2.5, 2.5), rng.uniform(0.4, 2.0)) for _ in range(n // 2)]
            t, _ = schur(_planted(rng, pairs), output="real")
            blocks = _check_block_readers(t)
            assert {blk.size for blk in blocks} == {2}
            assert all(blk.eigenvalues[0].imag > 0 for blk in blocks)
    assert sizes == {1, 2}


def test_block_readers_keep_a_non_standard_real_pair_atomic():
    # the middle block [[1, 2], [0.5, 1]] has real eigenvalues 2 and 0
    t = np.array([
        [-3.0, 0.4, 0.7, 1.1],
        [0.0, 1.0, 2.0, -0.2],
        [0.0, 0.5, 1.0, 0.3],
        [0.0, 0.0, 0.0, 4.0],
    ])
    blocks = _check_block_readers(t)
    assert [(blk.offset, blk.size) for blk in blocks] == [(0, 1), (1, 2), (3, 1)]
    assert blocks[1].eigenvalues == (2.0, 0.0)
    assert linalg._row_eigenvalues(t).tolist() == [-3.0, 2.0, 0.0, 4.0]


# ---------------------------------------------------------------------------
# Sylvester


def test_sylvester_diagonal_formula():
    f = np.diag([1.0, 2.0])
    x = solve_sylvester(f, f, np.ones((2, 2)))
    assert np.allclose(x, [[0.5, 1 / 3], [1 / 3, 0.25]], atol=1e-12)


def test_sylvester_identity():
    x = solve_sylvester(np.eye(2), np.eye(2), 2.0 * np.eye(2))
    assert np.allclose(x, np.eye(2), atol=1e-14)


def test_sylvester_against_gaussian_elimination():
    f = np.array([[1.0, 1.0], [0.0, 1.0]])
    g = f.T
    c = np.ones((2, 2))
    x = solve_sylvester(f, g, c)
    kron = np.kron(np.eye(2), f) + np.kron(g.T, np.eye(2))
    oracle = gauss_solve(kron, c.flatten(order="F")).reshape((2, 2), order="F")
    assert np.allclose(x, oracle, atol=1e-12)
    assert np.abs(f @ x + x @ g - c).max() < 1e-12


def test_sylvester_rejects_shared_spectrum():
    with pytest.raises(SingularSylvester):
        solve_sylvester(np.diag([1.0, 2.0]), np.diag([-1.0, 5.0]), np.eye(2))


def _planted(rng, entries):
    """Non-normal matrix with the planted spectrum ``entries``."""
    a, _ = build_system(rng, ctrl=entries, coupling=1.0)
    return a


def test_sylvester_matches_kronecker_oracle_non_normal():
    rng = np.random.default_rng(23)
    pairs = 0
    for p, q in ((1, 1), (2, 3), (5, 4), (6, 9), (12, 7), (12, 12)):
        f = _planted(rng, draw_spectrum(rng, p))
        g = _planted(rng, draw_spectrum(rng, q))
        c = rng.standard_normal((p, q))
        wf, wg = np.linalg.eigvals(f), np.linalg.eigvals(g)
        pairs += np.iscomplex(wf).sum() + np.iscomplex(wg).sum()
        # spec(F) and spec(-G) are apart, so the Kronecker system is regular
        assert np.abs(wf[:, None] + wg[None, :]).min() > 1e-3
        x = solve_sylvester(f, g, c)
        kron = np.kron(np.eye(q), f) + np.kron(g.T, np.eye(p))
        oracle = gauss_solve(kron, c.flatten(order="F")).reshape((p, q), order="F")
        assert np.abs(x - oracle).max() <= 1e-9 * max(1.0, np.abs(oracle).max())
    assert pairs >= 8


def test_sylvester_rejects_one_mirrored_pair():
    rng = np.random.default_rng(29)
    pair = complex(0.9, 1.3)
    f = _planted(rng, [pair, 1.7, -0.6, complex(-1.4, 0.5), 2.3, complex(0.5, 2.1), -2.0])
    g = _planted(rng, [-pair, 1.1, complex(1.9, 0.8), -2.4, 0.7, complex(1.2, 1.6), 2.8])
    assert f.shape == g.shape == (10, 10)
    with pytest.raises(SingularSylvester):
        solve_sylvester(f, g, rng.standard_normal((10, 10)))


def test_sylvester_refuses_a_perturbed_triangular_solve():
    # 1 - (1 - 2^-52) clears a zero separation tolerance but not LAPACK's
    # own cutoff, so dtrsyl perturbs the solve and reports it
    with pytest.raises(SingularSylvester, match="perturbed"):
        solve_sylvester([[1.0]], [[-(1.0 - 2.0 ** -52)]], [[1.0]], sep_tol=0.0)


def _quasi_triangular(rng, n):
    """Real Schur form of a non-normal matrix with a planted spectrum."""
    t, _ = schur(_planted(rng, draw_spectrum(rng, n)), output="real")
    return t


@pytest.mark.parametrize("flags", [{}, {"trana": "T"}], ids=["plain", "trana-T"])
def test_quasi_triangular_kernel_matches_kronecker_oracle(flags):
    rng = np.random.default_rng(31)
    trana = flags.get("trana", "N")
    pairs = 0
    for p, q in ((1, 1), (2, 3), (5, 4), (6, 9), (12, 7), (12, 12)):
        tf, tg = _quasi_triangular(rng, p), _quasi_triangular(rng, q)
        pairs += np.count_nonzero(np.diag(tf, -1)) + np.count_nonzero(np.diag(tg, -1))
        wf, wg = np.linalg.eigvals(tf), np.linalg.eigvals(tg)
        # the Kronecker system below is regular
        assert np.abs(wf[:, None] + wg[None, :]).min() > 1e-3
        c = rng.standard_normal((p, q))
        x = linalg._solve_quasi_triangular(tf, tg, c, **flags)
        op_f = tf.T if trana == "T" else tf
        kron = np.kron(np.eye(q), op_f) + np.kron(tg.T, np.eye(p))
        oracle = gauss_solve(kron, c.flatten(order="F")).reshape((p, q), order="F")
        assert np.abs(x - oracle).max() <= 1e-9 * max(1.0, np.abs(oracle).max())
    assert pairs >= 8


def test_lyapunov_form_reads_its_row_eigenvalues_once(monkeypatch):
    # with TG the same matrix as TF, one read of the diagonal blocks serves
    # both sides of the separation test; a distinct TG is read on its own
    rng = np.random.default_rng(41)
    t = _quasi_triangular(rng, 6)
    t += (np.abs(np.linalg.eigvals(t)).max() + 1.0) * np.eye(6)  # spec(T) in the RHP
    assert np.count_nonzero(np.diag(t, -1))
    c = rng.standard_normal((6, 6))
    spectrum, reads = linalg._block_spectrum, []

    def counting(m):
        reads.append(m)
        return spectrum(m)

    monkeypatch.setattr(linalg, "_block_spectrum", counting)
    y = linalg._solve_quasi_triangular(t, t, c, trana="T")
    assert len(reads) == 1
    assert np.abs(t.T @ y + y @ t - c).max() <= 1e-12 * np.abs(c).max()
    assert np.array_equal(linalg._solve_quasi_triangular(t, t.copy(), c, trana="T"), y)
    assert len(reads) == 3


@pytest.mark.parametrize("factor, refused", [(0.5, True), (2.0, False)])
def test_kernel_refuses_a_mirrored_pair_at_the_sylvester_threshold(factor, refused):
    # F's pair 0.9 ± 1.3i against G's -0.9 + delta ± 1.3i: the separation is
    # delta, and max(1, rho(F) + rho(G)) = 1.7 + 2.4
    delta = factor * linalg.SYLVESTER_SEP_RTOL * (1.7 + 2.4)
    tf = np.array([[0.9, 1.3, 0.4], [-1.3, 0.9, -0.7], [0.0, 0.0, 1.7]])
    tg = np.array([[delta - 0.9, 1.3, 0.5], [-1.3, delta - 0.9, 0.3], [0.0, 0.0, 2.4]])
    rng = np.random.default_rng(37)
    c = rng.standard_normal((3, 3))
    qf, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    qg, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    solves = [
        lambda: linalg._solve_quasi_triangular(tf, tg, c),
        lambda: linalg._solve_quasi_triangular(tf, tg, c, trana="T"),
        lambda: solve_sylvester(qf @ tf @ qf.T, qg @ tg @ qg.T, c),
    ]
    for solve in solves:
        if refused:
            with pytest.raises(SingularSylvester, match="separation"):
                solve()
        else:
            assert np.all(np.isfinite(solve()))


# ---------------------------------------------------------------------------
# Lyapunov


def test_lyapunov_diagonal_formula():
    p = solve_lyapunov_stable(-np.diag([1.0, 2.0]), np.ones((2, 2)))
    assert np.allclose(p, [[0.5, 1 / 3], [1 / 3, 0.25]], atol=1e-12)


def test_lyapunov_zero_rhs():
    assert np.allclose(solve_lyapunov_stable(-np.eye(2), np.zeros((2, 2))), 0.0)


def test_lyapunov_scalar():
    # 2*4*P = 1, the coordinate form of the rank-one minimum solution -8 = -1/P
    p = solve_lyapunov_stable([[-4.0]], [[1.0]])
    assert abs(p[0, 0] - 0.125) < 1e-15


def test_lyapunov_matches_integral_and_keeps_psd():
    rng = np.random.default_rng(5)
    for n in (2, 3, 5):
        f = rng.standard_normal((n, n)) - (n + 1.0) * np.eye(n)
        g = rng.standard_normal((n, n))
        c = g @ g.T
        p = solve_lyapunov_stable(f, c)
        quad, _ = quad_vec(lambda t: expm(f.T * t) @ c @ expm(f * t), 0.0, 80.0)
        assert np.abs(p - quad).max() <= 1e-5 * max(1.0, np.abs(p).max())
        assert np.linalg.eigvalsh(p).min() >= -1e-10 * max(1.0, np.abs(p).max())


def test_lyapunov_matches_scipy_on_non_normal_hurwitz():
    rng = np.random.default_rng(41)
    for n in (1, 4, 9, 17, 30):
        f = _planted(rng, draw_spectrum(rng, n, half_planes=("LHP",), min_gap=0.05))
        g = rng.standard_normal((n, n))
        c = g @ g.T
        p = solve_lyapunov_stable(f, c)
        want = solve_continuous_lyapunov(f.T, -c)
        assert np.abs(p - want).max() <= 1e-9 * max(1.0, np.abs(want).max())


def test_lyapunov_rejects_non_hurwitz():
    with pytest.raises(NotHurwitz):
        solve_lyapunov_stable(np.diag([-1.0, 0.5]), np.eye(2))


@pytest.mark.parametrize("factor, refused", [(0.5, True), (2.0, False)])
def test_lyapunov_refuses_at_the_hurwitz_margin(factor, refused):
    # the pair -1 ± 2i and a real eigenvalue -r at factor times the margin
    # axis_tol * ||T||_2 (||T||_2 moves by at most r as r is planted)
    axis_tol = 1e-8
    t = np.array([[-1.0, 2.0, 0.5], [-2.0, -1.0, 0.3], [0.0, 0.0, 0.0]])
    t[2, 2] = -factor * axis_tol * np.linalg.norm(t, 2)
    c = np.eye(3)
    if refused:
        with pytest.raises(NotHurwitz):
            solve_lyapunov_stable(t, c, axis_tol=axis_tol)
        return
    p = solve_lyapunov_stable(t, c, axis_tol=axis_tol)
    resid = t.T @ p + p @ t + c
    assert np.abs(resid).max() <= 1e-10 * np.abs(p).max()


# ---------------------------------------------------------------------------
# Schur complement


def test_schur_complement_paper_values():
    assert np.allclose(schur_complement(LSTAR, [0, 1]), LR[:2, :2], atol=1e-10)
    assert np.allclose(schur_complement(LSTAR, [2]), [[-8.0]], atol=1e-10)


def test_schur_complement_block_diagonal_passthrough():
    s = np.zeros((4, 4))
    s[:2, :2] = [[2.0, 1.0], [1.0, 2.0]]
    s[2:, 2:] = [[5.0, 0.0], [0.0, 6.0]]
    assert np.allclose(schur_complement(s, [0, 1]), s[:2, :2])


def test_schur_complement_monotone_for_pd():
    rng = np.random.default_rng(13)
    for n in (3, 4, 6):
        g = rng.standard_normal((n, n))
        s = g @ g.T + n * np.eye(n)
        keep = sorted(rng.choice(n, size=rng.integers(1, n), replace=False))
        sc = schur_complement(s, keep)
        emb = np.zeros_like(s)
        emb[np.ix_(keep, keep)] = sc
        assert np.linalg.eigvalsh(s - emb).min() >= -1e-9 * np.abs(s).max()


def test_schur_complement_singular_block():
    s = np.zeros((2, 2))
    s[0, 0] = 1.0
    with pytest.raises(SingularBlock):
        schur_complement(s, [0])


# ---------------------------------------------------------------------------
# definiteness


def test_definiteness_identity():
    assert definiteness(np.eye(3)).kind == "positive-definite"


def test_definiteness_rotation_coordinate_matrix():
    # coordinate matrix of an imaginary-pair perturbation with (a, b, c) =
    # (0, 1, 0); its determinant -4b^2 - (a - c)^2 is negative
    a, b, c = 0.0, 1.0, 0.0
    m = np.array([[-2 * b, a - c], [a - c, 2 * b]])
    assert definiteness(m).kind == "indefinite"


def test_definiteness_gap_to_maximum_solution():
    assert definiteness(LR - LHAT).is_psd


def test_definiteness_zero_and_semis():
    assert definiteness(np.zeros((2, 2))).kind == "zero"
    assert definiteness(np.diag([1.0, 0.0])).kind == "positive-semidefinite"
    assert definiteness(np.diag([-1.0, 0.0])).kind == "negative-semidefinite"
    assert definiteness(-np.eye(2)).kind == "negative-definite"
    assert definiteness(np.diag([1.0, -1.0])).kind == "indefinite"


def test_definiteness_agrees_with_quadratic_form_scan():
    rng = np.random.default_rng(17)
    for n in range(2, 9):
        g = rng.standard_normal((n, n))
        for s in (g @ g.T, -g @ g.T, 0.5 * (g + g.T)):
            verdict = definiteness(s)
            x = rng.standard_normal((1000, n))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            quad = np.einsum("ij,jk,ik->i", x, s, x)
            if verdict.is_psd:
                assert quad.min() >= -verdict.tol_used
            if verdict.is_nsd:
                assert quad.max() <= verdict.tol_used
            if verdict.kind == "positive-definite":
                assert quad.min() > 0
            if verdict.kind == "negative-definite":
                assert quad.max() < 0
