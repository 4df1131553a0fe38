"""Shared fixtures and random-system builders.

Systems are constructed with exactly known spectra: a block quasi-
triangular core (1x1 blocks for real eigenvalues, 2x2 rotation blocks for
conjugate pairs, coupling above the diagonal blocks of the controllable part)
conjugated by a random orthogonal matrix. Uncontrollable modes are planted
by appending decoupled blocks whose rows of B vanish in the core basis.
"""

import itertools

import numpy as np
import pytest
from scipy.linalg import block_diag

from ariset import (
    DegenerateSpectrum,
    RiccatiProblem,
    SingularSylvester,
    SingularY,
    full_rank_simplified_solution,
    linalg,
    reduce,
    solve_base_are,
    spectral_split,
)

# the worked 3x3 example: A = diag(1, 2, -4), B = (1,1,1)^T, Q = 0, K0 = 0
PAPER_A = np.diag([1.0, 2.0, -4.0])
PAPER_B = np.array([[1.0], [1.0], [1.0]])
LSTAR = np.array(
    [
        [6.48, -4.80, 1.92],
        [-4.80, 4.00, -3.20],
        [1.92, -3.20, -0.32],
    ]
)
LR = np.array([[18.0, -24.0, 0.0], [-24.0, 36.0, 0.0], [0.0, 0.0, 0.0]])
LL = np.diag([0.0, 0.0, -8.0])
L1 = np.array([[0.72, 0.0, -1.92], [0.0, 0.0, 0.0], [-1.92, 0.0, -2.88]])
LHAT = np.array(
    [
        [9.216, -12.0, -0.576],
        [-12.0, 18.0, 0.0],
        [-0.576, 0.0, -2.464],
    ]
)


@pytest.fixture
def schur_calls(monkeypatch):
    """Orders of the matrices handed to the real Schur kernel."""
    calls = []
    factor = linalg._schur

    def counting(a):
        calls.append(np.shape(a)[0])
        return factor(a)

    monkeypatch.setattr(linalg, "_schur", counting)
    return calls


@pytest.fixture
def paper():
    problem = RiccatiProblem(A=PAPER_A, B=PAPER_B)
    form = solve_base_are(problem, kind="given", k0=np.zeros((3, 3)))
    split = spectral_split(form.A0, problem.B)
    return problem, form, split


def homogeneous_setup(a0, b):
    """HomogeneousForm and split for Q = 0, K0 = 0 (so A0 is the data)."""
    problem = RiccatiProblem(A=a0, B=b)
    n = problem.n
    form = solve_base_are(problem, kind="given", k0=np.zeros((n, n)))
    split = spectral_split(form.A0, problem.B)
    return form, split


def direct_family(form, split):
    """Oracle for schur_family: every subset of non-axis blocks solved on
    its own by reduce + full_rank_simplified_solution; absent subsets are
    missing from the dict."""
    eligible = [i for i, blk in enumerate(split.blocks) if blk.half_plane != "AXIS"]
    found = {}
    for r in range(1, len(eligible) + 1):
        for subset in itertools.combinations(eligible, r):
            try:
                found[subset] = full_rank_simplified_solution(reduce(form, split, subset))
            except (SingularSylvester, SingularY, DegenerateSpectrum):
                pass
    return found


def assert_family_is_direct(form, split, members):
    """``members`` (a :func:`ariset.schur_family`) holds exactly the
    subsets :func:`direct_family` solves, plus the zero solution, with the
    same rank, X and Lcoord spectrum."""
    direct = direct_family(form, split)
    family = {sol.block_set: sol for sol in members}
    assert set(family) == set(direct) | {()}
    for block_set, want in direct.items():
        got = family[block_set]
        assert got.rank == want.rank
        assert np.abs(got.X - want.X).max() <= 1e-9 * max(1.0, np.abs(want.X).max())
        # both Lcoord are in orthonormal bases of the same support
        eig_got, eig_want = np.linalg.eigvalsh(got.Lcoord), np.linalg.eigvalsh(want.Lcoord)
        assert np.abs(eig_got - eig_want).max() <= 1e-9 * max(1.0, np.abs(eig_want).max())


def assert_inertia_law(split, members):
    """Every member's ``Lcoord`` has as many positive eigenvalues as the
    member has RHP columns and as many negative ones as LHP columns (the
    Lyapunov inertia theorem for its Gramian)."""
    for sol in members:
        w = np.linalg.eigvalsh(sol.Lcoord)
        blocks = [split.blocks[i] for i in sol.block_set]
        rhp = sum(blk.size for blk in blocks if blk.half_plane == "RHP")
        lhp = sum(blk.size for blk in blocks if blk.half_plane == "LHP")
        assert (np.count_nonzero(w > 0), np.count_nonzero(w < 0)) == (rhp, lhp), sol.block_set


def _eig_block(lam):
    lam = complex(lam)
    if lam.imag != 0.0:
        return np.array([[lam.real, abs(lam.imag)], [-abs(lam.imag), lam.real]])
    return np.array([[lam.real]])


def _expand(entries):
    """All eigenvalues implied by the entry list (pairs add conjugates)."""
    out = []
    for lam in entries:
        lam = complex(lam)
        if lam.imag != 0.0:
            out.extend([lam, lam.conjugate()])
        else:
            out.append(lam)
    return out


def draw_spectrum(rng, n, half_planes=("RHP", "LHP"), allow_complex=True,
                  min_gap=0.3, max_tries=20000):
    """Entry list (reals / complex pair representatives) totalling size n.

    Magnitudes of real parts lie in [0.4, 2.5]; redrawn until all
    eigenvalues are pairwise separated and separated from their mirrors
    by ``min_gap`` (so every block subset stays solvable and flips are
    unambiguous). Gives up with ``RuntimeError`` after ``max_tries``
    draws: some requests (eight real eigenvalues) are feasible only on a
    set of measure zero.
    """
    for _ in range(max_tries):
        entries = []
        size = 0
        while size < n:
            re = rng.uniform(0.4, 2.5)
            plane = half_planes[rng.integers(len(half_planes))]
            if plane == "LHP":
                re = -re
            if allow_complex and size + 2 <= n and rng.random() < 0.4:
                entries.append(complex(re, rng.uniform(0.4, 2.0)))
                size += 2
            else:
                entries.append(complex(re))
                size += 1
        eigs = _expand(entries)
        ok = True
        for i, li in enumerate(eigs):
            for j, lj in enumerate(eigs):
                if i < j and abs(li - lj) < min_gap:
                    ok = False
                if abs(li + lj) < min_gap:
                    ok = False
        if ok:
            return entries
    raise RuntimeError(
        f"no spectrum of size {n} with gap {min_gap} in {max_tries} draws"
    )


def _pbh_margin(a, b):
    n = a.shape[0]
    worst = np.inf
    for lam in np.linalg.eigvals(a):
        pencil = np.hstack([lam * np.eye(n) - a, b.astype(complex)])
        sv = np.linalg.svd(pencil, compute_uv=False)
        worst = min(worst, sv[-1] / max(1.0, sv[0]))
    return worst


def build_system(rng, ctrl, unc=(), m=1, coupling=0.4, margin=1e-6,
                 max_tries=60):
    """(A0, B) with controllable modes ``ctrl`` and uncontrollable ``unc``.

    Entries are eigenvalue representatives as produced by
    :func:`draw_spectrum`. The spectrum of A0 is exact by construction.
    """
    blocks_c = [_eig_block(lam) for lam in ctrl]
    blocks_u = [_eig_block(lam) for lam in unc]
    nc = sum(blk.shape[0] for blk in blocks_c)
    ends = np.cumsum([blk.shape[0] for blk in blocks_c]).tolist()
    block_spans = list(zip([0] + ends[:-1], ends))
    nu = sum(blk.shape[0] for blk in blocks_u)
    n = nc + nu
    for _ in range(max_tries):
        core_c = block_diag(*blocks_c) if blocks_c else np.zeros((0, 0))
        upper = np.triu(rng.standard_normal((nc, nc)), 1)
        for lo, hi in block_spans:
            upper[lo:hi, lo:hi] = 0.0  # keep each pair's planted rotation
        core_c = core_c + coupling * upper
        core_u = block_diag(*blocks_u) if blocks_u else np.zeros((0, 0))
        bc = rng.standard_normal((nc, m))
        if nc and _pbh_margin(core_c, bc) < margin:
            continue
        core = np.zeros((n, n))
        core[:nc, :nc] = core_c
        core[nc:, nc:] = core_u
        if nc and nu:
            core[:nc, nc:] = coupling * rng.standard_normal((nc, nu))
        s, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a0 = s @ core @ s.T
        b = s @ np.vstack([bc, np.zeros((nu, m))])
        return a0, b
    raise RuntimeError("failed to draw a system with the requested margins")


def kalman_rank(a, b, rank_tol=1e-10):
    """Rank of the controllability matrix ``[B, AB, ..., A^{n-1}B]``
    (oracle for the PBH tags): equals ``n`` exactly when (A, B) is
    controllable. The rank cutoff is ``rank_tol`` relative to the largest
    singular value."""
    am = np.atleast_2d(np.asarray(a, dtype=float))
    cols = [np.asarray(b, dtype=float).reshape(am.shape[0], -1)]
    for _ in range(am.shape[0] - 1):
        cols.append(am @ cols[-1])
    sv = np.linalg.svd(np.hstack(cols), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > rank_tol * sv[0]))


def char_poly_eigs(s):
    """Eigenvalues through characteristic-polynomial coefficients.

    Coefficients come from trace/determinant identities (Faddeev's
    recursion), roots from the companion matrix; an independent route
    from the symmetric eigensolver under test.
    """
    m = np.asarray(s, dtype=float)
    n = m.shape[0]
    coeffs = [1.0]
    work = np.eye(n)
    for k in range(1, n + 1):
        work = m @ work
        c = -np.trace(work) / k
        coeffs.append(c)
        work = work + c * np.eye(n)
    return np.roots(coeffs)


def gauss_solve(a, rhs):
    """Plain Gaussian elimination with partial pivoting (oracle solver)."""
    m = [list(map(float, row)) + [float(r)] for row, r in zip(a, rhs)]
    n = len(m)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        m[col], m[piv] = m[piv], m[col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            for c in range(col, n + 1):
                m[r][c] -= f * m[col][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        acc = m[r][n] - sum(m[r][c] * x[c] for c in range(r + 1, n))
        x[r] = acc / m[r][r]
    return np.array(x)
