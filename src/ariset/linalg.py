"""Dense real matrix kernels used by every higher-level module.

Everything here operates on plain ``numpy.ndarray`` values and returns new
arrays; inputs are never mutated. Symmetric matrices are validated and
re-symmetrized on entry, so downstream code can rely on exact symmetry.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.linalg import lapack, schur

from .errors import (
    DegenerateSpectrum,
    InvalidInput,
    NotHurwitz,
    SingularBlock,
    SingularSylvester,
)

__all__ = [
    "DefinitenessVerdict",
    "SchurBlock",
    "as_matrix",
    "definiteness",
    "real_schur_ordered",
    "schur_complement",
    "solve_lyapunov_stable",
    "solve_sylvester",
    "sym_eig",
    "symmetrize",
]


def as_matrix(a, name="matrix", square=False):
    """Coerce to a 2-D float array and reject non-finite entries.

    Parameters
    ----------
    a : array_like
        Input data, at least scalar; scalars and 1-D arrays are promoted
        to 2-D (a 1-D array becomes a column).
    name : str
        Label used in error messages.
    square : bool
        Require the result to be square.

    Returns
    -------
    numpy.ndarray
        A fresh ``float64`` array of shape (rows, cols).
    """
    m = np.array(a, dtype=float, copy=True)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    elif m.ndim == 1:
        m = m.reshape(-1, 1)
    elif m.ndim != 2:
        raise InvalidInput(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise InvalidInput(f"{name} must have at least one row and column")
    if not np.all(np.isfinite(m)):
        raise InvalidInput(f"{name} contains NaN or Inf entries")
    if square and m.shape[0] != m.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {m.shape}")
    return m


def symmetrize(s, sym_tol=1e-8, name="matrix"):
    """Validate symmetry within tolerance and return the exact symmetric part.

    The deviation |S - S^T|_max must not exceed ``sym_tol * max(1, ||S||_max)``;
    the returned array is (S + S^T)/2 exactly.
    """
    m = as_matrix(s, name=name, square=True)
    scale = max(1.0, float(np.abs(m).max()))
    dev = float(np.abs(m - m.T).max())
    if dev > sym_tol * scale:
        raise InvalidInput(
            f"{name} is not symmetric: |S - S^T|_max = {dev:.3e} "
            f"exceeds {sym_tol:.1e} * {scale:.3e}"
        )
    return 0.5 * (m + m.T)


# ---------------------------------------------------------------------------
# definiteness


@dataclass(frozen=True)
class DefinitenessVerdict:
    """Sign classification of a symmetric matrix.

    ``kind`` is one of ``positive-definite``, ``positive-semidefinite``,
    ``negative-definite``, ``negative-semidefinite``, ``indefinite``,
    ``zero``; the classes are mutually exclusive with precedence
    zero -> definite -> semidefinite -> indefinite, decided from the
    extreme eigenvalues at the absolute tolerance ``tol_used``.
    """

    kind: str
    min_eig: float
    max_eig: float
    tol_used: float

    @property
    def is_psd(self):
        return self.kind in ("positive-definite", "positive-semidefinite", "zero")

    @property
    def is_nsd(self):
        return self.kind in ("negative-definite", "negative-semidefinite", "zero")


def definiteness(s, tol=1e-8, sym_tol=1e-8):
    """Classify the sign of a symmetric matrix.

    Parameters
    ----------
    s : array_like
        Symmetric matrix.
    tol : float
        Relative eigenvalue tolerance; the absolute cutoff is
        ``tol * max(1, ||S||_max)``.

    Returns
    -------
    DefinitenessVerdict
    """
    m = symmetrize(s, sym_tol=sym_tol, name="S")
    w = np.linalg.eigvalsh(m)
    return verdict_from_extremes(
        float(w[0]), float(w[-1]), tol * max(1.0, float(np.abs(m).max()))
    )


def verdict_from_extremes(lo, hi, cut):
    """Sign class of a symmetric matrix from its extreme eigenvalues
    ``lo <= hi`` at the absolute cutoff ``cut``."""
    if max(abs(lo), abs(hi)) <= cut:
        kind = "zero"
    elif lo > cut:
        kind = "positive-definite"
    elif lo >= -cut:
        kind = "positive-semidefinite"
    elif hi < -cut:
        kind = "negative-definite"
    elif hi <= cut:
        kind = "negative-semidefinite"
    else:
        kind = "indefinite"
    return DefinitenessVerdict(kind=kind, min_eig=lo, max_eig=hi, tol_used=cut)


# ---------------------------------------------------------------------------
# symmetric eigendecomposition


def sym_eig(s, sym_tol=1e-8):
    """Eigendecomposition of a symmetric matrix.

    Returns ``(values, vectors)`` with values ascending and
    ``S = V diag(values) V^T`` for orthogonal ``V``.
    """
    m = symmetrize(s, sym_tol=sym_tol, name="S")
    w, v = np.linalg.eigh(m)
    return w, v


# ---------------------------------------------------------------------------
# ordered real Schur form


class SchurBlock(NamedTuple):
    """One diagonal block of a real Schur form.

    ``offset`` is the first row/column of the block, ``size`` is 1 or 2,
    and ``eigenvalues`` holds one real value or a conjugate pair (positive
    imaginary part first).
    """

    offset: int
    size: int
    eigenvalues: tuple


def _scan_blocks(t):
    """Partition a quasi-triangular matrix into 1x1 / 2x2 diagonal blocks."""
    n = t.shape[0]
    blocks = []
    i = 0
    while i < n:
        if i + 1 < n and t[i + 1, i] != 0.0:
            blocks.append((i, 2))
            i += 2
        else:
            blocks.append((i, 1))
            i += 1
    return blocks


def _block_eigenvalues(t, offset, size):
    if size == 1:
        return (complex(t[offset, offset]),)
    a = t[offset, offset]
    b = t[offset, offset + 1]
    c = t[offset + 1, offset]
    d = t[offset + 1, offset + 1]
    mean = 0.5 * (a + d)
    disc = 0.25 * (a - d) ** 2 + b * c
    if disc < 0.0:
        im = np.sqrt(-disc)
        return (complex(mean, im), complex(mean, -im))
    # non-standard block with real eigenvalues; keep it atomic
    rt = np.sqrt(disc)
    return (complex(mean + rt), complex(mean - rt))


def _schur_blocks(t):
    return [
        SchurBlock(off, size, _block_eigenvalues(t, off, size))
        for off, size in _scan_blocks(t)
    ]


def _classify_block(block, classify):
    # conjugate eigenvalues share the class; use the representative with
    # the largest imaginary part
    return classify(block.eigenvalues[0])


def real_schur_ordered(a, classify: Callable[[complex], int]):
    """Real Schur form with diagonal blocks grouped by spectral class.

    Parameters
    ----------
    a : array_like
        Square real matrix.
    classify : callable
        Maps an eigenvalue (complex) to an integer rank; blocks are
        reordered so ranks appear in ascending order along the diagonal,
        stably with respect to the initial Schur ordering. Conjugate
        pairs are classified by their representative with positive
        imaginary part and are never split.

    Returns
    -------
    (U, T, blocks)
        Orthogonal ``U``, quasi-upper-triangular ``T`` with
        ``A U = U T``, and the ordered list of :class:`SchurBlock`.

    Raises
    ------
    DegenerateSpectrum
        If LAPACK refuses to swap a pair of nearly-confluent blocks.
    """
    m = as_matrix(a, name="A", square=True)
    t, u = schur(m, output="real")
    t = np.ascontiguousarray(t)
    u = np.ascontiguousarray(u)

    nblk = len(_scan_blocks(t))
    for position in range(nblk):
        blocks = _schur_blocks(t)
        ranks = [_classify_block(b, classify) for b in blocks]
        best = min(range(position, nblk), key=lambda i: (ranks[i], i))
        if best != position:
            ifst = blocks[best].offset + 1  # LAPACK is 1-based
            ilst = blocks[position].offset + 1
            t, u, info = lapack.dtrexc(t, u, ifst, ilst, wantq=1)
            if info != 0:
                gap = _min_block_gap(blocks, best, position)
                raise DegenerateSpectrum(
                    "Schur reordering failed: eigenvalue clusters too close "
                    f"(gap ~ {gap:.3e})",
                    gap=gap,
                )

    blocks = _schur_blocks(t)
    scale = max(1.0, float(np.linalg.norm(m)))
    resid = float(np.abs(m @ u - u @ t).max())
    if resid > 1e-9 * scale:
        raise DegenerateSpectrum(
            f"reordered Schur form lost accuracy: residual {resid:.3e}"
        )
    return u, t, blocks


def _min_block_gap(blocks, i, j):
    gaps = [
        abs(li - lj)
        for li in blocks[i].eigenvalues
        for lj in blocks[j].eigenvalues
    ]
    return min(gaps) if gaps else 0.0


# ---------------------------------------------------------------------------
# Sylvester / Lyapunov solves


def solve_sylvester(f, g, c, sep_tol=1e-10):
    """Solve ``F X + X G = C`` through the vectorized Kronecker system.

    Parameters
    ----------
    f, g, c : array_like
        ``F`` is p-by-p, ``G`` is q-by-q, ``C`` is p-by-q.
    sep_tol : float
        Relative spectral-separation tolerance: the solve is rejected when
        ``min |lambda_F + lambda_G|`` falls below
        ``sep_tol * max(1, rho(F) + rho(G))``.

    Returns
    -------
    numpy.ndarray
        The p-by-q solution ``X``.

    Raises
    ------
    SingularSylvester
        When spec(F) and spec(-G) overlap within tolerance.
    """
    fm = as_matrix(f, name="F", square=True)
    gm = as_matrix(g, name="G", square=True)
    cm = as_matrix(c, name="C")
    p, q = fm.shape[0], gm.shape[0]
    if cm.shape != (p, q):
        raise InvalidInput(f"C must be {p}x{q}, got {cm.shape}")

    wf = np.linalg.eigvals(fm)
    wg = np.linalg.eigvals(gm)
    sep = float(np.abs(wf[:, None] + wg[None, :]).min())
    scale = max(1.0, float(np.abs(wf).max()) + float(np.abs(wg).max()))
    if sep <= sep_tol * scale:
        raise SingularSylvester(
            f"spec(F) meets spec(-G): separation {sep:.3e} <= "
            f"{sep_tol:.1e} * {scale:.3e}"
        )

    # column-major vec: vec(FX) = (I (x) F) vec(X), vec(XG) = (G^T (x) I) vec(X)
    k = np.kron(np.eye(q), fm) + np.kron(gm.T, np.eye(p))
    x = np.linalg.solve(k, cm.flatten(order="F"))
    return x.reshape((p, q), order="F")


def solve_lyapunov_stable(f, c, axis_tol=1e-8, sym_tol=1e-8):
    """Solve ``F^T P + P F = -C`` for Hurwitz ``F`` and symmetric ``C``.

    For ``C >= 0`` the unique solution is the integral of
    ``exp(F^T t) C exp(F t)`` over ``t >= 0`` and is positive
    semidefinite.

    Raises
    ------
    NotHurwitz
        When some eigenvalue of ``F`` has real part >= ``-axis_tol * ||F||``.
    """
    fm = as_matrix(f, name="F", square=True)
    cm = symmetrize(c, sym_tol=sym_tol, name="C")
    w = np.linalg.eigvals(fm)
    margin = axis_tol * float(np.linalg.norm(fm, 2))
    if float(w.real.max()) >= -margin:
        raise NotHurwitz(
            f"F has an eigenvalue with real part {w.real.max():.3e} >= {-margin:.3e}"
        )
    p = solve_sylvester(fm.T, fm, -cm)
    return 0.5 * (p + p.T)


# ---------------------------------------------------------------------------
# Schur complement


def schur_complement(s, keep: Sequence[int], rank_tol=1e-10, sym_tol=1e-8):
    """Schur complement of a symmetric matrix onto the kept index set.

    Returns ``S[keep, keep] - S[keep, drop] S[drop, drop]^{-1} S[drop, keep]``
    where ``drop`` is the complement of ``keep``.

    Raises
    ------
    SingularBlock
        When the eliminated block is singular within rank tolerance.
    """
    m = symmetrize(s, sym_tol=sym_tol, name="S")
    n = m.shape[0]
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise InvalidInput("keep must select at least one index")
    if keep[0] < 0 or keep[-1] >= n:
        raise InvalidInput(f"keep indices out of range for order {n}")
    drop = [i for i in range(n) if i not in keep]
    head = m[np.ix_(keep, keep)]
    if not drop:
        return head
    block = m[np.ix_(drop, drop)]
    sv = np.linalg.svd(block, compute_uv=False)
    cut = rank_tol * max(1.0, float(np.linalg.norm(m, 2)))
    if sv[-1] <= cut:
        raise SingularBlock(
            f"eliminated block is singular: smallest singular value "
            f"{sv[-1]:.3e} <= {cut:.3e}"
        )
    cross = m[np.ix_(keep, drop)]
    sc = head - cross @ np.linalg.solve(block, cross.T)
    return 0.5 * (sc + sc.T)
