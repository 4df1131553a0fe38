"""Controllability structure of a pair (A0, B).

The central object is the :class:`SpectralSplit`: an ordered real Schur
form of ``A0^T`` whose diagonal blocks are grouped AXIS, then RHP, then
LHP, with each block tagged controllable or not by the PBH test. All the
Riccati machinery downstream enumerates invariant subspaces through these
blocks.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import lapack

from .errors import InvalidInput
from .linalg import _UNIT, _full_rank, _gamma, _norm2, _ordered_schur, as_matrix
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "SpectralBlock",
    "SpectralSplit",
    "pbh_classify",
    "spectral_split",
]

AXIS, RHP, LHP = "AXIS", "RHP", "LHP"
_PLANES = (AXIS, RHP, LHP)  # the order of the split's groups
_PLANE_ORDER = {plane: rank for rank, plane in enumerate(_PLANES)}


@dataclass(frozen=True)
class SpectralBlock:
    """One diagonal Schur block of ``A0^T`` with its classification.

    ``offset`` indexes into the Schur basis columns, ``size`` is 1 for a
    real eigenvalue and 2 for a conjugate pair (never split),
    ``half_plane`` is one of AXIS / RHP / LHP, ``controllable`` holds
    the PBH verdict for the block's eigenvalues, and ``cluster`` is the
    index of the first block of its eigenvalue cluster: blocks linked by
    eigenvalues within the AXIS band's half-width ``tol.axis · ||A0||₂``.
    An invariant subspace spanned by Schur blocks holds whole clusters.
    """

    offset: int
    size: int
    eigenvalues: tuple
    half_plane: str
    controllable: bool
    cluster: int


@dataclass(frozen=True)
class SpectralSplit:
    """Ordered Schur decomposition ``A0^T U = U T`` with tagged blocks.

    Blocks are grouped AXIS, RHP, LHP in that order. A split made by
    :func:`spectral_split` or :func:`pbh_classify` records in ``_tagged_b``
    the input matrix B its controllability tags were computed from, and
    every function that reads the tags as a form's refuses it for a form
    of another B. The record is a field, so copies made by
    ``dataclasses.replace``, ``copy`` or ``pickle`` keep it; it takes no
    part in ``repr`` or equality. A split built by hand from U, T and its
    blocks has none, and its tags are read unchecked.
    """

    U: np.ndarray
    T: np.ndarray
    blocks: tuple
    _tagged_b: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def indices(self, half_plane=None, controllable=None):
        """Block indices filtered by half-plane and/or controllability."""
        out = []
        for i, b in enumerate(self.blocks):
            if half_plane is not None and b.half_plane != half_plane:
                continue
            if controllable is not None and b.controllable != controllable:
                continue
            out.append(i)
        return out

    def columns(self, block_set):
        """Schur-basis column positions covered by the given blocks."""
        cols = []
        for i in block_set:
            b = self.blocks[i]
            cols.extend(range(b.offset, b.offset + b.size))
        return cols


def _half_plane(lam, axis_abs):
    """AXIS when ``|Re λ|`` is at most the band's half-width ``axis_abs``,
    else RHP or LHP by the sign of ``Re λ``."""
    if abs(lam.real) <= axis_abs:
        return AXIS
    return RHP if lam.real > 0 else LHP


def _input_matrix(b, n):
    """``b`` by :func:`as_matrix` as the input matrix of an order-``n``
    system, raising :class:`InvalidInput` unless it has n rows."""
    bm = as_matrix(b, name="B")
    if bm.shape[0] != n:
        raise InvalidInput(f"B must have {n} rows, got {bm.shape[0]}")
    return bm


def _check_same_order(a, a_name, b, b_name):
    """Raise :class:`InvalidInput` unless the square matrices ``a`` and
    ``b``, named in the message, are of one order."""
    if len(a) != len(b):
        raise InvalidInput(f"{a_name} is of order {len(a)} but {b_name} is of order {len(b)}")


def pbh_classify(a0, b, split: SpectralSplit, rank_tol=DEFAULT.rank):
    """Return a copy of ``split`` with controllability tags recomputed for
    ``b``, which the copy records as its B.

    A block is tagged controllable iff the PBH pencil ``[lam I - A0, B]``
    at its representative eigenvalue ``lam`` (``eigenvalues[0]``) has full
    row rank by the rank rule, ``sigma_min > rank_tol * max(1, sigma_max)``
    on the singular values that LAPACK's SVD computes. Conjugate pairs
    share a verdict and are tagged atomically.

    Each pencil ``P`` first gets one Cholesky factorization of its Gram
    matrix ``PPᴴ = |λ|²I − λA0ᵀ − λ̄A0 + S``, with ``S = A0A0ᵀ + BBᵀ``
    formed once, shifted down by :func:`_certificate_shift`: one that runs
    to completion proves the SVD rule would tag the block controllable
    (``dpotrf`` for real eigenvalues, ``zpotrf`` for pairs). The pencils it
    cannot decide, the uncontrollable ones and those near the cut, are
    stacked and factored in one batched SVD per arithmetic, so every tag
    is the rule's.
    """
    am = as_matrix(a0, name="A0", square=True)
    bm = _input_matrix(b, am.shape[0])
    _check_same_order(am, "A0", split.T, "the split")
    return _tagged_split(am, bm, split.U, split.T,
                         [(blk.offset, blk.size, blk.eigenvalues, blk.half_plane, blk.cluster)
                          for blk in split.blocks], rank_tol)


def _tagged_split(am, bm, u, t, blocks, rank_tol):
    """The :class:`SpectralSplit` of ``(U, T)`` whose blocks, each given as
    ``(offset, size, eigenvalues, half_plane, cluster)``, are built once,
    with the PBH tags that :func:`pbh_classify` describes, for A0 ``am``
    and B ``bm`` (validated, of one order); it records ``bm``."""
    n, m = bm.shape
    w = np.hstack([am, bm])
    lam = np.array([eigenvalues[0] for _, _, eigenvalues, _, _ in blocks])
    lam_abs = np.abs(lam)
    shift, tried = _certificate_shift(lam_abs, np.sqrt(np.vdot(w, w)), n, m, rank_tol)
    if tried.any():  # only certified pencils need them; out of range they may overflow
        gram = w @ w.T
        sym = am + am.T
    real = lam.imag == 0.0
    tags = np.zeros(lam.size, dtype=bool)
    for chosen, shifts in ((real, lam.real), (~real, lam)):
        if not chosen.any():
            continue
        certify = chosen & tried
        if certify.any():
            lift = lam_abs[certify] * lam_abs[certify] - shift[certify]
            tags[certify] = _cholesky_succeeds(
                _shifted_grams(am, sym, gram, shifts[certify], lift)
            )
        undecided = chosen & ~tags
        if undecided.any():
            tags[undecided] = _svd_rule(am, bm, shifts[undecided], rank_tol)
    tagged = tuple(SpectralBlock(offset, size, eigenvalues, half_plane, ok, cluster)
                   for (offset, size, eigenvalues, half_plane, cluster), ok
                   in zip(blocks, tags.tolist()))
    return SpectralSplit(u, t, tagged, bm)


# Range of ω = (|λ|√n + ‖[A0, B]‖_F)² over which the PBH certificate runs:
# within it no entry of the Gram matrix or of its Cholesky factor
# overflows, and the absolute errors of gradual underflow stay far below
# the certificate's shift. Pencils outside it go to the SVD.
_CERTIFIED_RANGE = (2.0 ** -600, 2.0 ** 600)


def _certificate_shift(lam_abs, w_fro, n, m, rank_tol):
    """Shift ``s`` of the PBH certificate for eigenvalues of modulus
    ``lam_abs`` (an array), with ``w_fro = ‖W‖_F``, ``W = [A0, B]``; and
    the mask of those eigenvalues the certificate may be tried on
    (:data:`_CERTIFIED_RANGE`).

    Claim: if the floating-point Cholesky factorization of the matrix
    ``F`` that :func:`_shifted_grams` forms for ``G − sI``, where
    ``G = PPᴴ`` and ``P = [λI − A0, B]``, runs to completion, then the
    singular values that LAPACK computes for P satisfy the rank rule
    ``σ̂_min > rank_tol · max(1, σ̂_max)``. Let ``ω = (|λ|√n + ‖W‖_F)²``,
    an upper bound on ``‖P‖_F² = tr G``, and u the unit roundoff.

    1. The SVD returns the singular values of some ``P + δP`` with
       ``‖δP‖₂ <= p(n, m)·eps·‖P‖_F``, p(n, m) a modest function of the
       size (LAPACK Users' Guide, §4.9), taken here as ``n(n + m)``. By
       Weyl, ``|σ̂_i − σ_i| <= e = n(n + m)·eps·√ω``. So
       ``σ_min > τ = rank_tol · max(1, √ω + e) + e`` gives the rule, as
       ``σ̂_max <= ‖P‖_F + e <= √ω + e``.
    2. Forming: ``F`` is ``S − Re(λ)(A0 + A0ᵀ) + i·Im(λ)(A0 − A0ᵀ)`` plus
       ``|λ|² − s`` on the diagonal, ``S = WWᵀ`` from one product. Each
       real entry takes at most n + m + 6 roundings, each relative to a
       term of ``N + sI``, ``N = |W||W|ᵀ + |λ|(|A0| + |A0|ᵀ) + |λ|²I``; a
       complex entry has two real parts. So ``|F − (G − sI)| <= γ*(N + sI)``
       entrywise, ``γ* = γ_{3(n+m+6)}``. As ``‖N‖_F <= ω`` and
       ``tr N <= ω``: ``‖F − (G − sI)‖₂ <= γ*(ω + √n·s)`` and
       ``tr F <= (1 + γ*)ω <= 2ω``.
    3. Cholesky: if it runs to completion on the Hermitian F, the computed
       R̂ has a positive diagonal and ``R̂ᴴR̂ = F + Δ`` with
       ``|Δ| <= γ_{n+1}|R̂ᴴ||R̂|``, in any order of summation (Demmel 1989;
       Rump 2006, BIT 46:433, Lemma 2.1). Complex operations err by at
       most ``√2γ₂ < 3u`` (Higham, *Accuracy and Stability*, Lemma 3.5),
       which turns ``γ_{n+1}`` into ``γ_{3(n+1)} <= γ*``. The diagonal of
       that bound gives ``‖R̂‖_F² <= tr F / (1 − γ*)``, so
       ``‖Δ‖₂ <= γ*‖R̂‖_F² <= 2γ*·tr F <= 4γ*ω``; R̂ᴴR̂ is positive
       definite, so ``λ_min(F) > −4γ*ω``.

    Hence ``σ_min(P)² = λ_min(G) >= λ_min(F) + s − ‖F − (G − sI)‖₂ >
    s(1 − γ*√n) − 5γ*ω``, which is at least τ² for
    ``s = (τ² + 8γ*ω)(1 + ρ)``, ``ρ = 4γ_{n(n+m)+20} + 2√n·γ*``: ρ covers
    the factor ``1/(1 − γ*√n)`` and the rounding of ``‖W‖_F`` (a sum of
    n(n + m) squares) and of the scalars here, and step 1 applies. Within
    :data:`_CERTIFIED_RANGE` nothing overflows, and gradual underflow adds
    absolute errors of at most about ``n³·2^-1074``, far below
    ``s >= 8γ*·2^-600``.
    """
    svd_error = 2.0 * n * (n + m) * _UNIT
    gamma_star = _gamma(3 * (n + m + 6))
    slack = 4.0 * _gamma(n * (n + m) + 20) + 2.0 * math.sqrt(n) * gamma_star
    root = lam_abs * math.sqrt(n) + w_fro
    omega = root * root
    e = svd_error * root
    tau = rank_tol * np.maximum(1.0, root + e) + e
    shift = (tau * tau + 8.0 * gamma_star * omega) * (1.0 + slack)
    low, high = _CERTIFIED_RANGE
    return shift, (omega >= low) & (omega <= high)


def _shifted_grams(am, sym, gram, shifts, lift):
    """Stack of ``PPᴴ − sI = WWᵀ − Re(λ)(A0 + A0ᵀ) + i·Im(λ)(A0 − A0ᵀ) +
    (|λ|² − s)I`` for the pencils ``P = [λI − A0, B]`` at ``shifts``, from
    ``sym = A0 + A0ᵀ``, ``gram = WWᵀ`` and ``lift = |λ|² − s``
    (:func:`_certificate_shift`, step 2)."""
    k, n = shifts.size, am.shape[0]
    re = shifts.real[:, None, None]
    if np.iscomplexobj(shifts):
        g = np.empty((k, n, n), dtype=complex)
        np.subtract(gram, re * sym, out=g.real)
        np.multiply(shifts.imag[:, None, None], am - am.T, out=g.imag)
    else:
        g = gram - re * sym
    g.reshape(k, n * n)[:, :: n + 1] += lift[:, None]
    return g


def _cholesky_succeeds(grams):
    """Whether LAPACK's Cholesky factorization runs to completion on each
    Hermitian matrix of the stack: one ``potrf`` call per matrix, on its
    transpose (Fortran order, so nothing is copied), which has the same
    eigenvalues."""
    potrf = lapack.zpotrf if np.iscomplexobj(grams) else lapack.dpotrf
    return np.array(
        [potrf(g.T, overwrite_a=True, clean=False)[1] == 0 for g in grams],
        dtype=bool,
    )


def _svd_rule(am, bm, shifts, rank_tol):
    """The rank rule on the pencils at ``shifts``, all factored in one
    batched SVD: real pencils for real shifts, complex ones for pairs."""
    n = am.shape[0]
    pencil = np.empty((shifts.size, n, n + bm.shape[1]), dtype=shifts.dtype)
    pencil[:, :, :n] = -am
    pencil[:, range(n), range(n)] += shifts[:, None]
    pencil[:, :, n:] = bm
    sv = np.linalg.svd(pencil, compute_uv=False)
    return _full_rank(sv[:, -1], sv[:, 0], rank_tol)


def _cluster_labels(blocks, gap):
    """Label every block with the index of its cluster's first block;
    clusters are the connected components of the relation "some pair of
    their eigenvalues lies within ``gap``"."""
    sizes = [blk.size for blk in blocks]
    eigs = np.array([lam for blk in blocks for lam in blk.eigenvalues])
    owner = np.repeat(np.eye(len(sizes)), sizes, axis=0)
    near = (np.abs(eigs[:, None] - eigs[None, :]) <= gap).astype(float)
    reach = owner.T @ near @ owner > 0
    if np.array_equal(reach, np.eye(len(sizes), dtype=bool)):  # no two blocks within the gap
        return list(range(len(sizes)))
    for _ in range(len(sizes).bit_length()):  # transitive closure by squaring
        reach = reach @ reach
    return reach.argmax(axis=1).tolist()


def spectral_split(a0, b, tol: Tolerances = DEFAULT):
    """Ordered spectral decomposition of ``A0^T`` with PBH tags.

    Computes the real Schur form of ``A0^T``, groups the diagonal blocks
    AXIS (|Re| within the axis band), then RHP, then LHP, and tags each
    block with its PBH verdict and its eigenvalue cluster.

    Parameters
    ----------
    a0 : array_like
        Square feedback matrix.
    b : array_like
        Input matrix with matching row count.
    tol : Tolerances
        Supplies the axis band (relative to ``||A0||``), which is also the
        cluster gap, and the rank cutoff for the PBH test.

    Returns
    -------
    SpectralSplit
    """
    am = as_matrix(a0, name="A0", square=True)
    bm = _input_matrix(b, am.shape[0])
    axis_abs = tol.axis * _norm2(am)
    u, t, raw, ranks = _ordered_schur(am.T, lambda lam: _PLANE_ORDER[_half_plane(lam, axis_abs)])
    blocks = [(blk.offset, blk.size, blk.eigenvalues, _PLANES[rank], label)
              for blk, rank, label in zip(raw, ranks, _cluster_labels(raw, axis_abs))]
    return _tagged_split(am, bm, u, t, blocks, tol.rank)
