"""Controllability structure of a pair (A0, B).

The central object is the :class:`SpectralSplit`: an ordered real Schur
form of ``A0^T`` whose diagonal blocks are grouped AXIS, then RHP, then
LHP, with each block tagged controllable or not by the PBH test. All the
Riccati machinery downstream enumerates invariant subspaces through these
blocks.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInput
from .linalg import _full_rank, _norm2, as_matrix, real_schur_ordered
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "SpectralBlock",
    "SpectralSplit",
    "pbh_classify",
    "spectral_split",
]

AXIS, RHP, LHP = "AXIS", "RHP", "LHP"
_PLANE_ORDER = {AXIS: 0, RHP: 1, LHP: 2}


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

    Blocks are grouped AXIS, RHP, LHP in that order.
    """

    U: np.ndarray
    T: np.ndarray
    blocks: tuple

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


def pbh_classify(a0, b, split: SpectralSplit, rank_tol=DEFAULT.rank):
    """Return a copy of ``split`` with controllability tags recomputed.

    A block is tagged controllable iff the PBH pencil ``[lam I - A0, B]``
    at its representative eigenvalue ``lam`` (``eigenvalues[0]``) has full
    row rank by the rank rule, ``sigma_min > rank_tol * max(1, sigma_max)``.
    Conjugate pairs share a verdict and are tagged atomically. The pencils
    of all blocks are stacked and factored in one batched SVD per
    arithmetic: real eigenvalues on real pencils, conjugate pairs on
    complex ones.
    """
    am = as_matrix(a0, name="A0", square=True)
    bm = as_matrix(b, name="B")
    n = am.shape[0]
    lam = np.array([blk.eigenvalues[0] for blk in split.blocks])
    real = lam.imag == 0.0
    tags = np.empty(lam.size, dtype=bool)
    for chosen, shifts in ((real, lam.real), (~real, lam)):
        shifts = shifts[chosen]
        if shifts.size == 0:
            continue
        pencil = np.empty((shifts.size, n, n + bm.shape[1]), dtype=shifts.dtype)
        pencil[:, :, :n] = -am
        pencil[:, range(n), range(n)] += shifts[:, None]
        pencil[:, :, n:] = bm
        sv = np.linalg.svd(pencil, compute_uv=False)
        tags[chosen] = _full_rank(sv[:, -1], sv[:, 0], rank_tol)
    tagged = tuple(
        replace(blk, controllable=bool(ok)) for blk, ok in zip(split.blocks, tags)
    )
    return replace(split, blocks=tagged)


def _cluster_labels(blocks, gap):
    """Label every block with the index of its cluster's first block;
    clusters are the connected components of the relation "some pair of
    their eigenvalues lies within ``gap``"."""
    sizes = [blk.size for blk in blocks]
    eigs = np.array([lam for blk in blocks for lam in blk.eigenvalues])
    owner = np.repeat(np.eye(len(sizes)), sizes, axis=0)
    near = (np.abs(eigs[:, None] - eigs[None, :]) <= gap).astype(float)
    reach = owner.T @ near @ owner > 0
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
    bm = as_matrix(b, name="B")
    if bm.shape[0] != am.shape[0]:
        raise InvalidInput(
            f"B must have {am.shape[0]} rows, got {bm.shape[0]}"
        )
    axis_abs = tol.axis * _norm2(am)

    def classify(lam):
        if abs(lam.real) <= axis_abs:
            return _PLANE_ORDER[AXIS]
        return _PLANE_ORDER[RHP] if lam.real > 0 else _PLANE_ORDER[LHP]

    u, t, raw = real_schur_ordered(am.T, classify)

    planes = [AXIS, RHP, LHP]
    blocks = tuple(
        SpectralBlock(
            offset=blk.offset,
            size=blk.size,
            eigenvalues=blk.eigenvalues,
            half_plane=planes[classify(blk.eigenvalues[0])],
            controllable=False,
            cluster=label,
        )
        for blk, label in zip(raw, _cluster_labels(raw, axis_abs))
    )
    split = SpectralSplit(U=u, T=t, blocks=blocks)
    return pbh_classify(am, bm, split, rank_tol=tol.rank)
