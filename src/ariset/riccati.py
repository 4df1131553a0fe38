"""Homogenized Riccati machinery.

The inequality −AᵀK − KA − Q + KBBᵀK ≤ 0 is rewritten around a base
equation solution K0 as Ric(X) ≤ 0 with

    Ric(X) = −A0ᵀX − XA0 + X B Bᵀ X,   A0 = A − BBᵀK0,   K = K0 + X.

Solutions of Ric(X) = 0 are supported on invariant subspaces of A0ᵀ. This
module reduces the problem to selected Schur blocks, solves the reduced
equations by Lyapunov inversion, enumerates the full family of equation
solutions through Schur complements of the maximal one, and classifies the
degenerate axis blocks (zero / purely imaginary eigenvalues).
"""

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress
from typing import Optional

import numpy as np

from .errors import (
    BaseResidualTooLarge,
    DegenerateSpectrum,
    InvalidInput,
    NoBaseSolution,
    NonInvariantSelection,
    RiccatiError,
    SingularSylvester,
    SingularY,
)
from .linalg import (
    DefinitenessVerdict,
    _check_nonsingular,
    _full_rank,
    _row_eigenvalues,
    _select_leading,
    _selection_gap,
    _separation_refusals,
    _solve_quasi_triangular,
    as_matrix,
    definiteness,
    real_schur_ordered,
    solve_sylvester,  # noqa: F401 (bench/spans.py wraps it at this binding)
    symmetrize,
    verdict_from_extremes,
)
from .systems import AXIS, SpectralSplit
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "AriSolution",
    "DegenerateOutcome",
    "HomogeneousForm",
    "RiccatiProblem",
    "SimplifiedEquation",
    "are_residual",
    "degenerate_classify",
    "full_rank_simplified_solution",
    "reduce",
    "ric_residual",
    "schur_family",
    "solve_base_are",
    "zero_solution",
]

# Invariance residual |A0ᵀL − LD|_max accepted for a computed invariant
# basis L, relative to max(1, ||A0||₂) and the size of L's entries.
INVARIANCE_RTOL = 1e-8

# Residual gate for family members: |Ric(X)|_max relative to
# max(1, |A0|_max |X|_max, |M|_max |X|²_max), the size of Ric's terms.
FAMILY_RESIDUAL_RTOL = 1e-8

# Agreement demanded of a family member with the direct route (reduce +
# full_rank_simplified_solution) on the same blocks: |X_family − X_direct|_max
# relative to max(1, |X_direct|_max).
DIRECT_ROUTE_RTOL = 1e-6

# Residual gate for a free-family generator G of an axis block (unit
# Frobenius norm): |Ric(G)|_max relative to max(1, ||A0||₂).
GENERATOR_RESIDUAL_RTOL = 1e-8

# Errors by which a block set carries no equation solution: the reduction
# cannot separate it, or its Gramian solve or inverse is singular.
_NO_SOLUTION = (SingularSylvester, SingularY, DegenerateSpectrum)


@dataclass(frozen=True)
class RiccatiProblem:
    """The data triple (A, B, Q) of the Riccati equation/inequality."""

    A: np.ndarray
    B: np.ndarray
    Q: Optional[np.ndarray] = None

    def __post_init__(self):
        a = as_matrix(self.A, name="A", square=True)
        b = as_matrix(self.B, name="B")
        n = a.shape[0]
        if b.shape[0] != n:
            raise InvalidInput(f"B must have {n} rows, got {b.shape[0]}")
        q = np.zeros((n, n)) if self.Q is None else symmetrize(self.Q, name="Q")
        if q.shape != (n, n):
            raise InvalidInput(f"Q must be {n}x{n}, got {q.shape}")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "Q", q)

    @property
    def n(self):
        return self.A.shape[0]


@dataclass(frozen=True)
class HomogeneousForm:
    """A base equation solution K0 and the induced homogeneous data.

    ``A0 = A − BBᵀK0`` is the feedback matrix, ``M = BBᵀ`` the input Gram
    matrix, and ``base_residual`` the max-norm of the equation residual at
    K0 (bounded by the base tolerance at construction). ``a0_norm`` is
    ``||A0||₂``, computed once on first use.
    """

    problem: RiccatiProblem
    K0: np.ndarray
    A0: np.ndarray
    M: np.ndarray
    base_residual: float
    kind: str

    @cached_property
    def a0_norm(self):
        return float(np.linalg.norm(self.A0, 2))


@dataclass(frozen=True)
class SimplifiedEquation:
    """The Riccati data restricted to selected invariant Schur blocks.

    ``Lk`` has orthonormal columns spanning an A0ᵀ-invariant subspace with
    ``A0ᵀ Lk = Lk Dk``; ``Mk = Lkᵀ B Bᵀ Lk``. ``Dk`` is quasi-upper-
    triangular with the selected ``blocks`` along its diagonal, in order.
    """

    block_set: tuple
    Dk: np.ndarray
    Mk: np.ndarray
    Lk: np.ndarray
    blocks: tuple
    form: HomogeneousForm

    @property
    def k(self):
        return self.Dk.shape[0]

    @property
    def eigenvalues(self):
        return tuple(lam for b in self.blocks for lam in b.eigenvalues)


@dataclass(frozen=True)
class AriSolution:
    """A symmetric solution X of Ric(X) ≤ 0 with its support certificate.

    ``X = L · Lcoord · Lᵀ`` where ``L`` is an orthonormal basis of the
    support, the invariant subspace of the generating block set: the
    reduced basis ``Lk`` for a solution built from a
    :class:`SimplifiedEquation`, a QR basis for a :func:`schur_family`
    member. Bases of one support differ by an orthogonal factor, and so
    do their ``Lcoord``; ``X`` and ``rank`` do not depend on the basis.
    ``residual`` is Ric(X) and ``residual_verdict`` its sign
    classification (never positive for an emitted solution), at the
    cutoff ``tol.definiteness`` times the size of Ric's terms,
    max(1, |A0|_max |X|_max, |M|_max |X|²_max).
    ``certificate``, when present, summarizes strictness on the support
    subspace.
    """

    X: np.ndarray
    Lcoord: np.ndarray
    block_set: tuple
    rank: int
    residual: np.ndarray
    residual_verdict: DefinitenessVerdict
    eigenvalues: tuple = ()
    certificate: object = None


def are_residual(problem: RiccatiProblem, k):
    """Residual of the inhomogeneous equation, −AᵀK − KA − Q + KBBᵀK."""
    km = symmetrize(k, name="K")
    a, b, q = problem.A, problem.B, problem.Q
    r = -a.T @ km - km @ a - q + km @ (b @ (b.T @ km))
    return 0.5 * (r + r.T)


def ric_residual(form: HomogeneousForm, x):
    """Homogeneous residual Ric(X) = −A0ᵀX − XA0 + X M X, symmetrized."""
    xm = symmetrize(x, name="X")
    a0, m = form.A0, form.M
    r = -a0.T @ xm - xm @ a0 + xm @ (m @ xm)
    return 0.5 * (r + r.T)


def _ric_scale(form, x):
    """max(1, |A0|_max |X|_max, |M|_max |X|²_max), the size of the terms of
    Ric(X), for one X or a stack of them."""
    x_max = np.abs(x).max(axis=(-2, -1))
    a0_x = np.maximum(1.0, float(np.abs(form.A0).max()) * x_max)
    return np.maximum(a0_x, float(np.abs(form.M).max()) * x_max ** 2)


def _base_scale(problem):
    return max(1.0, float(np.abs(problem.A).max()), float(np.abs(problem.Q).max()))


def solve_base_are(
    problem: RiccatiProblem,
    kind="antistabilizing",
    k0=None,
    tol: Tolerances = DEFAULT,
):
    """Fix a base solution of the equation −AᵀK − KA − Q + KBBᵀK = 0.

    Parameters
    ----------
    problem : RiccatiProblem
    kind : {"antistabilizing", "stabilizing", "given"}
        Spectral class requested for A0 = A − BBᵀK0: closed right half
        plane, closed left half plane, or a caller-supplied ``k0``
        (verified, not trusted).
    k0 : array_like, optional
        Required when ``kind="given"``.

    Returns
    -------
    HomogeneousForm

    Raises
    ------
    NoBaseSolution
        The Hamiltonian has no invariant subspace of the requested class
        with invertible top block, or the computed K fails verification.
    BaseResidualTooLarge
        A user-supplied ``k0`` fails residual verification.
    """
    a, b, q = problem.A, problem.B, problem.Q
    n = problem.n
    scale = _base_scale(problem)

    if kind == "given":
        if k0 is None:
            raise InvalidInput('kind="given" requires k0')
        km = symmetrize(k0, sym_tol=tol.sym, name="K0")
        if km.shape != (n, n):
            raise InvalidInput(f"K0 must be {n}x{n}, got {km.shape}")
        resid = float(np.abs(are_residual(problem, km)).max())
        if resid > tol.base * scale:
            raise BaseResidualTooLarge(
                f"supplied K0 has residual {resid:.3e} > {tol.base * scale:.3e}"
            )
    elif kind in ("antistabilizing", "stabilizing"):
        km, resid = _hamiltonian_solution(problem, kind, tol)
    else:
        raise InvalidInput(f"unknown base-solution kind: {kind!r}")

    m = b @ b.T
    m = 0.5 * (m + m.T)
    a0 = a - m @ km
    return HomogeneousForm(
        problem=problem,
        K0=km,
        A0=a0,
        M=m,
        base_residual=resid,
        kind=kind,
    )


def _hamiltonian_solution(problem, kind, tol):
    """Base solution from an n-dimensional invariant subspace of the
    Hamiltonian [[A, −BBᵀ], [−Q, −Aᵀ]] of the requested spectral class."""
    a, b, q = problem.A, problem.B, problem.Q
    n = problem.n
    ham = np.block([[a, -b @ b.T], [-q, -a.T]])
    axis_abs = tol.axis * float(np.linalg.norm(ham, 2))
    want_rhp_first = kind == "antistabilizing"

    def classify(lam):
        if abs(lam.real) <= axis_abs:
            return 1
        in_rhp = lam.real > 0
        return 0 if in_rhp == want_rhp_first else 2

    u, _, blocks = real_schur_ordered(ham, classify)
    if n not in accumulate(blk.size for blk in blocks):
        raise NoBaseSolution(
            "a complex-conjugate pair straddles the invariant-subspace "
            "boundary; no real solution of the requested kind"
        )
    u1 = u[:n, :n]
    u2 = u[n:, :n]
    _check_nonsingular(u1, tol.rank, NoBaseSolution,
                       "invariant subspace has a singular top block; no "
                       "solution of the requested kind")
    k = np.linalg.solve(u1.T, u2.T).T
    km = 0.5 * (k + k.T)
    resid = float(np.abs(are_residual(problem, km)).max())
    if resid > tol.base * _base_scale(problem):
        raise NoBaseSolution(
            f"computed base solution fails verification: residual {resid:.3e}"
        )
    return km, resid


# ---------------------------------------------------------------------------
# reduction to selected blocks


def _block_index(i):
    """``i`` as a block index: a Python or numpy integer, not a bool."""
    if isinstance(i, bool) or not hasattr(i, "__index__"):
        raise InvalidInput(f"block index {i!r} is not an integer")
    return operator.index(i)


def _check_invariant(form, basis, d, error, message):
    """Raise ``error(message)`` unless ``A0ᵀ L = L D`` holds for ``L =
    basis``: ``|A0ᵀL − LD|_max <= INVARIANCE_RTOL · max(1, ||A0||₂) ·
    max(1, |L|_max)``. ``message`` may name the residual as ``{resid}``."""
    resid = float(np.abs(form.A0.T @ basis - basis @ d).max())
    if resid > INVARIANCE_RTOL * max(1.0, form.a0_norm) * max(1.0, float(np.abs(basis).max())):
        raise error(message.format(resid=resid))


def reduce(
    form: HomogeneousForm,
    split: SpectralSplit,
    block_set,
    tol: Tolerances = DEFAULT,
):
    """Restrict the homogeneous problem to selected Schur blocks.

    The Schur form is reordered so the selected blocks (ascending) occupy
    the leading positions; the leading columns then span an exactly
    invariant subspace and carry the reduced data (Dk, Mk, Lk).

    Raises
    ------
    DegenerateSpectrum
        A selected block shares an eigenvalue with an unselected block
        (the invariant subspace is not well defined), or a required block
        swap fails.
    NonInvariantSelection
        The extracted columns fail the invariance residual check.
    """
    selected = sorted({_block_index(i) for i in block_set})
    nblk = len(split.blocks)
    if not selected:
        raise InvalidInput("block_set must select at least one block")
    if selected[0] < 0 or selected[-1] >= nblk:
        raise InvalidInput(f"block indices out of range 0..{nblk - 1}")

    cols = split.columns(selected)
    eigs = np.array([lam for blk in split.blocks for lam in blk.eigenvalues])
    gap = _selection_gap(eigs, cols)
    if gap <= tol.axis * form.a0_norm:
        raise DegenerateSpectrum(
            "selected blocks share an eigenvalue with unselected ones; "
            f"the invariant subspace is ill-defined (gap {gap:.3e})",
            gap=gap,
        )

    t, u = _select_leading(split.T, split.U, cols)
    k = len(cols)
    lk = np.array(u[:, :k])
    dk = np.array(t[:k, :k])
    mk = lk.T @ form.M @ lk
    mk = 0.5 * (mk + mk.T)

    _check_invariant(form, lk, dk, NonInvariantSelection,
                     "selected blocks are coupled to unselected ones: "
                     "invariance residual {resid:.3e}")

    return SimplifiedEquation(
        block_set=tuple(selected),
        Dk=dk,
        Mk=mk,
        Lk=lk,
        blocks=tuple(split.blocks[i] for i in selected),
        form=form,
    )


# ---------------------------------------------------------------------------
# reduced-equation solutions


def _matrix_rank(m, rank_tol):
    if m.size == 0:
        return 0
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > rank_tol * sv[0]))


def _solution_from_coordinates(eqn, lcoord, tol, certificate=None):
    x = eqn.Lk @ lcoord @ eqn.Lk.T
    x = 0.5 * (x + x.T)
    resid = ric_residual(eqn.form, x)
    eig = np.linalg.eigvalsh(resid)
    verdict = verdict_from_extremes(
        float(eig[0]), float(eig[-1]),
        tol.definiteness * float(_ric_scale(eqn.form, x)))
    return AriSolution(
        X=x,
        Lcoord=lcoord,
        block_set=eqn.block_set,
        rank=_matrix_rank(lcoord, tol.rank),
        residual=resid,
        residual_verdict=verdict,
        eigenvalues=eqn.eigenvalues,
        certificate=certificate,
    )


def solve_reduced_gramian(eqn: SimplifiedEquation):
    """Solve ``Y Dk + Dkᵀ Y = Mk`` for the inverse of the maximal reduced
    solution. Singular spectra (axis blocks, mirrored pairs) raise
    :class:`SingularSylvester`."""
    y = _solve_quasi_triangular(eqn.Dk, eqn.Dk, eqn.Mk, trana="T")
    return 0.5 * (y + y.T)


def _gramian_inverse(eqn, tol):
    """``Y⁻¹`` (symmetrized) for the Gramian ``Y`` of
    :func:`solve_reduced_gramian`; raises :class:`SingularY` when ``Y`` is
    singular within ``tol.rank``."""
    y = solve_reduced_gramian(eqn)
    _check_nonsingular(y, tol.rank, SingularY,
                       "reduced Gramian is singular (smallest singular value "
                       "{sv_min:.3e}); the selected blocks admit no full-rank solution")
    lcoord = np.linalg.inv(y)
    return 0.5 * (lcoord + lcoord.T)


def full_rank_simplified_solution(eqn: SimplifiedEquation, tol: Tolerances = DEFAULT):
    """Full-rank solution of the reduced equation over ``eqn.block_set``.

    Solves ``Y Dk + Dkᵀ Y = Mk`` and inverts: ``Lcoord = Y⁻¹``,
    ``X = Lk Y⁻¹ Lkᵀ`` satisfies Ric(X) = 0.

    Raises
    ------
    SingularSylvester
        spec(Dk) meets spec(−Dk) (axis eigenvalues or mirrored pairs).
    SingularY
        ``Y`` is singular within rank tolerance (typical for selections
        containing uncontrollable blocks).
    """
    return _solution_from_coordinates(eqn, _gramian_inverse(eqn, tol), tol)


def zero_solution(form: HomogeneousForm, tol: Tolerances = DEFAULT):
    """The trivial solution X = 0."""
    n = form.problem.n
    zero = np.zeros((n, n))
    return AriSolution(
        X=zero,
        Lcoord=np.zeros((0, 0)),
        block_set=(),
        rank=0,
        residual=zero,
        residual_verdict=definiteness(zero, tol.definiteness),
        eigenvalues=(),
    )


# ---------------------------------------------------------------------------
# the Schur-complement family


def _clusters(split, gap_tol):
    """Label every block with its eigenvalue cluster.

    Two blocks are linked when some pair of their eigenvalues lies within
    ``gap_tol`` (the distance at which :func:`reduce` refuses to separate
    them); clusters are the connected components of that relation.
    """
    sizes = [blk.size for blk in split.blocks]
    eigs = np.array([lam for blk in split.blocks for lam in blk.eigenvalues])
    owner = np.repeat(np.eye(len(sizes)), sizes, axis=0)
    near = (np.abs(eigs[:, None] - eigs[None, :]) <= gap_tol).astype(float)
    reach = owner.T @ near @ owner > 0
    for _ in range(len(sizes).bit_length()):  # transitive closure by squaring
        reach = reach @ reach
    return reach.argmax(axis=1)  # the first block of each cluster


def _cluster_bases(eqn, cols):
    """Orthonormal bases ``L'`` of the clusters' invariant subspaces and
    the ``Λ`` with ``A0ᵀ L' = L' Λ`` and no coupling across clusters.

    One :func:`_select_leading` call per cluster moves its columns
    ``cols[u]`` of ``Dk`` to the front: the leading Schur vectors, mapped
    through ``Lk``, fill ``L'[:, cols[u]]`` and the leading diagonal block
    fills ``Λ[cols[u], cols[u]]``, so ``Λ`` keeps ``Dk``'s 1×1 / 2×2
    layout. Raises :class:`DegenerateSpectrum` when ``dtrsen`` cannot
    separate a cluster from the rest.
    """
    k = eqn.k
    lp = np.empty_like(eqn.Lk)
    lam = np.zeros((k, k))
    for cu in cols:
        t, q = _select_leading(eqn.Dk, np.eye(k), cu)
        m = len(cu)
        lp[:, cu] = eqn.Lk @ q[:, :m]
        lam[np.ix_(cu, cu)] = t[:m, :m]
    return lp, lam


def _clash_table(lam, unit_of_col):
    """Pairs of clusters whose Gramian block ``Λ_uuᵀ Y + Y Λ_vv = C`` is
    singular: the kernel's own separation test,
    ``min |λ_u + λ_v| <= SYLVESTER_SEP_RTOL · max(1, ρ_u + ρ_v)``, applied
    to every pair at once on the row eigenvalues of the quasi-triangular
    ``lam``; ``unit_of_col`` labels each row with its cluster, 0 .. C-1."""
    order = np.argsort(unit_of_col, kind="stable")
    starts = np.searchsorted(unit_of_col[order], np.arange(unit_of_col.max() + 1))
    return _separation_refusals(_row_eigenvalues(lam)[order], starts)


def _cluster_gramian(lam, c, cols, clash):
    """Solve ``Y Λ + Λᵀ Y = C`` for a ``Λ`` with no coupling across clusters
    (``cols[u]`` are cluster u's rows), leaving zero the blocks of clashing
    cluster pairs.

    Cluster u's row of Y, against every non-clashing cluster at or after
    it, is one kernel call. The clash table has applied the kernel's
    separation test to each pair at the pair's own scale, so the row call
    skips it (the union's larger ρ would refuse pairs the table accepts).
    If ``dtrsyl`` still has to perturb a row, that row is solved pair by
    pair, and a pair it refuses is marked in ``clash``.
    """
    y = np.zeros_like(c)

    def solve_row(u, vs):
        cu, cv = cols[u], np.concatenate([cols[v] for v in vs])
        yuv = _solve_quasi_triangular(lam[np.ix_(cu, cu)], lam[np.ix_(cv, cv)],
                                      c[np.ix_(cu, cv)], trana="T", sep_tol=0.0)
        y[np.ix_(cu, cv)] = yuv
        y[np.ix_(cv, cu)] = yuv.T

    for u in range(len(cols)):
        partners = [v for v in range(u, len(cols)) if not clash[u, v]]
        if not partners:
            continue
        try:
            solve_row(u, partners)
        except SingularSylvester:
            for v in partners:
                try:
                    solve_row(u, [v])
                except SingularSylvester:
                    clash[u, v] = clash[v, u] = True
    return y


def schur_family(
    form: HomogeneousForm,
    split: SpectralSplit,
    tol: Tolerances = DEFAULT,
):
    """All equation solutions generated by subsets of non-axis blocks.

    Every solution of Ric(X) = 0 is supported on an A0ᵀ-invariant
    subspace spanned by Schur blocks. One :func:`reduce` over the
    eligible blocks gives ``A0ᵀ Lk = Lk Dk``. Each eigenvalue cluster then
    gets an orthonormal basis of its own invariant subspace from one Schur
    reordering of ``Dk`` (:func:`_cluster_bases`): together they form
    ``L'`` with ``A0ᵀ L' = L' Λ``, where ``Λ`` is quasi-triangular with no
    coupling across clusters. The mirrored-pair clashes between clusters
    are decided once, from the eigenvalues of ``Λ``'s diagonal blocks, by
    the Sylvester kernel's own separation test; the Gramian ``Y'`` of
    ``Λ`` (``Y' Λ + Λᵀ Y' = L'ᵀ M L'``) is then solved by cluster, one
    kernel call per cluster against every non-clashing cluster at or
    after it.
    The member over a subset S is ``X_S = L'_S Y'[S,S]⁻¹ L'_Sᵀ``, the
    Schur complement of the maximal solution onto S. Members are built in
    stacked batches of equal column count; each is expressed in a QR
    basis ``L'_S = QR``, its Gramian moved there as ``R⁻ᵀ Y'[S,S] R⁻¹``
    with one batched inverse of R. There the Gramian's rank test and
    ``rank`` read as in :func:`full_rank_simplified_solution`, on the
    moduli of its eigenvalues (its singular values, as it is symmetric).

    A subset is absent when it contains an uncontrollable block (its
    Gramian is singular), both blocks of a mirrored pair λ, −λ (their
    Sylvester solve is singular), part but not all of an eigenvalue
    cluster, or a block whose cluster reaches an axis block. Axis blocks
    never participate: controllable ones only contribute the zero
    coordinate and uncontrollable ones generate the infinite families
    reported by :func:`degenerate_classify`.

    Verification: ``A0ᵀ L' = L' Λ`` is checked once, every member's
    residual must satisfy ``|Ric(X)|_max <= FAMILY_RESIDUAL_RTOL ·
    max(1, |A0|_max |X|_max, |M|_max |X|²_max)``, and the direct route
    (:func:`reduce` + :func:`full_rank_simplified_solution`) must agree
    on presence and on X to ``DIRECT_ROUTE_RTOL`` for every single block
    and for the maximal set. Any failure raises :class:`RiccatiError`;
    two clusters the reordering cannot separate raise
    :class:`DegenerateSpectrum`.

    Returns
    -------
    list of AriSolution
        Sorted by (rank, block_set); always contains the zero solution.
    """
    eligible = [i for i, b in enumerate(split.blocks) if b.half_plane != AXIS]
    solutions = [zero_solution(form, tol)]
    if not eligible:
        return solutions

    labels = _clusters(split, tol.axis * form.a0_norm)
    at_axis = {labels[i] for i, b in enumerate(split.blocks) if b.half_plane == AXIS}
    live = [i for i in eligible if labels[i] not in at_axis]
    members = []
    eqn = None
    if live:
        eqn = reduce(form, split, live, tol)
        members = _gramian_members(eqn, labels, tol)
    _check_direct_route(form, split, eligible, eqn, members, tol)

    solutions.extend(members)
    solutions.sort(key=lambda s: (s.rank, s.block_set))
    return solutions


def _gramian_members(eqn, labels, tol):
    """Every present member over unions of the clusters in ``eqn``."""
    form = eqn.form
    sizes = [blk.size for blk in eqn.blocks]
    block_label = [labels[i] for i in eqn.block_set]
    units = sorted(set(block_label), key=block_label.index)
    unit_of_block = np.array([units.index(lb) for lb in block_label])
    unit_of_col = np.repeat(unit_of_block, sizes)
    cols = [np.flatnonzero(unit_of_col == u) for u in range(len(units))]

    lp, lam = _cluster_bases(eqn, cols)
    _check_invariant(form, lp, lam, RiccatiError,
                     "cluster basis is not invariant: residual {resid:.3e}")

    c = lp.T @ form.M @ lp
    c = 0.5 * (c + c.T)
    clash = _clash_table(lam, unit_of_col)
    y = _cluster_gramian(lam, c, cols, clash)

    block_ids = list(eqn.block_set)
    col_eigs = list(eqn.eigenvalues)  # one per column of Lk
    # every union of non-clashing units, one row each of a membership table
    masks = np.arange(1, 2 ** len(units))
    pick = ((masks[:, None] >> np.arange(len(units))) & 1).astype(bool)
    pick = pick[~np.any((pick @ clash) & pick, axis=1)]
    col_pick = pick[:, unit_of_col]
    ncols = col_pick.sum(axis=1)
    members = []
    for k in np.unique(ncols):
        rows = np.flatnonzero(ncols == k)
        idx = np.nonzero(col_pick[rows])[1].reshape(len(rows), k)
        supports = [
            (tuple(compress(block_ids, on_block)), tuple(compress(col_eigs, on_col)))
            for on_block, on_col in zip(pick[rows][:, unit_of_block].tolist(),
                                        col_pick[rows].tolist())
        ]
        members += _batch_members(form, lp[:, idx].transpose(1, 0, 2),
                                  y[idx[:, :, None], idx[:, None, :]], supports, tol)
    return members


def _batch_members(form, ls, ys, supports, tol):
    """Members for stacked supports ``ls`` (N×n×k) with Gramians ``ys``
    (N×k×k), skipping those whose Gramian is singular. ``supports`` holds
    each one's ``(block_set, eigenvalues)``.

    With ``ls = QR``, the Gramian in the basis Q is ``g = R⁻ᵀ Y R⁻¹``:
    one batched inverse of the triangular R and two stacked products.
    The member is ``X = Q g⁻¹ Qᵀ``, and the stacks are cut down to the
    present members only when some are absent."""
    q, r = np.linalg.qr(ls)
    r_inv = np.linalg.inv(r)  # one factorization serves both sides of R⁻ᵀ Y R⁻¹
    g = np.swapaxes(r_inv, 1, 2) @ ys @ r_inv
    g = 0.5 * (g + np.swapaxes(g, 1, 2))
    sv = np.abs(np.linalg.eigvalsh(g))  # g is symmetric: its singular values
    sv_min, sv_max = sv.min(axis=1), sv.max(axis=1)
    ok = _full_rank(sv_min, sv_max, tol.rank)
    if not ok.all():
        q, g, sv, sv_min = q[ok], g[ok], sv[ok], sv_min[ok]
        supports = list(compress(supports, ok.tolist()))
    lcoord = np.linalg.inv(g)
    lcoord = 0.5 * (lcoord + np.swapaxes(lcoord, 1, 2))
    x = q @ lcoord @ np.swapaxes(q, 1, 2)
    x = 0.5 * (x + np.swapaxes(x, 1, 2))
    a0, m = form.A0, form.M
    resid = -a0.T @ x - x @ a0 + x @ m @ x
    resid = 0.5 * (resid + np.swapaxes(resid, 1, 2))
    eig = np.linalg.eigvalsh(resid)
    # Lcoord = g⁻¹ has singular values 1/sv: count those above tol.rank times the largest
    rank = np.count_nonzero(sv_min[:, None] > tol.rank * sv, axis=1)

    r_max = np.abs(resid).max(axis=(1, 2))
    scale = _ric_scale(form, x)
    gate = FAMILY_RESIDUAL_RTOL * scale
    if np.any(r_max > gate):
        worst = int(np.argmax(r_max / gate))
        raise RiccatiError(
            f"family member residual {r_max[worst]:.3e} exceeds {gate[worst]:.3e}"
        )

    verdicts = zip(eig[:, 0].tolist(), eig[:, -1].tolist(), (tol.definiteness * scale).tolist())
    return [
        AriSolution(
            X=xj, Lcoord=lj, block_set=block_set, rank=rj, residual=rsj,
            residual_verdict=verdict_from_extremes(lo, hi, cut), eigenvalues=eigenvalues,
        )
        for (block_set, eigenvalues), xj, lj, rj, rsj, (lo, hi, cut) in zip(
            supports, x, lcoord, rank.tolist(), resid, verdicts)
    ]


def _check_direct_route(form, split, eligible, eqn, members, tol):
    """Compare the batch against reduce + full_rank_simplified_solution on
    every single block and on the maximal set: presence must agree and X
    must agree to ``DIRECT_ROUTE_RTOL``. Only X is compared, so the direct
    solutions' residuals, verdicts and ranks are never built."""
    built = {sol.block_set: sol for sol in members}
    checks = [((i,), None) for i in eligible]
    if eqn is not None and len(eqn.block_set) > 1:
        checks.append((eqn.block_set, eqn))
    for block_set, reduced in checks:
        try:
            if reduced is None:
                reduced = reduce(form, split, block_set, tol)
            direct = reduced.Lk @ _gramian_inverse(reduced, tol) @ reduced.Lk.T
        except _NO_SOLUTION:
            direct = None
        ours = built.get(block_set)
        if (direct is None) != (ours is None):
            raise RiccatiError(
                f"family and direct route disagree on whether blocks "
                f"{block_set} carry a solution"
            )
        if direct is None:
            continue
        gap = float(np.abs(direct - ours.X).max())
        if gap > DIRECT_ROUTE_RTOL * max(1.0, float(np.abs(direct).max())):
            raise RiccatiError(
                f"family member for blocks {block_set} disagrees with the "
                f"direct solution: gap {gap:.3e}"
            )


# ---------------------------------------------------------------------------
# degenerate axis blocks


@dataclass(frozen=True)
class DegenerateOutcome:
    """Classification of one axis block.

    ``kind`` is ``trivial-only`` (controllable: only X = 0 is feasible on
    the block) or ``free-family`` (uncontrollable: every multiple of
    ``generator`` solves the equation exactly). Generators have unit
    Frobenius norm.
    """

    kind: str
    generator: Optional[np.ndarray] = None


def _uncontrollable_zero_directions(form, tol):
    """Orthonormal kernel of the stacked map [A0ᵀ; Bᵀ]: directions v with
    A0ᵀ v = 0 and Bᵀ v = 0."""
    stacked = np.vstack([form.A0.T, form.problem.B.T])
    _, sv, vt = np.linalg.svd(stacked)  # n singular values: the stack has n + m rows
    return list(vt[~_full_rank(sv, sv[0], tol.rank)])


def _imaginary_pair_generator(eqn):
    """Nonzero symmetric 2x2 coordinate solving Dk L + L Dkᵀ = 0.

    In the basis where Dk is the rotation [[0, mu], [-mu, 0]] this is a
    multiple of the identity; for a general 2x2 Schur block the kernel
    direction is found in the symmetric coordinates (p, q, r).
    """
    d = eqn.Dk
    # action of L -> D L + L D^T on [[p, q], [q, r]], rows = entries (11, 12, 22)
    a, b = d[0, 0], d[0, 1]
    c, e = d[1, 0], d[1, 1]
    mat = np.array(
        [
            [2 * a, 2 * b, 0.0],
            [c, a + e, b],
            [0.0, 2 * c, 2 * e],
        ]
    )
    _, _, vt = np.linalg.svd(mat)
    p, q, r = vt[-1]
    lcoord = np.array([[p, q], [q, r]])
    if np.trace(lcoord) < 0:
        lcoord = -lcoord
    return lcoord


def degenerate_classify(
    form: HomogeneousForm,
    split: SpectralSplit,
    tol: Tolerances = DEFAULT,
):
    """Outcome of every axis block: trivial-only or a free solution ray.

    Controllable axis blocks admit no nonzero feasible coordinate.
    Uncontrollable ones generate exact equation solutions for every
    scalar multiple of the returned generator: ``v vᵀ`` for a zero
    eigenvalue, the identity coordinate on the invariant plane for a
    purely imaginary pair.

    Uncontrollable zero blocks that share an eigenvalue take the
    directions of the kernel of ``[A0ᵀ; Bᵀ]``, one each; when a Jordan
    chain leaves fewer directions than blocks, the surplus blocks get no
    outcome, so the free-family generators are distinct and as many as
    the kernel's dimension.

    Returns
    -------
    list of (SpectralBlock, DegenerateOutcome)
    """
    outcomes = []
    zero_dirs = None
    zero_used = 0
    for i, blk in enumerate(split.blocks):
        if blk.half_plane != AXIS:
            continue
        if blk.controllable:
            outcomes.append((blk, DegenerateOutcome(kind="trivial-only")))
            continue
        if blk.size == 1:
            try:
                eqn = reduce(form, split, [i], tol)
                v = eqn.Lk[:, 0]
            except DegenerateSpectrum:
                if zero_dirs is None:
                    zero_dirs = _uncontrollable_zero_directions(form, tol)
                if not zero_dirs:
                    raise
                if zero_used == len(zero_dirs):
                    continue  # a Jordan chain: its direction is already out
                v = zero_dirs[zero_used]
                zero_used += 1
            gen = np.outer(v, v)
        else:
            eqn = reduce(form, split, [i], tol)
            lcoord = _imaginary_pair_generator(eqn)
            gen = eqn.Lk @ lcoord @ eqn.Lk.T
        gen = 0.5 * (gen + gen.T)
        gen /= np.linalg.norm(gen)
        resid = float(np.abs(ric_residual(form, gen)).max())
        if resid > GENERATOR_RESIDUAL_RTOL * max(1.0, form.a0_norm):
            raise RiccatiError(
                f"free-family generator for block {i} has residual {resid:.3e}"
            )
        outcomes.append((blk, DegenerateOutcome(kind="free-family", generator=gen)))
    return outcomes
