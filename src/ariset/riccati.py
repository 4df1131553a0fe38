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
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, count
from typing import NamedTuple, Optional

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
    _UNIT,
    _check_nonsingular,
    _full_rank,
    _gamma,
    _norm2,
    _row_eigenvalues,
    _select_leading,
    _selection_gap,
    _separation_refusals,
    _solve_quasi_triangular,
    as_matrix,
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
    "SolutionFamily",
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

# Residual gate for the ray G (unit Frobenius norm) of an uncontrollable
# block at eigenvalue λ, Re λ := 0 on axis blocks: |Ric(G) + 2Re(λ)G|_max
# relative to max(1, ||A0||₂).
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
        return _norm2(self.A0)


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


@dataclass(frozen=True, eq=False)
class AriSolution:
    """A symmetric solution X of Ric(X) ≤ 0 with its support certificate.

    ``X = L · Lcoord · Lᵀ`` where ``L`` is an orthonormal basis of the
    support, the invariant subspace of the generating block set: the
    reduced basis ``Lk`` for a solution built from a
    :class:`SimplifiedEquation`, and ``L'_S R⁻¹`` for a
    :func:`schur_family` member, from the R factor of its cluster bases
    ``L'_S`` (orthonormal to rounding). A family member is built when it
    is first read from its :class:`SolutionFamily`, with ``X`` and
    ``residual`` as views into the family's stacks. Bases of one support
    differ by an orthogonal factor, and so do their ``Lcoord``; ``X`` and
    ``rank`` do not depend on the basis. Solutions compare equal only to
    themselves, so a family answers ``index``, ``count`` and ``in`` by
    identity. ``residual`` is Ric(X), and ``residual_cut`` the cutoff
    of its sign classification: ``tol.definiteness`` times the size of Ric's terms,
    max(1, |A0|_max |X|_max, |M|_max |X|²_max). ``residual_verdict``, that
    classification (never positive for an emitted solution), is computed
    from ``residual`` and ``residual_cut`` on first read and then kept; a
    family member reads its residual's extreme eigenvalues from one
    ``eigvalsh`` over its family's residual stack, taken when the first
    member's verdict is read (a copy made by ``dataclasses.replace``
    computes its own).
    ``certificate``, when present, summarizes strictness on the support
    subspace.
    """

    X: np.ndarray
    Lcoord: np.ndarray
    block_set: tuple
    rank: int
    residual: np.ndarray
    residual_cut: float
    eigenvalues: tuple = ()
    certificate: object = None
    # (_ResidualExtremes, row) of a SolutionFamily member, whose residual
    # is that row of the family's stack; not a field, so copies made by
    # dataclasses.replace and asdict leave it out
    _stacked = None

    @cached_property
    def residual_verdict(self):
        if self._stacked is None:
            eig = np.linalg.eigvalsh(self.residual)
            lo, hi = float(eig[0]), float(eig[-1])
        else:
            extremes, row = self._stacked
            lo, hi = extremes.rows[row]
        return verdict_from_extremes(lo, hi, self.residual_cut)


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
    axis_abs = tol.axis * _norm2(ham)
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


def reduce(form: HomogeneousForm, split: SpectralSplit, block_set):
    """Restrict the homogeneous problem to selected Schur blocks.

    The Schur form is reordered so the selected blocks (ascending) occupy
    the leading positions; the leading columns then span an exactly
    invariant subspace and carry the reduced data (Dk, Mk, Lk).

    Raises
    ------
    DegenerateSpectrum
        The selection is not a union of eigenvalue clusters
        (``SpectralBlock.cluster``), so its invariant subspace is not well
        defined (``gap`` is the distance to the nearest unselected
        eigenvalue), or a required block swap fails.
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
    clusters = {split.blocks[i].cluster for i in selected}
    if sum(blk.cluster in clusters for blk in split.blocks) > len(selected):
        eigs = np.array([lam for blk in split.blocks for lam in blk.eigenvalues])
        gap = _selection_gap(eigs, cols)
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


def _solution_from_coordinates(eqn, lcoord, tol, certificate=None):
    # lcoord inverts a matrix that passed _full_rank, so its rank is its order
    x = eqn.Lk @ lcoord @ eqn.Lk.T
    x = 0.5 * (x + x.T)
    return AriSolution(
        X=x,
        Lcoord=lcoord,
        block_set=eqn.block_set,
        rank=len(lcoord),
        residual=ric_residual(eqn.form, x),
        residual_cut=tol.definiteness * float(_ric_scale(eqn.form, x)),
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
        residual_cut=tol.definiteness,  # Ric's terms have size max(1, 0) at X = 0
        eigenvalues=(),
    )


# ---------------------------------------------------------------------------
# the Schur-complement family


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

    The clash table has applied the kernel's separation test to each pair
    at the pair's own scale, so every call here skips it (a union's larger
    ρ would refuse pairs the table accepts). With no clash, the whole of
    Y is one kernel call. Otherwise, or if ``dtrsyl`` has to perturb that
    call, cluster u's row of Y, against every non-clashing cluster at or
    after it, is one call; if ``dtrsyl`` still has to perturb a row, that
    row is solved pair by pair, and a pair it refuses is marked in
    ``clash``.
    """
    if not clash.any():
        try:
            y = _solve_quasi_triangular(lam, lam, c, trana="T", sep_tol=0.0)
            return 0.5 * (y + y.T)
        except SingularSylvester:
            pass
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


class _Members(NamedTuple):
    """The present members of a family over ``eqn``, one row each, in the
    order they were computed."""

    x: np.ndarray  # (N, n, n) stack of X
    residual: np.ndarray  # (N, n, n) stack of Ric(X)
    cut: np.ndarray  # (N,) residual cuts
    rank: np.ndarray  # (N,)
    lcoords: list  # Lcoord batches of equal column count, in row order
    block_ids: np.ndarray  # eqn.block_set
    block_rows: np.ndarray  # (N, len(block_ids)) membership of the blocks
    eigenvalues: np.ndarray  # eqn.eigenvalues as an object array
    col_rows: np.ndarray  # (N, eqn.k) membership of the columns of Lk
    order: np.ndarray  # the rows sorted by (rank, block_set)


class _ResidualExtremes:
    """The smallest and largest eigenvalue of every residual of a stack,
    from one ``eigvalsh`` over the whole stack on first read. Members hold
    this rather than their family, so no member refers back to it."""

    def __init__(self, residual):
        self._residual = residual

    @cached_property
    def rows(self):
        eig = np.linalg.eigvalsh(self._residual)
        return list(zip(eig[:, 0].tolist(), eig[:, -1].tolist()))


class SolutionFamily(Sequence):
    """The equation solutions of :func:`schur_family`: an immutable
    sequence of :class:`AriSolution`, sorted by ``(rank, block_set)``.

    Member 0 is the zero solution. The others stay in the stacked arrays
    the family was computed in (X, Ric(X), residual cuts, ranks, Lcoord
    and boolean rows of block and column membership), and a member's
    :class:`AriSolution` is built on its first read, by index, slice or
    iteration, and then kept, so ``family[i] is family[i]``. Its ``X``
    and ``residual`` are views into the stacks. The Python fields of all
    members (the ``block_set`` and ``eigenvalues`` tuples, ranks and
    cuts) are built together, in one pass over the rows, on the first
    read of any member but the zero solution, and the extreme eigenvalues
    of all residuals, for ``residual_verdict``, in one stacked ``eigvalsh``
    on the first read of any member's verdict. A slice returns a list.
    """

    def __init__(self, form, tol, members=None):
        self._form, self._tol = form, tol
        self._members = members
        self._built = [None] * (1 + (0 if members is None else len(members.x)))

    def __len__(self):
        return len(self._built)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._member(j) for j in range(*i.indices(len(self)))]
        j = operator.index(i)
        if not -len(self) <= j < len(self):
            raise IndexError(f"family member {i} out of range for {len(self)} members")
        return self._member(j % len(self))

    def __iter__(self):
        return map(self._member, range(len(self)))

    def _member(self, i):
        sol = self._built[i]
        if sol is None:
            sol = self._built[i] = self._build(i)
        return sol

    def _build(self, i):
        if i == 0:
            return zero_solution(self._form, self._tol)
        order, lcoords, block_sets, ranks, cuts, eigenvalues = self._python_fields
        p = order[i - 1]
        m = self._members
        sol = AriSolution(m.x[p], lcoords[p], block_sets[p], ranks[p], m.residual[p],
                          cuts[p], eigenvalues[p])
        object.__setattr__(sol, "_stacked", (self._extremes, p))
        return sol

    @cached_property
    def _extremes(self):
        return _ResidualExtremes(self._members.residual)

    @cached_property
    def _python_fields(self):
        """Per row: the sort order and Lcoord, block_set, rank, residual
        cut and eigenvalues as the Python objects a member holds."""
        m = self._members
        return (m.order.tolist(), list(chain.from_iterable(m.lcoords)),
                _rows_as_tuples(m.block_ids, m.block_rows), m.rank.tolist(),
                m.cut.tolist(), _rows_as_tuples(m.eigenvalues, m.col_rows))


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
    ``Λ`` (``Y' Λ + Λᵀ Y' = L'ᵀ M L'``) is then one kernel call when no
    pair clashes, and otherwise one call per cluster against every
    non-clashing cluster at or after it.
    The member over a subset S is ``X_S = L'_S Y'[S,S]⁻¹ L'_Sᵀ``, the
    Schur complement of the maximal solution onto S. Members' coordinates
    are built in stacked batches of equal column count, fewest columns
    first; only the R of ``L'_S = QR`` is factored, the Gramian moved to
    the basis ``Q = L'_S R⁻¹`` as ``R⁻ᵀ Y'[S,S] R⁻¹`` with one batched
    inverse of R. There the Gramian's rank test reads as in
    :func:`full_rank_simplified_solution`, on the moduli of its
    eigenvalues (its singular values, as it is symmetric), and a present
    member's ``rank`` is its column count. Each batch's Gramians are
    inverted at once, and the test is decided for every union in one pass
    of :func:`_certified_full_rank` from the inverse's residual; only the
    unions it cannot certify take ``eigvalsh`` (none on the bench's
    families). A cluster whose columns of
    ``Y'`` are small enough to make the Gramian of every union holding it
    fail that test (:func:`_dead_units`; the clusters B misses) is left
    out with its unions before anything is factored. Every present
    member's X then goes into one stack, and one stacked pass computes
    all residuals Ric(X) and applies the residual gate. The members stay
    in those stacks: each member's :class:`AriSolution` is built when it
    is first read, and the ``residual_verdict`` of all of them, from one
    stacked ``eigvalsh``, when the first is read.

    A subset is absent when it contains an uncontrollable block (its
    Gramian is singular), both blocks of a mirrored pair λ, −λ (their
    Sylvester solve is singular), part but not all of a
    ``SpectralBlock.cluster`` of ``split``, or a block of a cluster that
    holds an axis block. Axis blocks
    never participate: controllable ones only contribute the zero
    coordinate and uncontrollable ones generate the infinite families
    reported by :func:`degenerate_classify`.

    Verification: ``A0ᵀ L' = L' Λ`` is checked once, every member's
    residual must satisfy ``|Ric(X)|_max <= FAMILY_RESIDUAL_RTOL ·
    max(1, |A0|_max |X|_max, |M|_max |X|²_max)``, and the direct route
    (:func:`reduce` + :func:`full_rank_simplified_solution`) must agree
    on presence and on X to ``DIRECT_ROUTE_RTOL`` for every single block
    and for the maximal set. All of it runs before this returns. Any
    failure raises :class:`RiccatiError`; two clusters the reordering
    cannot separate raise :class:`DegenerateSpectrum`.

    Returns
    -------
    SolutionFamily
        A sequence of :class:`AriSolution` sorted by (rank, block_set),
        with the zero solution first; members are built when read.
    """
    eligible = [i for i, b in enumerate(split.blocks) if b.half_plane != AXIS]
    if not eligible:
        return SolutionFamily(form, tol)

    at_axis = {b.cluster for b in split.blocks if b.half_plane == AXIS}
    live = [i for i in eligible if split.blocks[i].cluster not in at_axis]
    members = eqn = None
    if live:
        eqn = reduce(form, split, live)
        members = _gramian_members(eqn, tol)
    _check_direct_route(form, split, eligible, eqn, members, tol)
    return SolutionFamily(form, tol, members)


def _gramian_members(eqn, tol):
    """Every present member over unions of the clusters in ``eqn``, as a
    :class:`_Members`."""
    form = eqn.form
    sizes = [blk.size for blk in eqn.blocks]
    units, unit_of_block = np.unique([blk.cluster for blk in eqn.blocks], return_inverse=True)
    unit_of_col = np.repeat(unit_of_block, sizes)
    cols = [np.flatnonzero(unit_of_col == u) for u in range(len(units))]

    lp, lam = _cluster_bases(eqn, cols)
    _check_invariant(form, lp, lam, RiccatiError,
                     "cluster basis is not invariant: residual {resid:.3e}")

    c = lp.T @ form.M @ lp
    c = 0.5 * (c + c.T)
    clash = _clash_table(lam, unit_of_col)
    y = _cluster_gramian(lam, c, cols, clash)

    # every union of non-clashing units that holds no dead unit, one row
    # each of a membership table
    masks = np.arange(1, 2 ** len(units))
    pick = ((masks[:, None] >> np.arange(len(units))) & 1).astype(bool)
    dead = _dead_units(lp, y, unit_of_col, tol.rank)
    pick = pick[~np.any((pick @ clash) & pick, axis=1) & ~(pick @ dead)]
    if not len(pick):
        return None
    col_pick = pick[:, unit_of_col]
    ncols = col_pick.sum(axis=1)
    levels, stacks = [], []
    for k in np.unique(ncols):
        rows = np.flatnonzero(ncols == k)
        idx = np.nonzero(col_pick[rows])[1].reshape(len(rows), k)
        levels.append(rows)
        stacks.append((lp[:, idx].transpose(1, 0, 2), y[idx[:, :, None], idx[:, None, :]]))
    batches = _batch_coordinates(stacks, tol)
    present = np.concatenate([rows[ok] for rows, (ok, _, _) in zip(levels, batches)])

    # every member's X = Q g⁻¹ Qᵀ in its slice of one stack
    x = np.empty((len(present), len(lp), len(lp)))
    start = 0
    for _, q, lcoord in batches:
        np.matmul(q @ lcoord, np.swapaxes(q, 1, 2), out=x[start:start + len(q)])
        start += len(q)
    x += np.swapaxes(x, 1, 2)  # numpy buffers the overlapping operand
    x *= 0.5
    resid, scale = _gated_residuals(form, x)

    block_ids = np.array(eqn.block_set)
    block_rows = pick[present][:, unit_of_block]
    rank = ncols[present]
    # sort by (rank, block_set) as tuples compare: each row's blocks
    # ascending, then padded with −1 so that a prefix sorts first
    past = int(block_ids.max()) + 1
    padded = np.sort(np.where(block_rows, block_ids, past), axis=1)
    padded[padded == past] = -1
    order = np.lexsort([*padded.T[::-1], rank])
    return _Members(x, resid, tol.definiteness * scale, rank,
                    [lcoord for _, _, lcoord in batches], block_ids, block_rows,
                    np.array(eqn.eigenvalues, dtype=object), col_pick[present], order)


def _dead_units(lp, y, unit_of_col, rank_tol):
    """The units u for which every union S holding u fails the rank test:
    ``‖Y'[:, u]‖_F <= ½ · rank_tol · σ_min(L')²``.

    Let z be a unit vector on u's columns and ``L'_S = QR``. At the unit
    vector ``Rz / ‖Rz‖``, the union's Gramian ``g = R⁻ᵀ Y'_S R⁻¹`` gives
    ``σ_min(g) <= ‖Y'_S z‖ / (σ_min(R) ‖Rz‖) <= ‖Y'[:, u]‖_F / σ_min(L')²``,
    as ``σ_min(R) = σ_min(L'_S) >= σ_min(L')`` and ``‖Rz‖ = ‖L'_S z‖``. So
    ``σ_min(g) <= ½ · rank_tol`` and S fails the test. The half leaves
    room for the rounding of g. A unit that B misses has columns of Y' at
    the rounding level and is dead. Failing the rank test on its own does
    not make a unit dead: its union with a unit of the other half-plane
    can still pass.
    """
    norm2 = np.bincount(unit_of_col, weights=np.einsum("ij,ij->j", y, y))
    cut = 0.5 * rank_tol
    if not (norm2 <= cut * cut).any():  # σ_min(L') <= 1: its columns have unit norm
        return np.zeros(len(norm2), dtype=bool)
    cut *= np.linalg.svd(lp, compute_uv=False)[-1] ** 2
    return norm2 <= cut * cut


def _batch_coordinates(stacks, tol):
    """Coordinates of the members over every level of stacked supports:
    for each ``(ls, ys)`` of ``stacks``, supports ``ls`` (N×n×k) with
    Gramians ``ys`` (N×k×k), an ``(ok, q, lcoord)``. ``ok`` marks the
    supports whose Gramian is nonsingular; ``q`` and ``lcoord`` hold those
    members only.

    With ``ls = QR``, only R is factored; the Gramian in the basis Q is
    ``g = R⁻ᵀ Y R⁻¹``: one batched inverse of the triangular R and two
    stacked products. The same R⁻¹ gives the present members' basis
    ``Q = L R⁻¹``. The member is ``X = Q g⁻¹ Qᵀ`` with ``Lcoord = g⁻¹``,
    inverted for the whole level at once. The rank rule σ_min(g) >
    tol.rank · max(1, σ_max(g)), on the moduli of the eigenvalues that
    ``eigvalsh`` computes, is first decided for the unions of every level
    in one pass of :func:`_certified_full_rank`, from the Frobenius norms
    of g, g⁻¹ and I − g·g⁻¹; only the unions it does not certify, and
    every union of a level where some g is exactly singular (``inv``
    raises), go to ``eigvalsh``. So every verdict is the rule's.
    A present member's rank is k: ``ok`` asks σ_min(g) > tol.rank ·
    max(1, σ_max(g)), so every singular value of g⁻¹ exceeds tol.rank
    times the largest."""
    levels, widths, squares = [], [], []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf and nan fail the certificate
        for ls, ys in stacks:
            r_inv = np.linalg.inv(np.linalg.qr(ls, mode="r"))  # serves both sides of R⁻ᵀ Y R⁻¹
            g = np.swapaxes(r_inv, 1, 2) @ ys @ r_inv
            g = 0.5 * (g + np.swapaxes(g, 1, 2))
            count, k = g.shape[:2]
            try:
                z = np.linalg.inv(g)
            except np.linalg.LinAlgError:
                z = None
                squares.append(np.full((3, count), np.nan))
            else:
                resid = g @ z
                resid.reshape(count, k * k)[:, :: k + 1] -= 1.0
                squares.append([np.einsum("nij,nij->n", a, a) for a in (g, z, resid)])
            levels.append((ls, r_inv, g, z))
            widths.append(np.full(count, k))  # each union's column count
        g_fro, z_fro, r_fro = np.sqrt(np.concatenate(squares, axis=1))
        certified = _certified_full_rank(np.concatenate(widths), g_fro, z_fro, r_fro, tol.rank)
    out = []
    ends = np.cumsum([len(w) for w in widths])[:-1]
    for (ls, r_inv, g, z), ok in zip(levels, np.split(certified, ends)):
        undecided = ~ok
        if undecided.any():
            sv = np.abs(np.linalg.eigvalsh(g[undecided]))  # g is symmetric: its singular values
            ok[undecided] = _full_rank(sv.min(axis=1), sv.max(axis=1), tol.rank)
        if not ok.all():
            ls, r_inv, g = ls[ok], r_inv[ok], g[ok]
            z = None if z is None else z[ok]
        if z is None:
            z = np.linalg.inv(g)
        out.append((ok, ls @ r_inv, 0.5 * (z + np.swapaxes(z, 1, 2))))
    return out


# Range of the computed ‖g‖_F and ‖g⁻¹‖_F over which the Gramian rank
# certificate runs: within it no square of a norm and no product in
# g·g⁻¹ overflows, and gradual underflow errs far below the certificate's
# margins. Unions outside it go to eigvalsh.
_CERTIFIED_RANGE = (2.0 ** -500, 2.0 ** 500)


def _certified_full_rank(k, g_fro, z_fro, r_fro, rank_tol):
    """The unions whose Gramian is certified to pass the rank rule, from
    the column counts ``k`` and the computed Frobenius norms of g, of
    ``z = inv(g)`` and of the residual ``D = fl(g·z) − I`` (arrays, one
    entry per union; nan where z is missing).

    Claim: let ĝ, ẑ, r̂ be those norms, u the unit roundoff, ``ρ =
    4γ_{k²+8}``, ``η = (r̂ + γ_k·ĝ·ẑ)(1 + ρ) + k·2⁻⁵³⁶`` and ``e =
    k²·eps·ĝ(1 + ρ)``. If ĝ and ẑ lie in :data:`_CERTIFIED_RANGE`,
    ``η < 1`` and ``(1 − η)/(ẑ(1 + ρ)) − e > rank_tol · max(1, ĝ(1 + ρ)
    + e)(1 + ρ)``, then the moduli σ̂ of the eigenvalues that LAPACK's
    ``eigvalsh`` computes for g satisfy ``σ̂_min > rank_tol · max(1,
    σ̂_max)``, the rule of :func:`_batch_coordinates`.

    1. Norms: a computed Frobenius norm is a square root of a sum of k²
       rounded squares, so the true norm is at most ``(1 + γ_{k²+2})``
       times it. Within the range the squares of ‖g‖ and ‖z‖ neither
       overflow nor lose more than ``k²·2⁻⁷⁴ < u`` (k < 1000) to
       underflow; the squares of D lose at most ``k²·2⁻¹⁰⁷⁴`` in all,
       ``k·2⁻⁵³⁷`` in its norm. Overflow gives inf, and inf or nan fails
       every comparison, so no union is certified from it.
    2. Residual: the product ``C = fl(g·z)`` satisfies ``|C − gz| <=
       γ_k|g||z|`` in any order of summation, plus at most ``k·2⁻¹⁰⁷⁵``
       per entry from underflow, and ``D = fl(C − I)`` errs by at most u
       relative. So the exact ``E = I − gz`` has ``‖E‖₂ <= ‖E‖_F <=
       ‖D‖_F/(1 − u) + γ_k‖g‖_F‖z‖_F + k²·2⁻¹⁰⁷⁵ <= η``: ρ covers the
       factors of step 1, the ``1/(1 − u)`` and the rounding of the
       scalars here, a few operations each.
    3. Inverse: as ``‖E‖₂ < 1``, ``gz = I − E`` is nonsingular, so g is,
       and ``g⁻¹ = z(I − E)⁻¹`` gives ``‖g⁻¹‖₂ <= ‖z‖₂/(1 − η)``, so
       ``σ_min(g) >= (1 − η)/(ẑ(1 + ρ))`` (Higham, *Accuracy and
       Stability*, ch. 14).
    4. Eigenvalues: ``eigvalsh`` returns the eigenvalues of some
       ``g + δg`` with ``‖δg‖₂ <= p(k)·eps·‖g‖₂``, p(k) a modest function
       of the size (LAPACK Users' Guide, §4.7), taken here as k², as
       :func:`systems._certificate_shift` takes n(n + m). By Weyl,
       ``|λ̂_i − λ_i| <= e``, so ``σ̂_min >= σ_min(g) − e`` and ``σ̂_max <=
       ‖g‖₂ + e <= ĝ(1 + ρ) + e``; the last factor ``1 + ρ`` covers the
       rounding of the comparison. Hence the rule holds.

    Every union this does not certify goes to the rule itself.
    """
    kk = k * k
    slack = 1.0 + 4.0 * _gamma(kk + 8)
    eta = (r_fro + _gamma(k) * g_fro * z_fro) * slack + k * 2.0 ** -536
    e = kk * (2.0 * _UNIT) * g_fro * slack
    low, high = _CERTIFIED_RANGE
    in_range = (g_fro >= low) & (g_fro <= high) & (z_fro >= low) & (z_fro <= high)
    lower = (1.0 - eta) / (z_fro * slack) - e
    upper = rank_tol * np.maximum(1.0, g_fro * slack + e) * slack
    return in_range & (eta < 1.0) & (lower > upper)


def _gated_residuals(form, x):
    """Ric(X) for a stack ``x`` of members and the size of Ric's terms for
    each; raises :class:`RiccatiError` when some member's |Ric(X)|_max
    exceeds ``FAMILY_RESIDUAL_RTOL`` times that size."""
    a0, m = form.A0, form.M
    resid = -a0.T @ x - x @ a0 + x @ m @ x
    resid = 0.5 * (resid + np.swapaxes(resid, 1, 2))
    r_max = np.abs(resid).max(axis=(1, 2))
    scale = _ric_scale(form, x)
    gate = FAMILY_RESIDUAL_RTOL * scale
    if np.any(r_max > gate):
        worst = int(np.argmax(r_max / gate))
        raise RiccatiError(
            f"family member residual {r_max[worst]:.3e} exceeds {gate[worst]:.3e}"
        )
    return resid, scale


def _rows_as_tuples(values, table):
    """``tuple(values[row])`` for every boolean row of ``table``."""
    flat = values[np.nonzero(table)[1]].tolist()
    ends = np.cumsum(table.sum(axis=1)).tolist()
    return [tuple(flat[i:j]) for i, j in zip([0] + ends, ends)]


def _check_direct_route(form, split, eligible, eqn, members, tol):
    """Compare the batch against reduce + full_rank_simplified_solution on
    every single block and on the maximal set: presence must agree and X
    must agree to ``DIRECT_ROUTE_RTOL``. Only X is compared, read from the
    rows of ``members`` with one block or all of them, so neither route
    builds an :class:`AriSolution`."""
    built = {}
    if members is not None:
        count = members.block_rows.sum(axis=1)
        for p in np.flatnonzero((count == 1) | (count == len(members.block_ids))):
            built[tuple(members.block_ids[members.block_rows[p]].tolist())] = members.x[p]
    checks = [((i,), None) for i in eligible]
    if eqn is not None and len(eqn.block_set) > 1:
        checks.append((eqn.block_set, eqn))
    for block_set, reduced in checks:
        try:
            if reduced is None:
                reduced = reduce(form, split, block_set)
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
        gap = float(np.abs(direct - ours).max())
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


def _uncontrollable_directions(form, lam, tol):
    """Orthonormal kernel of the stacked map [A0ᵀ − λI; Bᵀ]: directions v
    with A0ᵀ v = λ v and Bᵀ v = 0, complex when ``lam`` is (each up to
    conjugation, which leaves its generator unchanged)."""
    shifted = form.A0.T - lam * np.eye(form.problem.n)  # A0ᵀ itself at lam = 0.0
    stacked = np.vstack([shifted, form.problem.B.T])
    _, sv, vt = np.linalg.svd(stacked)  # n singular values: the stack has n + m rows
    return list(vt[~_full_rank(sv, sv[0], tol.rank)])


def _uncontrollable_rays(form, split, indices, tol):
    """The ray of every uncontrollable block in ``indices``, as
    ``{i: (G, first)}``.

    A direction ``v = x + iy`` with ``A0ᵀv = λv`` and ``Bᵀv = 0`` gives
    ``G = Re(vvᴴ) = xxᵀ + yyᵀ`` with ``BᵀG = 0`` and
    ``A0ᵀG + GA0 = 2Re(λ)G``, so ``Ric(αG) = −2αRe(λ)G`` for every real α.
    A block alone in its cluster reads ``v = Lk·w`` from :func:`reduce`,
    with ``w`` the eigenvector of its ``Dk`` (1, or ``(d₁₂, λ − d₁₁)`` on
    a pair). The blocks of a shared cluster have no invariant subspace of
    their own: they take the directions of the kernel of
    ``[A0ᵀ − λI; Bᵀ]`` at the cluster's first block in turn, wrapping
    around when a Jordan chain or a copy that B reaches leaves fewer
    directions than blocks; ``first`` is false for a block that repeats
    a direction. Axis blocks take ``Re λ := 0``. Every G has unit
    Frobenius norm.

    Raises
    ------
    DegenerateSpectrum
        A block shares its cluster but the kernel is empty.
    RiccatiError
        Some G misses ``|Ric(G) + 2Re(λ)G|_max <= GENERATOR_RESIDUAL_RTOL ·
        max(1, ||A0||₂)``.
    """
    cluster_size = Counter(blk.cluster for blk in split.blocks)
    shared = {}  # cluster -> (λ, its kernel directions, counter of blocks served)
    rays = {}
    for i in indices:
        blk = split.blocks[i]
        if cluster_size[blk.cluster] > 1:
            if blk.cluster not in shared:
                lam = blk.eigenvalues[0]
                if blk.half_plane == AXIS:
                    lam = complex(0.0, lam.imag)
                dirs = _uncontrollable_directions(form, lam if lam.imag else lam.real, tol)
                if not dirs:
                    raise DegenerateSpectrum(f"uncontrollable block {i} shares its cluster "
                                             "but [A0ᵀ − λI; Bᵀ] has no kernel")
                shared[blk.cluster] = (lam, dirs, count())
            lam, dirs, turns = shared[blk.cluster]
            turn = next(turns)
            v, first = dirs[turn % len(dirs)], turn < len(dirs)
        else:
            eqn = reduce(form, split, [i])
            d = eqn.Dk
            lam = _row_eigenvalues(d)[0]
            v = eqn.Lk[:, 0] if blk.size == 1 else eqn.Lk @ np.array([d[0, 1], lam - d[0, 0]])
            first = True
        g = np.outer(v.real, v.real)
        if np.iscomplexobj(v):
            g += np.outer(v.imag, v.imag)
        g = 0.5 * (g + g.T)
        g /= np.linalg.norm(g)
        growth = 0.0 if blk.half_plane == AXIS else 2.0 * lam.real
        resid = float(np.abs(ric_residual(form, g) + growth * g).max())
        if resid > GENERATOR_RESIDUAL_RTOL * max(1.0, form.a0_norm):
            raise RiccatiError(f"ray of block {i} has residual {resid:.3e}")
        rays[i] = (g, first)
    return rays


def degenerate_classify(
    form: HomogeneousForm,
    split: SpectralSplit,
    tol: Tolerances = DEFAULT,
):
    """Outcome of every axis block: trivial-only or a free solution ray.

    Controllable axis blocks admit no nonzero feasible coordinate.
    Uncontrollable ones generate exact equation solutions for every
    scalar multiple of their ray G (:func:`_uncontrollable_rays`): ``v vᵀ``
    for a zero eigenvalue, ``x xᵀ + y yᵀ`` for ``v = x + iy`` at a purely
    imaginary pair. When a Jordan chain or a copy that B reaches leaves a
    cluster fewer kernel directions than uncontrollable blocks, the
    surplus blocks get no outcome, so each cluster's generators are
    distinct and as many as the kernel's dimension.

    Returns
    -------
    list of (SpectralBlock, DegenerateOutcome)
    """
    unc = split.indices(half_plane=AXIS, controllable=False)
    rays = _uncontrollable_rays(form, split, unc, tol)
    outcomes = []
    for i in split.indices(half_plane=AXIS):
        blk = split.blocks[i]
        if blk.controllable:
            outcomes.append((blk, DegenerateOutcome(kind="trivial-only")))
        elif rays[i][1]:
            outcomes.append((blk, DegenerateOutcome(kind="free-family", generator=rays[i][0])))
    return outcomes
