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
from itertools import accumulate, chain, combinations_with_replacement, count
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
    _certified_full_rank,
    _check_nonsingular,
    _full_rank,
    _Norm2Bracket,
    _row_eigenvalues,
    _select_leading,
    _selection_gap,
    _solve_quasi_triangular,
    _symmetric_inverse,
    as_matrix,
    real_schur_ordered,
    solve_sylvester,  # noqa: F401 (bench/spans.py wraps it at this binding)
    symmetrize,
    verdict_from_extremes,
)
from .systems import AXIS, LHP, RHP, SpectralSplit, _check_same_order, _input_matrix, _plane_of
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

# Gate of every family member on its normwise backward error (Higham,
# *Accuracy and Stability*, ch. 16; J.-G. Sun (1997), Numer. Math. 76:249)
#     η(X) = ‖Ric(X)‖_F / (2‖A0‖_F ‖X‖_F + ‖M‖_F ‖X‖²_F).
# Measured: η is at most 4.4e-15 on the 49,350 members of the benchmark's
# family seeds 1-10 and at most 3.2e-15 on the test suite's members, and
# 4.9e-11 to 3.6e-7 on the wrong member over both clusters of a
# near-Jordan triple that roundoff splits in two: margins of 68x and
# 164x. As |Ric(X)|_max <= ‖Ric(X)‖_F and the denominator is at most
# (2n² + n³) · max(|A0|_max |X|_max, |M|_max |X|²_max), for n <= 31 this
# gate refuses every member with |Ric(X)|_max above 1e-8 times the size
# of Ric's terms, max(1, |A0|_max |X|_max, |M|_max |X|²_max).
FAMILY_BACKWARD_ERROR = 3e-13

# Entries of an X stack per chunk of the family's Ric(X) passes (128 KiB):
# the passes need a few chunk-sized temporaries beside the X stack, so a
# family's working set stays near its X stack and the heap is not grown
# and handed back to the kernel on every large family. Every family of
# up to 7 blocks at n <= 10 fits in one chunk and runs as one pass.
_CHUNK_ENTRIES = 2 ** 14

# Residual gate for the ray G (unit Frobenius norm) of an uncontrollable
# block at eigenvalue λ, Re λ := 0 on axis blocks: |Ric(G) + 2Re(λ)G|_max
# relative to max(1, ||A0||₂).
GENERATOR_RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class RiccatiProblem:
    """The data triple (A, B, Q) of the Riccati equation/inequality.
    Problems compare equal only to themselves and hash by identity."""

    A: np.ndarray
    B: np.ndarray
    Q: Optional[np.ndarray] = None

    def __post_init__(self):
        a = as_matrix(self.A, name="A", square=True)
        n = a.shape[0]
        b = _input_matrix(self.B, n)
        q = np.zeros((n, n)) if self.Q is None else _symmetric_of_order(self.Q, n, "Q")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "Q", q)

    @property
    def n(self):
        return self.A.shape[0]


@dataclass(frozen=True, eq=False)
class HomogeneousForm:
    """A base equation solution K0 and the induced homogeneous data.

    ``A0 = A − BBᵀK0`` is the feedback matrix, ``M = BBᵀ`` the input Gram
    matrix, and ``base_residual`` the max-norm of the equation residual at
    K0 (bounded by the base tolerance at construction). ``a0_norm`` is
    ``||A0||₂``, computed once on first use; the cuts scaled by it are
    decided on its bracket (:class:`linalg._Norm2Bracket`), which reads it
    only for a value in the bracket's window. Forms compare equal only to
    themselves and hash by identity.
    """

    problem: RiccatiProblem
    K0: np.ndarray
    A0: np.ndarray
    M: np.ndarray
    base_residual: float
    kind: str

    @property
    def a0_norm(self):
        return self._a0_scale.exact()

    @cached_property
    def _a0_scale(self):
        return _Norm2Bracket(self.A0)


@dataclass(frozen=True, eq=False)
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
    is first read from its :class:`SolutionFamily`, with ``X`` a view
    into the family's X stack and ``residual`` computed from that X, as
    for any solution. Bases of one support
    differ by an orthogonal factor, and so do their ``Lcoord``; ``X`` and
    ``rank`` do not depend on the basis. Solutions compare equal only to
    themselves, so a family answers ``index``, ``count`` and ``in`` by
    identity. ``residual`` is Ric(X), and ``residual_cut`` the cutoff
    of its sign classification: ``tol.definiteness`` times the size of Ric's terms,
    max(1, |A0|_max |X|_max, |M|_max |X|²_max). ``residual_verdict``, that
    classification (never positive for an emitted solution), is computed
    from one ``eigvalsh`` of ``residual`` on first read and then kept, for
    a family member as for any solution. The fields are all the state a
    solution holds. ``certificate``, when present, summarizes strictness
    on the support subspace.
    """

    X: np.ndarray
    Lcoord: np.ndarray
    block_set: tuple
    rank: int
    residual: np.ndarray
    residual_cut: float
    eigenvalues: tuple = ()
    certificate: object = None

    @cached_property
    def residual_verdict(self):
        eig = np.linalg.eigvalsh(self.residual)
        return verdict_from_extremes(float(eig[0]), float(eig[-1]), self.residual_cut)


def _symmetric_of_order(s, n, name, sym_tol=DEFAULT.sym):
    """:func:`symmetrize` ``s``, raising :class:`InvalidInput` unless it is
    n×n."""
    sm = symmetrize(s, sym_tol=sym_tol, name=name)
    if sm.shape != (n, n):
        raise InvalidInput(f"{name} must be {n}x{n}, got {sm.shape}")
    return sm


def are_residual(problem: RiccatiProblem, k):
    """Residual of the inhomogeneous equation, −AᵀK − KA − Q + KBBᵀK, for
    an n×n K (else :class:`InvalidInput`)."""
    km = _symmetric_of_order(k, problem.n, "K")
    a, b, q = problem.A, problem.B, problem.Q
    r = -a.T @ km - km @ a - q + km @ (b @ (b.T @ km))
    return 0.5 * (r + r.T)


def ric_residual(form: HomogeneousForm, x):
    """Homogeneous residual Ric(X) = −A0ᵀX − XA0 + X M X, symmetrized, for
    an n×n X (else :class:`InvalidInput`)."""
    return _ric(form.A0, form.M, _symmetric_of_order(x, form.problem.n, "X"))


def _ric(a0, m, x):
    """Ric(X) = −A0ᵀX − XA0 + X M X, symmetrized, for one X or a stack."""
    r = -a0.T @ x - x @ a0 + x @ m @ x
    return 0.5 * (r + np.swapaxes(r, -1, -2))


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
    if kind == "given":
        if k0 is None:
            raise InvalidInput('kind="given" requires k0')
        km = _symmetric_of_order(k0, problem.n, "K0", tol.sym)
    elif kind in ("antistabilizing", "stabilizing"):
        km = _hamiltonian_solution(problem, kind, tol)
    else:
        raise InvalidInput(f"unknown base-solution kind: {kind!r}")
    resid = float(np.abs(are_residual(problem, km)).max())
    bound = tol.base * _base_scale(problem)
    if resid > bound:
        if kind == "given":
            raise BaseResidualTooLarge(f"supplied K0 has residual {resid:.3e} > {bound:.3e}")
        raise NoBaseSolution(f"computed base solution fails verification: residual {resid:.3e}")

    m = problem.B @ problem.B.T
    m = 0.5 * (m + m.T)
    a0 = problem.A - m @ km
    return HomogeneousForm(
        problem=problem,
        K0=km,
        A0=a0,
        M=m,
        base_residual=resid,
        kind=kind,
    )


def _hamiltonian_solution(problem, kind, tol):
    """Base solution K, unchecked, from an n-dimensional invariant subspace
    of the Hamiltonian [[A, −BBᵀ], [−Q, −Aᵀ]] of the requested spectral
    class."""
    a, b, q = problem.A, problem.B, problem.Q
    n = problem.n
    ham = np.block([[a, -b @ b.T], [-q, -a.T]])
    plane = _plane_of(_Norm2Bracket(ham), tol.axis)
    # the requested half plane first, then the AXIS band
    rank = {RHP: 0, AXIS: 1, LHP: 2} if kind == "antistabilizing" else {LHP: 0, AXIS: 1, RHP: 2}
    u, _, blocks = real_schur_ordered(ham, lambda lam: rank[plane(lam)])
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
    return 0.5 * (k + k.T)


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
    size = max(1.0, float(np.abs(basis).max()))
    if form._a0_scale.decide(lambda s: resid > INVARIANCE_RTOL * max(1.0, s) * size):
        raise error(message.format(resid=resid))


def _check_split(form, split):
    """Raise :class:`InvalidInput` unless ``split`` is a Schur form of the
    form's ``A0ᵀ``: of its order, and ``A0ᵀ U = U T`` by
    :func:`_check_invariant`; and, when the split records the B its PBH
    tags were computed from, unless that is the form's B. Its tags are
    then read as the form's."""
    _check_same_order(form.A0, "the form", split.T, "the split")
    _check_invariant(form, split.U, split.T, InvalidInput,
                     "the split is not a Schur form of the form's A0ᵀ: "
                     "invariance residual {resid:.3e}")
    if split._tagged_b is not None and not np.array_equal(split._tagged_b, form.problem.B):
        raise InvalidInput("the split's controllability tags were computed for another B "
                           "than the form's")


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
    _check_same_order(form.A0, "the form", split.T, "the split")
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
        residual=_ric(eqn.form.A0, eqn.form.M, x),
        residual_cut=tol.definiteness * float(_ric_scale(eqn.form, x)),
        eigenvalues=eqn.eigenvalues,
        certificate=certificate,
    )


def solve_reduced_gramian(eqn: SimplifiedEquation, c):
    """Solve ``Y Dk + Dkᵀ Y = C`` for a symmetric k×k ``C``: at ``C = Mk``,
    the inverse of the maximal reduced solution. Singular spectra (axis
    blocks, mirrored pairs) raise :class:`SingularSylvester`."""
    y = _solve_quasi_triangular(eqn.Dk, eqn.Dk, c, trana="T")
    return 0.5 * (y + y.T)


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
    y = solve_reduced_gramian(eqn, eqn.Mk)
    lcoord = _symmetric_inverse(y, tol.rank, SingularY,
                                "reduced Gramian is singular (smallest singular value "
                                "{sv_min:.3e}); the selected blocks admit no full-rank solution")
    return _solution_from_coordinates(eqn, lcoord, tol)


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
    eye = np.eye(k)
    for cu in cols:
        t, q = _select_leading(eqn.Dk, eye, cu)
        m = len(cu)
        lp[:, cu] = eqn.Lk @ q[:, :m]
        lam[cu[:, None], cu] = t[:m, :m]
    return lp, lam


def _cluster_gramian(lam, c, cols):
    """Solve ``Y Λ + Λᵀ Y = C`` for a ``Λ`` with no coupling across clusters
    (``cols[u]`` are cluster u's rows). Returns Y and the table of
    clashing cluster pairs, whose blocks of Y stay zero.

    The whole of Y is first one kernel call. Its separation test runs at
    the scale of all of ``Λ``, which is at least each pair's, so a pass
    proves that no pair clashes. If the kernel refuses that call, or
    ``dtrsyl`` has to perturb it, every pair of clusters is one call,
    under the kernel's own test at the pair's scale, and a pair the
    kernel refuses is a clash.
    """
    clash = np.zeros((len(cols), len(cols)), dtype=bool)
    try:
        y = _solve_quasi_triangular(lam, lam, c, trana="T")
        return 0.5 * (y + y.T), clash
    except SingularSylvester:
        pass
    y = np.zeros_like(c)
    for u, v in combinations_with_replacement(range(len(cols)), 2):
        cu, cv = cols[u], cols[v]
        try:
            yuv = _solve_quasi_triangular(lam[np.ix_(cu, cu)], lam[np.ix_(cv, cv)],
                                          c[np.ix_(cu, cv)], trana="T")
        except SingularSylvester:
            clash[u, v] = clash[v, u] = True
            continue
        y[np.ix_(cu, cv)] = yuv
        y[np.ix_(cv, cu)] = yuv.T
    return y, clash


class _Members(NamedTuple):
    """The present members of a family over ``eqn``, one row each, sorted
    by (rank, block_set); a member's rank is its column count."""

    x: np.ndarray  # (N, n, n) stack of X
    residual_max: np.ndarray  # (N,) |Ric(X)|_max
    cut: np.ndarray  # (N,) residual cuts
    lcoords: list  # Lcoord stacks of the levels of equal column count, in row order
    block_ids: np.ndarray  # eqn.block_set
    block_rows: np.ndarray  # (N, len(block_ids)) membership of the blocks
    eigenvalues: np.ndarray  # eqn.eigenvalues as an object array
    col_rows: np.ndarray  # (N, eqn.k) membership of the columns of Lk


class SolutionFamily(Sequence):
    """The equation solutions of :func:`schur_family`: an immutable
    sequence of :class:`AriSolution`, sorted by ``(rank, block_set)``.

    Member 0 is the zero solution. The others stay in the stacked arrays
    the family was computed in, whose rows are already in the family's
    order (X, |Ric(X)|_max, residual cuts, Lcoord and boolean rows of
    block and column membership), and a member's :class:`AriSolution` is
    built on its first read, by index, slice or iteration, and then kept,
    so ``family[i] is family[i]``. Its ``X`` is a view into the X stack;
    its ``residual`` is computed from that X when the member is built, as
    the family keeps no stack of Ric(X). The Python fields of all members
    (the ``block_set`` and ``eigenvalues`` tuples and cuts) are built
    together, in one pass over the rows, on the first read of any member
    but the zero solution. Each member reads its own
    ``residual_verdict``. A slice returns a list. :meth:`as_lists` reads
    the fields of every member from the stacks at once, as Python lists,
    and builds no member.
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
        lcoords, block_sets, cuts, eigenvalues = self._python_fields
        p = i - 1
        x = self._members.x[p]
        return AriSolution(x, lcoords[p], block_sets[p], len(lcoords[p]),
                           _ric(self._form.A0, self._form.M, x), cuts[p], eigenvalues[p])

    def as_lists(self, full=True):
        """The members' fields as Python lists in the family's order, read
        from the stacks in one pass, with no member built: ``block_set``
        (tuples), ``rank``, ``X`` (nested lists, from one ``tolist`` of the
        stack) and ``residual_max`` (|Ric(X)|_max, kept from the family's
        gate), each bitwise what the members hold or give. With ``full``,
        also ``Lcoord`` (nested lists, one ``tolist`` per level),
        ``eigenvalues`` (tuples) and ``residual_verdict`` (the verdicts'
        kinds, from one ``eigvalsh`` per chunk of the X stack over its
        Ric(X), formed again chunk by chunk). Returns a dict of those
        lists."""
        n = self._form.problem.n
        # member 0, the zero solution: its Ric(X) is 0, so its verdict is
        # "zero" at any cut
        rows = {"block_set": [()], "rank": [0], "X": [np.zeros((n, n)).tolist()],
                "residual_max": [0.0]}
        if full:
            rows.update(Lcoord=[[]], eigenvalues=[()], residual_verdict=["zero"])
        m = self._members
        if m is None:
            return rows
        rows["block_set"] += self._block_sets
        rows["rank"] += chain.from_iterable([level.shape[1]] * len(level) for level in m.lcoords)
        rows["X"] += m.x.tolist()
        rows["residual_max"] += m.residual_max.tolist()
        if full:
            _, _, cuts, eigenvalues = self._python_fields
            rows["Lcoord"] += chain.from_iterable(level.tolist() for level in m.lcoords)
            rows["eigenvalues"] += eigenvalues
            a0, mm = self._form.A0, self._form.M
            eig = np.concatenate([np.linalg.eigvalsh(_ric(a0, mm, m.x[part]))[:, [0, -1]]
                                  for part in _chunks(m.x)])
            rows["residual_verdict"] += [verdict_from_extremes(lo, hi, cut).kind for (lo, hi), cut
                                         in zip(eig.tolist(), cuts)]
        return rows

    @cached_property
    def _python_fields(self):
        """Per row: the Lcoord, block_set, residual cut and eigenvalues as
        the Python objects a member holds."""
        m = self._members
        return (list(chain.from_iterable(m.lcoords)), self._block_sets, m.cut.tolist(),
                _rows_as_tuples(m.eigenvalues, m.col_rows))

    @cached_property
    def _block_sets(self):
        m = self._members
        return _rows_as_tuples(m.block_ids, m.block_rows)


def schur_family(
    form: HomogeneousForm,
    split: SpectralSplit,
    tol: Tolerances = DEFAULT,
):
    """All equation solutions generated by subsets of non-axis blocks.

    Every solution of Ric(X) = 0 is supported on an A0ᵀ-invariant
    subspace spanned by Schur blocks. A cluster that holds an axis block
    or a block the split tags uncontrollable takes no part: a subspace
    that holds an uncontrollable mode has a singular Gramian, so it
    carries no full-rank solution. One :func:`reduce` over the blocks of
    the other clusters gives ``A0ᵀ Lk = Lk Dk``. Each of those clusters
    then gets an orthonormal basis of its own invariant subspace from one
    Schur reordering of ``Dk`` (:func:`_cluster_bases`): together they form
    ``L'`` with ``A0ᵀ L' = L' Λ``, where ``Λ`` is quasi-triangular with no
    coupling across clusters. The Gramian ``Y'`` of ``Λ`` (``Y' Λ + Λᵀ Y'
    = L'ᵀ M L'``) is one call of the Sylvester kernel when the kernel
    accepts the whole of it, which proves that no pair of clusters
    clashes; otherwise it is one call per pair of clusters
    (:func:`_cluster_gramian`), and a clash is a pair the kernel refuses.
    The member over a subset S is ``X_S = L'_S Y'[S,S]⁻¹ L'_Sᵀ``, the
    Schur complement of the maximal solution onto S. Members' coordinates
    are built in stacked levels of equal column count, fewest columns
    first (:func:`_family_coordinates`), and each level does only the
    work whose shapes depend on its column count k
    (:func:`_factor_level`): it gathers its ``L'_S`` and ``Y'[S,S]``,
    factors only the R of ``L'_S = QR``, moves the Gramian to the basis
    ``Q = L'_S R⁻¹`` as ``g = R⁻ᵀ Y'[S,S] R⁻¹`` with one batched inverse
    of R, and inverts its Gramians at once. There the Gramian's rank test
    reads as in :func:`full_rank_simplified_solution`, on the moduli of
    its eigenvalues (its singular values, as it is symmetric), and a
    present member's ``rank`` is its column count. The rest runs once
    per family: the table of unions, built from integer bitmasks, and
    the columns of every level, from one ``nonzero`` of it; the test,
    decided for every union of every level in one pass of
    :func:`_certified_full_rank` from the inverses' residuals, so that
    only the unions it cannot certify take ``eigvalsh``, level by level
    (none on the bench's families). Every union of clusters with no
    clashing pair is enumerated, and a weakly controllable cluster that
    the split tags controllable reaches that test like any other. After
    the test the levels stream: each level's present members go into one
    X stack before the next level's coordinates are formed, and its
    factors are then released. The backward-error gate runs over that
    stack in fixed chunks (:func:`_gated_residuals`), which form Ric(X)
    and keep of it only |Ric(X)|_max per member, so the family's working
    set stays near its X stack. The members stay in the stacks: each
    member's :class:`AriSolution` is built when it is first read, and its
    ``residual`` computed then from its own X.

    A subset is absent when it contains a block of a cluster that holds
    an axis block or an uncontrollable one, both blocks of a mirrored pair
    λ, −λ (their Sylvester solve is singular) or part but not all of a
    ``SpectralBlock.cluster`` of ``split``, or when its Gramian fails the
    rank rule. Axis blocks never participate: controllable ones only
    contribute the zero coordinate and uncontrollable ones generate the
    infinite families reported by :func:`degenerate_classify`.

    Verification: the split is checked against the form
    (:func:`_check_split`), ``A0ᵀ L' = L' Λ`` is checked once, and every
    member's normwise backward error ``η(X) = ‖Ric(X)‖_F / (2‖A0‖_F
    ‖X‖_F + ‖M‖_F ‖X‖²_F)`` must be at most :data:`FAMILY_BACKWARD_ERROR`,
    whatever clusters it covers; no change of ``(A0, M)`` smaller than η
    relative, in Frobenius norm, makes X an exact solution. A member is
    present exactly when its Gramian passes the rank rule; nothing is
    solved a second way. All of it runs before this returns. Any failure
    raises :class:`RiccatiError`, naming the member's blocks and its η;
    two clusters the reordering cannot separate raise
    :class:`DegenerateSpectrum`.

    Returns
    -------
    SolutionFamily
        A sequence of :class:`AriSolution` sorted by (rank, block_set),
        with the zero solution first; members are built when read.
    """
    _check_split(form, split)
    excluded = {b.cluster for b in split.blocks if b.half_plane == AXIS or not b.controllable}
    live = [i for i, b in enumerate(split.blocks) if b.cluster not in excluded]
    if not live:
        return SolutionFamily(form, tol)
    return SolutionFamily(form, tol, _gramian_members(reduce(form, split, live), tol))


def _gramian_members(eqn, tol):
    """Every present member over unions of the clusters in ``eqn``, as a
    :class:`_Members`."""
    form = eqn.form
    # one pass over the blocks numbers the clusters in the order of their
    # first blocks, whose indices label them, and lists each one's columns
    unit_of, unit_of_block, unit_of_col, cols = {}, [], [], []
    for blk in eqn.blocks:
        u = unit_of.setdefault(blk.cluster, len(cols))
        if u == len(cols):
            cols.append([])
        cols[u] += range(len(unit_of_col), len(unit_of_col) + blk.size)
        unit_of_block.append(u)
        unit_of_col += [u] * blk.size
    cols = [np.array(cu) for cu in cols]

    lp, lam = _cluster_bases(eqn, cols)
    _check_invariant(form, lp, lam, RiccatiError,
                     "cluster basis is not invariant: residual {resid:.3e}")

    c = lp.T @ form.M @ lp
    c = 0.5 * (c + c.T)
    y, clash = _cluster_gramian(lam, c, cols)

    pick, ncols = _clash_free_unions(clash, np.array([len(cu) for cu in cols]))
    if not len(pick):
        return None
    block_ids = np.array(eqn.block_set)
    col_pick = pick[:, unit_of_col]
    # every member's X = Q g⁻¹ Qᵀ in the next rows of one stack, level by
    # level as the coordinates are formed
    x = np.empty((len(pick), len(lp), len(lp)))
    present, lcoords, start = [], [], 0
    for ok, q, lcoord in _family_coordinates(_support_levels(lp, y, col_pick, ncols), tol):
        np.matmul(q @ lcoord, np.swapaxes(q, 1, 2), out=x[start:start + len(q)])
        start += len(q)
        present.append(ok)
        lcoords.append(lcoord)
    present = np.flatnonzero(np.concatenate(present))
    if not len(present):
        return None
    x = x[:start]
    block_rows = pick[present][:, unit_of_block]
    resid_max, scale = _gated_residuals(form, x, block_ids, block_rows)
    return _Members(x, resid_max, tol.definiteness * scale, lcoords, block_ids, block_rows,
                    np.array(eqn.eigenvalues, dtype=object), col_pick[present])


def _support_levels(lp, y, col_pick, ncols):
    """The levels ``(ls, ys)`` of the unions whose columns are the rows of
    ``col_pick``, sorted by column count ``ncols``: each level of equal
    column count k is a run of rows. One nonzero of the table gives every
    row's columns, row after row, and each level's supports L'_S (N×n×k)
    and Gramians Y'[S,S] (N×k×k) are gathered from its k·N of them."""
    widths, counts = np.unique(ncols, return_counts=True)
    support_cols = np.nonzero(col_pick)[1]
    supports, y_flat, levels, start = lp[:, support_cols], y.ravel(), [], 0
    for k, count in zip(widths.tolist(), counts.tolist()):
        end = start + k * count
        idx = support_cols[start:end].reshape(count, k)
        levels.append((supports[:, start:end].reshape(-1, count, k).transpose(1, 0, 2),
                       y_flat[idx[:, :, None] * len(y) + idx[:, None, :]]))
        start = end
    return levels


def _clash_free_unions(clash, widths):
    """The nonempty unions of clusters with no ``clash``ing pair, as boolean
    membership rows and their column counts from the clusters' ``widths``,
    sorted by (column count, block_set). A clashing cluster drops the
    unions that hold it and meet its mask of clashes. Cluster u, numbered
    by its first block, is bit C − 1 − u of a union's mask, and the masks
    run down from 2^C − 1: within one column count no block_set is a
    prefix of another, so the first is the one that holds the smallest
    block where they differ, a cluster's first block and so their highest
    differing bit. A stable sort on the column counts finishes the order."""
    bits = len(clash) - 1 - np.arange(len(clash))
    masks = np.arange(2 ** len(clash) - 1, 0, -1)
    clashes = clash @ (1 << bits)
    for u in np.flatnonzero(clashes).tolist():
        masks = masks[((masks >> bits[u]) & 1 == 0) | (masks & clashes[u] == 0)]
    table = ((masks[:, None] >> bits) & 1).astype(bool)
    ncols = table @ widths
    order = np.argsort(ncols, kind="stable")
    return table[order], ncols[order]


class _Level(NamedTuple):
    """The factors of one level of stacked supports ``ls`` (N×n×k): the
    inverse ``r_inv`` of the R of ``ls = QR``, the Gramians ``g = R⁻ᵀ Y
    R⁻¹`` in the basis Q, their inverses ``z`` (None when some g is
    exactly singular and ``inv`` raises), and the Frobenius norms of g, z
    and ``g·z − I`` (3×N, nan without z)."""

    ls: np.ndarray
    r_inv: np.ndarray
    g: np.ndarray
    z: Optional[np.ndarray]
    norms: np.ndarray


def _factor_level(ls, ys, upper):
    """The :class:`_Level` of supports ``ls`` (N×n×k) with Gramians ``ys``
    (N×k×k): the work whose shapes depend on k. R is read from ``qr``'s
    raw Householder output through ``upper[:k, :k]``, a mask of the upper
    triangle, as ``qr(mode="r")`` reads it with ``np.triu``; R⁻¹ serves
    both sides of ``R⁻ᵀ Y R⁻¹``."""
    count, _, k = ls.shape
    h, _ = np.linalg.qr(ls, mode="raw")
    r_inv = np.linalg.inv(np.where(upper[:k, :k], np.swapaxes(h[:, :, :k], 1, 2), 0.0))
    parts = np.empty((3, count, k, k))  # g, z and g·z − I, whose norms one einsum takes
    g, z, resid = parts
    gram = np.swapaxes(r_inv, 1, 2) @ ys @ r_inv
    np.multiply(0.5, gram + np.swapaxes(gram, 1, 2), out=g)
    try:
        z[...] = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        return _Level(ls, r_inv, g, None, np.full((3, count), np.nan))
    np.matmul(g, z, out=resid)
    resid.reshape(count, k * k)[:, :: k + 1] -= 1.0
    return _Level(ls, r_inv, g, z, np.sqrt(np.einsum("snij,snij->sn", parts, parts)))


def _family_coordinates(levels, tol):
    """Coordinates of the members of stacked levels of supports, each
    ``(ls, ys)``: supports ``ls`` (N×n×k) with Gramians ``ys`` (N×k×k),
    one k per level. Yields ``(ok, q, lcoord)`` per level, in order:
    ``ok`` marks the supports whose Gramian is nonsingular; ``q`` and
    ``lcoord`` hold those members only.

    With ``ls = QR``, only R is factored; the Gramian in the basis Q is
    ``g = R⁻ᵀ Y R⁻¹``: one batched inverse of the triangular R and two
    stacked products. The same R⁻¹ gives the present members' basis
    ``Q = L R⁻¹``. The member is ``X = Q g⁻¹ Qᵀ`` with ``Lcoord = g⁻¹``,
    inverted for the whole level at once (:func:`_factor_level`). The rank
    rule σ_min(g) > tol.rank · max(1, σ_max(g)), on the moduli of the
    eigenvalues that ``eigvalsh`` computes, is then decided for every
    union of every level in one pass of :func:`_certified_full_rank`, from
    the Frobenius norms of g, g⁻¹ and I − g·g⁻¹ and each union's k; only
    the unions it does not certify, or every union of a level where some
    g is exactly singular (``inv`` raises), go to ``eigvalsh``, level by
    level. So every verdict is the rule's.
    A present member's rank is k: ``ok`` asks σ_min(g) > tol.rank ·
    max(1, σ_max(g)), so every singular value of g⁻¹ exceeds tol.rank
    times the largest.

    Every level is factored before the one certificate, but the levels
    are handed on one at a time: this holds no reference to the Gramians
    ``ys`` past the factoring, and a level's factors are released as its
    members are yielded, so a caller that takes each level's members
    before asking for the next holds one level's coordinates at a time."""
    kmax = max(ls.shape[2] for ls, _ in levels)
    upper = np.triu(np.ones((kmax, kmax), dtype=bool))
    # inf and nan fail the certificate
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        factored = [_factor_level(ls, ys, upper) for ls, ys in levels]
        del levels  # the caller's list of them, so the Gramians ys go now
        counts = [len(level.g) for level in factored]
        ks = np.repeat([level.g.shape[2] for level in factored], counts)
        norms = np.concatenate([level.norms for level in factored], axis=1)
        certified = _certified_full_rank(ks, *norms, tol.rank)
    for ok in np.split(certified, np.cumsum(counts)[:-1]):
        yield _level_members(factored.pop(0), ok, tol)


def _level_members(level, ok, tol):
    """``(ok, q, lcoord)`` of one :class:`_Level` whose certified unions
    ``ok`` marks: the unions left undecided take the rank rule on
    ``eigvalsh``, and the present ones their basis ``Q = L R⁻¹`` and
    ``Lcoord = g⁻¹``."""
    ls, r_inv, g, z = level.ls, level.r_inv, level.g, level.z
    if not ok.all():
        undecided = ~ok
        sv = np.abs(np.linalg.eigvalsh(g[undecided]))  # g is symmetric: its singular values
        ok[undecided] = _full_rank(sv.min(axis=1), sv.max(axis=1), tol.rank)
        if not ok.all():
            ls, r_inv, g = ls[ok], r_inv[ok], g[ok]
            z = None if z is None else z[ok]
        if z is None:
            z = np.linalg.inv(g)
    return ok, ls @ r_inv, 0.5 * (z + np.swapaxes(z, 1, 2))


def _chunks(x):
    """Slices of the rows of a stack ``x`` (N×n×n), each of at most
    :data:`_CHUNK_ENTRIES` entries and at least one row."""
    rows = max(1, _CHUNK_ENTRIES // (x.shape[1] * x.shape[2]))
    return [slice(start, start + rows) for start in range(0, len(x), rows)]


def _gated_residuals(form, x, block_ids, block_rows):
    """Symmetrizes a stack ``x`` of members in place and returns
    |Ric(X)|_max and the size of Ric's terms for each; raises
    :class:`RiccatiError` when some member's backward error η exceeds
    :data:`FAMILY_BACKWARD_ERROR`, naming the ``block_ids`` of its row of
    ``block_rows`` (the first of the largest η). The work runs over
    :func:`_chunks` of the stack, and nothing of Ric(X) is kept beyond
    each chunk; every value is computed row by row, so the chunks give
    the bits of one pass over the stack."""
    a0_fro, m_fro = np.linalg.norm(form.A0), np.linalg.norm(form.M)
    eta, resid_max, scale = np.empty((3, len(x)))
    for rows in _chunks(x):
        part = x[rows]
        part += np.swapaxes(part, 1, 2)  # numpy buffers the overlapping operand
        part *= 0.5
        resid = _ric(form.A0, form.M, part)
        r_fro, x_fro = (np.sqrt(np.einsum("nij,nij->n", a, a)) for a in (resid, part))
        eta[rows] = r_fro / (2.0 * a0_fro * x_fro + m_fro * x_fro ** 2)
        resid_max[rows] = np.abs(resid, out=resid).max(axis=(1, 2))
        scale[rows] = _ric_scale(form, part)
    if np.any(eta > FAMILY_BACKWARD_ERROR):
        worst = int(np.argmax(eta))
        blocks = tuple(block_ids[block_rows[worst]].tolist())
        raise RiccatiError(
            f"family member residual over blocks {blocks} exceeds the "
            f"backward-error bound: η = {eta[worst]:.3e} > {FAMILY_BACKWARD_ERROR:.0e}"
        )
    return resid_max, scale


def _rows_as_tuples(values, table):
    """``tuple(values[row])`` for every boolean row of ``table``."""
    flat = values[np.nonzero(table)[1]].tolist()
    ends = np.cumsum(table.sum(axis=1)).tolist()
    return [tuple(flat[i:j]) for i, j in zip([0] + ends, ends)]


# ---------------------------------------------------------------------------
# degenerate axis blocks


@dataclass(frozen=True, eq=False)
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
    """The ray G of every uncontrollable block in ``indices`` that has
    one, as ``{i: G}``.

    A direction ``v = x + iy`` with ``A0ᵀv = λv`` and ``Bᵀv = 0`` gives
    ``G = Re(vvᴴ) = xxᵀ + yyᵀ`` with ``BᵀG = 0`` and
    ``A0ᵀG + GA0 = 2Re(λ)G``, so ``Ric(αG) = −2αRe(λ)G`` for every real α.
    A block alone in its cluster reads ``v = Lk·w`` from :func:`reduce`,
    with ``w`` the eigenvector of its ``Dk`` (1, or ``(d₁₂, λ − d₁₁)`` on
    a pair). The blocks of a shared cluster have no invariant subspace of
    their own: they take the directions of the kernel of
    ``[A0ᵀ − λI; Bᵀ]`` at the cluster's first block in turn. When a
    Jordan chain or a copy that B reaches leaves fewer directions than
    blocks, the surplus axis blocks get no ray and the other blocks wrap
    around, repeating a direction. Axis blocks take ``Re λ := 0``. Every
    G has unit Frobenius norm.

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
            if turn >= len(dirs) and blk.half_plane == AXIS:
                continue
            v = dirs[turn % len(dirs)]
        else:
            eqn = reduce(form, split, [i])
            d = eqn.Dk
            lam = _row_eigenvalues(d)[0]
            v = eqn.Lk[:, 0] if blk.size == 1 else eqn.Lk @ np.array([d[0, 1], lam - d[0, 0]])
        g = np.outer(v.real, v.real)
        if np.iscomplexobj(v):
            g += np.outer(v.imag, v.imag)
        g = 0.5 * (g + g.T)
        g /= np.linalg.norm(g)
        growth = 0.0 if blk.half_plane == AXIS else 2.0 * lam.real
        resid = float(np.abs(_ric(form.A0, form.M, g) + growth * g).max())
        if form._a0_scale.decide(lambda s: resid > GENERATOR_RESIDUAL_RTOL * max(1.0, s)):
            raise RiccatiError(f"ray of block {i} has residual {resid:.3e}")
        rays[i] = g
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
    _check_split(form, split)
    unc = split.indices(half_plane=AXIS, controllable=False)
    rays = _uncontrollable_rays(form, split, unc, tol)
    outcomes = []
    for i in split.indices(half_plane=AXIS):
        blk = split.blocks[i]
        if blk.controllable:
            outcomes.append((blk, DegenerateOutcome(kind="trivial-only")))
        elif i in rays:
            outcomes.append((blk, DegenerateOutcome(kind="free-family", generator=rays[i])))
    return outcomes
