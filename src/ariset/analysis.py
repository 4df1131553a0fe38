"""Executable forms of the solution-set results.

Covers the rank-one perturbation test, the extremal pair (maximum and
minimum equation solutions and the induced two-sided bound on every
inequality solution), boundedness verdicts with explicit unbounded-ray
witnesses, the positive-(semi)definite parametrization of reduced
inequality solutions, the eigenvalue-flip identity of closed-loop
feedback, and certified inequality verification.
"""

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import (
    InvalidInput,
    NotAnEquationSolution,
    NotASolution,
    NotRHPSelection,
    RiccatiError,
    SingularInput,
    Uncontrollable,
)
from .linalg import _definiteness_of_symmetric, _symmetric_inverse, as_matrix, symmetrize
from .riccati import (
    AriSolution,
    HomogeneousForm,
    SimplifiedEquation,
    _base_scale,
    _check_split,
    _ric,
    _ric_scale,
    _solution_from_coordinates,
    _symmetric_of_order,
    _uncontrollable_rays,
    are_residual,
    full_rank_simplified_solution,
    reduce as reduce_blocks,
    ric_residual,
    solve_reduced_gramian,
    zero_solution,
)
from .systems import AXIS, LHP, RHP, SpectralSplit, _check_same_order
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "BoundednessReport",
    "Certificate",
    "ExtremalPair",
    "FlipReport",
    "ParamPoint",
    "Witness",
    "boundedness",
    "extremal_solutions",
    "feedback_flip",
    "parametrize",
    "rank_one_classify",
    "recover_parameter",
    "verify",
]


# Accepted |‖v‖₂ − 1| for the direction of rank_one_classify: absolute,
# as the scale of a unit vector is 1.
UNIT_NORM_ATOL = 1e-8

# Agreement demanded of verify's two residual routes, −AᵀK − KA − Q + KBBᵀK
# and Ric(K − K0): |difference|_max relative to max(1, |A|_max, |Q|_max,
# |K|_max, |M|_max |K|²_max), the size of their terms, on top of the base
# solution's own residual.
ROUTE_AGREEMENT_RTOL = 1e-8

# Match demanded by feedback_flip of the closed-loop spectrum with the
# flipped one: the largest |λ_computed − λ_expected| / max(1, |λ_expected|)
# over the optimal pairing of the two spectra.
FLIP_MATCH_RTOL = 1e-6


@dataclass(frozen=True, eq=False)
class ExtremalPair:
    """Maximum and minimum equation solutions and Willems' bounds.

    ``Lr`` is supported on the right-half-plane blocks (X >= 0), ``Ll``
    on the left-half-plane blocks (X <= 0); every inequality solution X
    satisfies Ll.X <= X <= Lr.X, hence K_min <= K <= K_max with
    K_max = K0 + Lr.X and K_min = K0 + Ll.X.
    """

    Lr: AriSolution
    Ll: AriSolution
    K_max: np.ndarray
    K_min: np.ndarray


@dataclass(frozen=True, eq=False)
class Witness:
    """A unit-Frobenius-norm ray along which the solution set is unbounded.

    ``sign`` is "+", "-" or "+-": K0 + alpha * direction stays feasible as
    alpha grows along the indicated sign(s).
    """

    direction: np.ndarray
    sign: str
    block: int


@dataclass(frozen=True)
class BoundednessReport:
    """Verdict on the geometry of the solution set with unbounded rays."""

    verdict: str
    witnesses: tuple


@dataclass(frozen=True, eq=False)
class ParamPoint:
    """A positive (semi)definite parameter attached to a block selection."""

    P: np.ndarray
    block_set: tuple = ()


@dataclass(frozen=True)
class Certificate:
    """Outcome of an inequality check from residual extreme eigenvalues.

    Non-strict mode passes when ``residual_max_eig <= tol_used``; strict
    mode when ``residual_max_eig < -tol_used``.
    """

    residual_max_eig: float
    residual_min_eig: float
    passed: bool
    strict: bool
    tol_used: float


def _certificate(residual, cut, strict):
    """Certificate of ``residual <= 0`` (``< 0`` when ``strict``) for a
    symmetric residual at the absolute cutoff ``cut``."""
    w = np.linalg.eigvalsh(residual)
    passed = w[-1] < -cut if strict else w[-1] <= cut
    return Certificate(residual_max_eig=float(w[-1]), residual_min_eig=float(w[0]),
                       passed=bool(passed), strict=bool(strict), tol_used=cut)


# ---------------------------------------------------------------------------
# rank-one perturbations


def rank_one_classify(form: HomogeneousForm, v, alpha, tol: Tolerances = DEFAULT):
    """Classify the residual of the rank-one perturbation X = alpha v vᵀ.

    Returns ``"semidefinite-rank<=1"`` when ``alpha`` is zero (then X and
    Ric(X) vanish) or ``v`` is an eigenvector of A0ᵀ within tolerance
    (then Ric(X) has rank at most one and a single sign); otherwise
    ``"indefinite"``. An ``alpha`` that is not a finite real number (a
    bool, string, complex number or array is not), or a ``v`` of any
    shape but (n,), (n, 1) or (1, n), raises :class:`InvalidInput`.
    """
    if isinstance(alpha, bool) or not isinstance(alpha, Real) or not math.isfinite(alpha):
        raise InvalidInput(f"alpha must be a finite real number, got {alpha!r}")
    alpha = float(alpha)
    vec = as_matrix(v, name="v")
    n = form.problem.n
    if vec.shape not in ((n, 1), (1, n)):  # as_matrix makes a column of (n,)
        raise InvalidInput(f"v must have shape ({n},), ({n}, 1) or (1, {n}), got {np.shape(v)}")
    vec = vec.reshape(-1)
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > UNIT_NORM_ATOL:
        raise InvalidInput(f"v must be a unit vector, got norm {norm:.6e}")
    if alpha == 0.0:
        return "semidefinite-rank<=1"
    w = form.A0.T @ vec
    defect = w - (vec @ w) * vec
    defect_norm = float(np.linalg.norm(defect))
    if form._a0_scale.decide(lambda s: defect_norm <= tol.definiteness * max(1.0, s)):
        return "semidefinite-rank<=1"
    return "indefinite"


# ---------------------------------------------------------------------------
# extremal solutions


def extremal_solutions(
    form: HomogeneousForm,
    split: SpectralSplit,
    tol: Tolerances = DEFAULT,
):
    """Maximum and minimum equation solutions for a controllable pair.

    ``Lr`` solves the equation over all RHP blocks and bounds every
    inequality solution from above; ``Ll`` over all LHP blocks bounds
    from below. Controllable axis blocks contribute only the zero
    coordinate and are skipped.

    Raises
    ------
    Uncontrollable
        Some block is uncontrollable: the solution set is unbounded and
        has no extremal structure (see :func:`boundedness`).
    """
    _check_split(form, split)
    bad = split.indices(controllable=False)
    if bad:
        raise Uncontrollable(
            f"blocks {bad} are uncontrollable; the solution set is unbounded"
        )

    def solution_over(half_plane):
        blocks = split.indices(half_plane=half_plane)
        if not blocks:
            return zero_solution(form, tol)
        return full_rank_simplified_solution(reduce_blocks(form, split, blocks), tol)

    lr, ll = solution_over(RHP), solution_over(LHP)
    return ExtremalPair(
        Lr=lr,
        Ll=ll,
        K_max=form.K0 + lr.X,
        K_min=form.K0 + ll.X,
    )


# ---------------------------------------------------------------------------
# boundedness


# Sign of alpha along which the ray of an uncontrollable block stays feasible.
_RAY_SIGN = {AXIS: "+-", RHP: "+", LHP: "-"}


def boundedness(
    form: HomogeneousForm,
    split: SpectralSplit,
    tol: Tolerances = DEFAULT,
):
    """Boundedness of the solution set, with unbounded-ray witnesses.

    The set is bounded exactly when every block is controllable.
    Otherwise: uncontrollable eigenvalues only in the open RHP leave it
    bounded below only; only in the open LHP, bounded above only; both
    half planes, or any uncontrollable axis block (whose free family is
    feasible for either sign), make it unbounded on both sides.

    The witnesses are all the rays G of :func:`riccati._uncontrollable_rays`,
    along which ``Ric(αG) = −2αRe(λ)G`` is negative semidefinite for α of
    the block's sign. Every uncontrollable non-axis block gets one (the
    blocks of a Jordan chain repeat its kernel's directions); uncontrollable
    axis blocks get the generators of :func:`degenerate_classify`, one per
    kernel direction.
    """
    _check_split(form, split)
    unc = split.indices(controllable=False)
    if not unc:
        return BoundednessReport(verdict="bounded", witnesses=())

    witnesses = tuple(
        Witness(direction=g, sign=_RAY_SIGN[split.blocks[i].half_plane], block=i)
        for i, g in _uncontrollable_rays(form, split, unc, tol).items()
    )
    planes = {split.blocks[i].half_plane for i in unc}
    if AXIS in planes or {RHP, LHP} <= planes:
        verdict = "unbounded-both"
    elif RHP in planes:
        verdict = "bounded-below-only"
    else:
        verdict = "bounded-above-only"
    return BoundednessReport(verdict=verdict, witnesses=witnesses)


# ---------------------------------------------------------------------------
# parametrization


def _require_rhp_controllable(eqn):
    planes = {b.half_plane for b in eqn.blocks}
    if planes != {RHP}:
        raise NotRHPSelection(
            f"selection must lie in the open right half plane, got {sorted(planes)}"
        )
    if not all(b.controllable for b in eqn.blocks):
        raise Uncontrollable("selection contains uncontrollable blocks")


def parametrize(
    eqn: SimplifiedEquation,
    point,
    tol: Tolerances = DEFAULT,
):
    """Reduced inequality solution attached to a PSD parameter.

    Solves Yhat Dk + Dkᵀ Yhat = Mk + P in one reduced Gramian solve: Yhat
    = Y* + Delta, with Y* Dk + Dkᵀ Y* = Mk and Delta Dk + Dkᵀ Delta = P,
    so :func:`recover_parameter`'s P = Yhat Dk + Dkᵀ Yhat − Mk inverts it.
    Returns the solution with coordinates Lhat = Yhat⁻¹. The certificate
    is evaluated on the reduced residual (which equals −Lhat P Lhat) and is
    strict exactly when P is positive definite.

    ``point`` may be a :class:`ParamPoint` or a bare symmetric array.
    """
    _require_rhp_controllable(eqn)
    if isinstance(point, ParamPoint):
        if point.block_set and tuple(point.block_set) != eqn.block_set:
            raise InvalidInput(
                f"parameter is bound to blocks {point.block_set}, "
                f"equation is over {eqn.block_set}"
            )
        p_raw = point.P
    else:
        p_raw = point
    p = _symmetric_of_order(p_raw, eqn.k, "P", tol.sym)
    p_verdict = _definiteness_of_symmetric(p, tol.definiteness)
    if not p_verdict.is_psd:
        raise InvalidInput(f"P must be positive semidefinite, got {p_verdict.kind}")
    strict = p_verdict.kind == "positive-definite"

    y_hat = solve_reduced_gramian(eqn, eqn.Mk + p)
    lhat = _symmetric_inverse(y_hat, tol.rank, SingularInput, "perturbed Gramian is singular")

    reduced = _ric(eqn.Dk.T, eqn.Mk, lhat)
    cut = tol.definiteness * max(1.0, float(np.abs(reduced).max()))
    cert = _certificate(reduced, cut, strict)
    return _solution_from_coordinates(eqn, lhat, tol, certificate=cert)


def recover_parameter(
    eqn: SimplifiedEquation,
    lhat,
    tol: Tolerances = DEFAULT,
):
    """Parameter whose :func:`parametrize` image is ``lhat``.

    ``lhat`` must be a full-rank solution of the reduced inequality over
    ``eqn.block_set``; the recovered P = Yhat Dk + Dkᵀ Yhat − Mk is
    positive semidefinite (definite exactly when the inequality is strict
    at ``lhat``).

    Raises
    ------
    SingularInput
        ``lhat`` is singular within rank tolerance.
    NotASolution
        The recovered parameter is indefinite beyond tolerance, i.e.
        ``lhat`` violates the reduced inequality.
    """
    lm = _symmetric_of_order(lhat, eqn.k, "Lhat", tol.sym)
    y_hat = _symmetric_inverse(lm, tol.rank, SingularInput,
                               "Lhat is singular; restrict to its support blocks first")
    p = y_hat @ eqn.Dk + eqn.Dk.T @ y_hat - eqn.Mk
    p = 0.5 * (p + p.T)
    verdict = _definiteness_of_symmetric(p, tol.definiteness)
    if not verdict.is_psd:
        raise NotASolution(
            f"recovered parameter is {verdict.kind}; Lhat does not satisfy "
            "the reduced inequality"
        )
    return ParamPoint(P=p, block_set=eqn.block_set)


# ---------------------------------------------------------------------------
# eigenvalue flip


@dataclass(frozen=True)
class FlipReport:
    """Spectrum comparison for A1 = A0 − BBᵀX against the flip identity."""

    eig_before: tuple
    eig_after: tuple
    expected_after: tuple
    flipped: tuple
    max_rel_mismatch: float
    matched: bool


def _match_spectra(computed, expected):
    # scipy.optimize adds ~0.1 s to start-up and only the flip uses it
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(computed[:, None] - expected[None, :])
    rows, cols = linear_sum_assignment(cost)
    rel = [
        cost[i, j] / max(1.0, abs(expected[j])) for i, j in zip(rows, cols)
    ]
    return float(max(rel)) if rel else 0.0


def _flipped_spectrum(before, flipped):
    """``before`` with each eigenvalue of ``flipped`` in turn replacing its
    nearest entry (the first of equals) by its negative; an entry replaced
    earlier competes with its new value."""
    lam = np.asarray(flipped, dtype=complex)
    if not lam.size:
        return before.copy()
    expected = before.astype(complex)
    for value in lam:
        d = expected - value
        # hypot of the parts is abs() of a complex scalar bit for bit; np.abs
        # on a complex array may differ from it in the last place
        expected[np.hypot(d.real, d.imag).argmin()] = -value
    return expected


def feedback_flip(form: HomogeneousForm, sol: AriSolution, tol: Tolerances = DEFAULT):
    """Closed-loop matrix of an equation solution and its flipped spectrum.

    For an exact solution X of Ric(X) = 0 supported on k blocks, the
    matrix A1 = A0 − BBᵀX shares the remaining (n − k) eigenvalues with
    A0 while the k supporting eigenvalues appear negated.

    Returns ``(A1, FlipReport)``.

    Raises
    ------
    NotAnEquationSolution
        ``sol`` has a nonzero residual (strict-inequality solutions do
        not flip).
    """
    _check_same_order(form.A0, "the form", sol.X, "the solution")
    resid = float(np.abs(sol.residual).max())
    if resid > tol.base * float(_ric_scale(form, sol.X)):
        raise NotAnEquationSolution(
            f"residual {resid:.3e} is not zero within tolerance; the flip "
            "identity applies only to equation solutions"
        )
    a1 = form.A0 - form.M @ sol.X
    before = np.linalg.eigvals(form.A0)
    after = np.linalg.eigvals(a1)

    expected = _flipped_spectrum(before, sol.eigenvalues)
    mismatch = _match_spectra(after, expected)
    return a1, FlipReport(
        eig_before=tuple(before),
        eig_after=tuple(after),
        expected_after=tuple(expected),
        flipped=tuple(sol.eigenvalues),
        max_rel_mismatch=mismatch,
        matched=bool(mismatch <= FLIP_MATCH_RTOL),
    )


# ---------------------------------------------------------------------------
# verification


def verify(form: HomogeneousForm, k, strict=False, tol: Tolerances = DEFAULT):
    """Certificate for K against the original inequality.

    The residual is evaluated both as −AᵀK − KA − Q + KBBᵀK and as
    Ric(K − K0); the two agree up to the base residual by construction
    and are cross-checked. Non-strict certification requires the maximum
    residual eigenvalue to be at most the tolerance; strict requires it
    below the negated tolerance. A K that is not n×n raises
    :class:`InvalidInput`; one whose residual, its scale or an extreme
    eigenvalue of the residual overflows raises :class:`RiccatiError`.
    """
    km = symmetrize(k, sym_tol=tol.sym, name="K")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf or nan, refused below
        r_direct = are_residual(form.problem, km)
        r_homog = ric_residual(form, km - form.K0)
        k_max, m_max = np.abs(km).max(), np.abs(form.M).max()
        quadratic = k_max ** 2 * m_max
        if not np.isfinite(quadratic):  # k_max² may overflow where the product would not
            quadratic = k_max * (k_max * m_max)
        scale = float(max(_base_scale(form.problem), k_max, quadratic))
    if not (math.isfinite(scale) and np.isfinite(r_direct).all() and np.isfinite(r_homog).all()):
        raise RiccatiError(f"the residual of K or its scale overflows: |K|_max = {k_max:.3e}")
    gap = float(np.abs(r_direct - r_homog).max())
    if gap > ROUTE_AGREEMENT_RTOL * scale + form.base_residual:
        raise RiccatiError(
            f"residual routes disagree by {gap:.3e}; base solution is "
            "inconsistent with the problem data"
        )
    cert = _certificate(r_direct, tol.definiteness * scale, strict)
    if not (math.isfinite(cert.residual_min_eig) and math.isfinite(cert.residual_max_eig)):
        raise RiccatiError(f"the eigenvalues of K's residual overflow: |K|_max = {k_max:.3e}")
    return cert
