"""Dense real matrix kernels used by every higher-level module.

Everything here operates on plain ``numpy.ndarray`` values and returns new
arrays; inputs are never mutated. Symmetric matrices are validated and
re-symmetrized on entry, so downstream code can rely on exact symmetry.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.linalg import lapack

from .errors import (
    DegenerateSpectrum,
    InvalidInput,
    NotHurwitz,
    SingularBlock,
    SingularSylvester,
)
from .tolerances import DEFAULT

__all__ = [
    "DefinitenessVerdict",
    "SchurBlock",
    "as_matrix",
    "definiteness",
    "real_schur_ordered",
    "schur_complement",
    "solve_lyapunov_stable",
    "solve_sylvester",
    "symmetrize",
]


def as_matrix(a, name="matrix", square=False):
    """Coerce to a 2-D float array, rejecting with :class:`InvalidInput`
    ragged, complex, non-numeric and non-finite input.

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
    m = _real_array(a, name)
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


# Entry types read as real numbers (bool, a subclass of int, is not)
_REAL_SCALARS = (int, float, np.integer, np.floating)


def _real_array(a, name):
    """``a`` as a fresh ``float64`` array of any shape, when it is a
    rectangular array of real numbers: integers, of any size a float
    holds, and floats. Booleans, strings, complex numbers and other
    objects raise :class:`InvalidInput`, also where numpy would read them
    as numbers (a boolean among numbers becomes 0 or 1). The input rule
    of :func:`as_matrix` and of the CLI's matrix files; messages start
    with ``name``."""
    if isinstance(a, np.ndarray) and a.dtype.kind != "O":
        if a.dtype.kind == "c":
            raise InvalidInput(f"{name} must be real, got complex entries")
        real = a.dtype.kind in "iuf"
    else:
        # judge the entries themselves, as numpy's numeric conversion
        # coerces booleans and keeps integers beyond 64 bits as objects
        try:
            a = np.asarray(a, dtype=object)
        except ValueError:  # ragged nesting
            raise InvalidInput(f"{name} is not a rectangular numeric array: "
                               "its rows differ in shape") from None
        real = all(issubclass(t, _REAL_SCALARS) and not issubclass(t, (bool, np.bool_))
                   for t in set(map(type, a.flat)))
    if not real:
        raise InvalidInput(f"{name} is not a rectangular numeric array: it has "
                           "entries that are not real numbers")
    try:
        return a.astype(float)  # always a fresh copy
    except OverflowError:
        raise InvalidInput(f"{name} has an integer too large for a float") from None


def _norm2(m):
    """``||m||₂``: the largest singular value, by the LAPACK call that
    ``np.linalg.norm(m, 2)`` makes, without its axis handling."""
    return float(np.linalg.svd(m, compute_uv=False)[0])


# Range of the computed ‖m‖_F over which :class:`_Norm2Bracket` holds: within
# it no scaled sum of dlange overflows and the SVD's bound holds (dgesdd
# scales a matrix of tiny or huge entries first); gradual underflow errs far
# below the bracket's δ. Outside it the bracket reads the exact norm at once.
_BRACKET_RANGE = (2.0 ** -500, 2.0 ** 500)


class _Norm2Bracket:
    """The value ``s`` that :func:`_norm2` returns for a square matrix
    ``m``, bracketed as ``lo <= s <= hi`` from one Frobenius norm, and
    computed on demand, at most once, by :meth:`exact`.

    Claim: let n be the order, u the unit roundoff, F̂ the Frobenius norm
    that LAPACK ``dlange`` computes, and ``δ = γ_{10n²+24}``. If F̂ lies
    in :data:`_BRACKET_RANGE`, the computed ``lo = F̂/√n·(1 − δ)`` and
    ``hi = F̂·(1 + δ)`` satisfy ``lo <= s <= hi``.

    1. Norms: ``‖m‖_F/√n <= ‖m‖₂ <= ‖m‖_F`` (Higham, *Accuracy and
       Stability*, §6.2).
    2. SVD: the singular values LAPACK computes are those of some
       ``m + δm`` with ``‖δm‖₂ <= p(n)·eps·‖m‖₂`` (LAPACK Users' Guide,
       §4.9), p(n) a modest function of the size taken here as n², as
       :func:`systems._certificate_shift` takes n(n + m). By Weyl,
       ``|s − ‖m‖₂| <= 2n²u·‖m‖₂ <= γ_{2n²}‖m‖₂``.
    3. Frobenius norm: ``dlange`` sums the n² squares of the entries,
       scaled (``dlassq``), at most four roundings each in any of LAPACK's
       versions, then takes one square root and one product. So ``|F̂ −
       ‖m‖_F| <= γ_{4n²+8}·‖m‖_F``, and ``‖m‖_F <= F̂(1 + γ_{8n²+16})``
       as ``1/(1 − γ_k) <= 1 + γ_{2k}``.
    4. Hence ``s <= F̂(1 + γ_{8n²+16})(1 + γ_{2n²}) <= F̂(1 + γ_{10n²+16})``
       and ``s >= F̂(1 − γ_{4n²+8})(1 − γ_{2n²})/√n >= F̂(1 −
       γ_{6n²+8})/√n`` (Higham, Lemma 3.3); the 8 more of δ cover the at
       most four roundings in forming each of lo and hi.

    So a rule on s whose answer changes at most once as s grows, such as
    a comparison with a cut that never decreases as s grows (floating-point
    rounding is monotone), answers at s as it does at lo and hi wherever
    those two agree (:meth:`decide`); only a value in the window between
    them needs s itself.
    """

    __slots__ = ("_m", "_exact", "lo", "hi")

    def __init__(self, m):
        self._m = m
        f = float(lapack.dlange("F", m.T))  # m.T is in Fortran order: no copy
        low, high = _BRACKET_RANGE
        if low <= f <= high:
            delta = _gamma(10 * len(m) ** 2 + 24)
            self._exact = None
            self.lo = f / math.sqrt(len(m)) * (1.0 - delta)
            self.hi = f * (1.0 + delta)
        else:
            self._exact = self.lo = self.hi = _norm2(m)

    def exact(self):
        """The value :func:`_norm2` returns for the matrix, computed on
        the first call and then kept."""
        if self._exact is None:
            self._exact = _norm2(self._m)
        return self._exact

    def decide(self, rule):
        """``rule(s)``, a bool or an array of them, for a ``rule`` whose
        answer, elementwise, changes at most once as s grows: read at lo
        and at hi, and at s, by :meth:`exact`, only when those two
        differ."""
        at_lo, at_hi = rule(self.lo), rule(self.hi)
        if at_lo is at_hi or np.array_equal(at_lo, at_hi):  # bools are singletons
            return at_lo
        return rule(self.exact())


def symmetrize(s, sym_tol=DEFAULT.sym, name="matrix"):
    """Validate symmetry within tolerance and return the exact symmetric part.

    The deviation |S - S^T|_max must not exceed ``sym_tol * max(1, ||S||_max)``;
    the returned array is (S + S^T)/2 exactly, formed as S/2 + S^T/2 so
    that no finite entry overflows.
    """
    m = as_matrix(s, name=name, square=True)
    scale = max(1.0, float(np.abs(m).max()))
    dev = float(np.abs(m - m.T).max())
    if dev > sym_tol * scale:
        raise InvalidInput(
            f"{name} is not symmetric: |S - S^T|_max = {dev:.3e} "
            f"exceeds {sym_tol:.1e} * {scale:.3e}"
        )
    return 0.5 * m + 0.5 * m.T


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


def definiteness(s, tol=DEFAULT.definiteness, sym_tol=DEFAULT.sym):
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
    return _definiteness_of_symmetric(symmetrize(s, sym_tol=sym_tol, name="S"), tol)


def _definiteness_of_symmetric(m, tol):
    """:func:`definiteness` of an exactly symmetric array ``m``."""
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


# Unit roundoff of float64 arithmetic, as a Python float: scalar arithmetic
# on it gives numpy's bits without numpy's per-operation cost.
_UNIT = float(np.finfo(float).eps) / 2


def _gamma(k):
    """Higham's ``γ_k = k·u / (1 − k·u)``: the relative error of k
    floating-point operations in a row (``k`` may be an array)."""
    return k * _UNIT / (1.0 - k * _UNIT)


def _full_rank(sv_min, sv_max, rank_tol):
    """The rank rule ``σ_min > rank_tol · max(1, σ_max)``, on the extreme
    singular values of one matrix or of a stack (arrays)."""
    return sv_min > rank_tol * np.maximum(1.0, sv_max)


def _check_nonsingular(m, rank_tol, error, message):
    """Raise ``error(message)`` when the square matrix ``m`` fails
    :func:`_full_rank`. ``message`` may name the smallest singular value
    as ``{sv_min}``."""
    sv = np.linalg.svd(m, compute_uv=False)
    if not _full_rank(sv[-1], sv[0], rank_tol):
        raise error(message.format(sv_min=sv[-1]))


# Range of the computed ‖g‖_F and ‖g⁻¹‖_F over which the rank certificate
# runs: within it no square of a norm and no product in g·g⁻¹ overflows,
# and gradual underflow errs far below the certificate's margins. Matrices
# outside it go to the rank rule itself.
_CERTIFIED_RANGE = (2.0 ** -500, 2.0 ** 500)


def _certified_full_rank(k, g_fro, z_fro, r_fro, rank_tol):
    """The k×k matrices g certified to pass the rank rule, from their
    order ``k`` and the computed Frobenius norms of g, of ``z = inv(g)``
    and of the residual ``D = fl(g·z) − I`` (arrays, one entry per
    matrix, so that the unions of every level of a family are decided in
    one call; nan where z is missing). ``k`` may also be one count for
    all; the arithmetic is elementwise, so each answer is the same either
    way.

    Claim: let ĝ, ẑ, r̂ be those norms, u the unit roundoff, ``ρ =
    4γ_{k²+8}``, ``η = (r̂ + γ_k·ĝ·ẑ)(1 + ρ) + k·2⁻⁵³⁶`` and ``e =
    k²·eps·ĝ(1 + ρ)``. If ĝ and ẑ lie in :data:`_CERTIFIED_RANGE`,
    ``η < 1`` and ``(1 − η)/(ẑ(1 + ρ)) − e > rank_tol · max(1, ĝ(1 + ρ)
    + e)(1 + ρ)``, then the singular values σ̂ that LAPACK's SVD computes
    for g, and for a symmetric g the moduli σ̂ of the eigenvalues that
    ``eigvalsh`` computes, satisfy ``σ̂_min > rank_tol · max(1,
    σ̂_max)``: the rule of :func:`_full_rank` as
    :func:`_check_nonsingular` and :func:`riccati._family_coordinates`
    read it.

    1. Norms: a computed Frobenius norm is a square root of a sum of k²
       rounded squares, so the true norm is at most ``(1 + γ_{k²+2})``
       times it. Within the range the squares of ‖g‖ and ‖z‖ neither
       overflow nor lose more than ``k²·2⁻⁷⁴ < u`` (k < 1000) to
       underflow; the squares of D lose at most ``k²·2⁻¹⁰⁷⁴`` in all,
       ``k·2⁻⁵³⁷`` in its norm. Overflow gives inf, and inf or nan fails
       every comparison, so no matrix is certified from it.
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
    4. Computed values: LAPACK's SVD returns the singular values of some
       ``g + δg`` with ``‖δg‖₂ <= p(k)·eps·‖g‖₂`` (LAPACK Users' Guide,
       §4.9), and ``eigvalsh`` the eigenvalues of a symmetric ``g + δg``
       under the same bound (§4.7), p(k) a modest function of the size,
       taken here as k², as :func:`systems._certificate_shift` takes
       n(n + m). By Weyl, ``|σ̂_i − σ_i| <= e``, so ``σ̂_min >= σ_min(g) −
       e`` and ``σ̂_max <= ‖g‖₂ + e <= ĝ(1 + ρ) + e``; the last factor
       ``1 + ρ`` covers the rounding of the comparison. Hence the rule
       holds.

    Every matrix this does not certify goes to the rule itself.
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


def _certified_inverse(m, z, rank_tol):
    """Whether :func:`_certified_full_rank` certifies the square ``m`` with
    computed inverse ``z``. Outside :data:`_CERTIFIED_RANGE` (inf and nan
    included) the norms of m and z decide no; inside it nothing the
    residual or the certificate computes overflows.

    Before the residual is formed, ``fl(1/ẑ) <= fl(rank_tol·max(1, ĝ))``
    also decides no, for the norms ĝ of m and ẑ of z, so most m that the
    rule refuses go to it at once. That skips only a certificate that
    would fail, whatever the residual's norm, because rounding is
    monotone. The certificate's ``η`` is at least 0 (or nan, which
    fails), and ``slack >= 1`` and ``e >= 0``, so its ``lower =
    fl(fl(fl(1 − η)/fl(ẑ·slack)) − e)`` is at most ``fl(1/ẑ)`` and its
    ``upper = fl(fl(rank_tol·fl(max(1, fl(fl(ĝ·slack) + e))))·slack)`` at
    least ``fl(rank_tol·max(1, ĝ))``. Whenever the test holds, ``lower <=
    upper``, and the certificate answers no."""
    g_fro, z_fro = math.sqrt(np.vdot(m, m)), math.sqrt(np.vdot(z, z))
    low, high = _CERTIFIED_RANGE
    if not (low <= g_fro <= high and low <= z_fro <= high):
        return False
    if 1.0 / z_fro <= rank_tol * max(1.0, g_fro):
        return False
    resid = m @ z
    resid.flat[:: len(m) + 1] -= 1.0
    return bool(_certified_full_rank(len(m), g_fro, z_fro, math.sqrt(np.vdot(resid, resid)),
                                     rank_tol))


def _symmetric_inverse(m, rank_tol, error, message):
    """``inv(m)``, symmetrized, for a symmetric ``m`` that passes
    :func:`_check_nonsingular` (else ``error(message)``).

    The inverse comes first, and :func:`_certified_full_rank` decides the
    rank rule from the Frobenius norms of m, of ``inv(m)`` and of
    ``m·inv(m) − I``; only an m it does not certify, or one that ``inv``
    finds exactly singular, takes the SVD of :func:`_check_nonsingular`.
    An m whose ``inv(m)`` is too large for the certificate to pass goes to
    the SVD before the residual is formed (:func:`_certified_inverse`).
    So the answer and every raise are the rule's, and where ``inv`` finds
    singular an m that passes the rule, its ``LinAlgError`` is raised."""
    try:
        z = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        z = None
    if z is None or not _certified_inverse(m, z, rank_tol):
        _check_nonsingular(m, rank_tol, error, message)
        if z is None:
            z = np.linalg.inv(m)
    return 0.5 * (z + z.T)


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


def _pair_eigenvalues(a, b, c, d):
    """Eigenvalues of the 2x2 block ``[[a, b], [c, d]]`` (Python floats): a
    conjugate pair, positive imaginary part first, or two real values for a
    non-standard block, which stays atomic. When the mean or the
    discriminant overflows, they are read from the block scaled by a power
    of two, which is exact, so every other block reads as before."""
    mean = 0.5 * (a + d)
    try:
        disc = 0.25 * (a - d) ** 2 + b * c
    except OverflowError:  # a float power raises where a product gives inf
        disc = math.inf
    if not (math.isfinite(mean) and math.isfinite(disc)):
        big = max(abs(a), abs(b), abs(c), abs(d))
        if math.isfinite(big):
            scale = math.ldexp(1.0, math.frexp(big)[1])
            return tuple(complex(lam.real * scale, lam.imag * scale) for lam in
                         _pair_eigenvalues(a / scale, b / scale, c / scale, d / scale))
    if disc < 0.0:
        im = math.sqrt(-disc)
        return complex(mean, im), complex(mean, -im)
    rt = math.sqrt(disc)
    return complex(mean + rt), complex(mean - rt)


def _block_spectrum(t):
    """Offsets of the 1x1 / 2x2 diagonal blocks of a quasi-triangular matrix
    and the eigenvalue of every row (both rows of a 2x2 block carry its
    pair), read once from its three central diagonals."""
    diag = t.diagonal().tolist()
    sub = t.diagonal(-1).tolist()
    sup = t.diagonal(1).tolist()
    n = len(diag)
    offsets = []
    lam = []
    i = 0
    while i < n:
        offsets.append(i)
        if i + 1 < n and sub[i] != 0.0:
            lam += _pair_eigenvalues(diag[i], sup[i], sub[i], diag[i + 1])
            i += 2
        else:
            lam.append(complex(diag[i]))
            i += 1
    return offsets, lam


def _schur_blocks(t):
    """Partition a quasi-triangular matrix into 1x1 / 2x2 diagonal blocks."""
    offsets, lam = _block_spectrum(t)
    ends = offsets[1:] + [len(lam)]
    return [SchurBlock(i, j - i, tuple(lam[i:j])) for i, j in zip(offsets, ends)]


def _row_eigenvalues(t):
    """Eigenvalue of every row of a quasi-triangular matrix, read from its
    diagonal blocks (both rows of a 2x2 block carry its pair)."""
    return np.array(_block_spectrum(t)[1])


def _selection_gap(lam, rows):
    """Smallest distance between the row eigenvalues ``lam[rows]`` and those
    of the other rows (inf if none)."""
    chosen = np.zeros(lam.size, dtype=bool)
    chosen[rows] = True
    if chosen.all():
        return np.inf
    return float(np.abs(lam[chosen, None] - lam[None, ~chosen]).min())


# Residual |A U − U T|_max accepted for the reordered Schur form, relative
# to max(1, ||A||_F).
SCHUR_RESIDUAL_RTOL = 1e-9

# Spectral separation below which a Sylvester solve is refused, relative to
# max(1, rho(F) + rho(G)).
SYLVESTER_SEP_RTOL = 1e-10


# Optimal dgees workspace by order, filled on first use of each order:
# LAPACK's workspace query reads the order alone, not the entries.
_SCHUR_LWORK = {}


def _schur(m):
    """Real Schur form ``(T, U)``, ``m = U T Uᵀ``, of a square finite float
    array ``m``: one LAPACK ``dgees`` call, bitwise what
    ``scipy.linalg.schur(m, output="real")`` returns, which makes the same
    call after a workspace query and a finiteness scan of its own. The
    optimal workspace is queried once per order and kept. Raises
    ``LinAlgError``, as scipy does, when the QR algorithm fails."""
    no_sort = lambda *_: 0  # noqa: E731 (the selection callback: unsorted, never called)
    lwork = _SCHUR_LWORK.get(len(m))
    if lwork is None:
        lwork = _SCHUR_LWORK[len(m)] = int(lapack.dgees(no_sort, m, lwork=-1)[-2][0])
    t, _, _, _, u, _, info = lapack.dgees(no_sort, m, lwork=lwork)
    if info != 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return t, u


def _select_leading(t, u, rows):
    """Reorder the real Schur form ``(U, T)`` through LAPACK ``dtrsen`` so
    that the blocks covering ``rows`` (both rows of a 2x2 block) lead,
    keeping the relative order of the selected blocks and of the others.
    Returns the reordered ``(T, U)``.

    Raises
    ------
    DegenerateSpectrum
        When LAPACK cannot separate a selected block from an unselected
        one; ``gap`` is the smallest distance between their eigenvalues.
    """
    select = np.zeros(t.shape[0], dtype=np.int32)
    select[rows] = 1
    ts, us, _, _, _, _, _, info = lapack.dtrsen(select, t, u, job="N")
    if info != 0:
        gap = _selection_gap(_row_eigenvalues(t), rows)
        raise DegenerateSpectrum(
            "Schur reordering failed: eigenvalue clusters too close "
            f"(gap ~ {gap:.3e})",
            gap=gap,
        )
    return ts, us


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
    u, t, blocks, _ = _ordered_schur(as_matrix(a, name="A", square=True), classify)
    return u, t, blocks


def _ordered_schur(m, classify):
    """:func:`real_schur_ordered` of a square finite float array ``m``,
    also returning the rank ``classify`` gives each block. Every read of
    the blocks, the first and the one after each reordering, classifies
    each block once."""
    t, u = _schur(m)

    # one stable pass per class boundary, highest first: lead with every
    # block ranked at most the cut
    blocks = _schur_blocks(t)
    ranks = [classify(blk.eigenvalues[0]) for blk in blocks]
    for cut in reversed(sorted(set(ranks))[:-1]):
        rows = [blk.offset + i for blk, rank in zip(blocks, ranks)
                if rank <= cut for i in range(blk.size)]
        if rows[-1] == len(rows) - 1:
            continue  # those blocks lead already: dtrsen would return T and U unchanged
        t, u = _select_leading(t, u, rows)
        blocks = _schur_blocks(t)
        ranks = [classify(blk.eigenvalues[0]) for blk in blocks]

    scale = max(1.0, float(lapack.dlange("F", m.T)))  # scaled sums: no overflow
    resid = float(np.abs(m @ u - u @ t).max())
    if resid > SCHUR_RESIDUAL_RTOL * scale:
        raise DegenerateSpectrum(
            f"reordered Schur form lost accuracy: residual {resid:.3e}"
        )
    return u, t, blocks, ranks


# ---------------------------------------------------------------------------
# Sylvester / Lyapunov solves


def _solve_quasi_triangular(tf, tg, c, trana="N", sep_tol=SYLVESTER_SEP_RTOL):
    """Solve ``op(TF) X + X TG = C`` through LAPACK ``dtrsyl``.

    ``TF`` and ``TG`` are quasi-upper-triangular (real Schur forms: 1x1
    and 2x2 diagonal blocks, exact zeros below them); ``op`` is the
    identity for ``trana = "N"`` and the transpose for ``"T"``. The
    solve is refused when ``min |lambda_F + lambda_G|``, read from the
    diagonal blocks, falls below ``sep_tol * max(1, rho(F) + rho(G))``.

    Raises
    ------
    SingularSylvester
        When the spectra are not separated within tolerance, or LAPACK had
        to perturb the solve.
    """
    wf = _row_eigenvalues(tf)
    wg = wf if tg is tf else _row_eigenvalues(tg)
    sep = float(np.abs(wf[:, None] + wg[None, :]).min())
    scale = max(1.0, float(np.abs(wf).max()) + float(np.abs(wg).max()))
    if sep <= sep_tol * scale:
        raise SingularSylvester(
            f"spec(F) meets spec(-G): separation {sep:.3e} <= "
            f"{sep_tol:.1e} * {scale:.3e}"
        )

    y, ysc, info = lapack.dtrsyl(tf, tg, c, trana=trana)
    if info < 0:
        raise InvalidInput(f"dtrsyl rejected argument {-info}")
    if info == 1:
        raise SingularSylvester("spec(F) nearly meets spec(-G): dtrsyl perturbed the solve")
    return y / ysc


def solve_sylvester(f, g, c, sep_tol=SYLVESTER_SEP_RTOL):
    """Solve ``F X + X G = C`` by the Bartels–Stewart method.

    ``F`` and ``G`` are brought to real Schur form, the quasi-triangular
    equation is solved by :func:`_solve_quasi_triangular` (LAPACK
    ``dtrsyl``), and the solution is transformed back.

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
        When spec(F) and spec(-G) overlap within tolerance, or LAPACK had
        to perturb the quasi-triangular solve.
    """
    fm = as_matrix(f, name="F", square=True)
    gm = as_matrix(g, name="G", square=True)
    cm = as_matrix(c, name="C")
    p, q = fm.shape[0], gm.shape[0]
    if cm.shape != (p, q):
        raise InvalidInput(f"C must be {p}x{q}, got {cm.shape}")

    tf, uf = _schur(fm)
    tg, ug = _schur(gm)
    y = _solve_quasi_triangular(tf, tg, uf.T @ cm @ ug, sep_tol=sep_tol)
    return uf @ y @ ug.T


def solve_lyapunov_stable(f, c, axis_tol=DEFAULT.axis, sym_tol=DEFAULT.sym):
    """Solve ``F^T P + P F = -C`` for Hurwitz ``F`` and symmetric ``C``.

    For ``C >= 0`` the unique solution is the integral of
    ``exp(F^T t) C exp(F t)`` over ``t >= 0`` and is positive
    semidefinite. One real Schur form ``F = U T U^T`` serves both the
    Hurwitz check, on the eigenvalues read from the diagonal blocks of
    ``T``, and the solve ``T^T P' + P' T = -U^T C U`` by
    :func:`_solve_quasi_triangular`.

    Raises
    ------
    NotHurwitz
        When some eigenvalue of ``F`` has real part >= ``-axis_tol * ||T||_2``
        (``||T||_2 = ||F||_2`` up to rounding).
    """
    fm = as_matrix(f, name="F", square=True)
    cm = symmetrize(c, sym_tol=sym_tol, name="C")
    t, u = _schur(fm)
    w = _row_eigenvalues(t)
    margin = axis_tol * _norm2(t)
    if float(w.real.max()) >= -margin:
        raise NotHurwitz(
            f"F has an eigenvalue with real part {w.real.max():.3e} >= {-margin:.3e}"
        )
    p = _solve_quasi_triangular(t, t, -(u.T @ cm @ u), trana="T")
    p = u @ (0.5 * (p + p.T)) @ u.T
    return 0.5 * (p + p.T)


# ---------------------------------------------------------------------------
# Schur complement


def schur_complement(s, keep: Sequence[int], rank_tol=DEFAULT.rank, sym_tol=DEFAULT.sym):
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
    cut = rank_tol * max(1.0, _norm2(m))
    if sv[-1] <= cut:
        raise SingularBlock(
            f"eliminated block is singular: smallest singular value "
            f"{sv[-1]:.3e} <= {cut:.3e}"
        )
    cross = m[np.ix_(keep, drop)]
    sc = head - cross @ np.linalg.solve(block, cross.T)
    return 0.5 * (sc + sc.T)
