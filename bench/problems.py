"""Seeded problem generator for the benchmark, with planted truth.

Every problem is a pair (A, B) with Q = 0, so K0 = 0 is always a base
solution of the equation. A is built the way the test suite builds its
systems: a block quasi-triangular core with exactly known eigenvalues
(1x1 blocks for real modes, 2x2 rotation blocks for conjugate pairs,
strictly upper coupling inside the controllable part), with the
uncontrollable modes appended as decoupled blocks whose rows of B vanish,
all conjugated by a random orthogonal matrix.

Eigenvalues are placed constructively, never by rejection: each non-axis
block gets its own slot for |Re|, so any two eigenvalues, and any
eigenvalue and the mirror image of another, are at least
``SLOT_STEP - 2 * JITTER`` apart. The only retry is the draw of the
coupling and of B, and it is capped: it needs a PBH margin and, for the
ladder, a bound on the norm of the equation solutions that each half
plane's controllable modes support.

The generator never calls ``ariset``: the truth recorded with each
problem follows from the planted structure alone, and a problem is never
redrawn because the library failed on it.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.linalg import block_diag, schur, solve_continuous_lyapunov

RHP, LHP, AXIS = "RHP", "LHP", "AXIS"
SLOT0 = 0.5
SLOT_STEP = 0.3
JITTER = 0.05
IMAG_RANGE = (0.5, 2.0)
AXIS_IMAG_RANGE = (0.6, 1.5)
STREAMS = {"family": 1, "ladder": 2, "cli": 3}
# ladder problems: largest 2-norm of the equation solutions supported on
# all the controllable modes of one half plane (``half_plane_solution_norm``)
X_MAX = 3e3

# the worked 3x3 example: A = diag(1, 2, -4), B = (1, 1, 1)^T, Q = 0
PAPER_A = np.diag([1.0, 2.0, -4.0])
PAPER_B = np.ones((3, 1))
PAPER_K_MAX = np.array([[18.0, -24.0, 0.0], [-24.0, 36.0, 0.0], [0.0, 0.0, 0.0]])
PAPER_K_MIN = np.diag([0.0, 0.0, -8.0])


class GenerationError(RuntimeError):
    """The generator could not draw a problem within its retry cap."""


@dataclass(frozen=True)
class Mode:
    """One planted Schur block: eigenvalue representative (Im >= 0) and
    its PBH verdict."""

    value: complex
    controllable: bool

    @property
    def size(self):
        return 2 if self.value.imag else 1

    @property
    def plane(self):
        if self.value.real == 0.0:
            return AXIS
        return RHP if self.value.real > 0 else LHP


@dataclass(frozen=True)
class Truth:
    """What the planted structure predicts.

    ``antistabilizing`` is True when the Hamiltonian route must return a
    base solution, False when it must raise ``NoBaseSolution`` (an
    uncontrollable LHP mode), and None when the planted data does not
    decide it (an uncontrollable axis mode).
    """

    verdict: str
    members: int
    antistabilizing: Optional[bool]
    free_families: int
    nonaxis_blocks: int


@dataclass(frozen=True)
class Problem:
    label: str
    A: np.ndarray
    B: np.ndarray
    modes: tuple
    truth: Truth
    param: Optional[np.ndarray] = None

    @property
    def n(self):
        return self.A.shape[0]

    def analysis_modes(self):
        """Modes of A0 for the base the analysis runs on: the
        antistabilizing base flips every LHP mode when it is predicted to
        exist; otherwise the analysis uses K0 = 0 and A0 = A."""
        if self.truth.antistabilizing:
            return tuple(
                Mode(complex(abs(md.value.real), md.value.imag), md.controllable)
                for md in self.modes
            )
        return self.modes

    def rhp_controllable_order(self):
        return sum(
            md.size for md in self.analysis_modes()
            if md.plane == RHP and md.controllable
        )


def truth_of(modes):
    unc = {md.plane for md in modes if not md.controllable}
    if not unc:
        verdict = "bounded"
    elif AXIS in unc or {RHP, LHP} <= unc:
        verdict = "unbounded-both"
    elif RHP in unc:
        verdict = "bounded-below-only"
    else:
        verdict = "bounded-above-only"
    if LHP in unc:
        anti = False
    elif any(md.plane == AXIS for md in modes):
        anti = None
    else:
        anti = True
    ctrl_nonaxis = sum(1 for md in modes if md.plane != AXIS and md.controllable)
    return Truth(
        verdict=verdict,
        members=2 ** ctrl_nonaxis,
        antistabilizing=anti,
        free_families=sum(1 for md in modes if md.plane == AXIS and not md.controllable),
        nonaxis_blocks=sum(1 for md in modes if md.plane != AXIS),
    )


def rng_for(seed, workload, index):
    """Independent stream per (seed, workload, problem index)."""
    return np.random.default_rng([int(seed), STREAMS[workload], int(index)])


# ---------------------------------------------------------------------------
# spectra


def place_modes(rng, blocks):
    """Eigenvalue representatives for non-axis blocks.

    ``blocks`` is a list of ``(plane, size, controllable)``; each block
    gets a distinct |Re| slot, drawn as a random permutation, plus a small
    jitter, so the spacing guarantees hold by construction.
    """
    slots = rng.permutation(len(blocks))
    modes = []
    for (plane, size, ctrl), slot in zip(blocks, slots):
        re = SLOT0 + SLOT_STEP * slot + rng.uniform(-JITTER, JITTER)
        if plane == LHP:
            re = -re
        im = rng.uniform(*IMAG_RANGE) if size == 2 else 0.0
        modes.append(Mode(complex(re, im), ctrl))
    return modes


def balanced_blocks(reals, pairs, unc_planes=()):
    """Controllable blocks split evenly between the half planes (pairs and
    reals each alternate RHP, LHP), then one uncontrollable real block per
    entry of ``unc_planes``."""
    out = [(RHP if i % 2 == 0 else LHP, 2, True) for i in range(pairs)]
    out += [(RHP if i % 2 == 0 else LHP, 1, True) for i in range(reals)]
    out += [(plane, 1, False) for plane in unc_planes]
    return out


# ---------------------------------------------------------------------------
# systems


def _mode_block(value):
    if value.imag:
        return np.array([[value.real, value.imag], [-value.imag, value.real]])
    return np.array([[value.real]])


def _pbh_margin(a, b):
    n = a.shape[0]
    worst = np.inf
    for lam in np.linalg.eigvals(a):
        pencil = np.hstack([lam * np.eye(n) - a, b.astype(complex)])
        sv = np.linalg.svd(pencil, compute_uv=False)
        worst = min(worst, sv[-1] / max(1.0, sv[0]))
    return worst


def half_plane_solution_norm(a, b, modes, plane):
    """2-norm of the solution of -AᵀX - XA + XBBᵀX = 0 supported on every
    controllable mode of ``plane`` (0 when there is none).

    With W an orthonormal basis of the left invariant subspace of those
    modes (WᵀA = ΛWᵀ), the solution is X = W Y⁻¹ Wᵀ where
    ΛY + YΛᵀ = WᵀBBᵀW, so ||X|| = 1 / min |eig(Y)|. On the RHP modes this
    is the maximal solution, on the LHP modes the antistabilizing one.
    """
    unc = expand_values(md.value for md in modes if not md.controllable)
    sign = 1.0 if plane == RHP else -1.0

    def chosen(re, im):
        lam = complex(re, im)
        return sign * re > 0 and not any(abs(lam - u) < 1e-6 for u in unc)

    t, z, k = schur(a.T, output="real", sort=chosen)
    if k == 0:
        return 0.0
    w = z[:, :k]
    gb = w.T @ b
    y = solve_continuous_lyapunov(t[:k, :k].T, gb @ gb.T)
    eig = np.abs(np.linalg.eigvalsh(0.5 * (y + y.T)))
    return np.inf if eig.min() == 0.0 else float(1.0 / eig.min())


def expand_values(values):
    out = []
    for v in values:
        out += [v, v.conjugate()] if v.imag else [v]
    return out


def build_pair(rng, modes, m, coupling=0.4, margin=1e-6, x_max=np.inf, max_tries=200):
    """(A, B) with the planted modes; controllable ones first in the core.

    A draw is kept when the controllable part has PBH margin ``margin``
    and the solutions on each half plane's controllable modes have norm
    at most ``x_max``. Raises :class:`GenerationError` when ``max_tries``
    draws all miss."""
    blocks_c = [_mode_block(md.value) for md in modes if md.controllable]
    blocks_u = [_mode_block(md.value) for md in modes if not md.controllable]
    nc = sum(blk.shape[0] for blk in blocks_c)
    nu = sum(blk.shape[0] for blk in blocks_u)
    n = nc + nu
    # coupling strictly above the diagonal blocks, so every block keeps its
    # eigenvalues exactly
    owner = np.repeat(np.arange(len(blocks_c)), [blk.shape[0] for blk in blocks_c])
    above = owner[:, None] < owner[None, :]
    for _ in range(max_tries):
        core_c = block_diag(*blocks_c) if blocks_c else np.zeros((0, 0))
        core_c = core_c + coupling * above * rng.standard_normal((nc, nc))
        bc = rng.standard_normal((nc, m))
        if nc and _pbh_margin(core_c, bc) < margin:
            continue
        core = np.zeros((n, n))
        core[:nc, :nc] = core_c
        core[nc:, nc:] = block_diag(*blocks_u) if blocks_u else np.zeros((0, 0))
        if nc and nu:
            core[:nc, nc:] = coupling * rng.standard_normal((nc, nu))
        s, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a, b = s @ core @ s.T, s @ np.vstack([bc, np.zeros((nu, m))])
        if x_max < np.inf and max(
                half_plane_solution_norm(a, b, modes, plane) for plane in (RHP, LHP)) > x_max:
            continue
        return a, b
    raise GenerationError(
        f"no draw of a {n}x{n} system with PBH margin >= {margin:g} "
        f"and solution norms <= {x_max:g} in {max_tries} tries"
    )


def make_problem(rng, label, modes, m, with_param=False, x_max=np.inf):
    a, b = build_pair(rng, modes, m, x_max=x_max)
    problem = Problem(label=label, A=a, B=b, modes=tuple(modes), truth=truth_of(modes))
    return with_parameter(problem, rng) if with_param else problem


def with_parameter(problem, rng):
    """Attach a seeded positive definite P of the order `parametrize`
    expects for this problem."""
    k = problem.rhp_controllable_order()
    g = rng.standard_normal((k, k))
    return replace(problem, param=g @ g.T / k + 0.5 * np.eye(k))


def inputs_for(n):
    return max(2, n // 4)


def paper_problem():
    modes = (Mode(1.0 + 0j, True), Mode(2.0 + 0j, True), Mode(-4.0 + 0j, True))
    return Problem(label="paper-n3", A=PAPER_A.copy(), B=PAPER_B.copy(), modes=modes,
                   truth=truth_of(modes))


# ---------------------------------------------------------------------------
# workload problem sets


FAMILY_LEVELS = 5
FAMILY_PER_LEVEL = 5


def family_problems(seed):
    """25 problems in five cost levels of five, interleaved so every prefix
    of the cycle has the same mix.

    ``schur_family`` tries all 2^B subsets, and a subset holding an
    uncontrollable block costs about half as much (its solve fails and
    the cross-check is skipped), so level L (1..5) holds controllable
    problems with B = 4 + L and, for L <= 4, two problems with B = 5 + L
    and one planted uncontrollable real mode in a seeded half plane: 8 of
    25 problems plant one. Equal-sized levels put the median in the middle
    of level 3 and the 90th percentile in the middle of level 5. n is
    B+1..B+3 (at most 10); conjugate pairs make up the difference.
    """
    out = []
    for i in range(FAMILY_LEVELS * FAMILY_PER_LEVEL):
        level = 1 + i % FAMILY_LEVELS
        j = i // FAMILY_LEVELS
        planted = level < FAMILY_LEVELS and j >= FAMILY_PER_LEVEL - 2
        nb = 5 + level if planted else 4 + level
        n = min(10, nb + 1 + j % 3)
        pairs = n - nb
        rng = rng_for(seed, "family", i)
        unc = (RHP if rng.random() < 0.5 else LHP,) if planted else ()
        reals = nb - pairs - len(unc)
        modes = place_modes(rng, balanced_blocks(reals, pairs, unc))
        tag = f"-unc{unc[0]}" if unc else ""
        out.append(make_problem(rng, f"family-{i:02d}-n{n}-B{nb}{tag}", modes, inputs_for(n)))
    return out


LADDER_RUNGS = (6, 10, 12, 20, 30)
LADDER_VARIANTS = ("ctrl-a", "ctrl-b", "unc-rhp", "unc-lhp", "unc-both", "zero", "imag")
# n = 30 also gets "ctrl-c": its four Hamiltonian-base problems are then
# just over a tenth of the 37-problem cycle, so the 90th percentile falls
# on them, where the Kronecker solves are largest.
LADDER_EXTRA = ((30, "ctrl-c"),)


def ladder_modes(rng, n, variant):
    unc_planes = {"unc-rhp": (RHP,), "unc-lhp": (LHP,), "unc-both": (RHP, LHP)}.get(variant, ())
    axis = ()
    if variant == "zero":
        axis = (Mode(0j, False),)
    elif variant == "imag":
        axis = (Mode(complex(0.0, rng.uniform(*AXIS_IMAG_RANGE)), False),)
    nc = n - len(unc_planes) - sum(md.size for md in axis)
    pairs = n // 5
    return place_modes(rng, balanced_blocks(nc - 2 * pairs, pairs, unc_planes)) + list(axis)


def ladder_problems(seed):
    """The worked example, then for each n in 6, 10, 12, 20, 30 two
    controllable problems and the five planted-mode variants, ordered so
    that each pass over a variant walks the whole ladder of sizes, then
    the extra n = 30 problem.

    Every ladder problem keeps the solutions on its controllable RHP and
    LHP modes (the maximal and the antistabilizing one) within ``X_MAX``
    in norm. The ladder runs the Hamiltonian base and ``feedback_flip``,
    whose fixed tolerances refuse correct answers on worse-conditioned
    problems (norms of 1.8e4 and up); ``bench/README.md`` lists them."""
    out = [with_parameter(paper_problem(), rng_for(seed, "ladder", 0))]
    plan = [(n, variant) for variant in LADDER_VARIANTS for n in LADDER_RUNGS]
    for idx, (n, variant) in enumerate(plan + list(LADDER_EXTRA), start=1):
        rng = rng_for(seed, "ladder", idx)
        modes = ladder_modes(rng, n, variant)
        out.append(make_problem(rng, f"ladder-n{n}-{variant}", modes, inputs_for(n),
                                with_param=True, x_max=X_MAX))
    return out


CLI_SHAPES = (("ctrl", 6), ("ctrl", 8), ("unc-rhp", 6))


def cli_problems(seed):
    """The worked example plus controllable n = 6 and 8 and an n = 6
    problem with an uncontrollable RHP mode (extremal exits with 5)."""
    out = [paper_problem()]
    for idx, (variant, n) in enumerate(CLI_SHAPES, start=1):
        rng = rng_for(seed, "cli", idx)
        unc = (RHP,) if variant == "unc-rhp" else ()
        pairs = 1
        # the first real block is RHP and controllable, for the rank-one
        # candidate handed to `verify`
        modes = place_modes(rng, balanced_blocks(n - 2 * pairs - len(unc), pairs, unc))
        out.append(make_problem(rng, f"cli-n{n}-{variant}", modes, inputs_for(n)))
    return out


def rank_one_solution(problem):
    """An exact equation solution X = a w wᵀ on a real controllable RHP
    mode λ of A (Aᵀw = λw), with a = 2λ / (wᵀBBᵀw); independent of the
    library. With Q = 0 and K0 = 0, K = X solves the equation."""
    lam = max(md.value.real for md in problem.modes
              if md.plane == RHP and md.size == 1 and md.controllable)
    w, v = np.linalg.eig(problem.A.T)
    vec = np.real(v[:, int(np.argmin(np.abs(w - lam)))])
    vec /= np.linalg.norm(vec)
    gain = float(vec @ problem.B @ problem.B.T @ vec)
    return (2.0 * lam / gain) * np.outer(vec, vec)
