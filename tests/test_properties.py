"""Property tests over random systems drawn by hypothesis.

Draws are derandomized with a fixed example budget, so every run tries
the same systems and the suite stays deterministic.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag
from scipy.sparse.csgraph import connected_components

from ariset import (
    DEFAULT,
    DegenerateSpectrum,
    Tolerances,
    boundedness,
    degenerate_classify,
    extremal_solutions,
    parametrize,
    recover_parameter,
    reduce,
    schur_family,
    spectral_split,
)
from ariset import linalg, riccati, systems

from conftest import assert_inertia_law, build_system, direct_family, homogeneous_setup
from test_systems import _pbh_oracle

# |Re λ| of the drawn blocks: distinct slots keep every pair of blocks and
# every block and the mirror of another at least 0.4 apart, unless a
# mirrored pair λ, −λ is planted on purpose
RE_SLOTS = (0.5, 0.9, 1.3, 1.7, 2.1, 2.5)
IM_PARTS = (0.0, 0.8, 1.6)

# Agreement demanded of schur_family with the per-subset route:
# |X_family − X_direct|_max <= max(X_RTOL, X_EPS_GROWTH · |X|_max) relative
# to max(1, |X_direct|_max). Both routes invert the same Gramian, whose
# condition number grows like |X| here (|M| = O(1), |Re λ| >= 0.5), so
# their rounding gap does too: over 3,211 members of 300 draws it stayed
# below 28·eps·|X|_max. Up to |X|_max = 1e4 the bound is 1e-9.
X_RTOL = 1e-9
X_EPS_GROWTH = 1e-13

PROPERTY_SETTINGS = settings(
    max_examples=30,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def family_systems(draw):
    """(A0, B) with at most six blocks: controllable blocks, optionally a
    planted mirrored pair among them, and up to two uncontrollable blocks."""
    nblocks = draw(st.integers(2, 6))
    slots = draw(st.permutations(RE_SLOTS))[:nblocks]
    entries = [
        complex(draw(st.sampled_from((1.0, -1.0))) * re, draw(st.sampled_from(IM_PARTS)))
        for re in slots
    ]
    if nblocks >= 3 and draw(st.booleans()):
        entries[-1] = -entries[0]  # the mirror of a controllable block
    n_unc = draw(st.integers(0, min(2, nblocks - 2)))
    # the uncontrollable blocks come from the front, never the mirrored one
    unc, ctrl = entries[:n_unc], entries[n_unc:]
    if entries[-1] == -entries[0] and n_unc:
        unc, ctrl = entries[1:1 + n_unc], entries[:1] + entries[1 + n_unc:]
    m = draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return build_system(np.random.default_rng(seed), ctrl=ctrl, unc=unc, m=m)


@PROPERTY_SETTINGS
@given(family_systems())
def test_family_equals_the_per_subset_solutions(system):
    form, split = homogeneous_setup(*system)
    direct = direct_family(form, split)
    members = schur_family(form, split)
    assert_inertia_law(split, members)
    family = {sol.block_set: sol for sol in members}
    assert set(family) == set(direct) | {()}
    for block_set, want in direct.items():
        got = family[block_set]
        assert got.rank == want.rank
        size = np.abs(want.X).max()
        gap = np.abs(got.X - want.X).max()
        assert gap <= max(X_RTOL, X_EPS_GROWTH * size) * max(1.0, size)


def _by_spectrum(family):
    """Members keyed by their eigenvalues, which tell the members of a
    drawn system apart (its blocks are at least 0.4 apart)."""
    return {tuple(np.round(np.sort_complex(sol.eigenvalues), 6)): sol for sol in family}


@PROPERTY_SETTINGS
@given(family_systems(), st.integers(0, 2 ** 32 - 1))
def test_family_follows_an_orthogonal_change_of_state(system, seed):
    # Ric for (SᵀA0S, SᵀB) at SᵀXS is Sᵀ Ric(X) S, so the family moves with S
    a0, b = system
    s, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(a0.shape))
    family = _by_spectrum(schur_family(*homogeneous_setup(a0, b)))
    moved = _by_spectrum(schur_family(*homogeneous_setup(s.T @ a0 @ s, s.T @ b)))
    _assert_same_members(moved, lambda sol: s.T @ sol.X @ s, family)


def _assert_same_members(got, want_x, want):
    """``got`` and ``want`` hold the same members, by spectrum; ``want_x``
    maps a member of ``want`` to the X expected in ``got``."""
    assert set(got) == set(want)
    for key, sol in want.items():
        expected = want_x(sol)
        assert got[key].rank == sol.rank
        size = np.abs(expected).max()
        gap = np.abs(got[key].X - expected).max()
        assert gap <= max(X_RTOL, X_EPS_GROWTH * size) * max(1.0, size)


@PROPERTY_SETTINGS
@given(family_systems(), st.integers(0, 2 ** 32 - 1))
def test_family_ignores_an_orthogonal_change_of_input(system, seed):
    # BV with V orthogonal has the same M = BBᵀ, and so the same family
    a0, b = system
    v, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((b.shape[1],) * 2))
    family = _by_spectrum(schur_family(*homogeneous_setup(a0, b)))
    turned = _by_spectrum(schur_family(*homogeneous_setup(a0, b @ v)))
    _assert_same_members(turned, lambda sol: sol.X, family)


@PROPERTY_SETTINGS
@given(family_systems(), st.sampled_from((0.5, 3.0, 10.0)))
def test_family_scales_with_the_input_gain(system, c):
    # Ric for cB at X/c² is Ric(X)/c², so every member scales by 1/c²
    a0, b = system
    family = _by_spectrum(schur_family(*homogeneous_setup(a0, b)))
    scaled = _by_spectrum(schur_family(*homogeneous_setup(a0, c * b)))
    _assert_same_members(scaled, lambda sol: sol.X / c ** 2, family)


# offsets of a near copy of an eigenvalue from the first, against axis
# bands (and so cluster gaps) on either side of them
NEAR_OFFSETS = (0.0, 1e-10, 1e-7, 1e-3)
CLUSTER_AXES = (1e-8, 1e-5)


@st.composite
def clustered_systems(draw):
    """(A0, B, tol): a normal A0 = Q D Qᵀ whose at most six blocks come in
    groups of near copies, each offset from the group's first eigenvalue by
    one of NEAR_OFFSETS, and a tolerance with one of CLUSTER_AXES."""
    blocks = []
    for re in draw(st.permutations(RE_SLOTS))[:draw(st.integers(1, 3))]:
        re *= draw(st.sampled_from((1.0, -1.0)))
        im = draw(st.sampled_from(IM_PARTS))
        for offset in [0.0] + draw(st.lists(st.sampled_from(NEAR_OFFSETS), max_size=2)):
            a = re + offset
            blocks.append(np.array([[a, im], [-im, a]]) if im else np.array([[a]]))
    d = block_diag(*blocks[:6])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal(d.shape))
    b = rng.standard_normal((len(d), 1))
    return q @ d @ q.T, b, Tolerances(axis=draw(st.sampled_from(CLUSTER_AXES)))


@PROPERTY_SETTINGS
@given(clustered_systems())
def test_split_clusters_are_the_components_of_near_eigenvalues(system):
    a0, b, tol = system
    split = spectral_split(a0, b, tol)
    owner = np.repeat(np.arange(len(split.blocks)), [blk.size for blk in split.blocks])
    eigs = np.array([lam for blk in split.blocks for lam in blk.eigenvalues])
    near = np.abs(eigs[:, None] - eigs[None, :]) <= tol.axis * np.linalg.norm(a0, 2)
    near |= owner[:, None] == owner[None, :]  # a pair's two eigenvalues are one block
    _, component = connected_components(near, directed=False)
    first = [owner[component == c].min() for c in component]
    assert [blk.cluster for blk in split.blocks] == [first[blk.offset] for blk in split.blocks]


@PROPERTY_SETTINGS
@given(clustered_systems())
def test_reduce_refuses_exactly_the_selections_that_split_a_cluster(system):
    a0, b, tol = system
    form, _ = homogeneous_setup(a0, b)
    split = spectral_split(form.A0, b, tol)
    labels = [blk.cluster for blk in split.blocks]
    for size in range(1, len(labels) + 1):
        for selection in itertools.combinations(range(len(labels)), size):
            picked = {labels[i] for i in selection}
            if sum(label in picked for label in labels) == size:
                assert reduce(form, split, selection).block_set == selection
            else:
                with pytest.raises(DegenerateSpectrum) as refused:
                    reduce(form, split, selection)
                assert refused.value.gap <= tol.axis * form.a0_norm


# Rank cutoffs of the PBH sweep. One block's input is scaled so that its
# pencil's σ_min/σ_max sweeps 1e-13..1e-3, across each cutoff and across
# the threshold of the Cholesky certificate (about 1e-7 at these sizes).
PBH_RANK_TOLS = (1e-12, 1e-10, 1e-8)


@st.composite
def weakly_controllable_systems(draw):
    """(A0, B, rank_tol): a normal A0 = Q D Qᵀ with at most five blocks on
    distinct RE_SLOTS, real or pairs, and B = Q·Bd whose rows on one block
    are scaled by 10^(−13..−3)."""
    blocks = []
    for re in draw(st.permutations(RE_SLOTS))[:draw(st.integers(1, 5))]:
        re *= draw(st.sampled_from((1.0, -1.0)))
        im = draw(st.sampled_from(IM_PARTS))
        blocks.append(np.array([[re, im], [-im, re]]) if im else np.array([[re]]))
    d = block_diag(*blocks)
    weak = draw(st.integers(0, len(blocks) - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal(d.shape))
    bd = rng.standard_normal((len(d), draw(st.integers(1, 2))))
    start = sum(len(blk) for blk in blocks[:weak])
    bd[start:start + len(blocks[weak])] *= 10.0 ** draw(st.floats(-13.0, -3.0))
    return q @ d @ q.T, q @ bd, draw(st.sampled_from(PBH_RANK_TOLS))


def _undecided(a0, b, split, rank_tol):
    """Tags of ``pbh_classify`` and the eigenvalues whose pencils went to
    the SVD because the certificate could not decide them."""
    with mock.patch.object(systems, "_svd_rule", wraps=systems._svd_rule) as rule:
        tagged = systems.pbh_classify(a0, b, split, rank_tol)
    return tagged, [lam for call in rule.call_args_list for lam in call.args[2]]


@PROPERTY_SETTINGS
@given(weakly_controllable_systems())
def test_pbh_tags_equal_the_per_block_svd_oracle(system):
    a0, b, rank_tol = system
    tagged, undecided = _undecided(a0, b, spectral_split(a0, b), rank_tol)
    n = len(a0)
    for blk in tagged.blocks:
        lam = blk.eigenvalues[0]
        pencil = np.hstack([lam * np.eye(n) - a0, b.astype(complex)])
        sv = np.linalg.svd(pencil, compute_uv=False)
        # a real and a complex SVD may round apart within a hair of the cut
        assume(abs(sv[-1] / (rank_tol * max(1.0, sv[0])) - 1.0) > 1e-6)
        assert blk.controllable == _pbh_oracle(a0, b, lam, rank_tol)
        # well above the certificate's threshold, which is relative to
        # |λ|√n + ‖[A0, B]‖_F (the size of the terms of PPᴴ), no SVD is needed
        if sv[-1] > 1e-5 * (abs(lam) * np.sqrt(n) + np.linalg.norm(np.hstack([a0, b]))):
            assert not np.isclose(undecided, lam, rtol=0.0, atol=1e-12).any()


def test_pbh_pencil_at_twice_the_cut_goes_to_the_svd():
    # at -0.5 the pencil [-0.5 I - diag(lam), B] has σ_min = eps from the
    # first input alone; the second input reaches every other eigenvalue
    lam = np.array([-2.0, -0.5, 1.0, 1.5])
    b = np.zeros((4, 2))
    b[[0, 2, 3], 1] = 1.0
    sigma_max = np.linalg.svd(np.hstack([-0.5 * np.eye(4) - np.diag(lam), b]),
                              compute_uv=False)[0]
    b[1, 0] = 2.0 * 1e-10 * max(1.0, sigma_max)
    a0 = np.diag(lam)
    tagged, undecided = _undecided(a0, b, spectral_split(a0, b), 1e-10)
    assert undecided == [-0.5]
    for blk in tagged.blocks:
        assert blk.controllable
        assert _pbh_oracle(a0, b, blk.eigenvalues[0])


# σ_min of a planted Gramian as a multiple of the rank cut, and the
# exponents s of the factor 2^s it is scaled by: 2^±400 lie inside the
# certificate's range of norms, 2^505 and 2^±600 outside it but for a 1×1
# Gramian, whose σ alone stays inside at 2^505 (at 2^505 every norm is
# still finite, so only the range keeps the certificate out)
CUT_RATIOS = (0.5, 0.99, 1.01, 2.0, 1e3)
SCALE_EXPONENTS = (-600, -400, 0, 400, 505, 600)


@st.composite
def planted_gramian_stacks(draw):
    """Levels ``(ls, ys)`` for ``riccati._family_coordinates``, of 1..4
    supports each with distinct column counts k in 1..10, and per level
    the ``(ratio, exponent)`` of every row, or None for a row whose
    Gramian is exactly singular. A row's Gramian ``g = R⁻ᵀ Y R⁻¹`` is
    planted as ``2^s · V diag(±σ) Vᵀ``: σ from ratio · DEFAULT.rank up to
    1, signs mixed. ``ls`` has orthonormal columns, or columns of the
    identity, for which R = I exactly and g = Y. One level may start with
    an exactly singular Y (all ones on identity columns; zero at k = 1)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    widths = draw(st.lists(st.integers(1, 10), min_size=1, max_size=3, unique=True))
    singular = draw(st.integers(0, 3 * len(widths) - 1))  # a level in a third of the draws
    levels, plans = [], []
    for level, k in enumerate(widths):
        n = k + draw(st.integers(0, 3))
        rows = draw(st.integers(1, 4))
        ls, ys, plan = np.empty((rows, n, k)), np.empty((rows, k, k)), []
        for j in range(rows):
            ratio = draw(st.sampled_from(CUT_RATIOS))
            exponent = draw(st.sampled_from(SCALE_EXPONENTS))
            sigma = np.geomspace(ratio * DEFAULT.rank, 1.0, k) * rng.choice([-1.0, 1.0], k)
            v, _ = np.linalg.qr(rng.standard_normal((k, k)))
            g = 2.0 ** exponent * (v * sigma) @ v.T
            g = 0.5 * (g + g.T)
            if draw(st.booleans()):
                ls[j] = np.eye(n)[:, rng.permutation(n)[:k]]
                ys[j] = g
            else:
                ls[j] = np.linalg.qr(rng.standard_normal((n, k)))[0]
                r = np.linalg.qr(ls[j], mode="r")
                ys[j] = r.T @ g @ r
            plan.append((ratio, exponent))
        if level == singular:
            ls[0] = np.eye(n)[:, :k]
            ys[0] = np.ones((k, k)) if k > 1 else 0.0
            plan[0] = None
        levels.append((ls, ys))
        plans.append(plan)
    return levels, plans


def _eigvalsh_coordinates(ls, ys, tol):
    """Oracle for one level of ``_family_coordinates``: the rank rule
    from ``eigvalsh`` on every Gramian, then ``inv`` of the passing ones."""
    r_inv = np.linalg.inv(np.linalg.qr(ls, mode="r"))
    g = np.swapaxes(r_inv, 1, 2) @ ys @ r_inv
    g = 0.5 * (g + np.swapaxes(g, 1, 2))
    sv = np.abs(np.linalg.eigvalsh(g))
    ok = linalg._full_rank(sv.min(axis=1), sv.max(axis=1), tol.rank)
    if not ok.all():
        ls, r_inv, g = ls[ok], r_inv[ok], g[ok]
    lcoord = np.linalg.inv(g)
    return ok, ls @ r_inv, 0.5 * (lcoord + np.swapaxes(lcoord, 1, 2))


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(planted_gramian_stacks())
def test_gramian_certificate_passes_only_what_eigvalsh_passes(stacks):
    levels, plans = stacks
    certificate, certified, rule_rows = riccati._certified_full_rank, [], []
    eigvalsh = np.linalg.eigvalsh

    def recording_certificate(*args):
        certified.append(certificate(*args))
        return certified[-1].copy()

    def recording_eigvalsh(a):
        rule_rows.append(len(a))
        return eigvalsh(a)

    low, high = linalg._CERTIFIED_RANGE
    with mock.patch.object(riccati, "_certified_full_rank", recording_certificate), \
            mock.patch.object(np.linalg, "eigvalsh", recording_eigvalsh):
        got_levels = riccati._family_coordinates(levels, DEFAULT)
    (cert,) = certified  # one certificate call for every level
    assert sum(rule_rows) == np.count_nonzero(~cert)
    level_certs = np.split(cert, np.cumsum([len(ls) for ls, _ in levels])[:-1])
    # one eigvalsh per level with undecided rows, on exactly those rows
    undecided = [np.count_nonzero(~cert) for cert in level_certs]
    assert rule_rows == [n for n in undecided if n]
    for (ls, ys), plan, got, cert in zip(levels, plans, got_levels, level_certs):
        want = _eigvalsh_coordinates(ls, ys, DEFAULT)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        ok = got[0]
        assert ok[cert].all()  # a certified row passes the eigvalsh rule
        for row, planted in enumerate(plan):
            if planted is None:  # an exactly singular g: the level goes to eigvalsh
                assert not cert.any() and not ok[row]
                continue
            ratio, exponent = planted
            sigma = np.geomspace(ratio * DEFAULT.rank, 1.0, len(ls[row].T))
            norms = (2.0 ** exponent * np.linalg.norm(sigma),
                     2.0 ** -exponent * np.linalg.norm(1.0 / sigma))
            if not all(low <= norm <= high for norm in norms):  # outside the certificate's range
                assert not cert[row]
            # σ_min below the cut, or 2^s·σ_max below 1, where the cut is
            # absolute (a 1×1 Gramian passes above the cut at any scale)
            if ratio < 1.0 and (len(ls[row].T) > 1 or exponent == 0) or exponent < 0:
                assert not ok[row]
            if ratio == 1e3 and 0 <= exponent <= 400 and None not in plan:
                assert cert[row]


# norms a Gramian may report besides ordinary ones: nan and inf, zero, the
# edges of the certificate's range and values just past them
EDGE_NORMS = (np.nan, np.inf, 0.0, 2.0 ** -501, 2.0 ** -500, 2.0 ** 500, 2.0 ** 501, 1e300)


@st.composite
def certificate_levels(draw):
    """``(k, norms)`` of 1..5 levels with distinct column counts k in
    1..40, ``norms`` the 3×N Frobenius norms of g, z and g·z − I of 1..6
    unions each, and a rank tolerance."""
    norm = st.one_of(st.sampled_from(EDGE_NORMS), st.floats(1e-3, 1e3))
    residual = st.one_of(st.sampled_from(EDGE_NORMS), st.floats(0.0, 1.5))
    levels = []
    for k in draw(st.lists(st.integers(1, 40), min_size=1, max_size=5, unique=True)):
        rows = draw(st.integers(1, 6))
        levels.append((k, np.array([draw(st.lists(strategy, min_size=rows, max_size=rows))
                                    for strategy in (norm, norm, residual)])))
    return levels, draw(st.sampled_from((0.0, DEFAULT.rank, 1e-3)))


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(certificate_levels())
def test_gramian_certificate_of_all_levels_at_once_is_the_per_level_answer(drawn):
    # one call with each union's k decides every union as the call of its
    # level with that k alone does, nan, inf and norms out of range included
    levels, rank_tol = drawn
    widths = np.repeat([k for k, _ in levels], [norms.shape[1] for _, norms in levels])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        once = riccati._certified_full_rank(widths, *np.concatenate([n for _, n in levels], axis=1),
                                            rank_tol)
        per_level = [riccati._certified_full_rank(k, *norms, rank_tol) for k, norms in levels]
    assert once.dtype == bool
    assert once.tolist() == np.concatenate(per_level).tolist()


# ---------------------------------------------------------------------------
# rays of uncontrollable blocks

# the half plane (or axis) of a planted uncontrollable mode, as the sign
# of its real part
UNC_PLANES = {"RHP": 1.0, "LHP": -1.0, "AXIS": 0.0}
RAY_SIGNS = {"RHP": "+", "LHP": "-", "AXIS": "+-"}


@st.composite
def uncontrollable_systems(draw, repeats=(1, 2), controllable=(0, 3)):
    """(A0, B): up to ``controllable[1]`` controllable blocks and one or two
    planted uncontrollable modes, real or pairs, in the RHP, the LHP or on
    the axis, each planted ``repeats`` times (two copies share a cluster).
    Every mode has its own RE_SLOTS real part, so only copies cluster."""
    slots = draw(st.permutations(RE_SLOTS))
    nctrl = draw(st.integers(*controllable))
    ctrl = [complex(draw(st.sampled_from((1.0, -1.0))) * re, draw(st.sampled_from(IM_PARTS)))
            for re in slots[:nctrl]]
    unc, planes = [], set()
    for re in slots[nctrl:nctrl + draw(st.integers(1, 2))]:
        plane = draw(st.sampled_from(sorted(UNC_PLANES)))
        if plane == "AXIS" and plane in planes:
            continue  # two axis modes would share the slot 0
        planes.add(plane)
        im = draw(st.sampled_from(IM_PARTS))
        unc += [complex(UNC_PLANES[plane] * re, im)] * draw(st.sampled_from(repeats))
    m = draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return build_system(np.random.default_rng(seed), ctrl=ctrl, unc=unc, m=m)


def _verdict(planes):
    if "AXIS" in planes or {"RHP", "LHP"} <= planes:
        return "unbounded-both"
    return "bounded-below-only" if "RHP" in planes else "bounded-above-only"


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(uncontrollable_systems())
def test_every_uncontrollable_block_gets_one_exact_ray(system):
    # copies of a mode are normal and B misses them all, so the kernel of
    # [A0ᵀ − λI; Bᵀ] has a direction for every copy: every uncontrollable
    # block, axis or not, gets one ray, and every axis one a generator
    a0, b = system
    form, split = homogeneous_setup(a0, b)
    unc = split.indices(controllable=False)
    report = boundedness(form, split)
    assert report.verdict == _verdict({split.blocks[i].half_plane for i in unc})
    assert [w.block for w in report.witnesses] == unc
    outcomes = degenerate_classify(form, split)
    assert {out.kind for _, out in outcomes} <= {"free-family"}
    free = [out.generator for _, out in outcomes]
    axis = [w for w in report.witnesses if w.sign == "+-"]
    assert len(free) == len(axis) == len(split.indices(half_plane="AXIS"))
    assert all(np.array_equal(g, w.direction) for g, w in zip(free, axis))
    scale = max(1.0, form.a0_norm)
    for w in report.witnesses:
        blk = split.blocks[w.block]
        assert w.sign == RAY_SIGNS[blk.half_plane]
        g = w.direction
        assert abs(np.linalg.norm(g) - 1.0) <= 1e-12
        assert np.abs(b.T @ g).max() <= 1e-10 * max(1.0, np.abs(b).max())
        growth = 0.0 if blk.half_plane == "AXIS" else 2.0 * blk.eigenvalues[0].real
        assert np.abs(a0.T @ g + g @ a0 - growth * g).max() <= 1e-9 * scale
    clusters = {}
    for w in report.witnesses:
        clusters.setdefault(split.blocks[w.block].cluster, []).append(w.direction)
    for directions in clusters.values():
        for g, h in itertools.combinations(directions, 2):
            assert np.abs(g - h).max() > 0.1  # copies take distinct directions


def _by_eigenvalue(split, witnesses):
    return {np.round(split.blocks[w.block].eigenvalues[0], 6): w for w in witnesses}


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(uncontrollable_systems(repeats=(1,), controllable=(1, 3)))
def test_rays_follow_the_negation_of_a0(system):
    # Ric for −A0 at −X is Ric for A0 at X, and A0ᵀv = λv is (−A0)ᵀv = −λv:
    # the verdict mirrors, each sign flips, and each ray of a lone mode
    # (whose direction is unique) keeps its direction
    a0, b = system
    mirrored = {"bounded-below-only": "bounded-above-only",
                "bounded-above-only": "bounded-below-only"}
    flipped = {"+": "-", "-": "+", "+-": "+-"}
    form, split = homogeneous_setup(a0, b)
    neg_form, neg_split = homogeneous_setup(-a0, b)
    report, neg = boundedness(form, split), boundedness(neg_form, neg_split)
    assert neg.verdict == mirrored.get(report.verdict, report.verdict)
    rays = _by_eigenvalue(split, report.witnesses)
    neg_rays = _by_eigenvalue(neg_split, neg.witnesses)
    assert set(neg_rays) == {-np.conj(lam) for lam in rays}
    for lam, w in rays.items():
        v = neg_rays[-np.conj(lam)]
        assert v.sign == flipped[w.sign]
        assert np.abs(v.direction - w.direction).max() <= 1e-10


@PROPERTY_SETTINGS
@given(family_systems())
def test_extremal_pair_follows_the_negation_of_a0(system):
    # X solves the equation for −A0 exactly when −X solves it for A0, so
    # K_max(−A0) = −K_min(A0) and K_min(−A0) = −K_max(A0) (K0 = 0)
    a0, b = system
    form, split = homogeneous_setup(a0, b)
    assume(not split.indices(controllable=False) and not split.indices(half_plane="AXIS"))
    pair = extremal_solutions(form, split)
    neg = extremal_solutions(*homogeneous_setup(-a0, b))
    for got, want in ((neg.K_max, -pair.K_min), (neg.K_min, -pair.K_max)):
        size = np.abs(want).max()
        assert np.abs(got - want).max() <= max(X_RTOL, X_EPS_GROWTH * size) * max(1.0, size)


# Agreement demanded of recover_parameter(parametrize(P)) with P:
# |P_recovered − P|_max relative to max(1, |Yhat|_max |Dk|_max, |Mk|_max,
# |P|_max), the size of the terms of P = Yhat Dk + Dkᵀ Yhat − Mk. The
# round trip inverts Yhat twice, so its error grows like cond(Yhat)·eps:
# over 400 draws like these it stayed below 1.2·cond(Yhat)·eps and 4e-13.
PARAM_RTOL = 1e-9


@st.composite
def parametrized_systems(draw):
    """(A0, B) whose RHP blocks are all controllable, with a controllable
    LHP block or two, and a PSD parameter P over the RHP blocks, drawn
    definite (a Gram matrix plus 0.1·I) or singular (of rank below k), and
    whether it was drawn definite."""
    nr = draw(st.integers(1, 3))
    nl = draw(st.integers(0, 2))
    slots = draw(st.permutations(RE_SLOTS))[:nr + nl]
    entries = [complex(re if i < nr else -re, draw(st.sampled_from(IM_PARTS)))
               for i, re in enumerate(slots)]
    m = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a0, b = build_system(rng, ctrl=entries, m=m)
    k = sum(1 if lam.imag == 0.0 else 2 for lam in entries[:nr])
    definite = draw(st.booleans())
    g = rng.standard_normal((k, k if definite else draw(st.integers(0, k - 1))))
    p = g @ g.T + (0.1 * np.eye(k) if definite else 0.0)
    return a0, b, p, definite


@PROPERTY_SETTINGS
@given(parametrized_systems())
def test_recover_parameter_inverts_parametrize(system):
    a0, b, p, definite = system
    form, split = homogeneous_setup(a0, b)
    eqn = reduce(form, split, split.indices(half_plane="RHP"))
    sol = parametrize(eqn, p)
    assert sol.certificate.strict is definite
    recovered = recover_parameter(eqn, sol.Lcoord).P
    y_hat = np.linalg.inv(sol.Lcoord)
    scale = max(1.0, np.abs(y_hat).max() * np.abs(eqn.Dk).max(), np.abs(eqn.Mk).max(),
                np.abs(p).max())
    assert np.abs(recovered - p).max() <= PARAM_RTOL * scale
