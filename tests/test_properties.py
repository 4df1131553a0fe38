"""Property tests over random systems drawn by hypothesis.

Draws are derandomized with a fixed example budget, so every run tries
the same systems and the suite stays deterministic.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ariset import schur_family

from conftest import build_system, direct_family, homogeneous_setup

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
    family = {sol.block_set: sol for sol in schur_family(form, split)}
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
    assert set(moved) == set(family)
    for key, sol in family.items():
        want = s.T @ sol.X @ s
        got = moved[key]
        assert got.rank == sol.rank
        size = np.abs(want).max()
        gap = np.abs(got.X - want).max()
        assert gap <= max(X_RTOL, X_EPS_GROWTH * size) * max(1.0, size)
