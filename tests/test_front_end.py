"""The shared Schur front end: the Schur kernel, the bracket of the
computed ‖·‖₂ that decides the AXIS band, the cluster gap and the cuts
scaled by ‖A0‖₂, and the certificate of the checked inverse.

Every split and base solve is compared bit for bit with the code as it
stood before (``oracles.split_reference``, ``oracles.hamiltonian_reference``),
on every problem of the benchmark's seeds 1-3 and on draws that plant a
decision inside the bracket's window; spies count the exact norms taken."""

import copy
import dataclasses
import math
import pickle
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, schur

from ariset import (
    DEFAULT,
    InvalidInput,
    RiccatiError,
    RiccatiProblem,
    SingularY,
    Tolerances,
    degenerate_classify,
    linalg,
    rank_one_classify,
    reduce,
    riccati,
    schur_family,
    solve_base_are,
    spectral_split,
)

from conftest import PAPER_A, PAPER_B, build_system, draw_spectrum, homogeneous_setup
from oracles import hamiltonian_reference, split_reference, symmetric_inverse_reference

BENCH = Path(__file__).resolve().parents[1] / "bench"

SETTINGS = settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def norm2_spy():
    """Counts, as ``call_count``, the exact ‖·‖₂ that the bracket takes
    through ``linalg._norm2``."""
    return mock.patch.object(linalg, "_norm2", wraps=linalg._norm2)


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # every raise must match the reference's
        return type(exc), str(exc)


def assert_same_split(got, want):
    if isinstance(want, tuple):  # a raise
        assert got == want
        return
    for name in ("U", "T", "_tagged_b"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert len(got.blocks) == len(want.blocks)
    for a, b in zip(got.blocks, want.blocks):
        assert dataclasses.astuple(a) == dataclasses.astuple(b)
        # the same bits, not just equal values (0.0 and -0.0 differ)
        assert repr(a.eigenvalues) == repr(b.eigenvalues)


def assert_same_base(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the Schur kernel


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 30, 61])
def test_the_schur_kernel_is_scipys_schur_bitwise(n):
    rng = np.random.default_rng(n)
    pairs = np.kron(np.eye(n // 2), [[0.0, 1.0], [-1.0, 0.0]]) if n > 1 else np.zeros((1, 1))
    cases = [rng.standard_normal((n, n)), np.triu(rng.standard_normal((n, n))),
             np.diag(rng.standard_normal(n)), np.zeros((n, n)), np.eye(n)]
    if n % 2 == 0:
        cases.append(pairs)
    for m in cases + [m.T for m in cases]:  # C and Fortran order
        t0, u0 = schur(m, output="real")
        t1, u1 = linalg._schur(m)
        for a, b in ((t0, t1), (u0, u1)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert linalg._SCHUR_LWORK[n] > 0


def test_the_workspace_query_reads_only_the_order():
    # the kernel queries the workspace once per order and keeps it; LAPACK's
    # query must give the same size for every matrix of one order
    rng = np.random.default_rng(7)
    for n in range(3, 201):
        sizes = {int(linalg.lapack.dgees(lambda *_: 0, m, lwork=-1)[-2][0])
                 for m in (rng.standard_normal((n, n)), np.triu(rng.standard_normal((n, n))),
                           np.diag(rng.standard_normal(n)))}
        assert len(sizes) == 1, n


def test_the_schur_kernel_raises_scipys_error_when_the_qr_algorithm_fails(monkeypatch):
    dgees = linalg.lapack.dgees

    def failing(select, a, lwork):
        *out, _ = dgees(select, a, lwork=lwork)
        return (*out, 1)

    monkeypatch.setattr(linalg.lapack, "dgees", failing)
    with pytest.raises(np.linalg.LinAlgError, match=r"^Schur form not found\. Possibly ill-conditioned\.$"):
        linalg._schur(np.diag([1.0, 2.0]))


def test_a_pass_whose_blocks_already_lead_takes_no_reordering(monkeypatch):
    # dtrsen returns T and U unchanged, bit for bit, for a selection that
    # already leads, so the ordered Schur form skips that pass
    rng = np.random.default_rng(17)
    for n in range(1, 25):
        t, u = schur(rng.standard_normal((n, n)), output="real")
        for k in [k for k in range(1, n + 1) if k == n or t[k, k - 1] == 0.0]:
            select = np.zeros(n, dtype=np.int32)
            select[:k] = 1
            ts, us, *_, info = linalg.lapack.dtrsen(select, t, u, job="N")
            assert info == 0 and ts.tobytes() == t.tobytes() and us.tobytes() == u.tobytes()
    calls = []
    reorder = linalg.lapack.dtrsen
    monkeypatch.setattr(linalg.lapack, "dtrsen", lambda *a, **k: calls.append(1) or reorder(*a, **k))
    linalg.real_schur_ordered(np.diag([3.0, 2.0, -1.0]), lambda lam: 0 if lam.real > 0 else 1)
    assert calls == []
    linalg.real_schur_ordered(np.diag([3.0, -1.0, 2.0]), lambda lam: 0 if lam.real > 0 else 1)
    assert calls == [1]


# ---------------------------------------------------------------------------
# the bracket


def _bracket_matrices(rng):
    for n in (1, 2, 3, 6, 10, 30, 60):
        x = rng.standard_normal((n, n))
        yield x
        yield np.outer(x[0], x[-1])  # rank one: ‖·‖₂ = ‖·‖_F
        yield np.linalg.qr(x)[0]  # orthogonal: ‖·‖₂ = ‖·‖_F/√n
        yield np.eye(n)
        yield x * 2.0 ** 480
        yield x * 2.0 ** -480
        yield np.diag(np.linspace(1.0, 2.0, n)) @ np.linalg.qr(x)[0]


def test_the_bracket_holds_the_computed_norm():
    rng = np.random.default_rng(11)
    for m in _bracket_matrices(rng):
        with norm2_spy() as spy:
            scale = linalg._Norm2Bracket(m)
        assert spy.call_count == 0
        s = linalg._norm2(m)
        assert scale.lo <= s <= scale.hi
        assert scale.hi <= np.linalg.norm(m) * (1.0 + 1e-10)
        assert scale.lo >= np.linalg.norm(m) / np.sqrt(len(m)) * (1.0 - 1e-10)


@SETTINGS
@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1), st.integers(-490, 490),
       st.sampled_from(["gaussian", "rank-one", "orthogonal", "graded"]))
def test_the_bracket_holds_the_computed_norm_on_draws(n, seed, power, kind):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    if kind == "rank-one":
        m = np.outer(m[0], m[-1])
    elif kind == "orthogonal":
        m = np.linalg.qr(m)[0]
    elif kind == "graded":
        m = m * np.logspace(0, 8, n)
    m = m * 2.0 ** power
    scale = linalg._Norm2Bracket(m)
    assert scale.lo <= linalg._norm2(m) <= scale.hi


@pytest.mark.parametrize("entry", [1e-160, 1e160, 1e-300])
def test_outside_its_range_the_bracket_is_the_exact_norm(entry):
    m = np.full((3, 3), entry)
    with norm2_spy() as spy:
        scale = linalg._Norm2Bracket(m)
    assert spy.call_count == 1
    assert scale.lo == scale.hi == scale.exact() == linalg._norm2(m)
    with norm2_spy() as spy:
        scale.exact()
        scale.decide(lambda s: 1.0 <= s)
    assert spy.call_count == 0


def test_the_bracket_reads_the_exact_norm_only_in_its_window():
    m = np.array([[3.0, 1.0], [0.0, 2.0]])
    s = linalg._norm2(m)
    scale = linalg._Norm2Bracket(m)
    assert scale.lo < s < scale.hi
    for value, calls in ((scale.lo * 0.999, 0), (scale.hi * 1.001, 0), (s * 0.999, 1),
                         (s * 1.001, 1), (np.array([scale.lo * 0.5, s * 1.001]), 1), (np.nan, 0)):
        scale = linalg._Norm2Bracket(m)
        with norm2_spy() as spy:
            got = scale.decide(lambda x: value <= x)
            again = scale.decide(lambda x: value > x)
        assert spy.call_count == calls
        assert np.array_equal(got, value <= s) and np.array_equal(again, value > s)


# ---------------------------------------------------------------------------
# splits and bases against the code before the bracket


def _bench_problems():
    import sys

    sys.path.insert(0, str(BENCH))
    try:
        import problems as gen
    finally:
        sys.path.remove(str(BENCH))
    for seed in (1, 2, 3):
        for make in (gen.family_problems, gen.ladder_problems, gen.cli_problems):
            yield from make(seed)


def test_every_bench_split_and_base_is_the_references_bitwise():
    count = 0
    with norm2_spy() as spy:
        for p in _bench_problems():
            a, b = np.asarray(p.A, dtype=float), np.asarray(p.B, dtype=float)
            for a0 in (a, a.T):
                assert_same_split(outcome(spectral_split, a0, b), outcome(split_reference, a0, b))
            problem = RiccatiProblem(A=a, B=b)
            for kind in ("antistabilizing", "stabilizing"):
                assert_same_base(outcome(riccati._hamiltonian_solution, problem, kind, DEFAULT),
                                 outcome(hamiltonian_reference, problem, kind, DEFAULT))
            count += 1
    assert count == 3 * (25 + 37 + 4)
    # the library takes no exact norm (the references' are not counted): no
    # eigenvalue of the benchmark falls inside a bracket's window
    assert spy.call_count == 0


def _eig_block(lam):
    if lam.imag == 0.0:
        return np.array([[lam.real]])
    return np.array([[lam.real, lam.imag], [-lam.imag, lam.real]])


def _hamiltonian(a, b):
    """The Hamiltonian of ``(A, B, Q = 0)``, whose spectrum is that of A
    and −A."""
    return np.block([[a, -b @ b.T], [np.zeros_like(a), -a.T]])


@st.composite
def window_systems(draw, hamiltonian=False):
    """``(A0, B, value)``: an A0 with an eigenvalue's ``|Re λ|``, or the
    distance of two blocks' eigenvalues, planted at ``value =
    tol.axis·‖A0‖₂·(1 ± 1e-3)``, inside the bracket's window; with
    ``hamiltonian``, an eigenvalue's ``|Re λ|`` at ``tol.axis·‖H‖₂·(1 ±
    1e-3)`` for the Hamiltonian H of ``(A0, B, 0)``. The other blocks are
    coupled above the diagonal; the planted ones are not, so their
    eigenvalues are computed to far better than the 1e-3."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = ["axis-real", "axis-pair"] + ([] if hamiltonian else ["gap-real", "gap-pair"])
    kind = draw(st.sampled_from(kinds))
    side = draw(st.sampled_from([1.0 - 1e-3, 1.0 + 1e-3]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    others = block_diag(*(_eig_block(lam) for lam in draw_spectrum(rng, draw(st.integers(2, 6)))))
    others += 0.5 * np.triu(rng.standard_normal(others.shape), 2)
    omega = rng.uniform(0.5, 2.0)
    base = complex(sign * rng.uniform(0.5, 2.0), omega if kind.endswith("pair") else 0.0)

    def core(value):
        if kind == "axis-real":
            planted = [_eig_block(complex(sign * value))]
        elif kind == "axis-pair":
            planted = [_eig_block(complex(sign * value, omega))]
        else:
            planted = [_eig_block(base), _eig_block(base + value)]
        return block_diag(others, *planted)

    n = len(core(0.0))
    s, _ = np.linalg.qr(rng.standard_normal((n, n)))
    b = rng.standard_normal((n, 2))
    scaled = s @ core(0.0) @ s.T
    if hamiltonian:
        scaled = _hamiltonian(scaled, b)
    # the planted value moves the norm by about 1e-8 relative, far below 1e-3
    value = DEFAULT.axis * np.linalg.norm(scaled, 2) * side
    return s @ core(value) @ s.T, b, value


def _in_window(m, value):
    scale = linalg._Norm2Bracket(m)
    return DEFAULT.axis * scale.lo < value <= DEFAULT.axis * scale.hi


@SETTINGS
@given(window_systems())
def test_a_split_decided_in_the_window_takes_one_exact_norm_and_keeps_its_bits(system):
    a0, b, value = system
    assume(_in_window(a0, value))
    want = outcome(split_reference, a0, b)
    with norm2_spy() as spy:
        got = outcome(spectral_split, a0, b)
    assert spy.call_count == 1
    assert_same_split(got, want)


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.booleans())
def test_a_split_decided_outside_the_window_takes_no_exact_norm(seed, n, axis_mode):
    rng = np.random.default_rng(seed)
    entries = draw_spectrum(rng, n - axis_mode)
    blocks = [_eig_block(lam) for lam in entries] + [np.zeros((1, 1))] * axis_mode
    core = block_diag(*blocks) + 0.5 * np.triu(rng.standard_normal((n, n)), 2)
    s, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a0, b = s @ core @ s.T, rng.standard_normal((n, 1))
    want = outcome(split_reference, a0, b)
    with norm2_spy() as spy:
        got = outcome(spectral_split, a0, b)
    assert spy.call_count == 0
    assert_same_split(got, want)


@SETTINGS
@given(window_systems(hamiltonian=True), st.sampled_from(["antistabilizing", "stabilizing"]))
def test_a_base_decided_in_the_window_takes_one_exact_norm_and_keeps_its_bits(system, kind):
    a, b, value = system
    assume(_in_window(_hamiltonian(a, b), value))
    problem = RiccatiProblem(A=a, B=b)
    want = outcome(hamiltonian_reference, problem, kind, DEFAULT)
    with norm2_spy() as spy:
        got = outcome(riccati._hamiltonian_solution, problem, kind, DEFAULT)
    assert spy.call_count == 1
    assert_same_base(got, want)


# ---------------------------------------------------------------------------
# the cuts scaled by ‖A0‖₂


def _cut_sites(side):
    """For each cut scaled by ``form.a0_norm``: a call whose value sits at
    ``side`` times its cut, and the verdict the exact cut gives."""
    # a rotated A0 (so the residuals are not exactly 0) with an uncontrollable
    # zero eigenvalue, whose ray the generator cut checks
    form, split = homogeneous_setup(*build_system(np.random.default_rng(3), ctrl=[1.5, -2.0 + 1j],
                                                  unc=[0j]))
    s = linalg._norm2(form.A0)
    eqn = reduce(form, split, split.indices(half_plane="RHP"))
    resid = float(np.abs(form.A0.T @ eqn.Lk - eqn.Lk @ eqn.Dk).max())
    size = max(1.0, float(np.abs(eqn.Lk).max()))

    def invariance():
        rtol = resid / (max(1.0, s) * size * side)
        with mock.patch.object(riccati, "INVARIANCE_RTOL", rtol):
            return outcome(riccati._check_invariant, form, eqn.Lk, eqn.Dk, RiccatiError, "{resid}")

    def generator():
        outcomes = degenerate_classify(form, split)
        g = outcomes[0][1].generator
        ray = float(np.abs(riccati._ric(form.A0, form.M, g)).max())
        rtol = ray / (max(1.0, s) * side)
        with mock.patch.object(riccati, "GENERATOR_RESIDUAL_RTOL", rtol):
            return outcome(degenerate_classify, form, split)

    v = np.ones(len(form.A0)) / np.sqrt(len(form.A0))
    w = form.A0.T @ v
    defect = float(np.linalg.norm(w - (v @ w) * v))
    tol = Tolerances(definiteness=defect / (max(1.0, s) * side))

    def rank_one():
        return rank_one_classify(form, v, 1.0, tol)

    return form, {"invariance": invariance, "generator": generator, "rank-one": rank_one}


@pytest.mark.parametrize("site", ["invariance", "generator", "rank-one"])
@pytest.mark.parametrize("side", [1.0 - 1e-3, 1.0 + 1e-3])
def test_a_cut_in_the_window_takes_one_exact_norm_and_the_exact_verdict(site, side):
    form, calls = _cut_sites(side)
    scale = linalg._Norm2Bracket(form.A0)
    assert scale.lo * (1.0 + 1e-3) < linalg._norm2(form.A0) < scale.hi * (1.0 - 1e-3)
    with norm2_spy() as spy:
        got = calls[site]()
    assert spy.call_count == 1
    passes = side < 1.0  # the value is below its cut
    if site == "rank-one":
        assert got == ("semidefinite-rank<=1" if passes else "indefinite")
    elif passes:
        assert not (isinstance(got, tuple) and isinstance(got[0], type))
    else:
        assert isinstance(got, tuple) and issubclass(got[0], RiccatiError)


@pytest.mark.parametrize("side", [1e-3, 1e3])
def test_a_cut_outside_the_window_takes_no_exact_norm(side):
    _, calls = _cut_sites(side)
    with norm2_spy() as spy:
        for call in calls.values():
            call()
    assert spy.call_count == 0


def test_family_and_rays_take_no_exact_norm(paper):
    _, form, split = paper
    with norm2_spy() as spy:
        schur_family(form, split)
        degenerate_classify(form, split)
    assert spy.call_count == 0
    assert form.a0_norm == np.linalg.norm(form.A0, 2)


# ---------------------------------------------------------------------------
# the checked inverse


def _inverse_cases():
    rng = np.random.default_rng(5)
    for k in (1, 2, 3, 6, 12):
        x = rng.standard_normal((k, k))
        yield x + x.T
        yield x @ x.T + np.eye(k)
        yield np.diag(np.logspace(0, -11, k))  # below the rank cut from k = 2
        yield np.diag(np.logspace(0, -9.9, k))  # just above it
        yield np.ones((k, k))  # exactly singular for k >= 2
        yield np.zeros((k, k))
        yield x @ x.T * 1e200
        yield x @ x.T * 1e-200


@pytest.mark.parametrize("rank_tol", [DEFAULT.rank, 0.0, 1e-3])
def test_the_checked_inverse_is_the_rule_first_inverse_bitwise(rank_tol):
    for m in _inverse_cases():
        got = outcome(linalg._symmetric_inverse, m, rank_tol, SingularY, "singular {sv_min:.3e}")
        want = outcome(symmetric_inverse_reference, m, rank_tol, SingularY,
                       "singular {sv_min:.3e}")
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.tobytes() == want.tobytes()


def test_the_checked_inverse_takes_the_svd_only_when_the_certificate_declines(monkeypatch):
    checks = []
    check = linalg._check_nonsingular
    monkeypatch.setattr(linalg, "_check_nonsingular", lambda *a: checks.append(1) or check(*a))
    well = np.array([[2.0, 1.0], [1.0, 3.0]])
    linalg._symmetric_inverse(well, DEFAULT.rank, SingularY, "")
    assert checks == []
    with pytest.raises(SingularY, match="^singular "):
        linalg._symmetric_inverse(np.ones((2, 2)), DEFAULT.rank, SingularY, "singular {sv_min:.3e}")
    near = np.diag([1.0, 1.000001e-10])  # passes the rule, too close to its cut to certify
    linalg._symmetric_inverse(near, DEFAULT.rank, SingularY, "")
    assert len(checks) == 2


def test_a_gramian_the_rule_refuses_goes_to_the_svd_before_the_residual(monkeypatch):
    # 1/‖inv(m)‖_F is below the rank cut, so no certificate is tried
    certificates, checks = [], []
    certify, check = linalg._certified_full_rank, linalg._check_nonsingular
    monkeypatch.setattr(linalg, "_certified_full_rank",
                        lambda *a: certificates.append(1) or certify(*a))
    monkeypatch.setattr(linalg, "_check_nonsingular", lambda *a: checks.append(1) or check(*a))
    for k in (2, 3, 6):
        with pytest.raises(SingularY, match="^singular "):
            linalg._symmetric_inverse(np.diag(np.logspace(0, -11, k)), DEFAULT.rank, SingularY,
                                      "singular {sv_min:.3e}")
    assert certificates == [] and len(checks) == 3


@SETTINGS
@given(st.integers(1, 12), st.floats(-12.0, 0.0), st.integers(-400, 400),
       st.sampled_from([DEFAULT.rank, 0.0, 1e-3]), st.integers(0, 2 ** 32 - 1))
def test_the_inverse_norm_test_skips_only_certificates_that_fail(k, log_sigma, exponent,
                                                                  rank_tol, seed):
    # wherever fl(1/ẑ) <= fl(rank_tol·max(1, ĝ)) holds, the certificate run
    # in full on the same m and inv(m) declines as well
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(rng.standard_normal((k, k)))
    sigma = np.geomspace(10.0 ** log_sigma, 1.0, k) * rng.choice([-1.0, 1.0], k)
    m = 2.0 ** exponent * (v * sigma) @ v.T
    m = 0.5 * (m + m.T)
    z = np.linalg.inv(m)
    g_fro, z_fro = math.sqrt(np.vdot(m, m)), math.sqrt(np.vdot(z, z))
    resid = m @ z
    resid.flat[:: k + 1] -= 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        certified = bool(linalg._certified_full_rank(k, g_fro, z_fro,
                                                     math.sqrt(np.vdot(resid, resid)), rank_tol))
    if 1.0 / z_fro <= rank_tol * max(1.0, g_fro):
        assert not certified
    low, high = linalg._CERTIFIED_RANGE
    if low <= g_fro <= high and low <= z_fro <= high:
        assert linalg._certified_inverse(m, z, rank_tol) == certified


# ---------------------------------------------------------------------------
# identity equality of the types that hold arrays


def test_problems_forms_and_splits_compare_and_hash_by_identity():
    values = []
    for _ in range(2):
        problem = RiccatiProblem(A=PAPER_A, B=PAPER_B)
        form = solve_base_are(problem, kind="given", k0=np.zeros((3, 3)))
        values.append((problem, form, spectral_split(form.A0, problem.B)))
    for one, other in zip(*values):
        assert one == one and not one != one
        assert one != other and not one == other
        assert hash(one) == hash(one) and len({one, other}) == 2


@pytest.mark.parametrize("how", ["replace", "copy", "deepcopy", "pickle"])
def test_copies_of_a_used_form_and_split_keep_their_state(how):
    copier = {"replace": dataclasses.replace, "copy": copy.copy, "deepcopy": copy.deepcopy,
              "pickle": lambda x: pickle.loads(pickle.dumps(x))}[how]
    form, split = homogeneous_setup(PAPER_A, PAPER_B)
    schur_family(form, split)  # the form's bracket is made and cached
    norm = form.a0_norm
    form2, split2 = copier(form), copier(split)
    assert np.array_equal(split2._tagged_b, PAPER_B)
    assert form2.a0_norm == norm
    assert len(schur_family(form2, split2)) == 8
    other, _ = homogeneous_setup(PAPER_A, [[0.0], [1.0], [1.0]])
    with pytest.raises(InvalidInput, match="another B"):
        schur_family(other, split2)


# ---------------------------------------------------------------------------
# the family's clusters


def test_the_family_numbers_clusters_as_np_unique_does(monkeypatch):
    # blocks 0 and 2 share a cluster (eigenvalues 1 and 1 + 1e-9, within the
    # gap), with block 1 between them in Schur order
    a0 = np.diag([1.0, 2.0, 1.0 + 1e-9])
    form, split = homogeneous_setup(a0, [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert [blk.cluster for blk in split.blocks] == [0, 1, 0]
    seen = []
    bases = riccati._cluster_bases
    monkeypatch.setattr(riccati, "_cluster_bases", lambda eqn, cols: seen.append(cols) or bases(eqn, cols))
    family = schur_family(form, split)
    eqn = reduce(form, split, range(3))
    _, unit_of_block = np.unique([blk.cluster for blk in eqn.blocks], return_inverse=True)
    unit_of_col = np.repeat(unit_of_block, [blk.size for blk in eqn.blocks])
    want = [np.flatnonzero(unit_of_col == u) for u in range(unit_of_col.max() + 1)]
    (got,) = seen
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert sorted(sol.block_set for sol in family) == [(), (0, 1, 2), (0, 2), (1,)]
