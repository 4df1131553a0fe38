"""The benchmark's workloads: problem sets, one operation each, and the
checks run on every operation's output outside the timed region.

A check returns a list of failure messages; an empty list is a pass. The
checks use their own numpy arithmetic and the planted truth from
``problems``; only the ``cli`` checks call the library, to compare the
JSON reports against the library result for the same file.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

import problems as gen

RESID_TOL = 1e-7
MATCH_TOL = 1e-9
EIG_TOL = 1e-6
# closed-loop eigenvalues of a flipped solution against the planted ones;
# ill-conditioned K_max (|X| ~ 1e5 at n = 10) moves them by a few 1e-6
FLIP_TOL = 1e-4


class Declined(str):
    """A failure in which the library declined rather than answered wrong:
    its own certificate failed on an output that the benchmark's oracle
    accepts. It counts as failed, not as incorrect."""


class BaseRefused(Exception):
    """The Hamiltonian base raised ``NoBaseSolution`` on a problem whose
    planted truth says the antistabilizing base exists. This is the one
    library exception that counts as declined; any other exception the
    planted truth does not predict is a wrong answer."""


@dataclass(frozen=True)
class Case:
    label: str
    group: str
    problem: gen.Problem
    argv: tuple = ()
    expect_code: int = 0


# ---------------------------------------------------------------------------
# residual oracles


def _scale(a0, m, x):
    xa = float(np.abs(x).max()) if x.size else 0.0
    return max(1.0, float(np.abs(a0).max()) * xa, float(np.abs(m).max()) * xa * xa)


def ric_max_eig(a0, m, x):
    """Largest eigenvalue of −A0ᵀX − XA0 + XMX, relative to its scale."""
    r = -a0.T @ x - x @ a0 + x @ m @ x
    return float(np.linalg.eigvalsh(0.5 * (r + r.T))[-1]) / _scale(a0, m, x)


def ric_max_abs(a0, m, x):
    r = -a0.T @ x - x @ a0 + x @ m @ x
    return float(np.abs(r).max()) / _scale(a0, m, x)


def not_positive(fails, what, a0, m, x):
    top = ric_max_eig(a0, m, x)
    if not top <= RESID_TOL:
        fails.append(f"{what}: residual has eigenvalue {top:.3e} > 0")


def rel_gap(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        return np.inf
    return float(np.abs(x - y).max()) / max(1.0, float(np.abs(y).max()))


def spectrum_gap(computed, planted):
    """Largest relative distance in the best matching of two spectra."""
    computed = np.asarray(computed)
    planted = np.asarray(planted)
    if computed.shape != planted.shape:
        return np.inf
    cost = np.abs(computed[:, None] - planted[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(max(cost[i, j] / max(1.0, abs(planted[j])) for i, j in zip(rows, cols)))


def expand(modes):
    return np.array(gen.expand_values(md.value for md in modes))


def flipped_rhp(modes):
    """The modes after a solution supported on every controllable RHP
    block negates those blocks' eigenvalues."""
    return [gen.Mode(complex(-md.value.real, md.value.imag), True)
            if md.plane == gen.RHP and md.controllable else md for md in modes]


def plane_counts(blocks):
    counts = {}
    for plane, ctrl in blocks:
        counts[(plane, ctrl)] = counts.get((plane, ctrl), 0) + 1
    return counts


def split_matches(fails, split, modes):
    got = plane_counts((b.half_plane, bool(b.controllable)) for b in split.blocks)
    want = plane_counts((md.plane, md.controllable) for md in modes)
    if got != want:
        fails.append(f"spectral split {sorted(got.items())} != planted {sorted(want.items())}")


# ---------------------------------------------------------------------------
# family


class Family:
    """solve_base_are(kind="given", K0=0), spectral_split, schur_family."""

    name = "family"

    def __init__(self, ar, seed, workdir):
        self.ar = ar
        self.cases = [
            Case(p.label, p.label.split("-")[3], p) for p in gen.family_problems(seed)
        ]
        self._rp = {c.label: ar.RiccatiProblem(A=c.problem.A, B=c.problem.B) for c in self.cases}

    def run(self, case):
        ar = self.ar
        rp = self._rp[case.label]
        form = ar.solve_base_are(rp, kind="given", k0=np.zeros((rp.n, rp.n)))
        split = ar.spectral_split(form.A0, rp.B)
        return form, split, ar.schur_family(form, split)

    def check(self, case, out):
        form, split, family = out
        truth = case.problem.truth
        fails = []
        split_matches(fails, split, case.problem.modes)
        if len(family) != truth.members:
            fails.append(f"family has {len(family)} members, planted {truth.members}")
        sets = [tuple(s.block_set) for s in family]
        if len(set(sets)) != len(sets) or () not in sets:
            fails.append("family block sets repeat or miss the zero solution")
        for sol in family:
            if not all(split.blocks[i].controllable for i in sol.block_set):
                fails.append(f"member {sol.block_set} uses an uncontrollable block")
            not_positive(fails, f"member {sol.block_set}", form.A0, form.M, sol.X)
        return fails

    def output_bytes(self, out):
        return 0


# ---------------------------------------------------------------------------
# ladder


class Ladder:
    """Full analysis without the family, on the deterministic ladder."""

    name = "ladder"

    def __init__(self, ar, seed, workdir):
        self.ar = ar
        self.cases = []
        for p in gen.ladder_problems(seed):
            group = p.label.split("-")[1]
            self.cases.append(Case(p.label, f"ladder-{group}", p))
        self._rp = {c.label: ar.RiccatiProblem(A=c.problem.A, B=c.problem.B) for c in self.cases}

    def run(self, case):
        ar = self.ar
        p = case.problem
        rp = self._rp[case.label]
        out = {}
        if p.truth.antistabilizing:
            try:
                out["base"] = form = ar.solve_base_are(rp, kind="antistabilizing")
            except ar.NoBaseSolution as exc:
                raise BaseRefused(str(exc)) from exc
        else:
            try:
                out["base"] = ar.solve_base_are(rp, kind="antistabilizing")
            except ar.NoBaseSolution as exc:
                out["base"] = exc
            form = ar.solve_base_are(rp, kind="given", k0=np.zeros((rp.n, rp.n)))
        out["form"] = form
        out["split"] = split = ar.spectral_split(form.A0, rp.B)
        out["bounds"] = ar.boundedness(form, split)
        out["degenerate"] = ar.degenerate_classify(form, split)
        try:
            out["pair"] = pair = ar.extremal_solutions(form, split)
        except ar.Uncontrollable as exc:
            out["pair"] = pair = exc
        rhp = split.indices(half_plane="RHP", controllable=True)
        out["eqn"] = eqn = ar.reduce(form, split, rhp)
        out["sol"] = sol = ar.parametrize(eqn, p.param)
        out["recovered"] = ar.recover_parameter(eqn, sol.Lcoord)
        if isinstance(pair, ar.ExtremalPair):
            out["eq_sol"] = pair.Lr
        else:
            out["eq_sol"] = ar.full_rank_simplified_solution(eqn)
        out["flip"] = ar.feedback_flip(form, out["eq_sol"])[1]
        out["K"] = k = form.K0 + sol.X
        out["cert"] = ar.verify(form, k)
        return out

    def check(self, case, out):
        ar = self.ar
        p = case.problem
        truth = p.truth
        fails = []
        form = out["form"]
        a0, m = form.A0, form.M

        base = out["base"]
        if truth.antistabilizing is False and not isinstance(base, ar.NoBaseSolution):
            fails.append("antistabilizing base returned; planted LHP mode forbids it")
        if isinstance(base, ar.HomogeneousForm):
            k0 = base.K0
            if ric_max_abs(p.A, base.M, k0) > RESID_TOL:
                fails.append("antistabilizing base fails the equation")
            eig = np.linalg.eigvals(base.A0)
            if eig.real.min() < -EIG_TOL * max(1.0, np.abs(eig).max()):
                fails.append("antistabilizing base leaves an LHP eigenvalue")
            if truth.antistabilizing:
                gap = spectrum_gap(eig, expand(p.analysis_modes()))
                if gap > EIG_TOL:
                    fails.append(f"A0 spectrum is off the flipped planted one by {gap:.2e}")

        split = out["split"]
        split_matches(fails, split, p.analysis_modes())

        bounds = out["bounds"]
        if bounds.verdict != truth.verdict:
            fails.append(f"verdict {bounds.verdict}, planted {truth.verdict}")
        n_unc = sum(1 for md in p.modes if not md.controllable)
        if len(bounds.witnesses) != n_unc:
            fails.append(f"{len(bounds.witnesses)} witnesses for {n_unc} uncontrollable modes")
        for w in bounds.witnesses:
            for sign in {"+": (1.0,), "-": (-1.0,), "+-": (1.0, -1.0)}[w.sign]:
                not_positive(fails, f"witness ray {w.block}{w.sign}", a0, m, 10.0 * sign * w.direction)

        free = [out_.generator for _, out_ in out["degenerate"] if out_.kind == "free-family"]
        if len(free) != truth.free_families or len(free) != len(out["degenerate"]):
            fails.append(f"{len(free)} free families of {len(out['degenerate'])}, "
                         f"planted {truth.free_families}")
        for g in free:
            if ric_max_abs(a0, m, g) > RESID_TOL:
                fails.append("free-family generator is not an equation solution")

        k = out["K"]
        pair = out["pair"]
        if truth.verdict == "bounded":
            if not isinstance(pair, ar.ExtremalPair):
                fails.append(f"extremal_solutions raised {type(pair).__name__}")
            else:
                not_positive(fails, "Lr", a0, m, pair.Lr.X)
                not_positive(fails, "Ll", a0, m, pair.Ll.X)
                scale = max(1.0, float(np.abs(k).max()))
                if np.linalg.eigvalsh(pair.K_max - k).min() < -RESID_TOL * scale:
                    fails.append("K exceeds K_max")
                if np.linalg.eigvalsh(k - pair.K_min).min() < -RESID_TOL * scale:
                    fails.append("K falls below K_min")
                if p.label.startswith("paper"):
                    if rel_gap(pair.K_max, gen.PAPER_K_MAX) > 1e-8:
                        fails.append("K_max differs from the paper's closed form")
                    if rel_gap(pair.K_min, gen.PAPER_K_MIN) > 1e-8:
                        fails.append("K_min differs from the paper's closed form")
        elif not isinstance(pair, ar.Uncontrollable):
            fails.append("extremal_solutions returned a pair for an uncontrollable problem")

        sol = out["sol"]
        not_positive(fails, "parametrized solution", a0, m, sol.X)
        if not sol.certificate.strict:
            fails.append("parametrize did not take the definite P as strict")
        if rel_gap(out["recovered"].P, p.param) > 1e-6:
            fails.append("recover_parameter does not return P")
        x = out["eq_sol"].X
        not_positive(fails, "flip solution", a0, m, x)
        gap = spectrum_gap(np.linalg.eigvals(a0 - m @ x), expand(flipped_rhp(p.analysis_modes())))
        if gap > FLIP_TOL:
            fails.append(f"closed loop is {gap:.1e} off the flipped planted spectrum")
        elif not out["flip"].matched:
            fails.append(Declined(
                f"feedback_flip reports mismatch {out['flip'].max_rel_mismatch:.1e}; "
                f"the planted flip holds to {gap:.1e}"))
        if ric_max_eig(p.A, form.M, k) > RESID_TOL:
            fails.append("K violates the original inequality")
        elif not out["cert"].passed:
            fails.append(Declined("verify rejects K0 + X, which satisfies the inequality"))
        return fails

    def output_bytes(self, out):
        return 0


# ---------------------------------------------------------------------------
# cli


COMMANDS = ("classify", "solve-family", "solve-rank-set", "extremal", "bounds",
            "parametrize", "verify")
SAMPLES = 2


class Cli:
    """ariset.cli.main(argv) in process, stdout captured."""

    name = "cli"

    def __init__(self, ar, seed, workdir):
        self.ar = ar
        self.seed = int(seed)
        self._refs = {}
        self.cases = []
        problems = gen.cli_problems(seed)
        files = {}
        for i, p in enumerate(problems):
            path = os.path.join(workdir, f"problem{i}.json")
            kpath = os.path.join(workdir, f"k{i}.json")
            zeros = np.zeros((p.n, p.n)).tolist()
            with open(path, "w") as fh:
                json.dump({"A": p.A.tolist(), "B": p.B.tolist(), "Q": zeros, "K0": zeros}, fh)
            with open(kpath, "w") as fh:
                json.dump({"K": gen.rank_one_solution(p).tolist()}, fh)
            files[p.label] = (path, kpath)
        for use_json in (False, True):
            for command in COMMANDS:
                for p in problems:
                    path, kpath = files[p.label]
                    argv, code = self._argv(command, p, path, kpath)
                    if use_json:
                        argv.append("--json")
                    self.cases.append(Case(f"{p.label}:{command}{'-json' if use_json else ''}",
                                           f"cli-{command}", p, tuple(argv), code))

    def _argv(self, command, p, path, kpath):
        rhp = ",".join(str(i + 1) for i in range(sum(1 for md in p.modes if md.plane == gen.RHP)))
        uncontrollable = p.truth.verdict != "bounded"
        if command == "classify":
            return ["classify", path], 0
        if command == "solve-family":
            return ["solve", path, "--family"], 0
        if command == "solve-rank-set":
            return ["solve", path, "--rank-set", rhp], 0
        if command == "extremal":
            return ["extremal", path], 5 if uncontrollable else 0
        if command == "bounds":
            return ["bounds", path], 0
        if command == "parametrize":
            return (["parametrize", path, "--blocks", rhp, "--sample", str(SAMPLES),
                     "--seed", str(self.seed)], 5 if uncontrollable else 0)
        return ["verify", path, "--K", kpath], 0

    def run(self, case):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = self.ar.cli.main(list(case.argv))
        return code, stdout.getvalue(), stderr.getvalue()

    def output_bytes(self, out):
        return len(out[1].encode())

    def _reference(self, p):
        """Library results for the same problem, computed once."""
        if p.label in self._refs:
            return self._refs[p.label]
        ar = self.ar
        rp = ar.RiccatiProblem(A=p.A, B=p.B, Q=np.zeros((p.n, p.n)))
        form = ar.solve_base_are(rp, kind="given", k0=np.zeros((p.n, p.n)))
        split = ar.spectral_split(form.A0, rp.B)
        ref = {"form": form, "split": split, "family": ar.schur_family(form, split)}
        rhp = split.indices(half_plane="RHP")
        eqn = ar.reduce(form, split, rhp)
        if p.truth.verdict == "bounded":
            ref["pair"] = ar.extremal_solutions(form, split)
            ref["rank_set"] = ar.full_rank_simplified_solution(eqn)
            ref["eqn"] = eqn
        self._refs[p.label] = ref
        return ref

    def check(self, case, out):
        code, stdout, stderr = out
        p = case.problem
        fails = []
        if code != case.expect_code:
            return [f"exit code {code}, expected {case.expect_code}: {stderr.strip()[:200]}"]
        if code != 0:
            if stdout or "Uncontrollable" not in stderr:
                fails.append("precondition exit without the Uncontrollable message")
            return fails
        if "--json" not in case.argv:
            marker = self._marker(case.group[len("cli-"):], p)
            if marker not in stdout:
                fails.append(f"report lacks {marker!r}")
            return fails
        try:
            results = json.loads(stdout)["results"]
        except (ValueError, KeyError) as exc:
            return [f"--json output does not parse: {exc}"]
        ref = self._reference(p)
        command = case.group[len("cli-"):]
        getattr(self, "_check_" + command.replace("-", "_"))(fails, p, ref, results)
        return fails

    @staticmethod
    def _marker(command, p):
        return {
            "classify": f"solution set: {p.truth.verdict}",
            "solve-family": f"{p.truth.members} solutions",
            "solve-rank-set": "blocks [",
            "extremal": "K_max:",
            "bounds": f"verdict: {p.truth.verdict}",
            "parametrize": f"{SAMPLES} solution(s)",
            "verify": "PASS",
        }[command]

    def _check_classify(self, fails, p, ref, results):
        got = [(b["half_plane"], b["controllable"]) for b in results["blocks"]]
        want = [(b.half_plane, bool(b.controllable)) for b in ref["split"].blocks]
        if got != want:
            fails.append("classify blocks differ from the library split")
        split_matches(fails, ref["split"], p.modes)
        if results["boundedness_preview"] != p.truth.verdict:
            fails.append(f"classify verdict {results['boundedness_preview']}")

    def _check_solve_family(self, fails, p, ref, results):
        family = results["family"]
        if len(family) != p.truth.members:
            fails.append(f"family has {len(family)} members, planted {p.truth.members}")
        if len(results["absent"]) != 2 ** p.truth.nonaxis_blocks - p.truth.members:
            fails.append("absent list has the wrong length")
        if len(family) == len(ref["family"]):
            gap = max(rel_gap(s["X"], r.X) for s, r in zip(family, ref["family"]))
            if gap > MATCH_TOL:
                fails.append(f"family X differs from the library by {gap:.2e}")

    def _check_solve_rank_set(self, fails, p, ref, results):
        if p.truth.verdict == "bounded":
            if "solution" not in results or rel_gap(results["solution"]["X"], ref["rank_set"].X) > MATCH_TOL:
                fails.append("rank-set solution differs from the library")
        elif results.get("absent") is not True:
            fails.append("rank-set over an uncontrollable block is not reported absent")

    def _check_extremal(self, fails, p, ref, results):
        pair = ref["pair"]
        if rel_gap(results["K_max"], pair.K_max) > MATCH_TOL or rel_gap(results["K_min"], pair.K_min) > MATCH_TOL:
            fails.append("extremal K differs from the library")

    def _check_bounds(self, fails, p, ref, results):
        if results["verdict"] != p.truth.verdict:
            fails.append(f"bounds verdict {results['verdict']}, planted {p.truth.verdict}")
        n_unc = sum(1 for md in p.modes if not md.controllable)
        if len(results["witnesses"]) != n_unc:
            fails.append("bounds witness count differs from the planted modes")
        form = ref["form"]
        a0n = float(np.abs(form.A0).max())
        mn = float(np.abs(form.M).max())
        for w in results["witnesses"]:
            for e in w["alpha_sweep"]:
                alpha = abs(e["alpha"])
                if e["residual_max_eig"] > RESID_TOL * max(1.0, alpha * a0n, alpha ** 2 * mn):
                    fails.append(f"witness ray on block {w['block']} leaves the feasible set")

    def _check_parametrize(self, fails, p, ref, results):
        entries = results["solutions"]
        if len(entries) != SAMPLES:
            fails.append(f"{len(entries)} parametrized solutions, asked for {SAMPLES}")
        form = ref["form"]
        for e in entries:
            x = np.array(e["solution"]["X"])
            if ric_max_eig(form.A0, form.M, x) > RESID_TOL:
                fails.append("a parametrized solution violates the inequality")
            elif not e["verify_certificate"]["passed"]:
                fails.append(Declined("verify rejects a parametrized solution"))
            lib = self.ar.parametrize(ref["eqn"], np.array(e["P"]))
            if rel_gap(x, lib.X) > MATCH_TOL:
                fails.append("parametrized X differs from the library")

    def _check_verify(self, fails, p, ref, results):
        if not results["certificate"]["passed"]:
            fails.append(Declined("verify rejects an exact equation solution"))


WORKLOADS = {w.name: w for w in (Family, Ladder, Cli)}
