"""Reference implementations that tests compare the library against.

``level_reference`` is the arithmetic of one level of the Schur-complement
family as it stood before the family's per-level work was split from its
once-per-family work: each level factored, certified and inverted on its
own, R read through ``qr(mode="r")``. The family must still give the same
bits for every member.

``split_reference`` and ``hamiltonian_reference`` are the ordered Schur
split and the Hamiltonian base solve as they stood before the AXIS band,
the cluster gap and the invariance cuts were decided on a bracket of
``‖·‖₂``: verbatim copies of that ``spectral_split``, ``_cluster_labels``,
``_tagged_split``, ``_ordered_schur`` and ``_hamiltonian_solution``, which
take ``scipy.linalg.schur`` and the exact ``_norm2`` on every call. Every
split and base must still come out in the same bits.

``cli_report`` is every CLI report as it stood before each command was cut
to the fields its report prints: the command bodies, ``_solution_dict``
and the ``_render_*`` functions below are verbatim copies of that
``ariset/cli.py``, which built the whole ``--json`` record of every
solution, through its ``AriSolution``, in both modes. The CLI must still
print the same bytes.
"""

import dataclasses
import hashlib
import itertools
import json

from itertools import accumulate

import numpy as np
from scipy.linalg import lapack, schur

from ariset import linalg, riccati
from ariset.analysis import boundedness, extremal_solutions, parametrize, verify
from ariset.cli import (
    _NO_SOLUTION,
    _TOL_KEYS,
    _build_parser,
    _load_json,
    _matrix_field,
    _parse_block_list,
)
from ariset.errors import DegenerateSpectrum, NoBaseSolution, Uncontrollable
from ariset.linalg import (
    SCHUR_RESIDUAL_RTOL,
    _check_nonsingular,
    _norm2,
    _schur_blocks,
    _select_leading,
    as_matrix,
)
from ariset.riccati import (
    RiccatiProblem,
    degenerate_classify,
    full_rank_simplified_solution,
    reduce as reduce_blocks,
    ric_residual,
    schur_family,
    solve_base_are,
)
from ariset.systems import (
    AXIS,
    LHP,
    RHP,
    SpectralBlock,
    SpectralSplit,
    _certificate_shift,
    _cholesky_succeeds,
    _half_plane,
    _input_matrix,
    _shifted_grams,
    _svd_rule,
    spectral_split,
)
from ariset.tolerances import DEFAULT, Tolerances


def level_reference(ls, ys, tol):
    """Coordinates ``(ok, q, lcoord)`` of one level of stacked supports
    ``ls`` (N×n×k) with Gramians ``ys`` (N×k×k), decided by one
    certificate call of its own and ``eigvalsh`` on the unions it leaves
    undecided."""
    count, _, k = ls.shape
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf and nan fail the certificate
        r_inv = np.linalg.inv(np.linalg.qr(ls, mode="r"))  # serves both sides of R⁻ᵀ Y R⁻¹
        g = np.swapaxes(r_inv, 1, 2) @ ys @ r_inv
        g = 0.5 * (g + np.swapaxes(g, 1, 2))
        try:
            z = np.linalg.inv(g)
        except np.linalg.LinAlgError:
            z, norms = None, np.full((3, count), np.nan)
        else:
            resid = g @ z
            resid.reshape(count, k * k)[:, :: k + 1] -= 1.0
            norms = np.sqrt([np.einsum("nij,nij->n", a, a) for a in (g, z, resid)])
        ok = riccati._certified_full_rank(k, *norms, tol.rank)
    undecided = ~ok
    if undecided.any():
        sv = np.abs(np.linalg.eigvalsh(g[undecided]))  # g is symmetric: its singular values
        ok[undecided] = linalg._full_rank(sv.min(axis=1), sv.max(axis=1), tol.rank)
    if not ok.all():
        ls, r_inv, g = ls[ok], r_inv[ok], g[ok]
        z = None if z is None else z[ok]
    if z is None:
        z = np.linalg.inv(g)
    return ok, ls @ r_inv, 0.5 * (z + np.swapaxes(z, 1, 2))


# ---------------------------------------------------------------------------
# the Schur front end before the bracket of ‖·‖₂

_PLANES = (AXIS, RHP, LHP)
_PLANE_ORDER = {plane: rank for rank, plane in enumerate(_PLANES)}


def _ordered_schur(m, classify):
    t, u = schur(m, output="real")

    # one stable pass per class boundary, highest first: lead with every
    # block ranked at most the cut
    blocks = _schur_blocks(t)
    ranks = [classify(blk.eigenvalues[0]) for blk in blocks]
    for cut in reversed(sorted(set(ranks))[:-1]):
        rows = [blk.offset + i for blk, rank in zip(blocks, ranks)
                if rank <= cut for i in range(blk.size)]
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


def _tagged_split(am, bm, u, t, blocks, rank_tol):
    n, m = bm.shape
    w = np.hstack([am, bm])
    lam = np.array([eigenvalues[0] for _, _, eigenvalues, _, _ in blocks])
    lam_abs = np.abs(lam)
    shift, tried = _certificate_shift(lam_abs, np.sqrt(np.vdot(w, w)), n, m, rank_tol)
    if tried.any():  # only certified pencils need them; out of range they may overflow
        gram = w @ w.T
        sym = am + am.T
    real = lam.imag == 0.0
    tags = np.zeros(lam.size, dtype=bool)
    for chosen, shifts in ((real, lam.real), (~real, lam)):
        if not chosen.any():
            continue
        certify = chosen & tried
        if certify.any():
            lift = lam_abs[certify] * lam_abs[certify] - shift[certify]
            tags[certify] = _cholesky_succeeds(
                _shifted_grams(am, sym, gram, shifts[certify], lift)
            )
        undecided = chosen & ~tags
        if undecided.any():
            tags[undecided] = _svd_rule(am, bm, shifts[undecided], rank_tol)
    tagged = tuple(SpectralBlock(offset, size, eigenvalues, half_plane, ok, cluster)
                   for (offset, size, eigenvalues, half_plane, cluster), ok
                   in zip(blocks, tags.tolist()))
    return SpectralSplit(u, t, tagged, bm)


def _cluster_labels(blocks, gap):
    sizes = [blk.size for blk in blocks]
    eigs = np.array([lam for blk in blocks for lam in blk.eigenvalues])
    owner = np.repeat(np.eye(len(sizes)), sizes, axis=0)
    near = (np.abs(eigs[:, None] - eigs[None, :]) <= gap).astype(float)
    reach = owner.T @ near @ owner > 0
    if np.array_equal(reach, np.eye(len(sizes), dtype=bool)):  # no two blocks within the gap
        return list(range(len(sizes)))
    for _ in range(len(sizes).bit_length()):  # transitive closure by squaring
        reach = reach @ reach
    return reach.argmax(axis=1).tolist()


def split_reference(a0, b, tol=DEFAULT):
    """``spectral_split(a0, b, tol)`` as it stood before the bracket."""
    am = as_matrix(a0, name="A0", square=True)
    bm = _input_matrix(b, am.shape[0])
    axis_abs = tol.axis * _norm2(am)
    u, t, raw, ranks = _ordered_schur(am.T, lambda lam: _PLANE_ORDER[_half_plane(lam, axis_abs)])
    blocks = [(blk.offset, blk.size, blk.eigenvalues, _PLANES[rank], label)
              for blk, rank, label in zip(raw, ranks, _cluster_labels(raw, axis_abs))]
    return _tagged_split(am, bm, u, t, blocks, tol.rank)


def hamiltonian_reference(problem, kind, tol=DEFAULT):
    """``riccati._hamiltonian_solution(problem, kind, tol)`` as it stood
    before the bracket."""
    a, b, q = problem.A, problem.B, problem.Q
    n = problem.n
    ham = np.block([[a, -b @ b.T], [-q, -a.T]])
    axis_abs = tol.axis * _norm2(ham)
    # the requested half plane first, then the AXIS band
    rank = {RHP: 0, AXIS: 1, LHP: 2} if kind == "antistabilizing" else {LHP: 0, AXIS: 1, RHP: 2}
    u, _, blocks, _ = _ordered_schur(as_matrix(ham, name="A", square=True),
                                     lambda lam: rank[_half_plane(lam, axis_abs)])
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


def symmetric_inverse_reference(m, rank_tol, error, message):
    """``linalg._symmetric_inverse`` as it stood before its certificate:
    the SVD's rank rule, then the inverse."""
    _check_nonsingular(m, rank_tol, error, message)
    z = np.linalg.inv(m)
    return 0.5 * (z + z.T)


# ---------------------------------------------------------------------------
# serialization


def _c2pair(lam):
    return [float(lam.real), float(lam.imag)]


def _mat(m):
    return np.asarray(m).tolist()


def _block_dict(index, blk):
    return {
        "index": index + 1,
        "size": blk.size,
        "eigenvalues": [_c2pair(lam) for lam in blk.eigenvalues],
        "half_plane": blk.half_plane,
        "controllable": blk.controllable,
    }


def _solution_dict(sol):
    return {
        "blocks": [i + 1 for i in sol.block_set],
        "rank": sol.rank,
        "eigenvalues": [_c2pair(lam) for lam in sol.eigenvalues],
        "X": _mat(sol.X),
        "Lcoord": _mat(sol.Lcoord),
        "residual_max_norm": float(np.abs(sol.residual).max()),
        "residual_verdict": sol.residual_verdict.kind,
    }


def _fmt_matrix(m):
    # one %-format for the whole matrix; "% .9g" % v is f"{v: .9g}" for
    # every float. The reports hold nested lists, read as they are.
    if isinstance(m, list) and m and isinstance(m[0], list):
        rows = m
    else:
        rows = np.atleast_2d(np.asarray(m)).tolist()
    line = "    " + "  ".join(["% .9g"] * len(rows[0])) if rows else ""
    return "\n".join([line] * len(rows)) % tuple(itertools.chain.from_iterable(rows))


# ---------------------------------------------------------------------------
# commands


def _cmd_classify(args, form, split, tol):
    offsets = {blk.offset: i for i, blk in enumerate(split.blocks)}
    degenerate = [
        {
            "block": offsets[blk.offset] + 1,
            "outcome": out.kind,
            "generator": None if out.generator is None else _mat(out.generator),
        }
        for blk, out in degenerate_classify(form, split, tol)
    ]
    bounds = boundedness(form, split, tol)
    results = {
        "order": form.problem.n,
        "kind": form.kind,
        "base_residual": form.base_residual,
        "blocks": [_block_dict(i, b) for i, b in enumerate(split.blocks)],
        "degenerate": degenerate,
        "boundedness_preview": bounds.verdict,
    }
    return results, 0


def _render_classify(results):
    lines = [f"order {results['order']}, base solution kind: {results['kind']}"]
    for b in results["blocks"]:
        eigs = ", ".join(
            f"{re:.6g}{im:+.6g}j" if im else f"{re:.6g}"
            for re, im in b["eigenvalues"]
        )
        tag = "controllable" if b["controllable"] else "UNCONTROLLABLE"
        lines.append(
            f"block {b['index']}: {b['half_plane']:4s} size {b['size']} "
            f"eigenvalues [{eigs}] {tag}"
        )
    for d in results["degenerate"]:
        lines.append(f"axis block {d['block']}: {d['outcome']}")
    lines.append(f"solution set: {results['boundedness_preview']}")
    return "\n".join(lines)


def _cmd_solve(args, form, split, tol):
    results = {"kind": form.kind}
    if args.family:
        family, present = [], set()
        for sol in schur_family(form, split, tol):
            present.add(sol.block_set)
            family.append(_solution_dict(sol))
        results["family"] = family
        eligible = [i for i, b in enumerate(split.blocks) if b.half_plane != AXIS]
        absent = []
        for r in range(1, len(eligible) + 1):
            for subset in itertools.combinations(eligible, r):
                if subset not in present:
                    absent.append([i + 1 for i in subset])
        results["absent"] = absent
    else:
        block_set = _parse_block_list(args.rank_set, len(split.blocks))
        try:
            eqn = reduce_blocks(form, split, block_set)
            sol = full_rank_simplified_solution(eqn, tol)
        except _NO_SOLUTION as exc:
            results["requested"] = [i + 1 for i in block_set]
            results["absent"] = True
            results["reason"] = type(exc).__name__
            return results, 0
        results["solution"] = _solution_dict(sol)
    return results, 0


def _render_solve(results):
    lines = []
    if "family" in results:
        lines.append(f"{len(results['family'])} solutions")
        for s in results["family"]:
            lines.append(
                f"blocks {s['blocks'] or '[]'}: rank {s['rank']}, "
                f"|Ric(X)|_max = {s['residual_max_norm']:.3e}"
            )
            lines.append(_fmt_matrix(s["X"]))
        if results["absent"]:
            lines.append(f"absent subsets: {results['absent']}")
    elif results.get("absent"):
        lines.append(
            f"blocks {results['requested']}: absent ({results['reason']})"
        )
    else:
        s = results["solution"]
        lines.append(
            f"blocks {s['blocks']}: rank {s['rank']}, "
            f"|Ric(X)|_max = {s['residual_max_norm']:.3e}"
        )
        lines.append(_fmt_matrix(s["X"]))
    return "\n".join(lines)


def _cmd_extremal(args, form, split, tol):
    try:
        pair = extremal_solutions(form, split, tol)
    except Uncontrollable as exc:
        raise Uncontrollable(
            f"{exc} (run the bounds command for the unboundedness analysis)"
        )
    results = {
        "kind": form.kind,
        "Lr": _solution_dict(pair.Lr),
        "Ll": _solution_dict(pair.Ll),
        "K_max": _mat(pair.K_max),
        "K_min": _mat(pair.K_min),
    }
    return results, 0


def _render_extremal(results):
    out = ["maximum solution X (support blocks {}):".format(results["Lr"]["blocks"])]
    out.append(_fmt_matrix(results["Lr"]["X"]))
    out.append("minimum solution X (support blocks {}):".format(results["Ll"]["blocks"]))
    out.append(_fmt_matrix(results["Ll"]["X"]))
    out.append("K_max:")
    out.append(_fmt_matrix(results["K_max"]))
    out.append("K_min:")
    out.append(_fmt_matrix(results["K_min"]))
    return "\n".join(out)


_SWEEP = (1.0, 10.0, 100.0, 1000.0)


def _cmd_bounds(args, form, split, tol):
    report = boundedness(form, split, tol)
    witnesses = []
    for w in report.witnesses:
        signs = {"+": [1.0], "-": [-1.0], "+-": [1.0, -1.0]}[w.sign]
        sweep = []
        for s in signs:
            for alpha in _SWEEP:
                resid = ric_residual(form, s * alpha * w.direction)
                sweep.append(
                    {
                        "alpha": s * alpha,
                        "residual_max_eig": float(np.linalg.eigvalsh(resid)[-1]),
                    }
                )
        witnesses.append(
            {
                "block": w.block + 1,
                "sign": w.sign,
                "direction": _mat(w.direction),
                "alpha_sweep": sweep,
            }
        )
    results = {"kind": form.kind, "verdict": report.verdict, "witnesses": witnesses}
    return results, 0


def _render_bounds(results):
    lines = [f"verdict: {results['verdict']}"]
    for w in results["witnesses"]:
        lines.append(f"witness on block {w['block']} (sign {w['sign']}):")
        lines.append(_fmt_matrix(w["direction"]))
        for entry in w["alpha_sweep"]:
            lines.append(
                f"  alpha = {entry['alpha']:8.1f}: "
                f"max eig Ric = {entry['residual_max_eig']: .3e}"
            )
    return "\n".join(lines)


def _cmd_parametrize(args, form, split, tol):
    block_set = _parse_block_list(args.blocks, len(split.blocks))
    eqn = reduce_blocks(form, split, block_set)
    if args.param is not None:
        doc, _ = _load_json(args.param)
        p = _matrix_field(doc, "P", args.param)
        params = [np.atleast_2d(p)]
    else:
        rng = np.random.default_rng(args.seed)
        params = []
        for _ in range(args.sample):
            g = rng.standard_normal((eqn.k, eqn.k))
            params.append(g @ g.T + 0.1 * np.eye(eqn.k))
    entries = []
    for p in params:
        sol = parametrize(eqn, p, tol)
        cert = verify(form, form.K0 + sol.X, strict=False, tol=tol)
        entries.append(
            {
                "P": _mat(p),
                "solution": _solution_dict(sol),
                "reduced_certificate": dataclasses.asdict(sol.certificate),
                "verify_certificate": dataclasses.asdict(cert),
            }
        )
    results = {
        "kind": form.kind,
        "blocks": [i + 1 for i in block_set],
        "solutions": entries,
    }
    return results, 0


def _render_parametrize(results):
    lines = [f"blocks {results['blocks']}: {len(results['solutions'])} solution(s)"]
    for e in results["solutions"]:
        rc = e["reduced_certificate"]
        lines.append(
            f"P -> solution (strict={rc['strict']}, passed={rc['passed']}, "
            f"max eig reduced residual {rc['residual_max_eig']:.3e})"
        )
        lines.append(_fmt_matrix(e["solution"]["X"]))
    return "\n".join(lines)


def _cmd_verify(args, form, split, tol):
    doc, _ = _load_json(args.K)
    k = _matrix_field(doc, "K", args.K)
    cert = verify(form, k, strict=args.strict, tol=tol)
    results = {"kind": form.kind, "certificate": dataclasses.asdict(cert)}
    return results, 0 if cert.passed else 1


def _render_verify(results):
    c = results["certificate"]
    status = "PASS" if c["passed"] else "FAIL"
    mode = "strict" if c["strict"] else "non-strict"
    return (
        f"{status} ({mode}): residual eigenvalues in "
        f"[{c['residual_min_eig']:.6e}, {c['residual_max_eig']:.6e}], "
        f"tolerance {c['tol_used']:.3e}"
    )


# ---------------------------------------------------------------------------
# reports


_COMMANDS = {
    "classify": (_cmd_classify, _render_classify),
    "solve": (_cmd_solve, _render_solve),
    "extremal": (_cmd_extremal, _render_extremal),
    "bounds": (_cmd_bounds, _render_bounds),
    "parametrize": (_cmd_parametrize, _render_parametrize),
    "verify": (_cmd_verify, _render_verify),
}


def cli_report(argv):
    """``(stdout, exit code)`` of ``ariset argv`` at default tolerances,
    built by the reference commands above from the library's base solve
    and split of the problem file; a refusal by the library propagates."""
    args = _build_parser().parse_args(argv)
    with open(args.file, "rb") as fh:
        raw = fh.read()
    doc = json.loads(raw)
    k0 = doc.get("K0")
    problem = RiccatiProblem(A=np.array(doc["A"], dtype=float), B=np.array(doc["B"], dtype=float),
                             Q=None if "Q" not in doc else np.array(doc["Q"], dtype=float))
    tol = Tolerances()
    kind = args.kind or ("given" if k0 is not None else "antistabilizing")
    form = solve_base_are(problem, kind=kind, k0=k0, tol=tol)
    split = spectral_split(form.A0, problem.B, tol=tol) if args.command != "verify" else None
    command, render = _COMMANDS[args.command]
    results, code = command(args, form, split, tol)
    if not args.json:
        return render(results) + "\n", code
    report = {
        "command": ["ariset"] + list(argv),
        "input_digest": hashlib.sha256(raw).hexdigest(),
        "tolerances": {key: getattr(tol, field) for key, field in _TOL_KEYS.items()},
        "results": results,
    }
    return json.dumps(report) + "\n", code
