"""Command-line front end.

Reads problems from JSON files, runs the analyses, and emits reports in a
human-readable table (default) or machine-readable JSON, one compact line
per report (``--json``).

Exit codes: 0 ok/pass, 1 verify-fail, 2 parse error, 3 numerical error,
4 no base solution, 5 precondition violated.
"""

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import sys

import numpy as np

from .analysis import (
    boundedness,
    extremal_solutions,
    parametrize,
    verify,
)
from .errors import (
    BaseResidualTooLarge,
    DegenerateSpectrum,
    InvalidInput,
    NoBaseSolution,
    NotRHPSelection,
    RiccatiError,
    SingularSylvester,
    SingularY,
    Uncontrollable,
)
from .linalg import _real_array
from .riccati import (
    RiccatiProblem,
    degenerate_classify,
    full_rank_simplified_solution,
    reduce as reduce_blocks,
    ric_residual,
    schur_family,
    solve_base_are,
)
from .systems import AXIS, spectral_split
from .tolerances import Tolerances, _check_tolerance

# Errors by which a block set carries no equation solution: the reduction
# cannot separate it, or its Gramian solve or inverse is singular.
_NO_SOLUTION = (SingularSylvester, SingularY, DegenerateSpectrum)

_TOL_KEYS = {
    "axisTol": "axis",
    "rankTol": "rank",
    "defTol": "definiteness",
    "baseTol": "base",
}
# the --tol-* flags and the field each sets; a flag wins over the file
_TOL_FLAGS = {"--tol-axis": "axis", "--tol-rank": "rank", "--tol-def": "definiteness"}


class CliParseError(Exception):
    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


# ---------------------------------------------------------------------------
# input handling


def _load_json(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliParseError(str(exc), location=path)
    try:
        doc = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise CliParseError(
            exc.msg, location=f"{path}:{exc.lineno}:{exc.colno}"
        )
    except UnicodeDecodeError as exc:
        raise CliParseError(
            f"not UTF-8 text ({exc.reason}, byte {exc.start})", location=path
        )
    except RecursionError:
        raise CliParseError("JSON nested too deeply to parse", location=path)
    if not isinstance(doc, dict):
        raise CliParseError("top-level value must be an object", location=path)
    return doc, hashlib.sha256(raw).hexdigest()


def _matrix_field(doc, key, path, required=True):
    if key not in doc:
        if required:
            raise CliParseError(f"missing required key {key!r}", location=path)
        return None
    try:
        return _real_array(doc[key], f"key {key!r}")
    except InvalidInput as exc:
        raise CliParseError(str(exc), location=path)


def _tolerance_value(value, key, location=None):
    """A tolerance from the file or a flag; a number may be written as a
    string. A bad value is a parse error naming ``key``."""
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            pass
    try:
        _check_tolerance(value, key)
    except InvalidInput as exc:
        raise CliParseError(str(exc), location=location)
    return float(value)


def _tolerances(doc, args, path):
    overrides = {}
    raw = doc.get("tolerances", {})
    if not isinstance(raw, dict):
        raise CliParseError("'tolerances' must be an object", location=path)
    for key, value in raw.items():
        if key not in _TOL_KEYS:
            raise CliParseError(f"unknown tolerance {key!r}", location=path)
        overrides[_TOL_KEYS[key]] = _tolerance_value(value, key, path)
    for flag, field in _TOL_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))  # argparse's dest for the flag
        if value is not None:
            overrides[field] = _tolerance_value(value, flag)
    return dataclasses.replace(Tolerances(), **overrides)


def _load_base(args):
    """Problem file to (form, tol, digest): the base solve only."""
    doc, digest = _load_json(args.file)
    a = _matrix_field(doc, "A", args.file)
    b = _matrix_field(doc, "B", args.file)
    q = _matrix_field(doc, "Q", args.file, required=False)
    k0 = _matrix_field(doc, "K0", args.file, required=False)
    tol = _tolerances(doc, args, args.file)
    problem = RiccatiProblem(A=a, B=b, Q=q)
    kind = args.kind or ("given" if k0 is not None else "antistabilizing")
    if kind == "given" and k0 is None:
        raise CliParseError(
            'kind "given" requires a K0 entry in the problem file',
            location=args.file,
        )
    form = solve_base_are(problem, kind=kind, k0=k0, tol=tol)
    return form, tol, digest


def _parse_block_list(text, nblocks):
    try:
        ids = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise CliParseError(f"block list {text!r} is not a comma-separated "
                            "list of integers")
    if not ids:
        raise CliParseError("block list is empty")
    for i in ids:
        if i < 1 or i > nblocks:
            raise CliParseError(
                f"block index {i} out of range 1..{nblocks}"
            )
    return sorted(set(i - 1 for i in ids))


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


def _record(block_set, rank, x, residual_max, full=None):
    """A solution's report record: the fields plain text prints, or, with
    ``full`` = (eigenvalues, Lcoord, verdict kind), the whole ``--json``
    record in its key order."""
    blocks = [i + 1 for i in block_set]
    if full is None:
        return {"blocks": blocks, "rank": rank, "X": x, "residual_max_norm": residual_max}
    eigenvalues, lcoord, verdict = full
    return {
        "blocks": blocks,
        "rank": rank,
        "eigenvalues": [_c2pair(lam) for lam in eigenvalues],
        "X": x,
        "Lcoord": lcoord,
        "residual_max_norm": residual_max,
        "residual_verdict": verdict,
    }


def _solution_dict(sol, full):
    """:func:`_record` of ``sol``, the whole record when ``full``."""
    return _record(sol.block_set, sol.rank, _mat(sol.X), float(np.abs(sol.residual).max()),
                   (sol.eigenvalues, _mat(sol.Lcoord), sol.residual_verdict.kind) if full else None)


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
        rows = schur_family(form, split, tol).as_lists(full=args.json)
        full = (zip(rows["eigenvalues"], rows["Lcoord"], rows["residual_verdict"]) if args.json
                else itertools.repeat(None))
        results["family"] = list(map(_record, rows["block_set"], rows["rank"], rows["X"],
                                     rows["residual_max"], full))
        present = set(rows["block_set"])
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
        results["solution"] = _solution_dict(sol, args.json)
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
        "Lr": _solution_dict(pair.Lr, args.json),
        "Ll": _solution_dict(pair.Ll, args.json),
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
        # verified in both modes: a K whose residual overflows exits 3
        cert = verify(form, form.K0 + sol.X, strict=False, tol=tol)
        reduced = dataclasses.asdict(sol.certificate)
        if args.json:
            entries.append({
                "P": _mat(p),
                "solution": _solution_dict(sol, True),
                "reduced_certificate": reduced,
                "verify_certificate": dataclasses.asdict(cert),
            })
        else:  # plain text prints the reduced certificate and X
            entries.append({"solution": _solution_dict(sol, False), "reduced_certificate": reduced})
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
# parser


def _command(sub, name, help, handler, render, needs_split=True):
    """Add the subcommand ``name`` with the options every command takes;
    ``main`` runs ``handler`` (on a spectral split only when
    ``needs_split``) and prints its results through ``render``."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(handler=handler, render=render, needs_split=needs_split)
    p.add_argument("file", help="problem file (JSON with A, B, optional Q, K0)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--kind",
        choices=["stabilizing", "antistabilizing", "given"],
        default=None,
        help="base solution kind (default: given if the file has K0, "
        "else antistabilizing)",
    )
    for flag in _TOL_FLAGS:
        p.add_argument(flag, type=float, default=None)
    return p


def _int_at_least(low):
    """argparse type for an integer >= ``low``."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


@functools.cache
def _build_parser():
    # built once per process: parse_args leaves the tree unchanged and
    # returns a fresh Namespace on every call
    parser = argparse.ArgumentParser(
        prog="ariset",
        description="Solution-set analysis for algebraic Riccati inequalities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "classify", "spectral split and controllability",
             _cmd_classify, _render_classify)

    p = _command(sub, "solve", "equation solutions on block subsets",
                 _cmd_solve, _render_solve)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rank-set", help="comma-separated 1-based block indices")
    group.add_argument("--family", action="store_true", help="enumerate all subsets")

    _command(sub, "extremal", "maximum/minimum solutions and K bounds",
             _cmd_extremal, _render_extremal)

    _command(sub, "bounds", "boundedness verdict with witness rays",
             _cmd_bounds, _render_bounds)

    p = _command(sub, "parametrize", "solutions from PSD parameters",
                 _cmd_parametrize, _render_parametrize)
    p.add_argument("--blocks", required=True, help="1-based RHP block indices")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--param", help="JSON file with the parameter under key P")
    group.add_argument("--sample", type=_int_at_least(1),
                       help="number of random PD parameters")
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="seed for --sample")

    p = _command(sub, "verify", "certify a candidate K against the ARI",
                 _cmd_verify, _render_verify, needs_split=False)
    p.add_argument("--K", required=True, help="JSON file with the matrix under key K")
    p.add_argument("--strict", action="store_true", help="require strict negativity")

    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        form, tol, digest = _load_base(args)
        split = spectral_split(form.A0, form.problem.B, tol=tol) if args.needs_split else None
        results, code = args.handler(args, form, split, tol)
    except CliParseError as exc:
        loc = f" at {exc.location}" if exc.location else ""
        print(f"error: parse: {exc}{loc}", file=sys.stderr)
        return 2
    except InvalidInput as exc:
        print(f"error: InvalidInput: {exc}", file=sys.stderr)
        return 2
    except (NoBaseSolution, BaseResidualTooLarge) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except (Uncontrollable, NotRHPSelection) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5
    except RiccatiError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    report = {
        "command": ["ariset"] + argv,
        "input_digest": digest,
        "tolerances": {key: getattr(tol, field) for key, field in _TOL_KEYS.items()},
        "results": results,
    }
    if args.json:
        # no indent: an indent would take json's pure-Python encoder
        print(json.dumps(report))
    else:
        print(args.render(results))
    return code


if __name__ == "__main__":
    sys.exit(main())
