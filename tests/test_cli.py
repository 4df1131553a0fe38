import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ariset
from ariset.cli import _fmt_matrix, main

from conftest import L1, LHAT, LL, LR, LSTAR, PAPER_A, PAPER_B
from oracles import cli_report


@pytest.fixture
def paper_file(tmp_path):
    doc = {
        "A": PAPER_A.tolist(),
        "B": PAPER_B.tolist(),
        "Q": np.zeros((3, 3)).tolist(),
        "K0": np.zeros((3, 3)).tolist(),
    }
    path = tmp_path / "paper.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# classify


def test_classify_worked_example(paper_file, capsys):
    code, report = _run_json(capsys, ["classify", paper_file])
    assert code == 0
    blocks = report["results"]["blocks"]
    assert len(blocks) == 3
    assert [b["half_plane"] for b in blocks] == ["RHP", "RHP", "LHP"]
    assert all(b["controllable"] for b in blocks)
    assert report["results"]["boundedness_preview"] == "bounded"
    assert report["results"]["degenerate"] == []
    assert len(report["input_digest"]) == 64


def test_classify_zero_input_all_uncontrollable(tmp_path, capsys):
    path = _write(
        tmp_path,
        "b0.json",
        {"A": [[1.0, 0.0], [0.0, -2.0]], "B": [[0.0], [0.0]], "K0": [[0, 0], [0, 0]]},
    )
    code, report = _run_json(capsys, ["classify", path])
    assert code == 0
    assert not any(b["controllable"] for b in report["results"]["blocks"])
    assert report["results"]["boundedness_preview"] == "unbounded-both"


def test_classify_decoupled_rotation(tmp_path, capsys):
    a = [[0.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, -1.0]]
    path = _write(
        tmp_path,
        "rot.json",
        {"A": a, "B": [[0.0], [0.0], [1.0]], "K0": np.zeros((3, 3)).tolist()},
    )
    code, report = _run_json(capsys, ["classify", path])
    assert code == 0
    pair = [b for b in report["results"]["blocks"] if b["size"] == 2]
    assert len(pair) == 1 and not pair[0]["controllable"]
    assert pair[0]["half_plane"] == "AXIS"
    assert report["results"]["degenerate"][0]["outcome"] == "free-family"


# ---------------------------------------------------------------------------
# solve


def test_solve_family_worked_example(paper_file, capsys):
    code, report = _run_json(capsys, ["solve", paper_file, "--family"])
    assert code == 0
    family = report["results"]["family"]
    assert len(family) == 8
    for expected in (LSTAR, LR, LL, L1):
        assert any(
            np.abs(np.array(s["X"]) - expected).max() <= 1e-8 for s in family
        )
    assert report["results"]["absent"] == []


def test_solve_family_scalar(tmp_path, capsys):
    path = _write(tmp_path, "s.json", {"A": [[1.0]], "B": [[1.0]], "Q": [[0.0]]})
    code, report = _run_json(capsys, ["solve", path, "--family"])
    assert code == 0
    values = sorted(s["X"][0][0] for s in report["results"]["family"])
    assert np.allclose(values, [0.0, 2.0], atol=1e-10)


def test_solve_rank_set(paper_file, capsys):
    code, report = _run_json(capsys, ["solve", paper_file, "--rank-set", "1,3"])
    assert code == 0
    sol = report["results"]["solution"]
    assert np.abs(np.array(sol["X"]) - L1).max() <= 1e-9
    assert sol["rank"] == 2 and sol["blocks"] == [1, 3]


def test_solve_rank_set_absent(tmp_path, capsys):
    # uncontrollable second mode: the subset has no solution
    path = _write(
        tmp_path,
        "u.json",
        {"A": [[1.0, 0.0], [0.0, 2.0]], "B": [[1.0], [0.0]],
         "K0": [[0.0, 0.0], [0.0, 0.0]]},
    )
    code, report = _run_json(capsys, ["solve", path, "--rank-set", "2"])
    assert code == 0
    assert report["results"]["absent"] is True
    assert report["results"]["reason"] == "SingularY"


# ---------------------------------------------------------------------------
# extremal


def test_extremal_worked_example_digits(paper_file, capsys):
    code, report = _run_json(capsys, ["extremal", paper_file])
    assert code == 0
    results = report["results"]
    assert np.abs(np.array(results["Lr"]["X"]) - LR).max() <= 1e-10
    assert np.abs(np.array(results["Ll"]["X"]) - LL).max() <= 1e-10
    assert np.abs(np.array(results["K_max"]) - LR).max() <= 1e-10
    assert np.abs(np.array(results["K_min"]) - LL).max() <= 1e-10


def test_extremal_all_rhp(tmp_path, capsys):
    path = _write(
        tmp_path,
        "rhp.json",
        {"A": [[1.0, 0.0], [0.0, 3.0]], "B": [[1.0], [1.0]],
         "K0": [[0.0, 0.0], [0.0, 0.0]]},
    )
    code, report = _run_json(capsys, ["extremal", path])
    assert code == 0
    assert np.abs(np.array(report["results"]["Ll"]["X"])).max() == 0.0


def test_extremal_all_lhp(tmp_path, capsys):
    path = _write(
        tmp_path,
        "lhp.json",
        {"A": [[-1.0, 0.0], [0.0, -3.0]], "B": [[1.0], [1.0]],
         "K0": [[0.0, 0.0], [0.0, 0.0]]},
    )
    code, report = _run_json(capsys, ["extremal", path])
    assert code == 0
    assert np.abs(np.array(report["results"]["Lr"]["X"])).max() == 0.0


def test_extremal_uncontrollable_exits_5(tmp_path, capsys):
    path = _write(
        tmp_path,
        "unc.json",
        {"A": [[1.0, 0.0], [0.0, -1.0]], "B": [[1.0], [0.0]],
         "K0": [[0.0, 0.0], [0.0, 0.0]]},
    )
    assert main(["extremal", path]) == 5
    err = capsys.readouterr().err
    assert "Uncontrollable" in err and "bounds" in err


# ---------------------------------------------------------------------------
# bounds


def test_bounds_worked_example(paper_file, capsys):
    code, report = _run_json(capsys, ["bounds", paper_file])
    assert code == 0
    assert report["results"]["verdict"] == "bounded"
    assert report["results"]["witnesses"] == []


def test_bounds_planted_rhp_uncontrollable(tmp_path, capsys):
    path = _write(
        tmp_path,
        "rq.json",
        {"A": [[-1.0, 0.0], [0.0, 2.0]], "B": [[1.0], [0.0]],
         "K0": [[0.0, 0.0], [0.0, 0.0]]},
    )
    code, report = _run_json(capsys, ["bounds", path])
    assert code == 0
    assert report["results"]["verdict"] == "bounded-below-only"
    w = report["results"]["witnesses"][0]
    assert w["sign"] == "+"
    for entry in w["alpha_sweep"]:
        assert entry["residual_max_eig"] <= 1e-7 * max(1.0, abs(entry["alpha"]))


def test_bounds_planted_mixed(tmp_path, capsys):
    path = _write(
        tmp_path,
        "mx.json",
        {"A": [[1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, 0.5]],
         "B": [[0.0], [0.0], [1.0]],
         "K0": np.zeros((3, 3)).tolist()},
    )
    code, report = _run_json(capsys, ["bounds", path])
    assert code == 0
    assert report["results"]["verdict"] == "unbounded-both"
    assert sorted(w["sign"] for w in report["results"]["witnesses"]) == ["+", "-"]


# ---------------------------------------------------------------------------
# parametrize


def test_parametrize_zero_parameter(paper_file, tmp_path, capsys):
    p_file = _write(tmp_path, "p0.json", {"P": [[0.0, 0.0], [0.0, 0.0]]})
    code, report = _run_json(
        capsys, ["parametrize", paper_file, "--blocks", "1,2", "--param", p_file]
    )
    assert code == 0
    entry = report["results"]["solutions"][0]
    assert np.abs(np.array(entry["solution"]["Lcoord"]) - LR[:2, :2]).max() <= 1e-9
    assert entry["reduced_certificate"]["strict"] is False


def test_parametrize_identity_strict(paper_file, tmp_path, capsys):
    p_file = _write(tmp_path, "pi.json", {"P": [[1.0, 0.0], [0.0, 1.0]]})
    code, report = _run_json(
        capsys, ["parametrize", paper_file, "--blocks", "1,2", "--param", p_file]
    )
    assert code == 0
    entry = report["results"]["solutions"][0]
    assert entry["reduced_certificate"]["strict"] is True
    assert entry["reduced_certificate"]["passed"] is True
    assert entry["verify_certificate"]["passed"] is True


def test_parametrize_sampling_is_deterministic(paper_file, capsys):
    argv = ["parametrize", paper_file, "--blocks", "1,2", "--sample", "5",
            "--seed", "7"]
    code1, report1 = _run_json(capsys, argv)
    code2, report2 = _run_json(capsys, argv)
    assert code1 == code2 == 0
    assert report1 == report2
    assert len(report1["results"]["solutions"]) == 5
    assert all(
        e["verify_certificate"]["passed"] for e in report1["results"]["solutions"]
    )


def test_parametrize_lhp_selection_exits_5(paper_file, tmp_path, capsys):
    p_file = _write(tmp_path, "p1.json", {"P": [[1.0]]})
    code = main(["parametrize", paper_file, "--blocks", "3", "--param", p_file])
    assert code == 5


@pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--sample", "0"),
                                        ("--sample", "-3")])
def test_parametrize_bad_integer_flags_exit_2(paper_file, capsys, flag, value):
    argv = ["parametrize", paper_file, "--blocks", "1", "--sample", "2", flag, value]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# verify


def test_verify_paper_solution(paper_file, tmp_path, capsys):
    k_file = _write(tmp_path, "k.json", {"K": LHAT.tolist()})
    assert main(["verify", paper_file, "--K", k_file]) == 0


def test_verify_zero_passes_strict_fails(paper_file, tmp_path, capsys):
    k_file = _write(tmp_path, "k0.json", {"K": np.zeros((3, 3)).tolist()})
    assert main(["verify", paper_file, "--K", k_file]) == 0
    assert main(["verify", paper_file, "--K", k_file, "--strict"]) == 1


def test_verify_beyond_maximum_fails(paper_file, tmp_path, capsys):
    k_file = _write(tmp_path, "k3.json", {"K": (3.0 * LR).tolist()})
    assert main(["verify", paper_file, "--K", k_file]) == 1


def test_verify_k_of_the_wrong_order_exits_2(paper_file, tmp_path, capsys):
    k_file = _write(tmp_path, "k2.json", {"K": np.eye(2).tolist()})
    assert main(["verify", paper_file, "--K", k_file]) == 2
    captured = capsys.readouterr()
    assert not captured.out and "K must be 3x3" in captured.err


@pytest.mark.parametrize("size", [1e160, 1e300, 1e308])
def test_verify_k_whose_residual_overflows_exits_3(paper_file, tmp_path, capsys, size):
    k_file = _write(tmp_path, "big.json", {"K": (size * np.eye(3)).tolist()})
    assert main(["verify", paper_file, "--K", k_file]) == 3
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.splitlines() == [
        f"error: RiccatiError: the residual of K or its scale overflows: |K|_max = {size:.3e}"]


def test_verify_needs_only_the_base(paper_file, tmp_path, capsys, monkeypatch):
    # verify reads no spectral split; its report is the library's
    # certificate on the same base
    def refuse(*args, **kwargs):
        raise AssertionError("verify computed a spectral split")

    monkeypatch.setattr(ariset.cli, "spectral_split", refuse)
    doc = json.loads(open(paper_file).read())
    problem = ariset.RiccatiProblem(A=PAPER_A, B=PAPER_B)
    for kind, path in (("given", paper_file),
                       ("antistabilizing", _write(tmp_path, "nok0.json",
                                                  {k: doc[k] for k in "ABQ"}))):
        k0 = np.zeros((3, 3)) if kind == "given" else None
        form = ariset.solve_base_are(problem, kind=kind, k0=k0)
        for name, k in (("lhat", LHAT), ("zero", np.zeros((3, 3))), ("beyond", 3.0 * LR)):
            k_file = _write(tmp_path, f"{name}.json", {"K": k.tolist()})
            for strict in (False, True):
                cert = ariset.verify(form, k, strict=strict)
                code, report = _run_json(
                    capsys, ["verify", path, "--K", k_file] + ["--strict"] * strict)
                assert code == (0 if cert.passed else 1)
                assert report["results"] == {
                    "kind": kind,
                    "certificate": {
                        "residual_max_eig": cert.residual_max_eig,
                        "residual_min_eig": cert.residual_min_eig,
                        "passed": cert.passed,
                        "strict": cert.strict,
                        "tol_used": cert.tol_used,
                    },
                }


# ---------------------------------------------------------------------------
# report contract


@pytest.mark.parametrize("kind", ["stabilizing", "antistabilizing", "given"])
@pytest.mark.parametrize("command", [
    ["classify"], ["solve", "--family"], ["solve", "--rank-set", "1,3"],
    ["extremal"], ["bounds"], ["parametrize", "--blocks", "1", "--sample", "2"],
    ["verify"],
], ids=lambda c: " ".join(c[:2]))
def test_every_command_reports_the_base_kind(paper_file, tmp_path, capsys,
                                             command, kind):
    if command == ["verify"]:
        command = ["verify", "--K", _write(tmp_path, "k.json", {"K": LHAT.tolist()})]
    argv = [command[0], paper_file, *command[1:], "--kind", kind]
    if command[0] == "parametrize" and kind == "stabilizing":
        assert main(argv) == 5  # a stabilizing base leaves no RHP block
        return
    code, report = _run_json(capsys, argv)
    assert code == 0
    assert report["results"]["kind"] == kind


def test_json_report_roundtrip(paper_file, tmp_path, capsys):
    # machine-readable matrices re-parse and re-verify to the same verdicts
    code, report = _run_json(capsys, ["extremal", paper_file])
    assert code == 0
    k_file = _write(tmp_path, "kmax.json", {"K": report["results"]["K_max"]})
    code2, report2 = _run_json(capsys, ["verify", paper_file, "--K", k_file])
    assert code2 == 0 and report2["results"]["certificate"]["passed"]
    parsed = np.array(report["results"]["K_max"])
    assert np.abs(parsed - LR).max() <= 1e-12  # full precision survives JSON


@pytest.mark.skipif(json.encoder.c_make_encoder is None,
                    reason="json has no C encoder in this build")
def test_json_reports_take_the_c_encoder(paper_file, tmp_path, capsys, monkeypatch):
    # _make_iterencode is json's pure-Python encoder; an indent would route
    # every report through it
    k_file = _write(tmp_path, "k0.json", {"K": np.zeros((3, 3)).tolist()})
    commands = [
        ["classify", paper_file], ["solve", paper_file, "--family"],
        ["solve", paper_file, "--rank-set", "1,3"], ["extremal", paper_file],
        ["bounds", paper_file],
        ["parametrize", paper_file, "--blocks", "1,2", "--sample", "2"],
        ["verify", paper_file, "--K", k_file],
        ["verify", paper_file, "--K", k_file, "--strict"],
    ]
    expected = []
    for argv in commands:
        code = main(argv + ["--json"])
        expected.append((code, capsys.readouterr().out))

    def refuse(*args, **kwargs):
        raise AssertionError("report went through the pure-Python encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    for argv, (code, out) in zip(commands, expected):
        assert main(argv + ["--json"]) == code, argv
        assert capsys.readouterr().out == out == json.dumps(json.loads(out)) + "\n"
    assert [code for code, _ in expected] == [0] * 7 + [1]


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", str(bad)]) == 2
    assert "parse" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    ([[1.0]], "top-level value must be an object"),
    ({"A": [[1.0]], "B": [[1.0]], "tolerances": [1e-8]}, "'tolerances' must be an object"),
    ({"A": [[1.0]], "B": [[1.0]], "tolerances": {"sepTol": 1e-8}},
     "unknown tolerance 'sepTol'"),
], ids=["top-level-list", "tolerances-list", "unknown-tolerance"])
def test_malformed_problem_file_exit_2(tmp_path, capsys, doc, message):
    path = _write(tmp_path, "bad.json", doc)
    assert main(["classify", path]) == 2
    assert capsys.readouterr().err == f"error: parse: {message} at {path}\n"


@pytest.mark.parametrize("blocks, message", [
    ("1,x", "block list '1,x' is not a comma-separated list of integers"),
    (" , ", "block list is empty"),
    ("1,4", "block index 4 out of range 1..3"),
    ("0", "block index 0 out of range 1..3"),
], ids=["non-integer", "empty", "past-the-end", "zero"])
@pytest.mark.parametrize("command", ["solve", "parametrize"])
def test_bad_block_list_exit_2(paper_file, capsys, blocks, message, command):
    flags = {"solve": ["--rank-set", blocks],
             "parametrize": ["--blocks", blocks, "--sample", "1"]}[command]
    assert main([command, paper_file] + flags) == 2
    assert capsys.readouterr().err == f"error: parse: {message}\n"


def test_missing_matrix_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "m.json", {"A": [[1.0]]})
    assert main(["classify", path]) == 2


def test_missing_file_exit_2(capsys):
    assert main(["classify", "/nonexistent/problem.json"]) == 2


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",
    ('{"A": ' + "[" * 100000 + "]" * 100000 + "}").encode(),
], ids=["not-utf8", "too-deep"])
@pytest.mark.parametrize("role", ["problem", "K", "param"])
def test_undecodable_json_exit_2(paper_file, tmp_path, capsys, content, role):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = {
        "problem": ["classify", str(bad)],
        "K": ["verify", paper_file, "--K", str(bad)],
        "param": ["parametrize", paper_file, "--blocks", "1", "--param", str(bad)],
    }[role]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parse:") and err.endswith(f" at {bad}\n")


def _spoiled(matrix, how):
    """``matrix`` as JSON rows of strings or booleans, with one entry a
    string or a boolean among floats or integers, or with one entry an
    integer beyond 64 bits (``big``) or beyond the range of a float
    (``huge``)."""
    rows = np.asarray(matrix, dtype=float).tolist()
    if how == "strings":
        return [[str(v) for v in row] for row in rows]
    if how == "booleans":
        return [[bool(v) for v in row] for row in rows]
    if how in ("integer-boolean", "big", "huge"):
        rows = [[int(v) for v in row] for row in rows]
    rows[0][0] = {"mixed": str(rows[0][0]), "big": 10 ** 20, "huge": 10 ** 400}.get(how, True)
    return rows


def _spoiled_argv(paper_file, tmp_path, how, role):
    """The command line reading a spoiled matrix in ``role``, and its key."""
    doc = json.loads(open(paper_file).read())
    if role == "problem":
        doc["A"] = _spoiled(PAPER_A, how)
        return ["classify", _write(tmp_path, "p.json", doc)], "A"
    if role == "K":
        k_file = _write(tmp_path, "k.json", {"K": _spoiled(LR, how)})
        return ["verify", paper_file, "--K", k_file], "K"
    p_file = _write(tmp_path, "p.json", {"P": _spoiled(np.eye(2), how)})
    return ["parametrize", paper_file, "--blocks", "1,2", "--param", p_file], "P"


@pytest.mark.parametrize("how", ["strings", "booleans", "mixed", "float-boolean",
                                 "integer-boolean"])
@pytest.mark.parametrize("role", ["problem", "K", "param"])
def test_non_numeric_matrix_exit_2(paper_file, tmp_path, capsys, how, role):
    # numbers written as strings, or booleans, even among numbers, are not
    # read as numbers
    argv, key = _spoiled_argv(paper_file, tmp_path, how, role)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parse:")
    assert f"key {key!r} is not a rectangular numeric array" in err


@pytest.mark.parametrize("role", ["problem", "K", "param"])
def test_integers_beyond_64_bits_are_read_as_floats(paper_file, tmp_path, capsys, role):
    argv, key = _spoiled_argv(paper_file, tmp_path, "big", role)
    path = argv[1] if role == "problem" else argv[-1]
    doc = json.loads(open(path).read())
    assert ariset.cli._matrix_field(doc, key, path)[0, 0] == 1e20
    assert main(argv) != 2
    assert "error: parse:" not in capsys.readouterr().err


@pytest.mark.parametrize("role", ["problem", "K", "param"])
def test_integer_too_large_for_a_float_exit_2(paper_file, tmp_path, capsys, role):
    argv, key = _spoiled_argv(paper_file, tmp_path, "huge", role)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: parse: key {key!r} has an integer too large for a float")


def test_kind_given_without_k0_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "nk.json", {"A": [[1.0]], "B": [[1.0]]})
    assert main(["classify", path, "--kind", "given"]) == 2


def test_no_base_solution_exit_4(tmp_path, capsys):
    path = _write(tmp_path, "nb.json", {"A": [[0.0]], "B": [[0.0]], "Q": [[1.0]]})
    assert main(["classify", path]) == 4


def test_tolerance_flags_land_in_report(paper_file, capsys):
    code, report = _run_json(
        capsys, ["classify", paper_file, "--tol-axis", "1e-6", "--tol-def", "1e-9"]
    )
    assert code == 0
    assert report["tolerances"]["axisTol"] == 1e-6
    assert report["tolerances"]["defTol"] == 1e-9
    assert report["command"][0] == "ariset"


def test_human_output_renders(paper_file, capsys):
    assert main(["classify", paper_file]) == 0
    out = capsys.readouterr().out
    assert "block 1" in out and "bounded" in out


def _plain_and_results(capsys, argv):
    """The plain-text report of ``argv`` and the results of its ``--json``
    report."""
    assert main(argv) == 0
    plain = capsys.readouterr().out
    code, report = _run_json(capsys, argv)
    assert code == 0
    return plain, report["results"]


@pytest.fixture
def mirrored_file(tmp_path):
    # modes 1 and -1: the subset of both is a mirrored pair, so it is absent
    return _write(tmp_path, "mirror.json", {"A": [[1.0, 0.0], [0.0, -1.0]],
                                           "B": [[1.0], [1.0]], "K0": [[0, 0], [0, 0]]})


@pytest.mark.parametrize("absent", [False, True], ids=["all-present", "absent"])
def test_solve_family_plain_text(paper_file, mirrored_file, capsys, absent):
    path = mirrored_file if absent else paper_file
    plain, results = _plain_and_results(capsys, ["solve", path, "--family"])
    assert results["absent"] == ([[1, 2]] if absent else [])
    lines = [f"{len(results['family'])} solutions"]
    for s in results["family"]:
        lines.append(f"blocks {s['blocks'] or '[]'}: rank {s['rank']}, "
                     f"|Ric(X)|_max = {s['residual_max_norm']:.3e}")
        lines.append(_fmt_matrix(s["X"]))
    if absent:
        lines.append("absent subsets: [[1, 2]]")
    assert plain == "\n".join(lines) + "\n"


def test_solve_rank_set_plain_text(paper_file, mirrored_file, capsys):
    plain, results = _plain_and_results(capsys, ["solve", paper_file, "--rank-set", "1,3"])
    s = results["solution"]
    assert plain == (f"blocks [1, 3]: rank 2, |Ric(X)|_max = {s['residual_max_norm']:.3e}\n"
                     + _fmt_matrix(s["X"]) + "\n")
    plain, results = _plain_and_results(capsys, ["solve", mirrored_file, "--rank-set", "1,2"])
    assert results["reason"] == "SingularSylvester"
    assert plain == "blocks [1, 2]: absent (SingularSylvester)\n"


def test_extremal_plain_text(paper_file, capsys):
    plain, r = _plain_and_results(capsys, ["extremal", paper_file])
    assert plain == "\n".join([
        "maximum solution X (support blocks [1, 2]):", _fmt_matrix(r["Lr"]["X"]),
        "minimum solution X (support blocks [3]):", _fmt_matrix(r["Ll"]["X"]),
        "K_max:", _fmt_matrix(r["K_max"]), "K_min:", _fmt_matrix(r["K_min"]),
    ]) + "\n"


def test_parametrize_plain_text(paper_file, capsys):
    argv = ["parametrize", paper_file, "--blocks", "1,2", "--sample", "2", "--seed", "3"]
    plain, results = _plain_and_results(capsys, argv)
    lines = ["blocks [1, 2]: 2 solution(s)"]
    for e in results["solutions"]:
        rc = e["reduced_certificate"]
        assert rc["strict"] and rc["passed"]
        lines.append(f"P -> solution (strict=True, passed=True, "
                     f"max eig reduced residual {rc['residual_max_eig']:.3e})")
        lines.append(_fmt_matrix(e["solution"]["X"]))
    assert plain == "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# tolerance values


@pytest.mark.parametrize(
    "value",
    ["abc", [1], {"x": 1}, None, True, -1.0, float("nan"), float("inf")],
    ids=["string", "list", "object", "null", "bool", "negative", "nan", "inf"],
)
def test_bad_file_tolerance_exit_2(tmp_path, capsys, value):
    doc = {"A": PAPER_A.tolist(), "B": PAPER_B.tolist(),
           "tolerances": {"axisTol": value}}
    path = _write(tmp_path, "t.json", doc)
    assert main(["classify", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parse:") and "'axisTol'" in err


@pytest.mark.parametrize("flag", ["--tol-axis", "--tol-rank", "--tol-def"])
@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_bad_flag_tolerance_exit_2(paper_file, capsys, flag, value):
    assert main(["classify", paper_file, f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parse:") and f"'{flag}'" in err


def test_valid_tolerance_overrides(tmp_path, capsys):
    doc = {"A": PAPER_A.tolist(), "B": PAPER_B.tolist(),
           "K0": np.zeros((3, 3)).tolist(),
           "tolerances": {"axisTol": 1e-6, "baseTol": 0, "rankTol": "1e-11"}}
    path = _write(tmp_path, "ok.json", doc)
    code, report = _run_json(capsys, ["classify", path, "--tol-axis", "1e-7"])
    assert code == 0
    assert report["tolerances"]["axisTol"] == 1e-7  # the flag wins
    assert report["tolerances"]["baseTol"] == 0.0
    assert report["tolerances"]["rankTol"] == 1e-11


# ---------------------------------------------------------------------------
# start-up and reuse within one process


def _fresh_python(*args, **kwargs):
    src = os.path.dirname(os.path.dirname(ariset.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                           text=True, timeout=120, **kwargs)


def test_module_entry_point_runs(paper_file, capsys):
    proc = _fresh_python("-m", "ariset", "classify", paper_file)
    assert proc.returncode == 0, proc.stderr
    assert "solution set: bounded" in proc.stdout

    # the compact report piped through json.tool, as the README shows
    argv = ["solve", paper_file, "--family", "--json"]
    proc = _fresh_python("-m", "ariset", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 1
    pretty = _fresh_python("-m", "json.tool", input=proc.stdout)
    assert pretty.returncode == 0, pretty.stderr
    assert pretty.stdout.count("\n") > 1
    assert main(argv) == 0
    assert json.loads(pretty.stdout) == json.loads(capsys.readouterr().out)


def test_import_leaves_scipy_optimize_unloaded():
    proc = _fresh_python(
        "-c", "import sys, ariset, ariset.cli; print('scipy.optimize' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_parser_is_built_once_per_process(paper_file, tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["classify", paper_file]) == 0
    built.clear()
    k_file = _write(tmp_path, "k.json", {"K": LHAT.tolist()})
    assert main(["verify", paper_file, "--K", k_file]) == 0
    assert main(["bounds", paper_file, "--json"]) == 0
    assert built == []


def test_reused_parser_carries_nothing_over(paper_file, tmp_path, capsys,
                                            monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, first = _run_json(capsys, ["classify", paper_file])
    assert code == 0
    assert main(["--help"]) == 0
    help_text = capsys.readouterr().out
    assert "classify" in help_text

    assert main(["parametrize", paper_file]) == 2  # --blocks is required
    assert "--blocks" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == help_text

    k_file = _write(tmp_path, "k0.json", {"K": np.zeros((3, 3)).tolist()})
    assert main(["verify", paper_file, "--K", k_file, "--strict"]) == 1
    assert capsys.readouterr().out.startswith("FAIL (strict)")
    assert main(["verify", paper_file, "--K", k_file]) == 0
    assert capsys.readouterr().out.startswith("PASS (non-strict)")
    code, loose = _run_json(
        capsys, ["classify", paper_file, "--tol-axis", "1e-6", "--kind", "given"]
    )
    assert code == 0 and loose["tolerances"]["axisTol"] == 1e-6
    code, again = _run_json(capsys, ["classify", paper_file])
    assert code == 0
    assert again == first


# ---------------------------------------------------------------------------
# matrix rendering


def _fmt_matrix_per_entry(m):
    arr = np.atleast_2d(np.asarray(m))
    return "\n".join("    " + "  ".join(f"{v: .9g}" for v in row) for row in arr)


def _render_cases():
    rng = np.random.default_rng(20190)
    for shape in [(1, 1), (1, 5), (5, 1), (3, 3), (8, 8), (4, 7)]:
        scale = 10.0 ** rng.uniform(-12, 12, size=shape)
        yield rng.standard_normal(shape) * scale
    special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-300, 1e300, -1e-300, 5e-324]
    yield np.array([special])
    yield np.array(special).reshape(-1, 1)
    yield np.arange(-6, 6).reshape(3, 4)  # integer dtype
    yield [[1, -2], [3, 4]]  # nested lists of ints, as the reports hold
    yield [[0.5, -0.0], [1e-9, 2.0]]
    yield np.zeros((3, 0))
    yield np.zeros((0, 3))
    yield np.zeros(0)
    yield np.array([1.0, -2.5, 3.25])  # 1-D: one row
    yield 7.0  # scalar: one 1x1 row


@pytest.mark.parametrize("m", list(_render_cases()),
                         ids=lambda m: "x".join(map(str, np.shape(m))) or "scalar")
def test_fmt_matrix_matches_per_entry_formatting(m):
    assert _fmt_matrix(m) == _fmt_matrix_per_entry(m)


# ---------------------------------------------------------------------------
# every report against the reference


# name: (A, B, 1-based RHP blocks, K for verify)
_REPORT_PROBLEMS = {
    "worked-example": (PAPER_A, PAPER_B, "1,2", LHAT),
    "mirrored-pair": (np.diag([1.0, -1.0]), np.ones((2, 1)), "1", np.zeros((2, 2))),
    "uncontrollable-rhp": (np.diag([-1.0, 2.0]), np.array([[1.0], [0.0]]), "1",
                           np.diag([0.0, 1.0])),
}

_REPORT_COMMANDS = {
    "classify": lambda path, k_path, rhp: ["classify", path],
    "solve-family": lambda path, k_path, rhp: ["solve", path, "--family"],
    "solve-rank-set": lambda path, k_path, rhp: ["solve", path, "--rank-set", rhp],
    "solve-rank-set-all": lambda path, k_path, rhp: ["solve", path, "--rank-set", "1,2"],
    "extremal": lambda path, k_path, rhp: ["extremal", path],
    "bounds": lambda path, k_path, rhp: ["bounds", path],
    "parametrize": lambda path, k_path, rhp: ["parametrize", path, "--blocks", rhp,
                                              "--sample", "2", "--seed", "3"],
    "verify": lambda path, k_path, rhp: ["verify", path, "--K", k_path],
    "verify-strict": lambda path, k_path, rhp: ["verify", path, "--K", k_path, "--strict"],
}


@pytest.mark.parametrize("use_json", [False, True], ids=["plain", "json"])
@pytest.mark.parametrize("command", list(_REPORT_COMMANDS))
@pytest.mark.parametrize("name", list(_REPORT_PROBLEMS))
def test_report_is_byte_equal_to_the_reference(name, command, use_json, tmp_path, capsys):
    # plain text builds only what it prints and the family reads its
    # stacks; the bytes are those of the reference's whole records
    a, b, rhp, k = _REPORT_PROBLEMS[name]
    n = len(a)
    path = _write(tmp_path, "problem.json", {"A": a.tolist(), "B": b.tolist(),
                                             "K0": np.zeros((n, n)).tolist()})
    k_path = _write(tmp_path, "k.json", {"K": k.tolist()})
    argv = _REPORT_COMMANDS[command](path, k_path, rhp) + (["--json"] if use_json else [])
    code = main(argv)
    captured = capsys.readouterr()
    try:
        want, want_code = cli_report(argv)
    except ariset.RiccatiError as exc:
        assert code in (3, 5) and captured.out == ""
        assert captured.err == f"error: {type(exc).__name__}: {exc}\n"
    else:
        assert (code, captured.err) == (want_code, "")
        assert captured.out == want


@pytest.mark.parametrize("use_json", [False, True], ids=["plain", "json"])
def test_solve_family_builds_no_member_and_reads_the_residual_stack_once(
        paper_file, capsys, monkeypatch, use_json):
    # plain text reads no verdict, so takes no eigvalsh; --json takes the
    # one over the family's residual stack. Neither builds an AriSolution
    from ariset import riccati

    eigvalsh, stacks, built = np.linalg.eigvalsh, [], []

    def recording(a, *args, **kwargs):
        stacks.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    def building(*args, **kwargs):
        built.append(args)
        raise AssertionError("a member AriSolution was built")

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    monkeypatch.setattr(riccati, "AriSolution", building)
    assert main(["solve", paper_file, "--family"] + (["--json"] if use_json else [])) == 0
    out = capsys.readouterr().out
    assert (len(json.loads(out)["results"]["family"]) if use_json else out.splitlines()[0]) == (
        8 if use_json else "8 solutions")
    assert built == []
    assert stacks == ([(7, 3, 3)] if use_json else [])
