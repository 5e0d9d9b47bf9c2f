import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from doublejets import cli, groups
from doublejets.codec import decode
from doublejets.core import is_holonomic


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


WORKED_DOUBLE = {"m": 1, "n": 2, "u": [0.0, 0.0], "Ui": [[1.0], [2.0]],
                 "Uo": [[3.0], [4.0]], "W": [[[5.0]], [[6.0]]]}
WORKED_ELEMENT = {"m": 1, "Aphi": [[2.0]], "Asigma": [[3.0]], "B": [[[7.0]]]}


def test_gen_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "gen", "--kind", "double", "--m", "2",
                             "--seed", "9", "--count", "5")
    code2, out2, _ = run_cli(capsys, "gen", "--kind", "double", "--m", "2",
                             "--seed", "9", "--count", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 5


def test_gen_holonomic_kind_satisfies_predicate(capsys):
    code, out, _ = run_cli(capsys, "gen", "--kind", "holonomic", "--m", "2",
                           "--seed", "3", "--count", "4")
    assert code == 0
    for line in out.strip().splitlines():
        assert is_holonomic(decode(json.loads(line)))


def test_gen_principal_has_invertible_blocks(capsys):
    code, out, _ = run_cli(capsys, "gen", "--kind", "principal", "--m", "2",
                           "--seed", "3", "--count", "3")
    assert code == 0
    for line in out.strip().splitlines():
        p = decode(json.loads(line))
        assert abs(np.linalg.det(p.Aphi)) >= 0.5
        assert abs(np.linalg.det(p.Asigma)) >= 0.5


def test_gen_rejects_bad_dims(capsys):
    code, _, err = run_cli(capsys, "gen", "--kind", "velocity", "--m", "2", "--n", "2")
    assert code == 2
    assert "error" in err


def test_gen_rejects_unknown_kind(capsys):
    assert run_cli(capsys, "gen", "--kind", "plane")[0] == 2


def test_act_worked_case(capsys, tmp_path):
    value = write_json(tmp_path, "dv.json", WORKED_DOUBLE)
    element = write_json(tmp_path, "p.json", WORKED_ELEMENT)
    code, out, _ = run_cli(capsys, "act", "--value", value, "--element", element)
    assert code == 0
    moved = json.loads(out)
    assert moved["Ui"] == [[3.0], [6.0]]
    assert moved["Uo"] == [[6.0], [8.0]]
    assert moved["W"] == [[[37.0]], [[50.0]]]


def test_act_identity_echoes_input(capsys, tmp_path):
    value = write_json(tmp_path, "dv.json", WORKED_DOUBLE)
    ident = write_json(tmp_path, "e.json",
                       {"m": 1, "Aphi": [[1.0]], "Asigma": [[1.0]], "B": [[[0.0]]]})
    code, out, _ = run_cli(capsys, "act", "--value", value, "--element", ident)
    assert code == 0
    assert json.loads(out) == WORKED_DOUBLE


def test_act_twice_matches_composed_element(capsys, tmp_path):
    value = write_json(tmp_path, "dv.json", WORKED_DOUBLE)
    p1 = write_json(tmp_path, "p1.json", WORKED_ELEMENT)
    p2 = write_json(tmp_path, "p2.json",
                    {"m": 1, "Aphi": [[1.0]], "Asigma": [[2.0]], "B": [[[3.0]]]})
    code, out, _ = run_cli(capsys, "act", "--value", value, "--element", p1)
    step1 = write_json(tmp_path, "step1.json", json.loads(out))
    _, out, _ = run_cli(capsys, "act", "--value", step1, "--element", p2)
    twice = json.loads(out)
    code, out, _ = run_cli(capsys, "compose", p1, p2)
    composed = write_json(tmp_path, "p12.json", json.loads(out))
    _, out, _ = run_cli(capsys, "act", "--value", value, "--element", composed)
    assert json.loads(out) == twice


def test_act_type_mismatch(capsys, tmp_path):
    value = write_json(tmp_path, "dv.json", WORKED_DOUBLE)
    wrong = write_json(tmp_path, "g.json", {"m": 1, "A": [[2.0]]})
    assert run_cli(capsys, "act", "--value", value, "--element", wrong)[0] == 2


def test_exchange_roundtrip(capsys, tmp_path):
    value = write_json(tmp_path, "dv.json", WORKED_DOUBLE)
    code, out, _ = run_cli(capsys, "exchange", value)
    assert code == 0
    once = json.loads(out)
    assert once["Ui"] == [[3.0], [4.0]]
    back = write_json(tmp_path, "back.json", once)
    _, out, _ = run_cli(capsys, "exchange", back)
    assert json.loads(out) == WORKED_DOUBLE


def test_canon_worked_case(capsys, tmp_path):
    value = write_json(tmp_path, "dv.json",
                       {"m": 1, "n": 2, "u": [0.0, 0.0], "Ui": [[2.0], [3.0]],
                        "Uo": [[4.0], [6.0]], "W": [[[8.0]], [[14.0]]]})
    code, out, _ = run_cli(capsys, "canon", value)
    assert code == 0
    d = json.loads(out)
    assert d["I"] == [0]
    assert d["X"] == [[1.5]] and d["Y"] == [[1.5]] and d["Z"] == [[[0.25]]]


def test_canon_idempotent(capsys, tmp_path):
    value = write_json(tmp_path, "dv.json",
                       {"m": 1, "n": 2, "u": [0.0, 0.0], "Ui": [[2.0], [3.0]],
                        "Uo": [[4.0], [6.0]], "W": [[[8.0]], [[14.0]]]})
    _, out1, _ = run_cli(capsys, "canon", value)
    again = write_json(tmp_path, "canon.json", json.loads(out1))
    _, out2, _ = run_cli(capsys, "canon", again)
    assert out1 == out2


def test_canon_velocity(capsys, tmp_path):
    value = write_json(tmp_path, "v.json",
                       {"m": 1, "n": 2, "u": [0.0, 0.0], "U": [[2.0], [4.0]]})
    code, out, _ = run_cli(capsys, "canon", value)
    assert code == 0
    assert json.loads(out)["P"] == [[1.0], [2.0]]


def test_canon_chart_failure_names_pivot_condition(capsys, tmp_path):
    value = write_json(tmp_path, "dv.json",
                       {"m": 1, "n": 2, "u": [0.0, 0.0], "Ui": [[1.0], [0.0]],
                        "Uo": [[0.0], [1.0]], "W": [[[0.0]], [[0.0]]]})
    code, _, err = run_cli(capsys, "canon", value)
    assert code == 2
    assert "pivot" in err


def test_decompose_with_check(capsys, tmp_path):
    value = write_json(tmp_path, "semi.json",
                       {"m": 2, "n": 3, "u": [0.0, 0.0, 0.0],
                        "Ui": [[1.0, 0.0], [0.0, 1.0], [2.0, 3.0]],
                        "Uo": [[1.0, 0.0], [0.0, 1.0], [2.0, 3.0]],
                        "W": [[[1.0, 2.0], [0.0, 1.0]],
                              [[0.0, 0.0], [0.0, 0.0]],
                              [[1.0, 1.0], [1.0, 1.0]]]})
    code, out, _ = run_cli(capsys, "decompose", value, "--check")
    assert code == 0
    parts = json.loads(out)
    assert parts["recombines"] is True
    assert is_holonomic(decode(parts["holonomic"]))
    curv = decode(parts["curvature"])
    assert np.allclose(curv.K, -np.swapaxes(curv.K, 1, 2))


def test_decompose_holonomic_curvature_vanishes(capsys, tmp_path):
    value = write_json(tmp_path, "holo.json",
                       {"m": 1, "n": 2, "u": [0.0, 0.0], "Ui": [[1.0], [2.0]],
                        "Uo": [[1.0], [2.0]], "W": [[[7.0]], [[8.0]]]})
    code, out, _ = run_cli(capsys, "decompose", value)
    assert code == 0
    assert np.max(np.abs(decode(json.loads(out)["curvature"]).K)) == 0.0


def test_decompose_rejects_nonsemiholonomic(capsys, tmp_path):
    value = write_json(tmp_path, "dv.json", WORKED_DOUBLE)
    assert run_cli(capsys, "decompose", value)[0] == 2


def test_verify_small_run_exit_zero(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "exchange", "--m", "1",
                             "--trials", "30", "--seed", "5")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "exchange"
    assert report["failures"] == 0
    assert report["trials"] == 30
    assert report["seed"] == 5
    assert {"name", "trials", "failures", "max_error"} <= set(report["properties"][0])
    assert "exchange-involution" in err


def test_verify_reports_are_byte_stable(capsys):
    args = ("verify", "--suite", "group-axioms", "--m", "2", "--trials", "40",
            "--seed", "11")
    code1, out1, err1 = run_cli(capsys, *args)
    code2, out2, err2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert err1 == err2


def test_verify_rejects_bad_configuration(capsys):
    assert run_cli(capsys, "verify", "--suite", "nope")[0] == 2
    assert run_cli(capsys, "verify", "--m", "0")[0] == 2
    assert run_cli(capsys, "verify", "--m", "2", "--n", "2")[0] == 2
    assert run_cli(capsys, "verify", "--seed", "-3")[0] == 2


def test_unknown_subcommand_and_missing_file(capsys, tmp_path):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "canon", str(tmp_path / "missing.json"))[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(capsys, "canon", str(bad))[0] == 2


def run_module(cwd, *argv):
    """The same argv through `python -m doublejets` in a fresh process."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "doublejets", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_python_dash_m_runs_the_cli(capsys, tmp_path):
    value = write_json(tmp_path, "dv.json", WORKED_DOUBLE)
    proc_code, proc_out, proc_err = run_module(tmp_path, "canon", value)
    code, out, _ = run_cli(capsys, "canon", value)
    assert proc_code == code == 0, proc_err
    assert proc_out == out


def test_non_finite_json_is_rejected_with_the_file_name(capsys, tmp_path):
    text = json.dumps(WORKED_DOUBLE)
    for bad in ("NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1" + "0" * 400):
        path = tmp_path / "dv.json"
        path.write_text(text.replace('"u": [0.0, 0.0]', f'"u": [{bad}, 0.0]'))
        code, out, err = run_cli(capsys, "canon", str(path))
        assert (code, out) == (2, ""), bad
        assert f"invalid JSON in {path}" in err and bad[:32] in err
        assert "SVD" not in err
    element = write_json(tmp_path, "p.json", WORKED_ELEMENT)
    code, out, err = run_cli(capsys, "act", "--value", str(path), "--element", element)
    assert code == 2 and out == "" and str(path) in err


BAD_NUMERIC_FLAGS = [
    ("--tol", ["verify", "--suite", "exchange", "--m", "1", "--trials", "3"],
     ["nan", "NaN", "-1", "-1e-12", "inf", "-inf", "1e999", "x"]),
    ("--tol", ["canon", "-"], ["nan", "-1", "inf"]),
    ("--tol", ["decompose", "-"], ["nan", "-1", "inf"]),
    ("--trials", ["verify", "--suite", "exchange", "--m", "1"],
     ["0", "-5", "1.5", "x"]),
    ("--count", ["gen", "--kind", "double"], ["-1", "-2", "1.5", "x"]),
]


def test_invalid_numeric_flags_are_usage_errors_naming_the_flag(capsys):
    for flag, argv, values in BAD_NUMERIC_FLAGS:
        for bad in values:
            code, out, err = run_cli(capsys, *argv, f"{flag}={bad}")
            assert (code, out) == (2, ""), (argv, flag, bad)
            assert f"argument {flag}: " in err and repr(bad) in err, err


def test_zero_tolerance_and_default_flags_still_run(capsys, tmp_path):
    code, out, err = run_cli(capsys, "verify", "--suite", "exchange", "--m", "1",
                             "--trials", "3", "--tol", "0")
    assert code == 0 and json.loads(out)["failures"] == 0, err
    assert run_cli(capsys, "verify", "--suite", "exchange", "--m", "1",
                   "--trials", "1")[0] == 0
    code, out, _ = run_cli(capsys, "gen", "--kind", "double", "--count", "0")
    assert (code, out) == (0, "")
    code, out, _ = run_cli(capsys, "gen", "--kind", "double")
    assert code == 0 and len(out.splitlines()) == 1
    value = write_json(tmp_path, "dv.json", WORKED_DOUBLE)
    for extra in ((), ("--tol", "0")):
        code, out, _ = run_cli(capsys, "canon", value, *extra)
        assert code == 0 and json.loads(out)["I"] == [0]
    semi = write_json(tmp_path, "holo.json",
                      {"m": 1, "n": 2, "u": [0.0, 0.0], "Ui": [[1.0], [2.0]],
                       "Uo": [[1.0], [2.0]], "W": [[[7.0]], [[8.0]]]})
    for extra in ((), ("--tol", "0")):
        code, out, _ = run_cli(capsys, "decompose", semi, "--check", *extra)
        assert code == 0 and json.loads(out)["recombines"] is True


def test_main_builds_the_parser_once(capsys, monkeypatch):
    real_build = cli.build_parser
    built = []

    def counting_build():
        built.append(1)
        return real_build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    for argv in (("gen", "--kind", "double", "--count", "0"), ("--help",),
                 ("verify", "--trials", "0"), ("gen", "--kind", "double")):
        run_cli(capsys, *argv)
    assert len(built) == 1


def test_reused_parser_keeps_calls_independent(capsys, monkeypatch, tmp_path):
    """Calls in one process, in this order, each print what a fresh process
    prints for the same argv, although the parser is built only once."""
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps to the width
    monkeypatch.setenv("NO_COLOR", "1")
    value = write_json(tmp_path, "dv.json", WORKED_DOUBLE)
    calls = [(2, ("verify", "--tol", "nan")),
             (0, ("--help",)),
             (0, ("--help",)),
             (0, ("gen", "--kind", "double", "--m", "2", "--seed", "4", "--count", "3")),
             (0, ("canon", value)),
             (0, ("verify", "--suite", "all", "--m", "2", "--trials", "5"))]
    seen = []
    for expected, argv in calls:
        got = run_cli(capsys, *argv)
        assert got == run_module(tmp_path, *argv), argv
        assert got[0] == expected, (argv, got[2])
        seen.append(got)
    assert seen[1] == seen[2] and seen[1][1].startswith("usage: doublejets")
    assert cli.build_parser() is not cli.build_parser()

    # the subcommand function is looked up at call time as well
    with monkeypatch.context() as patch:
        patch.setattr(cli, "cmd_gen", lambda args: 7)
        assert cli.main(["gen", "--kind", "double"]) == 7

    # the library is still looked up at call time: a corrupted composition
    # law is caught by a verify call made after the parser was cached
    real_compose_P = groups.compose_P

    def corrupted(p1, p2):
        good = real_compose_P(p1, p2)
        bad_B = np.array(good.B)
        bad_B[0, 0, 0] += 1e-3
        return type(good)(good.m, good.Aphi, good.Asigma, bad_B)

    monkeypatch.setattr("doublejets.groups.compose_P", corrupted)
    code, out, _ = run_cli(capsys, "verify", "--suite", "group-axioms", "--m", "2",
                           "--trials", "40", "--seed", "42")
    assert code == 1 and json.loads(out)["failures"] > 0
