import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from doublejets import cli
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


def test_python_dash_m_runs_the_cli(capsys, tmp_path):
    value = write_json(tmp_path, "dv.json", WORKED_DOUBLE)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "doublejets", "canon", value],
                          capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=120)
    code, out, _ = run_cli(capsys, "canon", value)
    assert proc.returncode == code == 0, proc.stderr
    assert proc.stdout == out


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
