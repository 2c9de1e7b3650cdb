import json
import os
import pathlib
import subprocess
import sys

import pytest

from opinv.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_hermite_json(capsys):
    code, out, _ = run(
        capsys, "eval", "--family", "hermite", "--n", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"var": "x", "coeffs": ["-1/4", "0", "1/2"]}


def test_eval_latex(capsys):
    code, out, _ = run(
        capsys, "eval", "--family", "hermite", "--n", "2", "--format", "latex"
    )
    assert code == 0
    assert out.strip() == "\\frac{1}{2}x^{2}-\\frac{1}{4}"


def test_eval_missing_parameter_is_usage_error(capsys):
    code, _, err = run(capsys, "eval", "--family", "laguerre", "--n", "1")
    assert code == 2
    assert "requires parameter" in err


def test_unknown_family_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "eval", "--family", "nope", "--n", "1")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "hermite" in err  # choices enumerated in the usage message


def test_verify_pass_exit_code(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--identity", "charlier_inv", "--size", "4",
        "--samples", "3", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["elapsed_ms"] is None  # deterministic output


def test_invert_output(capsys):
    code, out, _ = run(
        capsys,
        "invert", "--identity", "chebU_banded_inverse", "--size", "3",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    # inverse row 2 is the band [1, -2x, 1]
    assert obj["inverse"]["rows"][2] == [
        {"var": "x", "coeffs": ["1"]},
        {"var": "x", "coeffs": ["0", "-2"]},
        {"var": "x", "coeffs": ["1"]},
    ]


def test_solve_json_roundtrip(capsys):
    rhs = json.dumps(
        [
            {"var": "x", "coeffs": ["0", "1"]},
            {"var": "x", "coeffs": []},
        ]
    )
    code, out, _ = run(
        capsys,
        "solve", "--family", "hermite", "--rhs", rhs, "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["equal"] is True
    assert obj["generic"]["coeffs"][0] == {"var": "x", "coeffs": ["0", "1"]}
    assert obj["generic"]["coeffs"][1] == {"var": "x", "coeffs": ["0", "0", "-1"]}


def test_gen_hermite_coeffs(capsys):
    code, out, _ = run(
        capsys, "gen-hermite", "coeffs", "--max-n", "3", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["coeffs"][0] == {"var": "x", "coeffs": []}  # a_1 = 0
    assert obj["coeffs"][1] == {"var": "x", "coeffs": ["0", "0", "-2"]}  # a_2


def test_gen_hermite_check(capsys):
    code, out, _ = run(
        capsys, "gen-hermite", "check", "--max-n", "4", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_gen_hermite_with_odd_alphas(capsys):
    code, out, _ = run(
        capsys,
        "gen-hermite", "check", "--max-n", "4",
        "--odd-alphas", "1/2,-2/3", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_suite_deterministic_json(capsys):
    args = ("suite", "--seed", "7", "--samples", "2", "--size", "5",
            "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["status"] == "pass"


def test_usage_error_without_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys)
    assert exc.value.code == 2


def test_readme_eval_with_negative_rational(capsys):
    code, out, _ = run(
        capsys,
        "eval", "--family", "jacobi", "--n", "3", "--alpha", "1/2",
        "--beta", "-1/3", "--format", "latex",
    )
    assert code == 0
    _, joined, _ = run(
        capsys,
        "eval", "--family", "jacobi", "--n", "3", "--alpha=1/2",
        "--beta=-1/3", "--format", "latex",
    )
    assert out == joined


def test_negative_phase_as_separate_argument(capsys):
    code, out, _ = run(
        capsys,
        "eval", "--family", "meixner_pollaczek", "--n", "2", "--lambda", "1/2",
        "--phase", "-3/5,4/5", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"var": "x", "coeffs": ["1/25", "-48/25", "32/25"]}


def test_negative_odd_alphas_as_separate_argument(capsys):
    code, out, _ = run(
        capsys,
        "gen-hermite", "check", "--max-n", "4", "--odd-alphas", "-1/2,0",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["status"] == "pass"


@pytest.mark.parametrize("command", ["verify", "suite"])
@pytest.mark.parametrize("flag", ["--samples", "--size"])
def test_nothing_to_check_is_usage_error(capsys, command, flag):
    identity = ("--identity", "jacobi_inv") if command == "verify" else ()
    with pytest.raises(SystemExit) as exc:
        run(capsys, command, *identity, flag, "0")
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_repeated_calls_give_identical_output(capsys):
    args = ("solve", "--family", "jacobi", "--alpha", "1/3", "--beta", "-1/4",
            "--rhs", '[{"var":"x","coeffs":["0","1"]},{"var":"x","coeffs":["2"]}]',
            "--format", "json")
    first = run(capsys, *args)
    run(capsys, "eval", "--family", "hermite", "--n", "3")
    assert run(capsys, *args) == first
    assert first[0] == 0


def test_usage_error_after_successful_call(capsys):
    assert run(capsys, "eval", "--family", "hermite", "--n", "2")[0] == 0
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "--identity", "nonsense")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'nonsense'" in captured.err


COMPLEX_HERMITE_SOLVE = (
    "solve", "--family", "hermite",
    "--rhs", '[{"var":"x","coeffs":["1/2+1*i"]}]', "--format", "json",
)


def test_hermite_solve_accepts_gaussian_rhs(capsys):
    code, out, _ = run(capsys, *COMPLEX_HERMITE_SOLVE)
    assert code == 0
    obj = json.loads(out)
    assert obj["equal"] is True
    assert obj["closed_form"]["coeffs"] == [{"var": "x", "coeffs": ["1/2+1*i"]}]


def test_hermite_solve_accepts_gaussian_rhs_under_optimize():
    # python -O strips asserts: the result must not depend on one
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "opinv.cli", *COMPLEX_HERMITE_SOLVE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["equal"] is True


@pytest.mark.parametrize("rhs", [
    "[{}]", '{"a":1}', '[{"coeffs":["1/0"]}]', "[{", "[5]",
    '[{"coeffs":"12"}]', '[{"coeffs":{"3":1}}]',
])
def test_malformed_rhs_is_usage_error(capsys, rhs):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "solve", "--family", "hermite", "--rhs", rhs)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --rhs: not a JSON list of polynomials" in err
    assert "Traceback" not in err


_CHARLIER = ("invert", "--identity", "charlier_inv", "--a", "1")


def test_failed_check_is_exit_1_with_one_line(capsys, monkeypatch):
    from opinv.inversion import LowerTriPolyMatrix

    monkeypatch.setattr(LowerTriPolyMatrix, "is_identity", lambda self: False)
    code, out, err = run(capsys, *_CHARLIER, "--size", "3")
    assert code == 1
    assert out == ""
    assert err == "error: inverse @ matrix is not the identity (size 3)\n"


@pytest.mark.parametrize("argv", [
    pytest.param((*_CHARLIER, "--size", "0"), id="invert-size-0"),
    pytest.param((*_CHARLIER, "--size", "-2"), id="invert-size-neg2"),
    pytest.param(("gen-hermite", "coeffs", "--max-n", "-3"), id="coeffs-max-n-neg3"),
    pytest.param(("gen-hermite", "check", "--max-n", "-1"), id="check-max-n-neg1"),
    pytest.param(("gen-hermite", "kernel", "--max-n", "-1"), id="kernel-max-n-neg1"),
])
def test_nothing_to_compute_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(capsys, *argv)
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_gen_hermite_check_at_zero_checks_n_zero(capsys):
    code, out, _ = run(capsys, "gen-hermite", "check", "--max-n", "0", "--format", "json")
    assert code == 0
    assert [r["n"] for r in json.loads(out)["reports"]] == [0]
