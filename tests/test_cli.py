import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from opinv.cli import main
from opinv.families import FAMILIES, REQUIRED_PARAMS
from opinv.inversion import ALL_IDENTITIES, IDENTITY_PARAMS, MATRIX_IDENTITIES
from opinv.trisolve import SOLVABLE_FAMILIES


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
    assert err == "error: laguerre takes parameters (--alpha), got ()\n"


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
    # the API refuses the empty check; the CLI prints its message on one line
    identity = ("--identity", "jacobi_inv") if command == "verify" else ()
    code, out, err = run(capsys, command, *identity, flag, "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be at least 1" in err


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
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be at least" in err


def test_gen_hermite_check_at_zero_checks_n_zero(capsys):
    code, out, _ = run(capsys, "gen-hermite", "check", "--max-n", "0", "--format", "json")
    assert code == 0
    assert [r["n"] for r in json.loads(out)["reports"]] == [0]


@pytest.mark.parametrize("argv, message", [
    pytest.param(("invert", "--identity", "laguerre_inv", "--size", "3"),
                 "laguerre_inv takes parameters (--alpha), got ()", id="laguerre_inv-no-alpha"),
    pytest.param(("invert", "--identity", "jacobi_inv", "--alpha", "1/2"),
                 "jacobi_inv takes parameters (--alpha, --beta), got (--alpha)",
                 id="jacobi_inv-no-beta"),
    pytest.param(("invert", "--identity", "jacobi_from_meixner", "--beta", "1/2"),
                 "jacobi_from_meixner takes parameters (--alpha, --beta), got (--beta)",
                 id="jacobi_from_meixner-no-alpha"),
    pytest.param(("invert", "--identity", "jacobi_from_ultra"),
                 "jacobi_from_ultra takes parameters (--alpha), got ()",
                 id="jacobi_from_ultra-no-alpha"),
    pytest.param(("invert", "--identity", "chebT_inverse", "--alpha", "1"),
                 "chebT_inverse takes parameters (), got (--alpha)", id="chebT_inverse-extra-alpha"),
    # parameters are named by the flag a user types, not by the ParamSet field
    pytest.param(("eval", "--family", "gegenbauer", "--n", "2"),
                 "gegenbauer takes parameters (--lambda), got ()", id="gegenbauer-no-lambda"),
    pytest.param(("eval", "--family", "hermite", "--n", "2", "--beta-m", "1"),
                 "hermite takes parameters (), got (--beta-m)", id="hermite-extra-beta-m"),
    pytest.param(("invert", "--identity", "ultra_inv"),
                 "ultra_inv takes parameters (--lambda), got ()", id="ultra_inv-no-lambda"),
    pytest.param(("invert", "--identity", "meixner_inv", "--c", "1/2"),
                 "meixner_inv takes parameters (--beta-m, --c), got (--c)",
                 id="meixner_inv-no-beta-m"),
    pytest.param(("solve", "--family", "laguerre", "--lambda", "1", "--rhs", '[{"coeffs":["1"]}]'),
                 "laguerre takes parameters (--alpha), got (--lambda)", id="solve-lambda-for-alpha"),
    pytest.param(("eval", "--family", "gegenbauer", "--n", "2", "--lambda", "0"),
                 "gegenbauer rejects --lambda 0;", id="gegenbauer-lambda-0"),
    pytest.param(("eval", "--family", "gegenbauer", "--n", "4", "--lambda", "-3/2"),
                 "gegenbauer pole at --lambda -3/2:", id="gegenbauer-pole"),
    pytest.param(("invert", "--identity", "ultra_inv", "--lambda", "0"),
                 "gegenbauer rejects --lambda 0;", id="ultra_inv-lambda-0"),
    pytest.param(("eval", "--family", "meixner_pollaczek", "--n", "2", "--lambda", "1",
                  "--phase", "1,1"),
                 "phase must be unimodular, got --phase 1,1", id="mp-phase-not-unimodular"),
    pytest.param(("eval", "--family", "meixner", "--n", "2", "--beta-m", "1", "--c", "0"),
                 "meixner rejects --c 0:", id="meixner-c-0"),
    pytest.param(("gen-hermite", "coeffs", "--max-n", "0"),
                 "--max-n must be at least 1", id="coeffs-max-n-0"),
])
def test_input_outside_the_contract_is_one_line_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


# -- every generated argv ends in exit 0, 1 or 2 without a traceback ----------

_FLAGS = {"alpha": "--alpha", "beta": "--beta", "lam": "--lambda", "a": "--a",
          "c": "--c", "beta_m": "--beta-m", "phase": "--phase"}
_GOOD_VALUES = {name: st.sampled_from(["1/2", "-1/3", "5/2", "2/7"]) for name in _FLAGS}
_GOOD_VALUES["phase"] = st.sampled_from(["3/5,4/5", "-3/5,4/5", "5/13,-12/13"])
_ANY_VALUES = {name: st.sampled_from(["0", "-1", "-2", "1/0", "x", "1,1", "0,1"]) | good
               for name, good in _GOOD_VALUES.items()}
_SMALL = st.integers(-1, 5).map(str)
_FORMAT = st.sampled_from([[], ["--format", "json"], ["--format", "latex"]])
_RHS = st.sampled_from([
    '[{"var":"x","coeffs":["0","1"]}]',
    '[{"var":"x","coeffs":["1/2+1*i"]},{"var":"x","coeffs":["0","-2/3*i","1"]}]',
    '[{"coeffs":["1"]},{"coeffs":[]},{"coeffs":["2","0","-1/3"]},{"coeffs":["1/5"]},'
    '{"coeffs":["0","1"]}]',
]) | st.sampled_from(["[]", "[{}]", '[{"coeffs":"12"}]', "[5]", "{"])


def _param_flags(names):
    """The parameters names calls for with valid values, or any parameters
    with any values."""
    exact = st.tuples(*[_GOOD_VALUES[name] for name in names]).map(
        lambda values: [arg for name, value in zip(names, values)
                        for arg in (_FLAGS[name], value)])
    chosen = st.lists(st.sampled_from(sorted(_FLAGS)), unique=True).flatmap(
        lambda picked: st.tuples(*[_ANY_VALUES[name] for name in picked]).map(
            lambda values: [arg for name, value in zip(picked, values)
                            for arg in (_FLAGS[name], value)]))
    return exact | chosen


_EVAL = st.sampled_from(FAMILIES).flatmap(lambda family: st.tuples(
    st.just(["eval", "--family", family, "--n"]), st.tuples(_SMALL),
    _param_flags(REQUIRED_PARAMS[family]), _FORMAT))
_VERIFY = st.tuples(
    st.sampled_from(ALL_IDENTITIES).map(lambda identity: ["verify", "--identity", identity]),
    st.tuples(st.just("--size"), _SMALL, st.just("--samples"), st.integers(0, 2).map(str)),
    st.sampled_from([[], ["--pit"], ["--seed", "3"]]), _FORMAT)
_INVERT = st.sampled_from(MATRIX_IDENTITIES).flatmap(lambda identity: st.tuples(
    st.just(["invert", "--identity", identity, "--size"]), st.tuples(_SMALL),
    _param_flags(IDENTITY_PARAMS[identity]), _FORMAT))
_SOLVE = st.sampled_from(SOLVABLE_FAMILIES).flatmap(lambda family: st.tuples(
    st.just(["solve", "--family", family, "--rhs"]), st.tuples(_RHS),
    _param_flags(REQUIRED_PARAMS[family]), _FORMAT))
_GEN_HERMITE = st.tuples(
    st.sampled_from(["coeffs", "check", "kernel"]).map(lambda action: ["gen-hermite", action]),
    st.tuples(st.just("--max-n"), _SMALL),
    st.sampled_from([[], ["--odd-alphas", "1/2,-1/3,2"], ["--odd-alphas", "0"],
                     ["--odd-alphas", "1,x"]]),
    _FORMAT)
_SUITE = st.tuples(
    st.just(["suite", "--samples", "1", "--size"]), st.tuples(st.integers(1, 3).map(str)),
    st.sampled_from([[], ["--seed", "3"]]), _FORMAT)
_ARGVS = st.one_of(_EVAL, _VERIFY, _INVERT, _SOLVE, _GEN_HERMITE, _SUITE).map(
    lambda parts: [arg for part in parts for arg in part])


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_ARGVS)
def test_every_argv_exits_0_1_or_2_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code == 0:
        assert out.getvalue().strip(), argv
