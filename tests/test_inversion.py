import os
import pathlib
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F

import pytest

from opinv.exact import format_scalar
from opinv.families import ParamError, ParamSet, PoleError
from opinv.inversion import (
    ALL_IDENTITIES,
    CONVOLUTION_IDENTITIES,
    MATRIX_IDENTITIES,
    LowerTriPolyMatrix,
    bavinck_series_replay,
    build_matrix,
    closed_form_inverse,
    closed_form_inverse_entry,
    jacobi_two_var_sides,
    sample_params,
    verify_identity,
)
from opinv.poly import Poly


def test_identity_matrix_inverts_to_itself():
    eye = LowerTriPolyMatrix.identity(5)
    assert eye.invert() == eye


_COUNT_INVERT_PRODUCTS = """
import contextlib, io
from opinv.cli import main
from opinv.inversion import LowerTriPolyMatrix, verify_identity

calls = []
matmul = LowerTriPolyMatrix.__matmul__
LowerTriPolyMatrix.__matmul__ = lambda a, b: calls.append(1) or matmul(a, b)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["invert", "--identity", "laguerre_inv", "--alpha", "1/3", "--size", "5"])
print(code, len(calls))
calls.clear()
print(verify_identity("laguerre_inv", size=5, samples=2).status, len(calls))
"""


def test_invert_checks_its_product_under_optimize():
    # python -O strips assert statements; the CLI's inverse @ matrix check is
    # not one, and verify_identity compares every entry with the closed form
    # instead of multiplying
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _COUNT_INVERT_PRODUCTS],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["0 1", "pass 0"]


def test_invert_rejects_polynomial_diagonal():
    bad = LowerTriPolyMatrix([[Poly.x()]])
    with pytest.raises(ValueError, match=r"diagonal entry \(0,0\)"):
        bad.invert()


def test_build_matrix_entries():
    charlier = build_matrix("charlier_inv", 3, ParamSet(a=F(3, 2)))
    assert charlier.entry(2, 1) == Poly((F(-3, 2), 1))  # C_1 = x - a
    assert charlier.entry(2, 2) == Poly.one()
    legendre = build_matrix("legendre_limit_inverse", 4)
    assert legendre.entry(2, 0) == Poly((F(-1, 2), 0, F(3, 2)))  # P_2


def test_charlier_inverse_closed_form_entry():
    # inverse entry is C_{i-j}^(-a)(-x); at i-j=1 that is -x+a
    a = F(3, 2)
    inv = build_matrix("charlier_inv", 3, ParamSet(a=a)).invert()
    assert inv.entry(2, 1) == Poly((a, -1))
    assert inv.entry(2, 1) == closed_form_inverse_entry("charlier_inv", 2, 1, ParamSet(a=a))


def test_chebU_inverse_is_banded():
    inv = build_matrix("chebU_banded_inverse", 5).invert()
    for i in range(5):
        for j in range(i + 1):
            m = i - j
            if m in (0, 2):
                assert inv.entry(i, j) == Poly.one()
            elif m == 1:
                assert inv.entry(i, j) == Poly((0, -2))
            else:
                assert inv.entry(i, j).is_zero()


def test_legendre_limit_b2():
    # B_2 = (1/2)(1-x)P_1^(1,-1) = (1-x^2)/2
    assert closed_form_inverse_entry("legendre_limit_inverse", 2, 0) == Poly(
        (F(1, 2), 0, F(-1, 2))
    )


def test_chebT_inverse_band():
    assert closed_form_inverse_entry("chebT_inverse", 2, 0) == Poly((1, 0, -1))
    assert closed_form_inverse_entry("chebT_inverse", 4, 1) == Poly((0, 1, 0, -1))


def test_closed_form_zero_above_diagonal():
    assert closed_form_inverse_entry("charlier_inv", 1, 2, ParamSet(a=F(1))).is_zero()


@pytest.mark.parametrize("identity", MATRIX_IDENTITIES)
def test_matrix_identities_entrywise(identity):
    report = verify_identity(identity, size=6, samples=4, seed=13)
    assert report.passed, report.counterexample


@pytest.mark.parametrize("identity", CONVOLUTION_IDENTITIES)
def test_convolution_identities(identity):
    report = verify_identity(identity, size=10, samples=4, seed=13)
    assert report.passed, report.counterexample


def test_hand_checked_sums():
    # C_1^(-a)(-x) + C_1^(a)(x) = 0
    a = F(2, 7)
    t = closed_form_inverse_entry("charlier_inv", 1, 0, ParamSet(a=a))
    u = build_matrix("charlier_inv", 2, ParamSet(a=a)).entry(1, 0)
    assert t + u == Poly.zero()
    # P_0 P_2 + P_1^2 + P_2 P_0 = U_2 = 4x^2 - 1
    from opinv.families import LEGENDRE, polynomial

    total = sum(
        (polynomial(LEGENDRE, k) * polynomial(LEGENDRE, 2 - k) for k in range(3)),
        Poly.zero(),
    )
    assert total == Poly((-1, 0, 4))


def test_mp_reflect_and_phase_left_factors_coincide():
    params = sample_params("mp_inv_reflect", 6, 3, seed=21)
    for ps in params:
        for i in range(7):
            assert closed_form_inverse_entry(
                "mp_inv_reflect", i, 0, ps
            ) == closed_form_inverse_entry("mp_inv_phase", i, 0, ps)


def test_two_var_jacobi_spec_example():
    lhs, rhs = jacobi_two_var_sides(1, F(1, 3), F(-1, 4))
    assert lhs == rhs
    # (x - y)/2
    assert rhs == (Poly((0, F(1, 2))), Poly.const(F(-1, 2)))
    # (1/2) ((x - y)/2)^2 = x^2/8 - (x/4) y + (1/8) y^2
    lhs, rhs = jacobi_two_var_sides(2, F(1, 3), F(-1, 4))
    assert lhs == rhs
    assert rhs == (Poly((0, 0, F(1, 8))), Poly((0, F(-1, 4))), Poly.const(F(1, 8)))


def test_two_var_y_equals_minus_x_with_symmetric_params():
    # beta = alpha, y = -x collapses the right side to x^n/n!
    import math

    for n in range(5):
        lhs, _ = jacobi_two_var_sides(n, F(1, 3), F(1, 3))
        assert len(lhs) == n + 1
        collapsed = Poly.zero()
        for coeff in reversed(lhs):  # Horner in y at y = -x
            collapsed = collapsed * Poly((0, -1)) + coeff
        assert collapsed == F(1, math.factorial(n)) * Poly.x() ** n


def test_two_var_y_equals_x_reproduces_jacobi_inv_left_factors():
    # instantiating (alpha+j, beta+j) and n = i-j, the k-th two-variable
    # summand at y = x equals the (i, k+j) closed-form inverse entry times
    # the (k+j, j) base entry, up to the fixed diagonal normalizer
    # (s+i+1)_i / (s+j+1)_j that keeps both factor matrices unit-diagonal
    from opinv.exact import pochhammer
    from opinv.families import JACOBI, polynomial

    alpha, beta = F(1, 5), F(2, 7)
    size = 6
    s0 = alpha + beta
    base = build_matrix("jacobi_inv", size, ParamSet(alpha=alpha, beta=beta))
    closed = closed_form_inverse("jacobi_inv", size, ParamSet(alpha=alpha, beta=beta))
    for i in range(size):
        for j in range(i + 1):
            n = i - j
            a, b = alpha + j, beta + j
            s = a + b
            scale = pochhammer(s0 + i + 1, i) / pochhammer(s0 + j + 1, j)
            for k in range(n + 1):
                term_two_var = ((s + 2 * k + 1) / pochhammer(s + k + 1, n + 1)) * (
                    polynomial(JACOBI, k, ParamSet(alpha=a, beta=b))
                    * polynomial(
                        JACOBI, n - k, ParamSet(alpha=-a - n - 1, beta=-b - n - 1)
                    )
                )
                term_matrix = closed.entry(i, k + j) * base.entry(k + j, j)
                assert scale * term_two_var == term_matrix, (i, j, k)


_TWO_VAR_PARAMS = ParamSet(alpha=F(1, 3), beta=F(-1, 4))


@pytest.mark.parametrize("shifts, n, residual", [
    # (degree, alpha) of a perturbed Jacobi member -> the polynomial added
    # to it; alpha 1/3 is an x-side member P_k^(a,b), alpha -a-n-1 a y-side
    # member P_{n-k}^(-n-a-1,-n-b-1).  Ties between y^m coefficients go to
    # the lowest m.
    pytest.param({(1, F(1, 3)): Poly((0, 0, 1))}, 1, ["0", "0", "12/25"], id="x-side-P1"),
    pytest.param({(2, F(1, 3)): Poly.one()}, 2, ["144/1813"], id="x-side-P2"),
    pytest.param({(1, F(-7, 3)): Poly((1, 3))}, 1, ["12/25"], id="y-side-P1-tie"),
    pytest.param({(2, F(-10, 3)): Poly((F(-1, 2), 1))}, 2, ["-72/925"], id="y-side-P2"),
    pytest.param({(2, F(-10, 3)): Poly.one(), (1, F(-10, 3)): Poly.x()}, 2,
                 ["6/175", "6/49"], id="y-side-higher-degree-wins"),
])
def test_two_var_counterexample_is_first_highest_degree_residual(
    monkeypatch, shifts, n, residual
):
    from opinv import inversion

    real = inversion.polynomial

    def perturbed(family, m, params):
        return real(family, m, params) + shifts.get((m, params.alpha), Poly.zero())

    monkeypatch.setattr(inversion, "polynomial", perturbed)
    report = verify_identity("jacobi_two_var", 6, param_samples=[_TWO_VAR_PARAMS])
    assert report.status == "fail"
    assert report.counterexample == {
        "n": n,
        "params": {"alpha": "1/3", "beta": "-1/4"},
        "residual": {"var": "x", "coeffs": residual},
    }


def test_bavinck_derivation_replay():
    for alpha in (F(1, 3), F(-2, 5)):
        for i, j in ((3, 1), (5, 2), (2, 2)):
            assert bavinck_series_replay(alpha, i, j, order=12)


def test_unit_diagonals_across_catalog():
    for identity in MATRIX_IDENTITIES:
        params = sample_params(identity, 5, 2, seed=3)
        for ps in params:
            matrix = build_matrix(identity, 5, ps)
            for i in range(5):
                assert matrix.entry(i, i) == Poly.one(), identity


def test_failure_reported_not_raised():
    # perturb one base entry and check the report carries the location
    good = build_matrix("chebU_banded_inverse", 4)
    rows = [list(row) for row in good.rows]
    rows[2][0] = rows[2][0] + 1
    bad = LowerTriPolyMatrix(rows)
    inv = bad.invert()
    closed = closed_form_inverse("chebU_banded_inverse", 4)
    assert closed.entry(2, 0) != inv.entry(2, 0)


def test_verify_identity_reports_counterexample_location():
    report = verify_identity("charlier_inv", size=3, samples=1, seed=1)
    assert report.passed
    assert report.counterexample is None
    assert report.to_json()["status"] == "pass"


def _perturbed_report(monkeypatch, identity, cell):
    """verify_identity's report with 1 added to the closed-form inverse at
    cell: (m,) for a Toeplitz identity, (i, j) for any other."""
    from opinv import inversion

    spec = inversion._CATALOG[identity]

    def perturbed(*args):  # (m, params) or (i, j, params)
        value = spec.inverse(*args)
        return value + 1 if args[:-1] == cell else value

    monkeypatch.setitem(inversion._CATALOG, identity, replace(spec, inverse=perturbed))
    report = verify_identity(identity, size=4, samples=3, seed=5)
    expected_samples = sample_params(identity, 4, 3, seed=5)
    assert report.status == "fail"
    (name,) = inversion.IDENTITY_PARAMS[identity]
    assert report.counterexample["params"] == {
        name: format_scalar(getattr(expected_samples[0], name))}
    assert report.counterexample["residual"] == {"var": "x", "coeffs": ["1"]}
    # the check stops at the first sample, the report lists all of them
    assert report.param_samples == expected_samples
    assert len(expected_samples) == 3
    return report.counterexample


def test_verify_identity_reports_perturbed_entry(monkeypatch):
    # u_1 of a Toeplitz identity fills the whole first subdiagonal, which
    # row-major order meets first at (1, 0)
    cx = _perturbed_report(monkeypatch, "charlier_inv", (1,))
    assert (cx["i"], cx["j"]) == (1, 0)


def test_verify_identity_reports_perturbed_entry_off_column_0(monkeypatch):
    cx = _perturbed_report(monkeypatch, "laguerre_inv", (2, 1))
    assert (cx["i"], cx["j"]) == (2, 1)


def test_verify_identity_builds_each_sample_once(monkeypatch):
    from opinv import inversion

    calls = []
    spec = inversion._CATALOG["jacobi_inv"]

    def counted(side, entry):
        return lambda *args: calls.append(side) or entry(*args)

    monkeypatch.setitem(inversion._CATALOG, "jacobi_inv", replace(
        spec, base=counted("base", spec.base), inverse=counted("inverse", spec.inverse)))
    report = verify_identity("jacobi_inv", size=4, samples=3, seed=2)
    assert report.passed and len(report.param_samples) == 3
    # 10 entries per matrix, no candidate rejected at this seed
    assert calls.count("base") == calls.count("inverse") == 30


def test_toeplitz_matrix_is_built_from_one_column(monkeypatch):
    # charlier_inv's inverse entries C_m^(-a)(-x) depend on m = i - j alone:
    # at size 10 its 10 distinct entries are composed in -x once each, not
    # once for each of the 55 entries of the matrix
    neg_x = Poly((0, -1))
    compose = Poly.__call__
    calls = []
    monkeypatch.setattr(Poly, "__call__", lambda p, q: calls.append(q == neg_x) or compose(p, q))
    inverse = closed_form_inverse("charlier_inv", 10, ParamSet(a=F(2, 3)))
    assert calls.count(True) == 10
    assert all(inverse.entry(i, j) == inverse.entry(i - j, 0) for i in range(10) for j in range(i))


def test_given_samples_with_pole_raise():
    with pytest.raises(PoleError):
        verify_identity(
            "jacobi_inv", size=4, param_samples=[ParamSet(alpha=F(-1), beta=F(-1))]
        )


def test_given_samples_must_set_exactly_the_identity_parameters():
    for identity, params in (
        ("laguerre_inv", ParamSet(beta=F(1, 2))),
        ("chebT_inverse", ParamSet(alpha=F(1))),
        ("jacobi_two_var", ParamSet(alpha=F(1, 2))),
        ("hermite_conv", ParamSet(alpha=F(1, 2))),
    ):
        with pytest.raises(ParamError, match=f"{identity} takes parameters"):
            verify_identity(identity, 3, param_samples=[params])


@pytest.mark.parametrize("identity, kwargs, message", [
    pytest.param("jacobi_inv", {"size": 0, "samples": 1}, "size must be at least 1, got 0",
                 id="jacobi_inv-size-0"),
    pytest.param("jacobi_inv", {"size": -2}, "size must be at least 1, got -2",
                 id="jacobi_inv-size-negative"),
    pytest.param("hermite_conv", {"size": -1}, "size must be at least 1, got -1",
                 id="hermite_conv-size-negative"),
    pytest.param("laguerre_inv", {"size": 3, "samples": 0}, "samples must be at least 1, got 0",
                 id="samples-0"),
    pytest.param("hermite_conv", {"size": 3, "samples": -1}, "samples must be at least 1",
                 id="parameter-free-samples-negative"),
    pytest.param("chebT_inverse", {"size": 3, "param_samples": []}, "param_samples is empty",
                 id="no-given-samples"),
])
def test_verify_identity_refuses_an_empty_check(identity, kwargs, message):
    # a check that compares nothing must not report a pass
    with pytest.raises(ValueError, match=message):
        verify_identity(identity, **kwargs)


@pytest.mark.parametrize("size", [0, -1])
def test_build_matrix_refuses_an_empty_matrix(size):
    with pytest.raises(ValueError, match=f"size must be at least 1, got {size}"):
        build_matrix("charlier_inv", size, ParamSet(a=F(1)))


@pytest.mark.parametrize("size", [0, -1])
def test_closed_form_inverse_refuses_an_empty_matrix(size):
    # a 0x0 matrix would pass is_identity() having compared nothing
    with pytest.raises(ValueError, match=f"size must be at least 1, got {size}"):
        closed_form_inverse("charlier_inv", size, ParamSet(a=F(1)))


@pytest.mark.parametrize("count", [0, -2])
def test_sample_params_refuses_an_empty_draw(count):
    with pytest.raises(ValueError, match=f"count must be at least 1, got {count}"):
        sample_params("charlier_inv", 3, count, 1)


def test_sampling_is_deterministic():
    a = sample_params("jacobi_inv", 5, 4, seed=42)
    b = sample_params("jacobi_inv", 5, 4, seed=42)
    assert a == b


def test_pit_grid_exceeds_degree_bound():
    params = sample_params("ultra_inv", 3, 0, seed=0, pit=True)
    assert len(params) >= 2 * 3 + 3 - 2  # grid minus pole rejections


def test_unknown_identity_rejected():
    with pytest.raises(ValueError, match="unknown identity"):
        verify_identity("nonsense", size=2)
    assert "nonsense" not in ALL_IDENTITIES


def test_hermite_inverse_factors_are_the_papers_form():
    # the rational closed form must stay i^d H_d(ix), the inverse the paper states
    from opinv.exact import I
    from opinv.families import HERMITE, polynomial
    from opinv.inversion import _hermite_inverse_factors

    factors = _hermite_inverse_factors(17)
    assert len(factors) == 17
    for d, factor in enumerate(factors):
        assert factor == I ** d * polynomial(HERMITE, d)(Poly((0, I)))
