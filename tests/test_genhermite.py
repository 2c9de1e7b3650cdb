import dataclasses
import math
import random
from fractions import Fraction as F

import pytest

from opinv.exact import pochhammer
from opinv.genhermite import (
    GenHermiteConfig,
    Q_det_form,
    Q_poly,
    alpha,
    alpha_even,
    build_model,
    de_coefficients,
    degree_bound_report,
    hermite,
    kernel,
    kernel_at_zero,
    q_coefficient,
    rhs_F,
    verify_de,
)
from opinv.poly import Poly


def test_kernel_hand_values():
    assert kernel(0) == Poly.one()
    assert kernel_at_zero(0) == 1
    assert kernel_at_zero(2) == F(3, 2)
    # K_2(x, 0) = 1 + 4*2!*H_2(0)*H_2(x) = 3/2 - x^2
    assert kernel(2) == Poly((F(3, 2), 0, -1))


def test_kernel_at_zero_closed_form():
    for m in range(11):
        expected = pochhammer(F(3, 2), m) / math.factorial(m)
        assert kernel_at_zero(2 * m) == expected
        assert kernel_at_zero(2 * m + 1) == expected


def test_kernel_at_zero_is_the_kernel_evaluated_at_zero():
    for n in range(21):
        assert kernel_at_zero(n) == kernel(n)(F(0))


def test_q_coefficient_hand_values():
    assert q_coefficient(2, 2) == 1  # K_1(0,0)
    assert q_coefficient(2, 0) == F(1, 4)  # -H_0(0) H_2(0)
    assert q_coefficient(3, 1) == 0  # H_1(0) = 0
    assert q_coefficient(3, 3) == F(3, 2)  # K_2(0,0)


def test_q_odd_is_proportional_to_hermite():
    # odd n: only the diagonal term survives, so Q_n = K_{n-1}(0,0) H_n
    for n in range(1, 16, 2):
        assert Q_poly(n) == kernel_at_zero(n - 1) * hermite(n)


def test_q_determinant_form_agrees():
    for n in range(11):
        assert Q_poly(n) == Q_det_form(n)


def test_kernel_reproducing_invariants():
    # K_n(x,0) - K_{n-1}(x,0) = 2^n n! H_n(0) H_n(x)
    for n in range(1, 21):
        diff = kernel(n) - kernel(n - 1)
        w = F(2 ** n * math.factorial(n)) * hermite(n)(F(0))
        assert diff == w * hermite(n)


def test_alpha_values():
    assert alpha_even(0) == 0
    assert alpha_even(1) == 4
    assert alpha_even(2) == 10
    cfg = GenHermiteConfig(4)
    assert alpha(2, cfg) == 4
    assert alpha(4, cfg) == 10
    assert alpha(1, cfg) == 0 and alpha(3, cfg) == 0


def test_alpha_sum_equals_closed_form_high_orders():
    # alpha_even returns the sum form; compare it with the closed form far out
    assert alpha_even(0) == 0
    for n in range(1, 21):
        assert alpha_even(n) == 4 * pochhammer(F(5, 2), n - 1) / math.factorial(n - 1)


def test_rhs_hand_values():
    cfg = GenHermiteConfig(4)
    assert rhs_F(1, cfg).is_zero()
    # F_2 = -4 H_2 - 4*1*q_{2,0} H_0 = -2x^2 + 1 - 1 = -2x^2
    assert rhs_F(2, cfg) == Poly((0, 0, -2))


def test_first_coefficients():
    cfg = GenHermiteConfig(4)
    a = de_coefficients(cfg)
    assert a[0].is_zero()  # a_1 = 0 under default config
    assert a[1] == Poly((0, 0, -2))  # a_2 = -2x^2


def test_degree_bound_default_config():
    assert degree_bound_report(GenHermiteConfig(12)) == {}


def test_verify_de_default_config():
    cfg = GenHermiteConfig(8)
    model = build_model(cfg)
    for n in range(1, 9):
        result = verify_de(n, cfg, model)
        assert result["status"] == "pass", result


def test_verify_de_random_odd_alphas():
    rng = random.Random(17)
    for _ in range(3):
        odd = tuple(F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(3))
        cfg = GenHermiteConfig(6, odd)
        model = build_model(cfg)
        for n in range(1, 7):
            assert verify_de(n, cfg, model)["status"] == "pass", (odd, n)


def _json_poly(*coeffs):
    return {"var": "x", "coeffs": list(coeffs)}


def test_verify_de_reports_residuals_of_a_perturbed_model():
    # a_1 + (1/3 + x) and alpha_3 + 1/2: every M-coefficient is pinned
    cfg = GenHermiteConfig(4, (F(1, 2), F(-1, 3)))
    model = build_model(cfg)
    a = (model.a_coeffs[0] + Poly((F(1, 3), 1)),) + model.a_coeffs[1:]
    alphas = model.alphas[:3] + (model.alphas[3] + F(1, 2),) + model.alphas[4:]
    bad = dataclasses.replace(model, a_coeffs=a, alphas=alphas)
    zero = _json_poly()
    expected = {
        0: {"M^0": zero, "M^1": zero, "M^2": zero},
        1: {"M^0": zero, "M^1": _json_poly("1/3", "1"), "M^2": _json_poly("1/3", "1")},
        2: {"M^0": zero, "M^1": _json_poly("0", "1/3", "1"),
            "M^2": _json_poly("0", "1/3", "1")},
        3: {"M^0": zero, "M^1": _json_poly("-1/12", "-3/8", "1/6", "7/12"),
            "M^2": _json_poly("-1/8", "-9/16", "1/4", "7/8")},
        4: {"M^0": zero, "M^1": _json_poly("0", "-1/12", "-1/4", "1/18", "1/6"),
            "M^2": _json_poly("0", "-5/48", "-5/16", "1/12", "1/4")},
    }
    for n, residuals in expected.items():
        status = "pass" if n == 0 else "fail"
        assert verify_de(n, cfg, bad) == {"n": n, "status": status, "residuals": residuals}


def test_config_validation():
    with pytest.raises(ValueError, match="need at least"):
        GenHermiteConfig(8, (F(1),))
    with pytest.raises(ValueError, match="max_n must be at least 0, got -3"):
        GenHermiteConfig(max_n=-3)
    with pytest.raises(ValueError, match="exceeds"):
        verify_de(5, GenHermiteConfig(4))


@pytest.mark.parametrize("value", [0.1, "1/3", 1.0])
def test_config_takes_only_exact_odd_alphas(value):
    # a float would be stored as its binary expansion, a str parsed silently
    with pytest.raises(ValueError, match=f"got {value!r}"):
        GenHermiteConfig(3, (value, 0))
    assert GenHermiteConfig(3, (1, F(1, 3))).odd_alphas == (F(1), F(1, 3))


def test_cross_check_with_generic_solver():
    from opinv.families import HERMITE
    from opinv.families import ParamSet
    from opinv.trisolve import DiffSystem, solve_generic

    cfg = GenHermiteConfig(8)
    rhs = tuple(rhs_F(n, cfg) for n in range(1, 9))
    generic = solve_generic(DiffSystem(HERMITE, ParamSet(), rhs))
    assert generic.coeffs == de_coefficients(cfg)
