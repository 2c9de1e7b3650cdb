"""Hand values for the reference module the benchmark checks against.

    python3 -m pytest perfbench
"""

from fractions import Fraction as F

import pytest

import reference as ref
from reference import QI, RefPoly


def poly(*coeffs):
    return RefPoly(F(c) for c in coeffs)


@pytest.mark.parametrize(
    "family, params, n, expected",
    [
        ("hermite", {}, 2, poly("-1/4", 0, "1/2")),
        ("hermite", {}, 3, poly(0, "-1/4", 0, "1/6")),
        ("laguerre", {"alpha": F(1, 3)}, 1, poly("4/3", -1)),
        ("laguerre", {"alpha": F(0)}, 2, poly(1, -2, "1/2")),
        ("legendre", {}, 2, poly("-1/2", 0, "3/2")),
        ("chebyshev_t", {}, 3, poly(0, -3, 0, 4)),
        ("chebyshev_u", {}, 2, poly(-1, 0, 4)),
        ("gegenbauer", {"lam": F(3, 2)}, 2, poly("-3/2", 0, "15/2")),
        ("jacobi", {"alpha": F(1, 2), "beta": F(-1, 3)}, 1, poly("5/12", "13/12")),
        ("jacobi", {"alpha": F(0), "beta": F(1, 2)}, 0, poly(1)),
        ("charlier", {"a": F(2)}, 2, poly(2, "-5/2", "1/2")),
        ("meixner", {"beta_m": F(2), "c": F(1, 3)}, 1, poly(2, -2)),
        ("meixner_pollaczek", {"lam": F(1), "phase": (F(3, 5), F(4, 5))}, 1, poly("6/5", "8/5")),
    ],
)
def test_hand_values(family, params, n, expected):
    assert ref.member(family, params, n) == expected


def test_jacobi_matches_the_hypergeometric_sum():
    # P_2 = (a+1)_2/2 + (s+3)(a+2) h + (s+3)(s+4)/2 h^2,  h = (x-1)/2, s = a+b
    a, b = F(1, 2), F(-4, 3)
    s = a + b
    h = poly("-1/2", "1/2")
    explicit = poly((a + 1) * (a + 2) / 2) + (s + 3) * (a + 2) * h + (s + 3) * (s + 4) / 2 * h * h
    assert ref.member("jacobi", {"alpha": a, "beta": b}, 2) == explicit


def test_values_agree_with_coefficient_lists():
    params = {"lam": F(-2, 7), "phase": (F(5, 13), F(12, 13))}
    polys = ref.members("meixner_pollaczek", params, 6)
    for x0 in (F(3, 4), QI(F(1, 2), F(-2, 3))):
        values = ref.members("meixner_pollaczek", params, 6, x0)
        assert [p(x0) for p in polys] == values


def test_gaussian_points():
    assert ref.member("hermite", {}, 2, QI(0, 1)) == F(-3, 4)
    assert ref.member("hermite", {}, 1, QI(1, 1)) == QI(1, 1)


def test_perturbed_hermite_values():
    assert ref.kernel_at_zero(2) == F(3, 2)
    assert ref.kernel_at_zero(4) == ref.kernel_at_zero_closed(2) == F(15, 8)
    assert ref.alpha_even_closed(1) == 4 and ref.alpha_even_closed(2) == 10
    assert ref.perturbation_q(1) == poly(0, 1)
    # Q_2 = K_1(0,0) H_2 - H_2(0) (K-sum over k < 2) = H_2 + 1/4
    assert ref.perturbation_q(2) == poly(0, 0, "1/2")


@pytest.mark.parametrize(
    "text, value",
    [("3/4", F(3, 4)), ("-5", F(-5)), ("1/2+3/4*i", QI(F(1, 2), F(3, 4))),
     ("1/2-3/4*i", QI(F(1, 2), F(-3, 4))), ("3/4*i", QI(0, F(3, 4))), ("-1*i", QI(0, -1))],
)
def test_parse_scalar(text, value):
    assert ref.parse_scalar(text) == value
