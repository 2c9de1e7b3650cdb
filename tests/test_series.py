import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from opinv.exact import GaussianRational
from opinv.poly import Poly
from opinv.series import SeriesDomainError, TruncSeries

x = Poly.x()


def test_geometric_series():
    s = TruncSeries((1, -1), 3).invert()
    assert [s.coeff(n) for n in range(4)] == [Poly.one()] * 4


def test_chebyshev_u_expansion():
    s = TruncSeries((Poly.one(), -2 * x, Poly.one()), 2).pow(-1)
    assert s.coeff(0) == Poly.one()
    assert s.coeff(1) == Poly((0, 2))
    assert s.coeff(2) == Poly((-1, 0, 4))


def test_hermite_generating_function():
    s = TruncSeries((Poly.zero(), x, F(-1, 4)), 2).exp()
    assert s.coeff(0) == Poly.one()
    assert s.coeff(1) == x
    assert s.coeff(2) == Poly((F(-1, 4), 0, F(1, 2)))
    assert s.coeff(2)(0) == F(-1, 4)


small_polys = st.lists(
    st.fractions(min_value=-2, max_value=2, max_denominator=6), max_size=3
).map(Poly)


@settings(max_examples=25, deadline=None)
@given(st.lists(small_polys, min_size=1, max_size=5))
def test_exp_log_roundtrip(tail):
    order = 8
    s = TruncSeries([Poly.one()] + tail, order)
    assert s.log().exp() == s
    t = TruncSeries([Poly.zero()] + tail, order)
    assert t.exp().log() == t


@pytest.mark.parametrize(
    "gamma",
    [F(2, 3), F(-5), GaussianRational(F(1, 2), F(1, 3))],
)
def test_pow_scalar_inverse_pairs(gamma):
    s = TruncSeries((Poly.one(), x, Poly((1, -2))), 8)
    assert s.pow(gamma) * s.pow(-gamma) == TruncSeries.one(8)


def test_pow_scalar_integer_agrees_with_repeated_product():
    s = TruncSeries((Poly.one(), -x, Poly.one()), 6)
    assert s.pow(3) == s * s * s


def test_preconditions_rejected_with_diagnostic():
    s = TruncSeries((Poly((2,)), x), 4)
    with pytest.raises(SeriesDomainError, match="constant term 1"):
        s.invert()
    with pytest.raises(SeriesDomainError, match="constant term 1"):
        s.log()
    with pytest.raises(SeriesDomainError, match="constant term 1"):
        s.pow(F(1, 2))
    with pytest.raises(SeriesDomainError, match="constant term 0"):
        TruncSeries((Poly.one(),), 4).exp()


def test_coefficients_beyond_order_rejected():
    s = TruncSeries.one(3)
    with pytest.raises(IndexError):
        s.coeff(4)


def test_hermite_reciprocal_product_is_one():
    # exp(xt - t^2/4) * exp(-xt + t^2/4) = 1 at any truncation
    order = 10
    a = TruncSeries((Poly.zero(), x, F(-1, 4)), order).exp()
    b = TruncSeries((Poly.zero(), -x, F(1, 4)), order).exp()
    assert a * b == TruncSeries.one(order)


# The truncated Taylor sums the recurrences replaced, kept as references:
# exp g = sum g^k/k!, log(1+u) = sum (-1)^(k+1) u^k/k, S^gamma = exp(gamma log S).

def taylor_exp(g):
    result = power = TruncSeries.one(g.order)
    for k in range(1, g.order + 1):
        power = power * g
        result = result + power.scale(F(1, math.factorial(k)))
    return result


def taylor_log(s):
    u = s - TruncSeries.one(s.order)
    result = TruncSeries((), s.order)
    power = TruncSeries.one(s.order)
    for k in range(1, s.order + 1):
        power = power * u
        result = result + power.scale(F((-1) ** (k + 1), k))
    return result


def taylor_pow(s, gamma):
    return taylor_exp(taylor_log(s).scale(gamma))


small_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=6)
small_gaussians = st.builds(GaussianRational, small_fractions, small_fractions)
small_gaussian_polys = st.lists(small_gaussians, max_size=3).map(Poly)
exponents = st.one_of(
    small_fractions,
    small_gaussians,
    st.lists(small_fractions, max_size=3).map(Poly),
    small_gaussian_polys,
)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10),
    st.lists(st.one_of(small_polys, small_gaussian_polys), max_size=4),
    exponents,
)
def test_recurrences_match_taylor_sums(order, tail, gamma):
    s = TruncSeries([Poly.one()] + tail, order)
    g = TruncSeries([Poly.zero()] + tail, order)
    assert g.exp() == taylor_exp(g)
    assert s.log() == taylor_log(s)
    assert s.pow(gamma) == taylor_pow(s, gamma)


def test_exp_log_pow_make_no_series_products(monkeypatch):
    calls = []
    original = TruncSeries.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(TruncSeries, "__mul__", counting)
    monkeypatch.setattr(TruncSeries, "__rmul__", counting)
    s = TruncSeries((Poly.one(), x, Poly((1, -2))), 8)
    s.log()
    TruncSeries((Poly.zero(), x, F(-1, 4)), 8).exp()
    s.pow(F(-1, 2))
    s.pow(GaussianRational(F(1, 2), F(1, 3)))
    s.pow(Poly((F(-1, 3), GaussianRational(0, 1))))
    assert calls == []
