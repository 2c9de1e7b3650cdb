import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from opinv.exact import (
    GaussianRational,
    I,
    format_scalar,
    parse_scalar,
    pochhammer,
    pochhammer_poly,
    rising_factorials,
)
from opinv.poly import Poly

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=30)


def test_pochhammer_empty_product():
    assert pochhammer(F(7, 3), 0) == 1
    assert pochhammer(GaussianRational(1, 1), 0) == 1


def test_pochhammer_result_type_follows_argument_type():
    # a real GaussianRational equals and hashes like the equal Fraction, but
    # the result type follows the argument type
    assert isinstance(pochhammer(GaussianRational(F(5, 2)), 2), GaussianRational)
    assert type(pochhammer(F(5, 2), 2)) is F
    from opinv.genhermite import alpha_even

    assert alpha_even(3) == F(35, 2)


def test_pochhammer_hand_values():
    assert pochhammer(F(3, 2), 2) == F(15, 4)  # (3/2)(5/2)
    assert pochhammer(F(1, 2), 3) == F(15, 8)  # (1/2)(3/2)(5/2)


@given(rationals, st.integers(0, 20), st.integers(0, 20))
def test_pochhammer_splitting(a, m, n):
    assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)


scalars = st.one_of(
    st.integers(-6, 6), rationals, st.builds(GaussianRational, rationals, rationals)
)


def _literal_rising(a, k, one):
    return math.prod((a + m for m in range(k)), start=one)


@given(scalars, st.integers(0, 12))
def test_rising_factorials_match_a_literal_product(a, n):
    prefix = rising_factorials(a, n)
    assert prefix == [_literal_rising(a, k, F(1)) for k in range(n + 1)]
    assert pochhammer(a, n) == prefix[-1]
    if isinstance(a, GaussianRational):
        assert n == 0 or isinstance(pochhammer(a, n), GaussianRational)
    else:  # an int counts as a Fraction, never a float
        assert all(type(v) is F for v in prefix)
        assert type(pochhammer(a, n)) is F


@given(scalars, scalars, st.integers(0, 8))
def test_polynomial_rising_factorials_match_a_literal_product(a0, a1, n):
    a = Poly((a0, a1))
    prefix = rising_factorials(a, n)
    assert prefix == [_literal_rising(a, k, Poly.one()) for k in range(n + 1)]
    assert all(type(p) is Poly for p in prefix)
    assert pochhammer_poly(a0, a1, n) == prefix[-1]


def test_pochhammer_poly_basic():
    assert pochhammer_poly(0, 1, 1) == Poly.x()
    assert pochhammer_poly(1, 1, 2) == Poly((2, 3, 1))  # (1+x)(2+x)


def test_pochhammer_poly_degenerates_to_scalar():
    for k in range(6):
        assert pochhammer_poly(F(5, 3), 0, k) == Poly.const(pochhammer(F(5, 3), k))


def test_imaginary_unit():
    assert I * I == -1
    assert I ** 4 == 1
    assert I.conjugate() == -I


@given(rationals, rationals, rationals, rationals)
def test_gaussian_norm_multiplicative(a, b, c, d):
    z = GaussianRational(a, b)
    w = GaussianRational(c, d)
    zw = z * w
    assert zw * zw.conjugate() == (z * z.conjugate()) * (w * w.conjugate())


def test_gaussian_division():
    z = GaussianRational(1, 2)
    assert z / z == 1
    assert (z * I) / I == z


def test_gaussian_equals_fraction_when_real():
    assert GaussianRational(F(2, 4), 0) == F(1, 2)
    assert hash(GaussianRational(F(1, 2), 0)) == hash(F(1, 2))
    assert GaussianRational(F(1, 2), F(1, 3)) != F(1, 2)


def test_canonical_reduction():
    assert F(2, 4) == F(1, 2)
    assert GaussianRational(F(2, 4), F(-6, 9)) == GaussianRational(F(1, 2), F(-2, 3))


@pytest.mark.parametrize(
    "scalar,text",
    [
        (F(3, 4), "3/4"),
        (F(-5), "-5"),
        (F(0), "0"),
        (GaussianRational(F(1, 2), F(3, 4)), "1/2+3/4*i"),
        (GaussianRational(F(1, 2), F(-3, 4)), "1/2-3/4*i"),
        (GaussianRational(0, F(3, 4)), "3/4*i"),
        (GaussianRational(0, -1), "-1*i"),
        (GaussianRational(F(1, 2), 0), "1/2"),
    ],
)
def test_scalar_text_roundtrip(scalar, text):
    assert format_scalar(scalar) == text
    assert parse_scalar(text) == scalar


def test_parse_bare_i():
    assert parse_scalar("i") == I
    assert parse_scalar("-i") == -I
    assert parse_scalar("1+i") == GaussianRational(1, 1)
