from fractions import Fraction as F

from hypothesis import given, strategies as st

from opinv.exact import GaussianRational, format_scalar
from opinv.families import LAGUERRE, ParamSet, _polynomial_cached, polynomial
from opinv.poly import Poly

polys = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=20), max_size=11
).map(Poly)


def test_ring_basics():
    x = Poly.x()
    assert (x - 1) * (x + 1) == Poly((-1, 0, 1))
    assert Poly((1, 2)) + Poly((0, -2, 3)) == Poly((1, 0, 3))
    assert 0 * x == Poly.zero()
    assert x ** 0 == Poly.one()


def test_trailing_zeros_trimmed():
    assert Poly((1, 0, 0)).coeffs == (F(1),)
    assert Poly((0, 0)).is_zero()
    assert Poly((0, 0)).degree == -1


def test_derivative_examples():
    assert Poly((0, 0, 1)).derivative() == Poly((0, 2))
    h2 = Poly((F(-1, 4), 0, F(1, 2)))
    assert h2.derivative() == Poly.x()  # H_2' = H_1
    assert Poly((1, 1)).derivative(5).is_zero()


def test_eval_examples():
    h2 = Poly((F(-1, 4), 0, F(1, 2)))
    assert h2(0) == F(-1, 4)
    assert Poly((-1, 0, 1))(1) == 0
    p2 = Poly((F(-1, 2), 0, F(3, 2)))
    assert p2(1) == 1


@given(polys, polys)
def test_product_rule(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


@given(polys, polys, st.fractions(min_value=-3, max_value=3, max_denominator=10))
def test_eval_is_ring_homomorphism(p, q, a):
    assert (p * q)(a) == p(a) * q(a)
    assert (p + q)(a) == p(a) + q(a)


def test_composition():
    p = Poly((1, 0, 1))  # 1 + x^2
    assert p(Poly((0, -1))) == p  # even
    assert Poly.x()(Poly((1, 2))) == Poly((1, 2))


def test_json_roundtrip():
    p = Poly((F(1, 2), 0, F(-3, 7)))
    assert Poly.from_json(p.to_json()) == p


def test_latex():
    assert Poly((F(-1, 4), 0, F(1, 2))).to_latex() == "\\frac{1}{2}x^{2}-\\frac{1}{4}"
    assert Poly.zero().to_latex() == "0"


# -- the fraction-free kernel against a naive per-coefficient reference -----
#
# The reference keeps plain lists of Fraction / GaussianRational values and
# does every sum and product one scalar at a time.

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=20)
gaussians = st.builds(GaussianRational, rationals, rationals)
scalars = st.one_of(rationals, gaussians, st.integers(-5, 5))
scalar_lists = st.lists(scalars, max_size=7)
rational_lists = st.lists(rationals, max_size=7)


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return _trim(x + y for x, y in zip(a, b))


def ref_neg(a):
    return _trim(-x for x in a)


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def ref_derivative(a, order):
    for _ in range(order):
        a = [k * c for k, c in enumerate(a)][1:]
    return _trim(a)


def ref_eval(a, x0):
    acc = F(0)
    for c in reversed(a):
        acc = acc * x0 + c
    return acc


def ref_compose(a, b):
    acc = ()
    for c in reversed(a):
        acc = ref_add(ref_mul(acc, b), (c,))
    return acc


def ref_re(c):
    return c.re if isinstance(c, GaussianRational) else F(c)


def ref_im(c):
    return c.im if isinstance(c, GaussianRational) else F(0)


def assert_matches(p, ref):
    assert p.coeffs == _trim(ref)
    for c in p.coeffs:
        if isinstance(c, GaussianRational):
            assert c.im != 0
        else:
            assert type(c) is F
    assert p.degree == len(_trim(ref)) - 1


@given(scalar_lists, scalar_lists)
def test_ring_operations_match_reference(a, b):
    p, q = Poly(a), Poly(b)
    assert_matches(p, a)
    assert_matches(p + q, ref_add(a, b))
    assert_matches(p - q, ref_add(a, ref_neg(b)))
    assert_matches(-p, ref_neg(a))
    assert_matches(p * q, ref_mul(a, b))
    assert_matches(q * p, ref_mul(b, a))
    square = ref_mul(a, a)
    assert_matches(p ** 0, (1,))
    assert_matches(p ** 2, square)
    assert_matches(p ** 3, ref_mul(square, a))


@given(scalar_lists, scalars)
def test_scalar_operations_match_reference(a, s):
    p = Poly(a)
    assert_matches(p * s, ref_mul(a, (s,)))
    assert_matches(s * p, ref_mul((s,), a))
    assert_matches(p + s, ref_add(a, (s,)))
    assert_matches(s - p, ref_add((s,), ref_neg(a)))
    assert_matches(p - s, ref_add(a, (-s,)))
    assert (p * s == s * p) and (p + s == s + p)


@given(scalar_lists, st.integers(0, 4))
def test_derivative_matches_reference(a, order):
    assert_matches(Poly(a).derivative(order), ref_derivative(a, order))


@given(st.lists(scalars, max_size=5), st.lists(scalars, max_size=4))
def test_composition_matches_reference(a, b):
    assert_matches(Poly(a)(Poly(b)), ref_compose(a, b))


@given(scalar_lists, scalars)
def test_scalar_evaluation_matches_reference(a, x0):
    value = Poly(a)(x0)
    assert value == ref_eval(a, x0)
    if not isinstance(x0, GaussianRational) and not any(
        isinstance(c, GaussianRational) for c in a
    ):
        assert type(value) is F


@given(scalar_lists)
def test_real_and_imaginary_parts_match_reference(a):
    p = Poly(a)
    assert_matches(p.real_part(), [ref_re(c) for c in a])
    assert_matches(p.imag_part(), [ref_im(c) for c in a])
    assert p.real_part() + GaussianRational(0, 1) * p.imag_part() == p


@given(scalar_lists)
def test_json_round_trip_matches_reference(a):
    p = Poly(a)
    obj = p.to_json()
    assert obj == {"var": "x", "coeffs": [format_scalar(c) for c in _trim(a)]}
    assert Poly.from_json(obj) == p


@given(scalar_lists, scalar_lists)
def test_equal_polynomials_compare_and_hash_equal(a, b):
    p, q = Poly(a), Poly(b)
    others = [
        Poly(list(a) + [0, F(0), GaussianRational(0)]),
        p + Poly.zero(),
        (p + q) - q,
        (p * 3) * F(1, 3),
        Poly.zero() - (-p),
        p * Poly.one(),
        p.real_part() + p.imag_part() * GaussianRational(0, 1),
    ]
    for r in others:
        assert r == p
        assert hash(r) == hash(p)


@given(rational_lists, rational_lists, rationals)
def test_rational_inputs_give_fraction_coefficients(a, b, x0):
    p, q = Poly(a), Poly(b)
    # a real GaussianRational input is stored as the equal Fraction
    assert Poly([GaussianRational(c) for c in a]) == p
    results = [
        Poly([GaussianRational(c) for c in a]),
        p + q, p - q, p * q, -p, p ** 2, p * x0, p.derivative(), p(q),
        p.real_part(), (p * GaussianRational(0, 1)).imag_part(),
        (p * GaussianRational(1, 1)) * GaussianRational(1, -1),
    ]
    for r in results:
        assert all(type(c) is F for c in r.coeffs)
    assert type(p(x0)) is F


def test_caches_are_bounded():
    family_info = _polynomial_cached.cache_info()
    assert family_info.maxsize is not None
    for k in range(family_info.maxsize + 5):
        polynomial(LAGUERRE, 1, ParamSet(alpha=F(k, 7)))
    assert _polynomial_cached.cache_info().currsize == family_info.maxsize


def test_power_uses_no_unused_squarings(monkeypatch):
    p = Poly((F(1, 2), -1, F(2, 3)))
    powers = [Poly.one()]
    for _ in range(16):
        powers.append(powers[-1] * p)
    calls = []
    mul = Poly.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    for n in range(17):
        calls.clear()
        assert p ** n == powers[n]
        # one squaring per bit below the top, one product per further set bit
        expected = n.bit_length() - 1 + bin(n).count("1") - 1 if n else 0
        assert len(calls) == expected, n


def test_gaussian_powers_match_repeated_products():
    g = GaussianRational(F(1, 2), F(-2, 3))
    g_acc = GaussianRational(1)
    for n in range(17):
        assert g ** n == g_acc, n
        g_acc = g_acc * g
    assert g ** -3 == GaussianRational(1) / (g * g * g)
