import math
import random
import re
from fractions import Fraction as F

import pytest

import opinv.families as families
from opinv.exact import GaussianRational
from opinv.families import (
    CHARLIER,
    CHEBYSHEV_T,
    CHEBYSHEV_U,
    DEFAULT_PHASE,
    FAMILIES,
    GEGENBAUER,
    HERMITE,
    JACOBI,
    LAGUERRE,
    MEIXNER,
    MEIXNER_POLLACZEK,
    ParamError,
    ParamSet,
    PoleError,
    _polynomial_cached,
    derivative_shift,
    expand_generating_function,
    hermite_moment_functional,
    polynomial,
    relation_check,
)
from opinv.poly import Poly
from opinv.series import TruncSeries


def sample_params(family, rng):
    def r():
        return F(rng.randint(-20, 20), rng.randint(1, 20))

    if family == JACOBI:
        return ParamSet(alpha=r(), beta=r())
    if family == GEGENBAUER:
        while True:
            lam = r()
            try:
                polynomial(GEGENBAUER, 16, ParamSet(lam=lam))
                return ParamSet(lam=lam)
            except (ParamError, PoleError):
                continue
    if family == LAGUERRE:
        return ParamSet(alpha=r())
    if family == CHARLIER:
        return ParamSet(a=r())
    if family == MEIXNER:
        c = r()
        return ParamSet(beta_m=r(), c=c if c != 0 else F(1, 2))
    if family == MEIXNER_POLLACZEK:
        m, n = rng.randint(2, 9), 1
        h = m * m + n * n
        phase = GaussianRational(F(m * m - n * n, h), F(2 * m * n, h))
        return ParamSet(lam=r(), phase=phase)
    return ParamSet()


def test_explicit_member_examples():
    assert polynomial(JACOBI, 1, ParamSet(alpha=F(0), beta=F(0))) == Poly.x()
    for lam in (F(1), F(2, 3), F(-1, 4)):
        assert polynomial(GEGENBAUER, 1, ParamSet(lam=lam)) == Poly((0, 2 * lam))
    assert polynomial(HERMITE, 2) == Poly((F(-1, 4), 0, F(1, 2)))
    for alpha in (F(0), F(5, 7), F(-3, 2)):
        assert polynomial(LAGUERRE, 1, ParamSet(alpha=alpha)) == Poly((alpha + 1, -1))
    assert polynomial(CHEBYSHEV_U, 2) == Poly((-1, 0, 4))
    assert polynomial(CHARLIER, 1, ParamSet(a=F(3, 2))) == Poly((F(-3, 2), 1))


#: parameters at which a Pochhammer factor of the explicit sum, or a factor of
#: one of its rising-factorial prefix lists, vanishes
_DEGENERATE_PARAMS = {
    JACOBI: [ParamSet(alpha=F(-2), beta=F(-3))],
    GEGENBAUER: [ParamSet(lam=F(-1))],
    LAGUERRE: [ParamSet(alpha=F(-3))],
    CHARLIER: [ParamSet(a=F(0))],
    MEIXNER: [
        ParamSet(beta_m=F(-2), c=F(1, 2)),
        ParamSet(beta_m=F(0), c=F(1, 3)),
        ParamSet(beta_m=F(3, 2), c=F(-1)),
    ],
    MEIXNER_POLLACZEK: [
        ParamSet(lam=F(0), phase=DEFAULT_PHASE),
        ParamSet(lam=F(-1, 2), phase=DEFAULT_PHASE),
    ],
}


@pytest.mark.parametrize("family", FAMILIES)
def test_oracle_equivalence_explicit_vs_generating_function(family):
    rng = random.Random(family)  # a str seed is hashed by sha512, the same in every process
    drawn = [sample_params(family, rng) for _ in range(3)]
    for params in drawn + _DEGENERATE_PARAMS.get(family, []):
        series = expand_generating_function(family, params, 10)
        for n in range(11):
            assert series.coeff(n) == polynomial(family, n, params), (family, n, params)


def test_explicit_constructors_build_no_series(monkeypatch):
    # the explicit route is the generating functions' oracle only while it
    # shares no code with them
    def refuse(self, *args, **kwargs):
        raise AssertionError("an explicit constructor built a TruncSeries")

    monkeypatch.setattr(TruncSeries, "__init__", refuse)
    _polynomial_cached.cache_clear()
    rng = random.Random(8)
    for family in FAMILIES:
        params = sample_params(family, rng)
        for n in range(9):
            polynomial(family, n, params)


def test_explicit_constructors_multiply_no_two_polynomials_of_degree_at_least_two(monkeypatch):
    # each sum is a scalar-weighted list of rising factorials, built one
    # linear factor at a time, not a convolution of two polynomial lists
    rng = random.Random(15)
    drawn = [(family, sample_params(family, rng)) for family in FAMILIES]
    drawn += [(family, params) for family, sets in _DEGENERATE_PARAMS.items() for params in sets]
    large = []
    original = Poly.__mul__

    def recording(self, other):
        if self.degree >= 2 and isinstance(other, Poly) and other.degree >= 2:
            large.append((self.degree, other.degree))
        return original(self, other)

    monkeypatch.setattr(Poly, "__mul__", recording)
    monkeypatch.setattr(Poly, "__rmul__", recording)
    _polynomial_cached.cache_clear()
    for family, params in drawn:
        for n in range(13):
            polynomial(family, n, params)
    assert large == []


def test_explicit_constructors_call_pochhammer_only_for_the_gegenbauer_ratio(monkeypatch):
    # every other rising factorial is read from a prefix list
    rng = random.Random(12)
    drawn = {family: sample_params(family, rng) for family in FAMILIES}
    calls = []
    original = families.pochhammer

    def counting(a, n):
        calls.append((a, n))
        return original(a, n)

    monkeypatch.setattr(families, "pochhammer", counting)
    _polynomial_cached.cache_clear()
    for family, params in drawn.items():
        for n in range(13):
            polynomial(family, n, params)
    assert len(calls) == 2 * 13


def test_a_member_validates_once(monkeypatch):
    calls = []
    original = families.validate_params

    def counting(family, params, n=0):
        calls.append((family, n, params))
        return original(family, params, n)

    monkeypatch.setattr(families, "validate_params", counting)
    _polynomial_cached.cache_clear()
    keys = [
        (LAGUERRE, 3, ParamSet(alpha=F(1, 3))),
        (LAGUERRE, 4, ParamSet(alpha=F(1, 3))),
        (LAGUERRE, 3, ParamSet(alpha=F(2, 3))),
        (HERMITE, 3, ParamSet()),
        (GEGENBAUER, 5, ParamSet(lam=F(3, 4))),
    ]
    for _ in range(4):
        for family, n, params in keys:
            polynomial(family, n, params)
    assert sorted(calls, key=repr) == sorted(keys, key=repr)


def test_param_set_takes_only_exact_scalars():
    params = ParamSet(beta_m=2, c=3)
    assert type(params.beta_m) is F and type(params.c) is F
    assert params == ParamSet(beta_m=F(2), c=F(3))
    assert polynomial(MEIXNER, 3, params) == polynomial(MEIXNER, 3, ParamSet(beta_m=F(2), c=F(3)))
    with pytest.raises(ParamError, match="'alpha'"):
        ParamSet(alpha=0.5)
    with pytest.raises(ParamError, match="'phase'"):
        ParamSet(lam=F(1), phase=complex(0.6, 0.8))


def test_hermite_values_at_zero():
    for n in range(13):
        assert polynomial(HERMITE, 2 * n + 1)(0) == 0
        expected = F((-1) ** n, 2 ** (2 * n) * math.factorial(n))
        assert polynomial(HERMITE, 2 * n)(0) == expected


def test_hermite_orthogonality_via_moments():
    for m in range(11):
        hm = polynomial(HERMITE, m)
        for n in range(m + 1):
            value = hermite_moment_functional(hm * polynomial(HERMITE, n))
            if m == n:
                assert value == F(1, 2 ** n * math.factorial(n))
            else:
                assert value == 0


def test_moment_functional_basics():
    assert hermite_moment_functional(Poly.one()) == 1
    assert hermite_moment_functional(Poly((0, 0, 1))) == F(1, 2)
    assert hermite_moment_functional(Poly.x()) == 0


def test_moment_functional_rejects_complex():
    with pytest.raises(ValueError, match="imaginary"):
        hermite_moment_functional(Poly((GaussianRational(0, 1),)))


def test_chebyshev_normalizations():
    for n in range(17):
        assert polynomial(CHEBYSHEV_T, n)(1) == 1
        assert polynomial(CHEBYSHEV_U, n)(1) == n + 1


@pytest.mark.parametrize("family", (LAGUERRE, HERMITE, JACOBI))
def test_derivative_shift_matches_direct_derivative(family):
    rng = random.Random(11)
    params = sample_params(family, rng)
    for n in range(13):
        for i in range(n + 1):
            shifted, meta = derivative_shift(family, n, i, params)
            assert shifted == polynomial(family, n, params).derivative(i)
            if i > 0:
                assert meta["n"] == n - i


def test_derivative_shift_spec_examples():
    p, _ = derivative_shift(LAGUERRE, 1, 1, ParamSet(alpha=F(1, 3)))
    assert p == Poly((-1,))
    p, _ = derivative_shift(HERMITE, 2, 1)
    assert p == Poly.x()
    p, _ = derivative_shift(HERMITE, 5, 5)
    assert p == Poly.one()
    p, meta = derivative_shift(HERMITE, 2, 3)
    assert p.is_zero() and meta == {}


def test_rel1_gegenbauer_from_jacobi():
    rng = random.Random(5)
    for n in range(6):
        lam = sample_params(GEGENBAUER, rng).lam
        assert relation_check("rel1", n, ParamSet(lam=lam))


def test_rel2_legendre_is_gegenbauer_half():
    for n in range(8):
        assert relation_check("rel2", n)


def test_rel3_meixner_as_jacobi_with_poly_parameter():
    assert relation_check("rel3", 1, ParamSet(beta_m=F(1), c=F(1, 2)))
    rng = random.Random(6)
    for n in range(5):
        params = sample_params(MEIXNER, rng)
        assert relation_check("rel3", n, params)


def test_rel3_fails_when_the_shared_term_list_is_wrong(monkeypatch):
    # the Jacobi side of rel3 is the Meixner constructor's term list, so the
    # relation holds only while its other side comes from elsewhere
    original = families._2f1_terms

    def perturbed(*args):
        terms = original(*args)
        return terms[:-1] + [terms[-1] + 1]

    monkeypatch.setattr(families, "_2f1_terms", perturbed)
    _polynomial_cached.cache_clear()
    try:
        for n in range(5):
            assert not relation_check("rel3", n, ParamSet(beta_m=F(2, 3), c=F(-3, 5)))
    finally:
        _polynomial_cached.cache_clear()


def test_polynomial_index_must_be_an_int():
    for n in (2.0, F(2), "2"):
        with pytest.raises(ValueError, match=re.escape(f"got {n!r}")):
            polynomial(JACOBI, n, ParamSet(alpha=F(1), beta=F(2)))
    with pytest.raises(ValueError, match="got -1"):
        polynomial(HERMITE, -1)


def test_param_validation():
    with pytest.raises(ParamError, match="requires parameter"):
        polynomial(LAGUERRE, 1, ParamSet())
    with pytest.raises(ParamError, match="does not take"):
        polynomial(HERMITE, 1, ParamSet(alpha=F(1)))
    with pytest.raises(ParamError, match="c != 0"):
        polynomial(MEIXNER, 1, ParamSet(beta_m=F(1), c=F(0)))
    with pytest.raises(ParamError, match="unimodular") as raised:
        polynomial(
            MEIXNER_POLLACZEK, 1, ParamSet(lam=F(1), phase=GaussianRational(1, 1))
        )
    assert str(raised.value) == "phase must be unimodular, got phase = 1,1"
    with pytest.raises(ParamError, match="lam = 0"):
        polynomial(GEGENBAUER, 1, ParamSet(lam=F(0)))
    with pytest.raises(PoleError):
        polynomial(GEGENBAUER, 4, ParamSet(lam=F(-3, 2)))


def test_default_phase_is_unimodular():
    assert DEFAULT_PHASE * DEFAULT_PHASE.conjugate() == 1


def test_degree_can_collapse_at_degenerate_parameters():
    # P_1^(-1,-1) = 0: the constructor is defined for all (alpha, beta) but
    # the degree need not be n there
    p = polynomial(JACOBI, 1, ParamSet(alpha=F(-1), beta=F(-1)))
    assert p.is_zero()
