"""Ten classical orthogonal polynomial families: explicit constructors,
generating-function expansions, special values, derivative rules, and
inter-family relations.

Every family has two independent construction routes: a terminating
coefficient sum (the explicit constructor) and the truncated expansion of
its generating function.  The pair acts as a mutual oracle, so both sides
are kept free of shared shortcuts; the explicit route touches no series
code and no generating-function product.  Jacobi, Meixner and
Meixner-Pollaczek are terminating 2F1 sums (Koekoek, Lesky & Swarttouw,
Hypergeometric Orthogonal Polynomials and Their q-Analogues, 2010, 9.8,
9.10, 9.7) read from one term list, ``_2f1_terms``, with no division by
(b)_k.  Jacobi, Legendre and Chebyshev T/U are composed in (x-1)/2 or
(1-x)/2 by Horner, Laguerre and Hermite come from their monomial
coefficients, and Charlier is its 2F0 sum.  Every list entry (a)_k z^k/k!,
a scalar or a + b x, comes from one prefix list of
``exact.rising_factorials`` and a running product for z^k/k!.

Normalizations follow the generating functions
    hermite:            exp(x t - t^2/4)
    laguerre(alpha):    (1-t)^(-alpha-1) exp(x t/(t-1))
    gegenbauer(lam):    (1-2xt+t^2)^(-lam)
    chebyshev_t:        (1-xt)/(1-2xt+t^2)
    chebyshev_u:        1/(1-2xt+t^2)
    legendre:           (1-2xt+t^2)^(-1/2)
    charlier(a):        exp(-a t)(1+t)^x
    meixner(beta,c):    (1-t/c)^x (1-t)^(-x-beta)
    mp(lam,phase):      (1-p t)^(-lam+ix) (1-conj(p) t)^(-lam-ix),  p = e^{i phi}
    jacobi(alpha,beta): explicit hypergeometric sum; its generating function
                        2^(a+b) R^-1 (1-t+R)^-a (1+t+R)^-b, R=sqrt(1-2xt+t^2),
                        is imported standard knowledge (not derived here).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Optional

from .exact import (
    GaussianRational,
    I,
    Scalar,
    as_rational,
    conj,
    ensure_scalar,
    factorial,
    imag_part,
    pochhammer,
    real_part,
    rising_factorials,
)
from .poly import Poly
from .series import TruncSeries

JACOBI = "jacobi"
GEGENBAUER = "gegenbauer"
CHEBYSHEV_T = "chebyshev_t"
CHEBYSHEV_U = "chebyshev_u"
LEGENDRE = "legendre"
LAGUERRE = "laguerre"
HERMITE = "hermite"
CHARLIER = "charlier"
MEIXNER = "meixner"
MEIXNER_POLLACZEK = "meixner_pollaczek"

FAMILIES = (
    JACOBI,
    GEGENBAUER,
    CHEBYSHEV_T,
    CHEBYSHEV_U,
    LEGENDRE,
    LAGUERRE,
    HERMITE,
    CHARLIER,
    MEIXNER,
    MEIXNER_POLLACZEK,
)

#: parameters each family requires, in ParamSet field names
REQUIRED_PARAMS = {
    JACOBI: ("alpha", "beta"),
    GEGENBAUER: ("lam",),
    CHEBYSHEV_T: (),
    CHEBYSHEV_U: (),
    LEGENDRE: (),
    LAGUERRE: ("alpha",),
    HERMITE: (),
    CHARLIER: ("a",),
    MEIXNER: ("beta_m", "c"),
    MEIXNER_POLLACZEK: ("lam", "phase"),
}

#: default Meixner-Pollaczek phase e^{i phi} = (3+4i)/5, a unimodular
#: Gaussian rational from the (3,4,5) Pythagorean triple
DEFAULT_PHASE = GaussianRational(Fraction(3, 5), Fraction(4, 5))


class ParamError(ValueError):
    """A ParamSet fails a family's parameter invariant.

    A message about one parameter's value has a {} slot: str() fills it with
    "field = value", naming(name) with "name value" (the CLI passes a flag).
    """

    def __init__(self, message: str, field: Optional[str] = None, value=None):
        self.message, self.field, self.value = message, field, value
        super().__init__(self.naming(f"{field} =") if field else message)

    def naming(self, name: str) -> str:
        return self.message.format(f"{name} {self.value}")


class PoleError(ParamError):
    """A parameter hits a Pochhammer-denominator zero."""


class CheckFailure(AssertionError):
    """An identity or cross-check computed along the way does not hold.
    Raised explicitly, so the check also runs under python -O."""


@dataclass(frozen=True)
class ParamSet:
    """A family's or identity's parameters, exact scalars or None; an int
    is stored as the equal Fraction."""

    alpha: Optional[Fraction] = None
    beta: Optional[Fraction] = None
    lam: Optional[Fraction] = None
    a: Optional[Fraction] = None
    c: Optional[Fraction] = None
    beta_m: Optional[Fraction] = None
    phase: Optional[GaussianRational] = None

    def __post_init__(self):
        for name in PARAM_NAMES:
            value = getattr(self, name)
            try:
                if value is not None:
                    object.__setattr__(self, name, ensure_scalar(value))
            except TypeError:
                raise ParamError(f"parameter {name!r} must be an int, Fraction or "
                                 f"GaussianRational, got {value!r}") from None


#: the ParamSet fields, in declaration order
PARAM_NAMES = tuple(f.name for f in fields(ParamSet))

EMPTY_PARAMS = ParamSet()


def validate_params(family: str, params: ParamSet, n: int = 0) -> None:
    """Check that exactly the required parameters are present and finite."""
    if family not in REQUIRED_PARAMS:
        raise ParamError(f"unknown family {family!r}; expected one of {FAMILIES}")
    required = REQUIRED_PARAMS[family]
    for name in PARAM_NAMES:
        value = getattr(params, name)
        if name in required and value is None:
            raise ParamError(f"{family} requires parameter {name!r}")
        if name not in required and value is not None:
            raise ParamError(f"{family} does not take parameter {name!r}")
    if family == MEIXNER and params.c == 0:
        raise ParamError("meixner rejects {}: its generating function needs c != 0", "c", params.c)
    if family == MEIXNER_POLLACZEK and params.phase * conj(params.phase) != 1:
        phase = f"{real_part(params.phase)},{imag_part(params.phase)}"
        raise ParamError("phase must be unimodular, got {}", "phase", phase)
    if family == GEGENBAUER:
        if params.lam == 0:
            raise ParamError(
                "gegenbauer rejects {}; use chebyshev_t for that normalization",
                "lam", params.lam,
            )
        for m in range(n):
            if params.lam + Fraction(1, 2) + m == 0:
                raise PoleError(
                    f"gegenbauer pole at {{}}: (lambda+1/2)_{n} vanishes", "lam", params.lam
                )


# ---------------------------------------------------------------------------
# explicit constructors
# ---------------------------------------------------------------------------

_X = Poly.x()
_HALF = Fraction(1, 2)
_HALF_XM1 = Poly((-_HALF, _HALF))
_HALF_1MX = Poly((_HALF, -_HALF))


def _exp_terms(z: Scalar, n: int) -> list:
    """z^k/k! for k = 0..n, the t^k coefficients of exp(z t)."""
    return list(accumulate(range(1, n + 1), lambda term, k: term * z / k, initial=Fraction(1)))


def _rising_terms(a, z: Scalar, n: int) -> list:
    """(a)_k z^k/k! for k = 0..n, a a scalar or a Poly: the t^k coefficients
    of (1 - z t)^(-a)."""
    return [p * term for p, term in zip(rising_factorials(a, n), _exp_terms(z, n))]


def _2f1_terms(n: int, a, z: Scalar, b: Scalar, w: Scalar = 1) -> list:
    """(a)_k z^k/k! * (b+k)_{n-k} w^(n-k)/(n-k)! for k = 0..n, a a scalar or
    a Poly.  They sum to (b)_n w^n/n! * 2F1(-n, a; b; -z/w); the factors
    (b+k)_{n-k} = (-1)^(n-k) (1-b-n)_{n-k} of every k come from one list."""
    down = _rising_terms(1 - b - n, -w, n)
    return [up * d for up, d in zip(_rising_terms(a, z, n), reversed(down))]


def _jacobi_explicit(n: int, alpha: Scalar, beta: Scalar) -> Poly:
    # (a+1)_n/n! 2F1(-n, n+a+b+1; a+1; (1-x)/2), a polynomial in (x-1)/2
    return Poly(_2f1_terms(n, alpha + beta + n + 1, 1, alpha + 1))(_HALF_XM1)


def _gegenbauer_explicit(n: int, lam: Fraction) -> Poly:
    ratio = pochhammer(2 * lam, n) / pochhammer(lam + _HALF, n)
    return ratio * _jacobi_explicit(n, lam - _HALF, lam - _HALF)


def _legendre_explicit(n: int) -> Poly:
    # sum_k (n+k)!/((n-k)! k!^2) * ((x-1)/2)^k
    return Poly(
        Fraction(factorial(n + k), factorial(n - k) * factorial(k) ** 2)
        for k in range(n + 1)
    )(_HALF_XM1)


def _chebyshev_2f1(n: int, b: Fraction, c: Fraction) -> Poly:
    # 2F1(-n, b; c; (1-x)/2), terminating
    rise_n, rise_b, rise_c = (rising_factorials(v, n) for v in (-n, b, c))
    return Poly(
        rise_n[k] * rise_b[k] / (rise_c[k] * factorial(k)) for k in range(n + 1)
    )(_HALF_1MX)


def _laguerre_explicit(n: int, alpha: Scalar) -> Poly:
    # x^k has (-1)^k/k! * (a+k+1)_{n-k}/(n-k)!, as in _jacobi_explicit
    down = _rising_terms(-alpha - n, -1, n)
    return Poly(sign * d for sign, d in zip(_exp_terms(-1, n), reversed(down)))


def _hermite_explicit(n: int) -> Poly:
    # t^n coefficient of exp(xt) * exp(-t^2/4): x^(n-2k) has (-1/4)^k/(k!(n-2k)!)
    coeffs = [0] * (n + 1)
    for k, term in enumerate(_exp_terms(Fraction(-1, 4), n // 2)):
        coeffs[n - 2 * k] = term / factorial(n - 2 * k)
    return Poly(coeffs)


def _charlier_explicit(n: int, a: Fraction) -> Poly:
    # the 2F0 sum: (-x)_k (-1)^k/k! * (-a)^(n-k)/(n-k)!
    terms = zip(_rising_terms(-_X, -1, n), reversed(_exp_terms(-a, n)))
    return sum((r * e for r, e in terms), Poly.zero())


def _meixner_explicit(n: int, beta_m: Fraction, c: Fraction) -> Poly:
    # (beta)_n/n! 2F1(-n, -x; beta; 1 - 1/c)
    return sum(_2f1_terms(n, -_X, 1 / c - 1, beta_m), Poly.zero())


def _mp_explicit(n: int, lam: Fraction, phase: GaussianRational) -> Poly:
    # (2 lam)_n p^n/n! 2F1(-n, lam+ix; 2 lam; 1 - conj(p)^2); the z and w
    # lists share p^n, as p (conj(p)^2 - 1) = conj(p) - p
    return sum(_2f1_terms(n, lam + I * _X, conj(phase) - phase, 2 * lam, phase), Poly.zero())


#: family members kept by the constructor cache; bounded so that a process
#: serving ever new parameters does not grow without limit
FAMILY_CACHE_SIZE = 1024


#: each family's explicit constructor, called with n and the family's ParamSet
_EXPLICIT = {
    JACOBI: lambda n, p: _jacobi_explicit(n, p.alpha, p.beta),
    GEGENBAUER: lambda n, p: _gegenbauer_explicit(n, p.lam),
    CHEBYSHEV_T: lambda n, p: _chebyshev_2f1(n, Fraction(n), _HALF),
    CHEBYSHEV_U: lambda n, p: (n + 1) * _chebyshev_2f1(n, Fraction(n + 2), Fraction(3, 2)),
    LEGENDRE: lambda n, p: _legendre_explicit(n),
    LAGUERRE: lambda n, p: _laguerre_explicit(n, p.alpha),
    HERMITE: lambda n, p: _hermite_explicit(n),
    CHARLIER: lambda n, p: _charlier_explicit(n, p.a),
    MEIXNER: lambda n, p: _meixner_explicit(n, p.beta_m, p.c),
    MEIXNER_POLLACZEK: lambda n, p: _mp_explicit(n, p.lam, p.phase),
}


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _polynomial_cached(family: str, n: int, params: ParamSet) -> Poly:
    # only a miss validates: a hit's key has passed before
    validate_params(family, params, n)
    return _EXPLICIT[family](n, params)


def polynomial(family: str, n: int, params: ParamSet = EMPTY_PARAMS) -> Poly:
    """The n-th member of a family, by its explicit coefficient sum."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"polynomial index must be an int >= 0, got {n!r}")
    return _polynomial_cached(family, n, params)


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

def expand_generating_function(
    family: str, params: ParamSet, order: int
) -> TruncSeries:
    """Expand a family's generating function so that the t^n coefficient is
    the n-th family member, exact mod t^(order+1)."""
    validate_params(family, params, order)
    N = order
    x = _X

    def ts(*coeffs):
        return TruncSeries(coeffs, N)

    base = ts(Poly.one(), -2 * x, Poly.one())  # 1 - 2xt + t^2

    if family == HERMITE:
        return ts(Poly.zero(), x, Fraction(-1, 4)).exp()
    if family == CHEBYSHEV_U:
        return base.invert()
    if family == CHEBYSHEV_T:
        return ts(Poly.one(), -x) * base.invert()
    if family == LEGENDRE:
        return base.pow(Fraction(-1, 2))
    if family == GEGENBAUER:
        return base.pow(-params.lam)
    if family == LAGUERRE:
        # (1-t)^(-alpha-1) exp(xt/(t-1)),  xt/(t-1) = -x * t * (1-t)^(-1)
        one_minus_t = ts(1, -1)
        arg = (ts(Poly.zero(), Poly.one()) * one_minus_t.invert()).scale(-x)
        return one_minus_t.pow(-params.alpha - 1) * arg.exp()
    if family == CHARLIER:
        return ts(Poly.zero(), -params.a).exp() * ts(1, 1).pow(x)
    if family == MEIXNER:
        left = ts(1, -1 / params.c).pow(x)
        right = ts(1, -1).pow(-x - Poly.const(params.beta_m))
        return left * right
    if family == MEIXNER_POLLACZEK:
        p = params.phase
        left = ts(1, -p).pow(Poly((-params.lam, I)))
        right = ts(1, -conj(p)).pow(Poly((-params.lam, -I)))
        return left * right
    if family == JACOBI:
        # standard Jacobi generating function (imported, not from the
        # inversion-formula catalog): R^-1 ((1-t+R)/2)^-a ((1+t+R)/2)^-b
        R = base.pow(_HALF)
        A = (TruncSeries.one(N) - ts(Poly.zero(), Poly.one()) + R).scale(_HALF)
        B = (TruncSeries.one(N) + ts(Poly.zero(), Poly.one()) + R).scale(_HALF)
        return R.invert() * A.pow(-params.alpha) * B.pow(-params.beta)
    raise ParamError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# derivative rules, special values, relations
# ---------------------------------------------------------------------------

def derivative_shift(family: str, n: int, i: int, params: ParamSet = EMPTY_PARAMS):
    """Express D^i P_n as scalar * (shifted family member).

    Supported: laguerre  D^i L_n^(a) = (-1)^i L_{n-i}^(a+i);
               hermite   D^i H_n = H_{n-i};
               jacobi    D^i P_n^(a,b) = (n+a+b+1)_i/2^i * P_{n-i}^(a+i,b+i)
                         (imported standard rule, not from the catalog).
    Returns (Poly, metadata); the Poly is checked equal to the direct
    derivative of the explicit constructor (CheckFailure otherwise).
    """
    if i < 0:
        raise ValueError("derivative order must be >= 0")
    if i > n:
        return Poly.zero(), {}
    if family == LAGUERRE:
        scalar = ensure_scalar((-1) ** i)
        shifted = ParamSet(alpha=params.alpha + i)
        member_n = n - i
        member = polynomial(LAGUERRE, member_n, shifted)
    elif family == HERMITE:
        scalar = ensure_scalar(1)
        shifted = EMPTY_PARAMS
        member_n = n - i
        member = polynomial(HERMITE, member_n)
    elif family == JACOBI:
        scalar = pochhammer(params.alpha + params.beta + n + 1, i) / Fraction(2 ** i)
        shifted = ParamSet(alpha=params.alpha + i, beta=params.beta + i)
        member_n = n - i
        member = polynomial(JACOBI, member_n, shifted)
    else:
        raise ParamError(f"derivative_shift not defined for family {family!r}")
    result = scalar * member
    direct = polynomial(family, n, params).derivative(i)
    if result != direct:
        raise CheckFailure(f"derivative rule mismatch for {family}, n={n}, i={i}")
    metadata = {"scalar": scalar, "family": family, "n": member_n, "params": shifted}
    return result, metadata


def hermite_moment_functional(p: Poly) -> Fraction:
    """(1/sqrt(pi)) * integral of e^(-x^2) p(x) dx, via the exact moments
    mu_{2k} = (1/2)_k and mu_{2k+1} = 0.  Rejects complex coefficients."""
    moments = rising_factorials(_HALF, len(p.coeffs) // 2)
    total = Fraction(0)
    for k, coeff in enumerate(p.coeffs):
        coeff = as_rational(coeff)
        if k % 2 == 0:
            total += coeff * moments[k // 2]
    return total


def jacobi_poly_beta(
    n: int, alpha: Fraction, beta0: Fraction, beta1: Fraction, x0: Fraction
) -> Poly:
    """Jacobi sum with a degree-1 polynomial beta0 + beta1*x in the beta
    slot, evaluated at the scalar argument x0; the result is a Poly in x.

    Mechanically well-defined: the defining sum is a finite product of
    Pochhammers, so a polynomial parameter just promotes each factor to a
    polynomial.  It is _jacobi_explicit's term list at z = (x0-1)/2.
    """
    beta = beta0 + beta1 * _X
    return sum(_2f1_terms(n, n + alpha + beta + 1, (x0 - 1) / 2, alpha + 1), Poly.zero())


def relation_check(relation: str, n: int, params: ParamSet = EMPTY_PARAMS) -> bool:
    """Verify one of the three inter-family relations at index n.

    rel1: G_n^(lam) = (2 lam)_n/(lam+1/2)_n * P_n^(lam-1/2, lam-1/2)
          (the Gegenbauer constructor is the right side; the left side is
          taken from the generating function so the two stay independent);
    rel2: P_n = G_n^(1/2);
    rel3: M_n^(beta)(x; c) = P_n^(beta-1, -n-beta-x)((2-c)/c)
          (the right side is the Meixner constructor's term list, so the
          left side is taken from the generating function).
    """
    if relation == "rel1":
        gegenbauer = ParamSet(lam=params.lam)
        via_series = expand_generating_function(GEGENBAUER, gegenbauer, n).coeff(n)
        return via_series == polynomial(GEGENBAUER, n, gegenbauer)
    if relation == "rel2":
        return polynomial(LEGENDRE, n) == polynomial(
            GEGENBAUER, n, ParamSet(lam=_HALF)
        )
    if relation == "rel3":
        beta_m, c = params.beta_m, params.c
        meixner = ParamSet(beta_m=beta_m, c=c)
        via_series = expand_generating_function(MEIXNER, meixner, n).coeff(n)
        return via_series == jacobi_poly_beta(
            n, alpha=beta_m - 1, beta0=Fraction(-n) - beta_m, beta1=Fraction(-1), x0=(2 - c) / c
        )
    raise ValueError(f"unknown relation {relation!r}; expected rel1, rel2 or rel3")
