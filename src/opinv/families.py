"""Ten classical orthogonal polynomial families: explicit constructors,
generating-function expansions, special values, derivative rules, and
inter-family relations.

Every family has two independent construction routes: a terminating
coefficient sum (the explicit constructor) and the truncated expansion of
its generating function.  The pair acts as a mutual oracle, so both sides
are kept free of shared shortcuts.

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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .exact import (
    GaussianRational,
    I,
    Scalar,
    as_rational,
    conj,
    ensure_scalar,
    factorial,
    pochhammer,
    pochhammer_poly,
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
    """A ParamSet fails a family's parameter invariant."""


class PoleError(ParamError):
    """A parameter hits a Pochhammer-denominator zero."""


class CheckFailure(AssertionError):
    """An identity or cross-check computed along the way does not hold.
    Raised explicitly, so the check also runs under python -O."""


@dataclass(frozen=True)
class ParamSet:
    alpha: Optional[Fraction] = None
    beta: Optional[Fraction] = None
    lam: Optional[Fraction] = None
    a: Optional[Fraction] = None
    c: Optional[Fraction] = None
    beta_m: Optional[Fraction] = None
    phase: Optional[GaussianRational] = None


EMPTY_PARAMS = ParamSet()


def validate_params(family: str, params: ParamSet, n: int = 0) -> None:
    """Check that exactly the required parameters are present and finite."""
    if family not in REQUIRED_PARAMS:
        raise ParamError(f"unknown family {family!r}; expected one of {FAMILIES}")
    required = REQUIRED_PARAMS[family]
    for name in ("alpha", "beta", "lam", "a", "c", "beta_m", "phase"):
        value = getattr(params, name)
        if name in required and value is None:
            raise ParamError(f"{family} requires parameter {name!r}")
        if name not in required and value is not None:
            raise ParamError(f"{family} does not take parameter {name!r}")
    if family == MEIXNER and params.c == 0:
        raise ParamError("meixner requires c != 0")
    if family == MEIXNER_POLLACZEK:
        if params.phase * conj(params.phase) != 1:
            raise ParamError(f"phase must be unimodular, got {params.phase}")
    if family == GEGENBAUER:
        if params.lam == 0:
            raise ParamError(
                "gegenbauer rejects lam = 0; use chebyshev_t for that normalization"
            )
        for m in range(n):
            if params.lam + Fraction(1, 2) + m == 0:
                raise PoleError(
                    f"gegenbauer pole: (lam+1/2)_{n} vanishes at lam={params.lam}"
                )


# ---------------------------------------------------------------------------
# explicit constructors
# ---------------------------------------------------------------------------

_X = Poly.x()
_HALF = Fraction(1, 2)


def _jacobi_explicit(n: int, alpha: Scalar, beta: Scalar) -> Poly:
    # sum_k (n+a+b+1)_k/k! * (a+k+1)_{n-k}/(n-k)! * ((x-1)/2)^k
    half_xm1 = Poly((Fraction(-1, 2), _HALF))
    acc = Poly.zero()
    for k in range(n + 1):
        coef = (
            pochhammer(alpha + beta + n + 1, k)
            * pochhammer(alpha + k + 1, n - k)
            / (factorial(k) * factorial(n - k))
        )
        acc = acc + coef * half_xm1 ** k
    return acc


def _gegenbauer_explicit(n: int, lam: Fraction) -> Poly:
    ratio = pochhammer(2 * lam, n) / pochhammer(lam + _HALF, n)
    return ratio * _jacobi_explicit(n, lam - _HALF, lam - _HALF)


def _legendre_explicit(n: int) -> Poly:
    half_xm1 = Poly((Fraction(-1, 2), _HALF))
    acc = Poly.zero()
    for k in range(n + 1):
        coef = Fraction(
            factorial(n + k), factorial(n - k) * factorial(k) ** 2
        )
        acc = acc + coef * half_xm1 ** k
    return acc


def _cheb_t_explicit(n: int) -> Poly:
    # 2F1(-n, n; 1/2; (1-x)/2), terminating
    half_1mx = Poly((_HALF, Fraction(-1, 2)))
    acc = Poly.zero()
    for k in range(n + 1):
        coef = (
            pochhammer(Fraction(-n), k)
            * pochhammer(Fraction(n), k)
            / (pochhammer(_HALF, k) * factorial(k))
        )
        acc = acc + coef * half_1mx ** k
    return acc


def _cheb_u_explicit(n: int) -> Poly:
    # (n+1) 2F1(-n, n+2; 3/2; (1-x)/2), terminating
    half_1mx = Poly((_HALF, Fraction(-1, 2)))
    acc = Poly.zero()
    for k in range(n + 1):
        coef = (
            pochhammer(Fraction(-n), k)
            * pochhammer(Fraction(n + 2), k)
            / (pochhammer(Fraction(3, 2), k) * factorial(k))
        )
        acc = acc + coef * half_1mx ** k
    return (n + 1) * acc


def _laguerre_explicit(n: int, alpha: Scalar) -> Poly:
    acc = Poly.zero()
    for k in range(n + 1):
        coef = (
            (-1) ** k
            * pochhammer(alpha + k + 1, n - k)
            / (factorial(n - k) * factorial(k))
        )
        acc = acc + coef * _X ** k
    return acc


def _hermite_explicit(n: int) -> Poly:
    # t^n coefficient of exp(xt) * exp(-t^2/4)
    acc = Poly.zero()
    for k in range(n // 2 + 1):
        coef = Fraction(-1, 4) ** k / Fraction(
            factorial(k) * factorial(n - 2 * k)
        )
        acc = acc + coef * _X ** (n - 2 * k)
    return acc


def _binom_poly(k: int) -> Poly:
    # binomial(x, k) = x(x-1)...(x-k+1)/k!
    return pochhammer_poly(Fraction(-(k - 1)), 1, k) * Fraction(1, factorial(k))


def _charlier_explicit(n: int, a: Fraction) -> Poly:
    # t^n coefficient of exp(-a t) * (1+t)^x
    acc = Poly.zero()
    for k in range(n + 1):
        acc = acc + ((-a) ** (n - k) / Fraction(factorial(n - k))) * _binom_poly(k)
    return acc


def _meixner_explicit(n: int, beta_m: Fraction, c: Fraction) -> Poly:
    # t^n coefficient of (1-t/c)^x * (1-t)^(-x-beta):
    # sum_k binom(x,k)(-1/c)^k * (x+beta)_{n-k}/(n-k)!
    acc = Poly.zero()
    for k in range(n + 1):
        acc = acc + (
            _binom_poly(k)
            * ((-1 / c) ** k)
            * pochhammer_poly(beta_m, 1, n - k)
            * Fraction(1, factorial(n - k))
        )
    return acc


def _mp_explicit(n: int, lam: Fraction, phase: GaussianRational) -> Poly:
    # t^n coefficient of (1-pt)^(-lam+ix) (1-conj(p)t)^(-lam-ix):
    # sum_k (lam-ix)_k p^k/k! * (lam+ix)_{n-k} conj(p)^{n-k}/(n-k)!
    pbar = conj(phase)
    acc = Poly.zero()
    for k in range(n + 1):
        acc = acc + (
            pochhammer_poly(lam, -I, k)
            * pochhammer_poly(lam, I, n - k)
            * (phase ** k * pbar ** (n - k) / (factorial(k) * factorial(n - k)))
        )
    return acc


#: family members kept by the constructor cache; bounded so that a process
#: serving ever new parameters does not grow without limit
FAMILY_CACHE_SIZE = 1024


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _polynomial_cached(family: str, n: int, params: ParamSet) -> Poly:
    if family == JACOBI:
        return _jacobi_explicit(n, params.alpha, params.beta)
    if family == GEGENBAUER:
        return _gegenbauer_explicit(n, params.lam)
    if family == CHEBYSHEV_T:
        return _cheb_t_explicit(n)
    if family == CHEBYSHEV_U:
        return _cheb_u_explicit(n)
    if family == LEGENDRE:
        return _legendre_explicit(n)
    if family == LAGUERRE:
        return _laguerre_explicit(n, params.alpha)
    if family == HERMITE:
        return _hermite_explicit(n)
    if family == CHARLIER:
        return _charlier_explicit(n, params.a)
    if family == MEIXNER:
        return _meixner_explicit(n, params.beta_m, params.c)
    if family == MEIXNER_POLLACZEK:
        return _mp_explicit(n, params.lam, params.phase)
    raise ParamError(f"unknown family {family!r}")


def polynomial(family: str, n: int, params: ParamSet = EMPTY_PARAMS) -> Poly:
    """The n-th member of a family, by its explicit coefficient sum."""
    if n < 0:
        raise ValueError("polynomial index must be >= 0")
    validate_params(family, params, n)
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
    total = Fraction(0)
    for k, coeff in enumerate(p.coeffs):
        coeff = as_rational(coeff)
        if k % 2 == 0:
            total += coeff * as_rational(pochhammer(_HALF, k // 2))
    return total


def jacobi_poly_beta(
    n: int, alpha: Fraction, beta0: Fraction, beta1: Fraction, x0: Fraction
) -> Poly:
    """Jacobi sum with a degree-1 polynomial beta0 + beta1*x in the beta
    slot, evaluated at the scalar argument x0; the result is a Poly in x.

    Mechanically well-defined: the defining sum is a finite product of
    Pochhammers, so a polynomial parameter just promotes each factor to a
    polynomial via pochhammer_poly.
    """
    half = (x0 - 1) / 2
    acc = Poly.zero()
    for k in range(n + 1):
        rising = pochhammer_poly(n + alpha + beta0 + 1, beta1, k)
        coef = (
            pochhammer(alpha + k + 1, n - k)
            * half ** k
            / (factorial(k) * factorial(n - k))
        )
        acc = acc + coef * rising
    return acc


def relation_check(relation: str, n: int, params: ParamSet = EMPTY_PARAMS) -> bool:
    """Verify one of the three inter-family relations at index n.

    rel1: G_n^(lam) = (2 lam)_n/(lam+1/2)_n * P_n^(lam-1/2, lam-1/2)
          (Gegenbauer side taken from the generating function so the two
          sides stay independent);
    rel2: P_n = G_n^(1/2);
    rel3: M_n^(beta)(x; c) = P_n^(beta-1, -n-beta-x)((2-c)/c).
    """
    if relation == "rel1":
        lam = params.lam
        validate_params(GEGENBAUER, ParamSet(lam=lam), n)
        via_series = expand_generating_function(
            GEGENBAUER, ParamSet(lam=lam), n
        ).coeff(n)
        ratio = pochhammer(2 * lam, n) / pochhammer(lam + _HALF, n)
        via_jacobi = ratio * polynomial(
            JACOBI, n, ParamSet(alpha=lam - _HALF, beta=lam - _HALF)
        )
        return via_series == via_jacobi
    if relation == "rel2":
        return polynomial(LEGENDRE, n) == polynomial(
            GEGENBAUER, n, ParamSet(lam=_HALF)
        )
    if relation == "rel3":
        beta_m, c = params.beta_m, params.c
        if c == 0:
            raise ParamError("rel3 requires c != 0")
        meixner = polynomial(MEIXNER, n, ParamSet(beta_m=beta_m, c=c))
        jacobi_side = jacobi_poly_beta(
            n,
            alpha=beta_m - 1,
            beta0=Fraction(-n) - beta_m,
            beta1=Fraction(-1),
            x0=(2 - c) / c,
        )
        return meixner == jacobi_side
    raise ValueError(f"unknown relation {relation!r}; expected rel1, rel2 or rel3")
