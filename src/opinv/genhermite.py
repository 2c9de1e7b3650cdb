"""Dirac-delta-perturbed Hermite polynomials and the coefficients of the
infinite-order differential equation they satisfy.

The perturbed family is H_n + M*Q_n with Q_n built from the reproducing
kernels K_n(x, y) = sum 2^k k! H_k(x) H_k(y).  The odd eigenvalue
parameters are free; the even ones are pinned by the kernel values.  The
equation coefficients a_k are the Hermite inverse of opinv.inversion applied
to the right-hand sides F_n.  They are verified per degree by expanding the
equation as a polynomial in the formal mass variable M (degree <= 2) and
checking every M-coefficient vanishes identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple

from .exact import factorial, pochhammer
from .families import HERMITE, CheckFailure, polynomial
from .inversion import apply_hermite_inverse
from .poly import Poly


def hermite(n: int) -> Poly:
    return polynomial(HERMITE, n)


@lru_cache(maxsize=None)
def hermite_at_zero(n: int) -> Fraction:
    return Fraction(hermite(n)(Fraction(0)))


def kernel(n: int, y0: Fraction = Fraction(0)) -> Poly:
    """K_n(x, y0) = sum_{k<=n} 2^k k! H_k(x) H_k(y0)."""
    if n < 0:
        raise ValueError("kernel index must be >= 0")
    acc = Poly.zero()
    for k in range(n + 1):
        weight = Fraction(2 ** k * factorial(k)) * hermite(k)(y0)
        acc = acc + weight * hermite(k)
    return acc


def kernel_at_zero(n: int) -> Fraction:
    """K_n(0, 0) = sum_{k<=n} 2^k k! H_k(0)^2, a scalar sum; equals
    (3/2)_m / m! for n in {2m, 2m+1}."""
    if n < 0:
        raise ValueError("kernel index must be >= 0")
    return sum(2 ** k * factorial(k) * hermite_at_zero(k) ** 2 for k in range(n + 1))


def q_coefficient(n: int, k: int) -> Fraction:
    """Expansion coefficients of Q_n over the Hermite basis:
    q_{n,n} = K_{n-1}(0,0), q_{n,k} = -2^k k! H_k(0) H_n(0) for k < n."""
    if not (1 <= n and 0 <= k <= n):
        raise ValueError("q_coefficient requires 1 <= n and 0 <= k <= n")
    if k == n:
        return kernel_at_zero(n - 1)
    return -Fraction(2 ** k * factorial(k)) * hermite_at_zero(k) * hermite_at_zero(n)


@lru_cache(maxsize=None)
def Q_poly(n: int) -> Poly:
    """Q_n = sum_k q_{n,k} H_k; Q_0 = 0."""
    if n == 0:
        return Poly.zero()
    acc = Poly.zero()
    for k in range(n + 1):
        q = q_coefficient(n, k)
        if q != 0:
            acc = acc + q * hermite(k)
    return acc


def Q_det_form(n: int) -> Poly:
    """The 2x2 kernel determinant form of Q_n:
    H_n(x) K_{n-1}(0,0) - H_n(0) K_{n-1}(x,0)."""
    if n == 0:
        return Poly.zero()
    return hermite(n) * kernel_at_zero(n - 1) - hermite_at_zero(n) * kernel(n - 1)


def alpha_even(n: int) -> Fraction:
    """alpha_{2n}: the eigenvalue-gap sum, checked equal to the closed
    form 4 * (5/2)_{n-1} / (n-1)! for n >= 1 (CheckFailure otherwise);
    alpha_0 = 0."""
    if n < 0:
        raise ValueError("alpha_even requires n >= 0")
    if n == 0:
        return Fraction(0)
    # lambda_{2j} - lambda_{2j-2} = 4 with lambda_m = 2m
    sum_form = sum((4 * q_coefficient(2 * j, 2 * j) for j in range(1, n + 1)), Fraction(0))
    closed = 4 * Fraction(pochhammer(Fraction(5, 2), n - 1)) / factorial(n - 1)
    if sum_form != closed:
        raise CheckFailure(f"alpha_{2 * n}: sum form {sum_form} != closed form {closed}")
    return sum_form


@dataclass(frozen=True)
class GenHermiteConfig:
    """odd_alphas[m] is the free parameter alpha_{2m+1}; defaults to zeros."""

    max_n: int
    odd_alphas: Tuple[Fraction, ...] = ()

    def __post_init__(self):
        if self.max_n < 0:
            raise ValueError(f"max_n must be at least 0, got {self.max_n}")
        for value in self.odd_alphas:
            if not isinstance(value, (int, Fraction)):
                raise ValueError(f"odd alphas must be ints or Fractions, got {value!r}")
        needed = (self.max_n + 1) // 2
        if not self.odd_alphas:
            object.__setattr__(self, "odd_alphas", (Fraction(0),) * max(needed, 1))
        else:
            object.__setattr__(
                self, "odd_alphas", tuple(Fraction(v) for v in self.odd_alphas)
            )
        if len(self.odd_alphas) < needed:
            raise ValueError(
                f"need at least {needed} odd alphas for max_n={self.max_n}"
            )


def alpha(n: int, config: GenHermiteConfig) -> Fraction:
    if n % 2 == 1:
        m = (n - 1) // 2
        if m >= len(config.odd_alphas):
            raise ValueError(f"alpha_{n} exceeds the configured odd alphas")
        return config.odd_alphas[m]
    return alpha_even(n // 2)


def rhs_F(n: int, config: GenHermiteConfig) -> Poly:
    """Right-hand side of row n:
    F_{2m+1} = -alpha_{2m+1} H_{2m+1};
    F_{2m}   = -alpha_{2m} H_{2m} - 4 sum_k (m-k) q_{2m,2k} H_{2k}."""
    if not 1 <= n <= config.max_n:
        raise ValueError(f"rhs_F requires 1 <= n <= max_n, got n={n}")
    if n % 2 == 1:
        return -alpha(n, config) * hermite(n)
    m = n // 2
    acc = -alpha(n, config) * hermite(n)
    for k in range(m + 1):
        q = q_coefficient(n, 2 * k)
        if q != 0 and m - k != 0:
            acc = acc - 4 * (m - k) * q * hermite(2 * k)
    return acc


def de_coefficients(config: GenHermiteConfig) -> Tuple[Poly, ...]:
    """a_1..a_{max_n}: the catalog's Hermite inverse applied to F_1..F_{max_n},
    a_k = sum_j i^(k-j) H_{k-j}(ix) F_j.  Under the all-zero odd-alpha
    default, deg(a_k) <= k."""
    return apply_hermite_inverse([rhs_F(j, config) for j in range(1, config.max_n + 1)])


def degree_bound_report(config: GenHermiteConfig) -> Dict[int, int]:
    """Map k -> deg(a_k) for any k violating deg(a_k) <= k (empty = all good)."""
    return {
        k: a.degree
        for k, a in enumerate(de_coefficients(config), start=1)
        if a.degree > k
    }


@dataclass(frozen=True)
class GenHermiteModel:
    config: GenHermiteConfig
    Q_polys: Tuple[Poly, ...]  # Q_0 .. Q_max_n
    alphas: Tuple[Fraction, ...]  # alpha_0 .. alpha_max_n
    a_coeffs: Tuple[Poly, ...]  # a_1 .. a_max_n


def build_model(config: GenHermiteConfig) -> GenHermiteModel:
    return GenHermiteModel(
        config=config,
        Q_polys=tuple(Q_poly(n) for n in range(config.max_n + 1)),
        alphas=tuple(alpha(n, config) for n in range(config.max_n + 1)),
        a_coeffs=de_coefficients(config),
    )


def verify_de(n: int, config: GenHermiteConfig, model: GenHermiteModel = None) -> dict:
    """Expand  M sum_k a_k y^(k) + y'' - 2x y' + (2n + M alpha_n) y  with
    y = H_n + M Q_n in the formal variable M and report the coefficients
    (each must vanish identically):

        M^0: H'' - 2x H' + 2n H
        M^1: Q'' - 2x Q' + 2n Q + alpha_n H + sum_k a_k H^(k)
        M^2: alpha_n Q + sum_k a_k Q^(k)

    Only a_k with k <= n contribute: D^k annihilates degree-n polynomials
    beyond that.
    """
    if model is None:
        model = build_model(config)
    if n > config.max_n:
        raise ValueError(f"n={n} exceeds max_n={config.max_n}")
    h, q = hermite(n), model.Q_polys[n]

    def hermite_operator(p: Poly) -> Poly:  # p'' - 2x p' + 2n p
        return p.derivative(2) - Poly((0, 2)) * p.derivative() + 2 * n * p

    def mass_terms(p: Poly) -> Poly:  # alpha_n p + sum_k a_k p^(k)
        terms = (a * p.derivative(k) for k, a in enumerate(model.a_coeffs[:n], start=1))
        return sum(terms, model.alphas[n] * p)

    residuals = {
        "M^0": hermite_operator(h),
        "M^1": hermite_operator(q) + mass_terms(h),
        "M^2": mass_terms(q),
    }
    status = "pass" if all(p.is_zero() for p in residuals.values()) else "fail"
    return {
        "n": n,
        "status": status,
        "residuals": {key: p.to_json() for key, p in residuals.items()},
    }
