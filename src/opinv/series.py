"""Truncated formal power series in t with Poly-in-x coefficients.

All arithmetic is exact modulo t^(order+1); no guard terms are needed and
coefficients beyond the truncation order are never consulted.  exp, log and
pow are each one O(order^2) recurrence on coefficients, which keeps the
whole engine inside one ring: rational-function arguments such as x*t/(t-1)
are expanded to series before use.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .exact import GaussianRational, ScalarLike
from .poly import Poly


class SeriesDomainError(ValueError):
    """A series operation was applied outside its domain of definition."""


def _as_poly(c) -> Poly:
    return c if isinstance(c, Poly) else Poly.const(c)


class TruncSeries:
    """Formal power series sum_{n=0}^{order} c_n(x) t^n, exact mod t^(order+1)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[Union[Poly, ScalarLike]], order: int):
        if order < 0:
            raise ValueError("series order must be >= 0")
        polys = [_as_poly(c) for c in coeffs][: order + 1]
        polys += [Poly.zero()] * (order + 1 - len(polys))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(polys))

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls((Poly.one(),), order)

    def coeff(self, n: int) -> Poly:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient index {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def _coerce(self, other):
        if isinstance(other, TruncSeries):
            if other.order != self.order:
                raise ValueError("mixed truncation orders")
            return other
        if isinstance(other, (Poly, int, Fraction, GaussianRational)):
            return TruncSeries((_as_poly(other),), self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TruncSeries(
            (a + b for a, b in zip(self.coeffs, o.coeffs)), self.order
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return TruncSeries((-p for p in self.coeffs), self.order)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = self.order
        out = [Poly.zero()] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(n + 1 - i):
                b = o.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TruncSeries(out, n)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def scale(self, s: Union[Poly, ScalarLike]) -> "TruncSeries":
        s = _as_poly(s)
        return TruncSeries((s * p for p in self.coeffs), self.order)

    def invert(self) -> "TruncSeries":
        """Multiplicative inverse; requires constant term 1."""
        self._require_const("invert", Poly.one())
        n = self.order
        out = [Poly.zero()] * (n + 1)
        out[0] = Poly.one()
        for m in range(1, n + 1):
            acc = Poly.zero()
            for k in range(1, m + 1):
                if not self.coeffs[k].is_zero():
                    acc = acc + self.coeffs[k] * out[m - k]
            out[m] = -acc
        return TruncSeries(out, n)

    def exp(self) -> "TruncSeries":
        """exp of a series g with constant term 0, from E' = g'E (Brent &
        Kung, J. ACM 1978): m E_m = sum_{k=1}^{m} k g_k E_{m-k}."""
        self._require_const("exp", Poly.zero())
        n = self.order
        kg = [k * g for k, g in enumerate(self.coeffs)]
        out = [Poly.one()]
        for m in range(1, n + 1):
            acc = sum((kg[k] * out[m - k] for k in range(1, m + 1)), Poly.zero())
            out.append(Fraction(1, m) * acc)
        return TruncSeries(out, n)

    def log(self) -> "TruncSeries":
        """log of a series s with constant term 1, from s L' = s':
        m L_m = m s_m - sum_{k=1}^{m-1} k L_k s_{m-k}."""
        self._require_const("log", Poly.one())
        n = self.order
        s = self.coeffs
        mL = [Poly.zero()]  # m * L_m
        for m in range(1, n + 1):
            mL.append(m * s[m] - sum((mL[k] * s[m - k] for k in range(1, m)), Poly.zero()))
        return TruncSeries([mL[0]] + [Fraction(1, m) * mL[m] for m in range(1, n + 1)], n)

    def pow(self, gamma: Union[Poly, ScalarLike]) -> "TruncSeries":
        """S^gamma for a scalar exponent in Q(i) or a polynomial exponent
        gamma(x); requires constant term 1.  J. C. P. Miller's recurrence
        (Knuth, TAOCP Vol. 2, 4.7), m P_m = sum_{k=1}^{m} ((gamma+1) k - m) q_k,
        as P_m = (gamma+1)/m sum_k k q_k - sum_k q_k with q_k = s_k P_{m-k}."""
        self._require_const("pow", Poly.one())
        n = self.order
        s = self.coeffs
        gamma_1 = gamma + 1
        out = [Poly.one()]
        for m in range(1, n + 1):
            products = [s[k] * out[m - k] for k in range(1, m + 1)]
            weighted = sum((k * q for k, q in enumerate(products, 1)), Poly.zero())
            out.append(gamma_1 * Fraction(1, m) * weighted - sum(products, Poly.zero()))
        return TruncSeries(out, n)

    def _require_const(self, op: str, const: Poly):
        if self.coeffs[0] != const:
            raise SeriesDomainError(
                f"{op} requires constant term {const}, got {self.coeffs[0]!r}"
            )

    def __repr__(self):
        terms = ", ".join(repr(p) for p in self.coeffs)
        return f"TruncSeries(order={self.order}, [{terms}])"
