"""Exact scalar arithmetic over the rationals and the Gaussian rationals.

Rationals are plain ``fractions.Fraction`` values (always reduced, positive
denominator).  :class:`GaussianRational` extends them with the imaginary
unit; it interoperates with ``Fraction``/``int`` through the reflected
operators and compares (and hashes) equal to a ``Fraction`` whenever its
imaginary part is zero, so mixed coefficient sequences stay canonical.

The text form used on every external boundary is ``"p/q"`` for rationals
(``/q`` omitted when the denominator is 1) and ``"a/b+c/d*i"`` for Gaussian
rationals (either part omitted when zero).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Union


class GaussianRational:
    """An element of Q(i): a pair of reduced rationals (re, im)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- ring structure -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (GaussianRational(1) / self) ** (-n)
        return binary_power(self, n, GaussianRational(1))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


#: The imaginary unit.
I = GaussianRational(0, 1)

Scalar = Union[Fraction, GaussianRational]
ScalarLike = Union[int, Fraction, GaussianRational]


def ensure_scalar(v: ScalarLike) -> Scalar:
    """Normalize an int/Fraction/GaussianRational into a canonical scalar."""
    if isinstance(v, (Fraction, GaussianRational)):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"not an exact scalar: {v!r}")


def conj(s: ScalarLike) -> Scalar:
    s = ensure_scalar(s)
    if isinstance(s, GaussianRational):
        return s.conjugate()
    return s


def real_part(s: ScalarLike) -> Fraction:
    s = ensure_scalar(s)
    return s.re if isinstance(s, GaussianRational) else s


def imag_part(s: ScalarLike) -> Fraction:
    s = ensure_scalar(s)
    return s.im if isinstance(s, GaussianRational) else Fraction(0)


def as_rational(s: ScalarLike) -> Fraction:
    """Demote a scalar to Fraction; rejects nonzero imaginary parts."""
    s = ensure_scalar(s)
    if isinstance(s, GaussianRational):
        if s.im != 0:
            raise ValueError(f"scalar has nonzero imaginary part: {s}")
        return s.re
    return s


def binary_power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply in any ring: one product
    per set bit after the first, and one squaring per bit below the top."""
    if n == 0:
        return one
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


# -- combinatorial helpers ----------------------------------------------

factorial = math.factorial


def rising_factorials(a, n: int) -> list:
    """[(a)_0, (a)_1, ..., (a)_n] for a scalar or Poly a, each entry the one
    before times (a + m); an int a counts as a Fraction."""
    from .poly import Poly  # poly imports this module

    if n < 0:
        raise ValueError("pochhammer requires n >= 0")
    if isinstance(a, Poly):
        one = Poly.one()
    else:
        a, one = ensure_scalar(a), Fraction(1)
    return list(accumulate(range(n), lambda prefix, m: prefix * (a + m), initial=one))


def pochhammer(a: ScalarLike, n: int) -> Scalar:
    """Rising factorial (a)_n = a(a+1)...(a+n-1); (a)_0 = 1."""
    return rising_factorials(a, n)[-1]


def pochhammer_poly(a0: ScalarLike, a1: ScalarLike, n: int):
    """Rising factorial of the degree-1 polynomial a0 + a1*x.

    Returns the Poly  prod_{m=0}^{n-1} (a0 + m + a1*x),  of degree n when
    a1 != 0 and the constant pochhammer(a0, n) when a1 == 0.
    """
    from .poly import Poly

    return rising_factorials(Poly((a0, a1)), n)[-1]


# -- text form ------------------------------------------------------------

def format_scalar(s: ScalarLike) -> str:
    """Render a scalar as "p/q" or "a/b+c/d*i" (zero parts omitted)."""
    s = ensure_scalar(s)
    if isinstance(s, GaussianRational):
        if s.im == 0:
            return str(s.re)
        im_str = f"{abs(s.im)}*i"
        if s.re == 0:
            return im_str if s.im > 0 else f"-{im_str}"
        sign = "+" if s.im > 0 else "-"
        return f"{s.re}{sign}{im_str}"
    return str(s)


def parse_scalar(text: str) -> Scalar:
    """Parse the text form produced by :func:`format_scalar`."""
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty scalar")
    if text.endswith("i"):
        body = text[:-1].rstrip("*")
        # Split off the imaginary coefficient at the last top-level +/-.
        split = -1
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "+-/":
                split = pos
                break
        if split > 0:
            re_str, im_str = body[:split], body[split:]
        else:
            re_str, im_str = "", body
        if im_str in ("", "+"):
            im = Fraction(1)
        elif im_str == "-":
            im = Fraction(-1)
        else:
            im = Fraction(im_str)
        re = Fraction(re_str) if re_str else Fraction(0)
        return GaussianRational(re, im)
    return Fraction(text)
