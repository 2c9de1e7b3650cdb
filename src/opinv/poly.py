"""Dense univariate polynomials over Q and Q(i).

A Poly is stored fraction-free, as FLINT's ``fmpq_poly`` is: a tuple of
integer numerators for the real part, a second tuple for the imaginary part
only when some coefficient is non-real, and one positive common denominator.
The form is canonical -- trailing zero coefficients trimmed, the gcd of all
numerators and the denominator equal to 1, no imaginary tuple when it would
be all zero -- so equality and hashing compare the stored integers.  A sum
takes one lcm of the two denominators; a product is an integer convolution
(four of them for Q(i) operands) over the product of the denominators; each
result is reduced by a single gcd.  No ``Fraction`` is built on the way.

``Poly.coeffs``, the public view (``Fraction``, or ``GaussianRational``
where the imaginary part is nonzero), is built on first read and kept.

Everything is immutable and exact.  Multiplication is the naive O(n^2)
product: all degrees in scope are a few dozen at most and exactness is the
point, not asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Iterable, Optional, Sequence, Tuple

from .exact import (
    GaussianRational,
    Scalar,
    ScalarLike,
    binary_power,
    ensure_scalar,
    format_scalar,
    imag_part,
    parse_scalar,
    real_part,
)

_ZERO = Fraction(0)


def _scalar_parts(c: ScalarLike) -> Tuple[int, int, int]:
    """(real numerator, imaginary numerator, common denominator) of a scalar."""
    if isinstance(c, Fraction):
        return c.numerator, 0, c.denominator
    if isinstance(c, int):
        return c, 0, 1
    if isinstance(c, GaussianRational):
        re, im = c.re, c.im
        den = lcm(re.denominator, im.denominator)
        return (
            re.numerator * (den // re.denominator),
            im.numerator * (den // im.denominator),
            den,
        )
    raise TypeError(f"not an exact scalar: {c!r}")


def _canon(re: Sequence[int], im: Optional[Sequence[int]], den: int):
    """Canonical (re, im, den) of the polynomial sum (re[k] + i*im[k]) x^k / den.

    ``im`` is None or as long as ``re``; den must be positive.
    """
    if im is not None and not any(im):
        im = None
    n = len(re)
    if im is None:
        while n and not re[n - 1]:
            n -= 1
        re = re[:n]
        g = gcd(*re, den)
    else:
        while not (re[n - 1] or im[n - 1]):
            n -= 1
        re, im = re[:n], im[:n]
        g = gcd(*re, *im, den)
    if g != 1:
        re = [c // g for c in re]
        if im is not None:
            im = [c // g for c in im]
        den //= g
    return tuple(re), None if im is None else tuple(im), den


def _conv(a: Sequence[int], b: Sequence[int]) -> list:
    """Integer convolution: the coefficients of the product of a and b."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        return [x * c for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for j, c in enumerate(b):
        if c:
            for k, x in enumerate(a, j):
                out[k] += x * c
    return out


def _combine(a: Sequence[int], ma: int, b: Sequence[int], mb: int) -> list:
    """ma*a + mb*b, coefficientwise."""
    if len(a) < len(b):
        a, ma, b, mb = b, mb, a, ma
    out = list(a) if ma == 1 else [c * ma for c in a]
    for k, c in enumerate(b):
        out[k] += c * mb
    return out


class Poly:
    """Dense polynomial in x, coefficients ascending by degree.

    Trailing zeros are trimmed; the zero polynomial has an empty
    coefficient tuple and degree -1.
    """

    __slots__ = ("_re", "_im", "_den", "_coeffs")

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        parts = [_scalar_parts(c) for c in coeffs]
        den = lcm(*[d for _, _, d in parts])
        re = [r * (den // d) for r, _, d in parts]
        im = [i * (den // d) for _, i, d in parts]
        re, im, den = _canon(re, im, den)
        _set_re(self, re)
        _set_im(self, im)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return _ZERO_POLY

    @classmethod
    def one(cls) -> "Poly":
        return _ONE_POLY

    @classmethod
    def x(cls) -> "Poly":
        return _X_POLY

    @classmethod
    def const(cls, c: ScalarLike) -> "Poly":
        return cls((c,))

    # -- inspection -------------------------------------------------------

    @property
    def coeffs(self) -> Tuple[Scalar, ...]:
        """Coefficients ascending by degree: Fraction, or GaussianRational
        where the imaginary part is nonzero."""
        try:
            return self._coeffs
        except AttributeError:
            pass
        den = self._den
        if self._im is None:
            coeffs = tuple([Fraction(r, den) for r in self._re])
        else:
            coeffs = tuple(
                [
                    GaussianRational(Fraction(r, den), Fraction(i, den))
                    if i
                    else Fraction(r, den)
                    for r, i in zip(self._re, self._im)
                ]
            )
        _set_coeffs(self, coeffs)
        return coeffs

    @property
    def degree(self) -> int:
        return len(self._re) - 1

    def is_zero(self) -> bool:
        return not self._re

    def coeff(self, k: int) -> Scalar:
        return self.coeffs[k] if 0 <= k < len(self._re) else _ZERO

    def real_part(self) -> "Poly":
        if self._im is None:
            return self
        return _make(self._re, None, self._den)

    def imag_part(self) -> "Poly":
        if self._im is None:
            return _ZERO_POLY
        return _make(self._im, None, self._den)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = other if isinstance(other, Poly) else _scalar_poly(other)
        if o is None:
            return NotImplemented
        return _add(self, o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if isinstance(other, Poly) else _scalar_poly(other)
        if o is None:
            return NotImplemented
        return _add(self, o, -1)

    def __rsub__(self, other):
        o = _scalar_poly(other)
        if o is None:
            return NotImplemented
        return _add(o, self, -1)

    def __neg__(self):
        im = self._im
        return _raw(
            tuple([-c for c in self._re]),
            None if im is None else tuple([-c for c in im]),
            self._den,
        )

    def __mul__(self, other):
        o = other if isinstance(other, Poly) else _scalar_poly(other)
        if o is None:
            return NotImplemented
        ar, br = self._re, o._re
        if not ar or not br:
            return _ZERO_POLY
        ai, bi = self._im, o._im
        re = _conv(ar, br)
        if ai is None and bi is None:
            im = None
        elif bi is None:
            im = _conv(ai, br)
        elif ai is None:
            im = _conv(ar, bi)
        else:
            re = _combine(re, 1, _conv(ai, bi), -1)
            im = _combine(_conv(ar, bi), 1, _conv(ai, br), 1)
        return _make(re, im, self._den * o._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("Poly power requires a nonnegative integer")
        return binary_power(self, n, _ONE_POLY)

    def __eq__(self, other):
        o = other if isinstance(other, Poly) else _scalar_poly(other)
        if o is None:
            return NotImplemented
        return self._re == o._re and self._den == o._den and self._im == o._im

    def __hash__(self):
        return hash((self._re, self._im, self._den))

    # -- calculus and evaluation ---------------------------------------

    def derivative(self, order: int = 1) -> "Poly":
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        re, im = self._re, self._im
        if order == 0:
            return self
        if len(re) <= order:
            return _ZERO_POLY
        # D^order x^k = k!/(k-order)! x^(k-order)
        falling = []
        f = factorial(order)
        for k in range(order, len(re)):
            falling.append(f)
            f = f * (k + 1) // (k + 1 - order)
        return _make(
            [w * c for w, c in zip(falling, re[order:])],
            None if im is None else [w * c for w, c in zip(falling, im[order:])],
            self._den,
        )

    def __call__(self, x0):
        """Horner evaluation; x0 may be a scalar or a Poly (composition)."""
        if isinstance(x0, Poly):
            den, im = self._den, self._im
            acc = _ZERO_POLY
            for k in range(len(self._re) - 1, -1, -1):
                c = _make((self._re[k],), None if im is None else (im[k],), den)
                acc = acc * x0 + c
            return acc
        x0 = ensure_scalar(x0)
        acc = ensure_scalar(0)
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    # -- serialization --------------------------------------------------

    def to_json(self, var: str = "x") -> dict:
        return {"var": var, "coeffs": [format_scalar(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> "Poly":
        coeffs = obj["coeffs"]
        if not isinstance(coeffs, list):
            raise ValueError(f'"coeffs" must be a JSON list, got {coeffs!r}')
        return cls(parse_scalar(s) for s in coeffs)

    def to_latex(self, var: str = "x") -> str:
        if self.is_zero():
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if c == 0:
                continue
            cs = format_scalar(c)
            if "/" in cs or "i" in cs:
                cs = _latex_scalar(c)
            if k == 0:
                terms.append(cs)
            else:
                mono = var if k == 1 else f"{var}^{{{k}}}"
                if cs == "1":
                    terms.append(mono)
                elif cs == "-1":
                    terms.append(f"-{mono}")
                else:
                    terms.append(f"{cs}{mono}")
        out = terms[0]
        for t in terms[1:]:
            out += t if t.startswith("-") else "+" + t
        return out

    def __repr__(self):
        return f"Poly({[format_scalar(c) for c in self.coeffs]})"

    def __str__(self):
        return self.to_latex()


_set_re = Poly._re.__set__
_set_im = Poly._im.__set__
_set_den = Poly._den.__set__
_set_coeffs = Poly._coeffs.__set__
_new = object.__new__


def _raw(re: tuple, im: Optional[tuple], den: int) -> Poly:
    """A Poly from fields already in canonical form."""
    p = _new(Poly)
    _set_re(p, re)
    _set_im(p, im)
    _set_den(p, den)
    return p


def _make(re: Sequence[int], im: Optional[Sequence[int]], den: int) -> Poly:
    return _raw(*_canon(re, im, den))


def _scalar_poly(other) -> Optional[Poly]:
    """The constant Poly of an exact scalar; None for anything else."""
    if isinstance(other, (int, Fraction, GaussianRational)):
        r, i, d = _scalar_parts(other)
        return _make((r,), (i,) if i else None, d)
    return None


def _add(a: Poly, b: Poly, sign: int) -> Poly:
    """a + sign*b, sign being 1 or -1."""
    if not b._re:
        return a
    if not a._re:
        return b if sign == 1 else -b
    da, db = a._den, b._den
    if da == db:
        ma, mb, den = 1, sign, da
    else:
        g = gcd(da, db)
        ma, mb = db // g, sign * (da // g)
        den = da * ma
    re = _combine(a._re, ma, b._re, mb)
    if a._im is None and b._im is None:
        im = None
    else:
        im = _combine(
            a._im or (0,) * len(a._re), ma, b._im or (0,) * len(b._re), mb
        )
    return _make(re, im, den)


_ZERO_POLY = _raw((), None, 1)
_ONE_POLY = _raw((1,), None, 1)
_X_POLY = _raw((0, 1), None, 1)


def _latex_scalar(c: Scalar) -> str:
    re, im = real_part(c), imag_part(c)
    if im != 0:
        s = format_scalar(c).replace("*i", "i")
        return f"\\left({_frac_latex(re)}{'+' if im > 0 else '-'}{_frac_latex(abs(im))}i\\right)"
    return _frac_latex(re)


def _frac_latex(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    sign = "-" if f < 0 else ""
    return f"{sign}\\frac{{{abs(f.numerator)}}}{{{f.denominator}}}"
