"""Reference values for the benchmark's output checks, kept apart from opinv.

Every family is evaluated by its three-term recurrence in opinv's
normalizations (the generating functions listed in ``opinv.families``), over
plain ``Fraction`` values, Gaussian-rational pairs (:class:`QI`) or
coefficient lists (:class:`RefPoly`).  Nothing here imports opinv, so a fault
in opinv cannot hide in a check that reuses its code.

Parameters are plain dicts of ``Fraction`` values keyed like opinv's
``ParamSet`` fields; the Meixner-Pollaczek phase is a ``(re, im)`` pair.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction


class QI:
    """A Gaussian rational re + im*i as a pair of Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def _of(v):
        return v if isinstance(v, QI) else QI(v)

    def __add__(self, other):
        if isinstance(other, RefPoly):
            return NotImplemented
        o = QI._of(other)
        return QI(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-QI._of(other))

    def __rsub__(self, other):
        return QI._of(other) - self

    def __mul__(self, other):
        if isinstance(other, RefPoly):
            return NotImplemented
        o = QI._of(other)
        return QI(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QI)):
            o = QI._of(other)
            return self.re == o.re and self.im == o.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"QI({self.re}, {self.im})"


class RefPoly:
    """Dense coefficient list, ascending by degree, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @staticmethod
    def _of(v):
        return v if isinstance(v, RefPoly) else RefPoly((v,))

    def __add__(self, other):
        a, b = self.coeffs, RefPoly._of(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return RefPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return RefPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-RefPoly._of(other))

    def __rsub__(self, other):
        return RefPoly._of(other) - self

    def __mul__(self, other):
        a, b = self.coeffs, RefPoly._of(other).coeffs
        if not a or not b:
            return RefPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return RefPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, RefPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    __hash__ = None

    def derivative(self, order=1):
        c = list(self.coeffs)
        for _ in range(order):
            c = [k * v for k, v in enumerate(c)][1:]
        return RefPoly(c)

    def __call__(self, x0):
        return evaluate(self.coeffs, x0)

    def __repr__(self):
        return f"RefPoly({[str(c) for c in self.coeffs]})"


X = RefPoly((0, 1))


def evaluate(coeffs, x0):
    """Horner evaluation of an ascending coefficient sequence at x0."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x0 + c
    return acc


# ---------------------------------------------------------------------------
# three-term recurrences
# ---------------------------------------------------------------------------

def _recurrence(family, params):
    """(P_1 as (c0, c1), step) with step(n) = (d, a0, a1, b) such that
    d * P_{n+1} = (a0 + a1*x) P_n - b * P_{n-1} for n >= 1."""
    F = Fraction
    if family == "hermite":  # exp(xt - t^2/4)
        return (0, 1), lambda n: (n + 1, 0, 1, F(1, 2))
    if family == "laguerre":  # (1-t)^(-a-1) exp(xt/(t-1))
        a = params["alpha"]
        return (1 + a, -1), lambda n: (n + 1, 2 * n + 1 + a, -1, n + a)
    if family == "gegenbauer":  # (1-2xt+t^2)^(-lam)
        lam = params["lam"]
        return (0, 2 * lam), lambda n: (n + 1, 0, 2 * (n + lam), n + 2 * lam - 1)
    if family == "chebyshev_t":
        return (0, 1), lambda n: (1, 0, 2, 1)
    if family == "chebyshev_u":
        return (0, 2), lambda n: (1, 0, 2, 1)
    if family == "legendre":
        return (0, 1), lambda n: (n + 1, 0, 2 * n + 1, n)
    if family == "jacobi":
        a, b = params["alpha"], params["beta"]
        s = a + b

        def step(n):
            return (
                2 * (n + 1) * (n + s + 1) * (2 * n + s),
                (2 * n + s + 1) * (a * a - b * b),
                (2 * n + s + 1) * (2 * n + s + 2) * (2 * n + s),
                2 * (n + a) * (n + b) * (2 * n + s + 2),
            )

        return ((a - b) / 2, (s + 2) / 2), step
    if family == "charlier":  # exp(-a t) (1+t)^x
        a = params["a"]
        return (-a, 1), lambda n: (n + 1, -a - n, 1, a)
    if family == "meixner":  # (1-t/c)^x (1-t)^(-x-beta)
        beta, c = params["beta_m"], params["c"]
        return (beta, 1 - 1 / c), lambda n: (c * (n + 1), (c + 1) * n + beta * c, c - 1, n - 1 + beta)
    if family == "meixner_pollaczek":  # (1-pt)^(-lam+ix) (1-conj(p)t)^(-lam-ix)
        lam = params["lam"]
        pr, pi = params["phase"]
        return (2 * lam * pr, 2 * pi), lambda n: (n + 1, 2 * (n + lam) * pr, 2 * pi, n - 1 + 2 * lam)
    raise ValueError(f"unknown family {family!r}")


def members(family, params, n_max, x=X):
    """[P_0(x), ..., P_{n_max}(x)]; x is a Fraction, a QI or X (coefficient lists)."""
    (c0, c1), step = _recurrence(family, params)
    one = x * 0 + 1
    out = [one, c0 + c1 * x]
    for n in range(1, n_max):
        d, a0, a1, b = step(n)
        out.append(((a0 + a1 * x) * out[n] - b * out[n - 1]) * (1 / Fraction(d)))
    return out[: n_max + 1]


def member(family, params, n, x=X):
    return members(family, params, n, x)[n]


# ---------------------------------------------------------------------------
# delta-perturbed Hermite family
# ---------------------------------------------------------------------------

def pochhammer(a, n):
    out = Fraction(1)
    for m in range(n):
        out *= a + m
    return out


def kernel_at_zero(n):
    """K_n(0,0) = sum_{k<=n} 2^k k! H_k(0)^2."""
    h0 = members("hermite", {}, n, Fraction(0))
    return sum((2 ** k * math.factorial(k) * h0[k] ** 2 for k in range(n + 1)), Fraction(0))


def kernel_at_zero_closed(m):
    """K_2m(0,0) = (3/2)_m / m!."""
    return pochhammer(Fraction(3, 2), m) / math.factorial(m)


def alpha_even_closed(m):
    """alpha_2m = 4 (5/2)_{m-1} / (m-1)! for m >= 1, alpha_0 = 0."""
    if m == 0:
        return Fraction(0)
    return 4 * pochhammer(Fraction(5, 2), m - 1) / math.factorial(m - 1)


def perturbation_q(n):
    """Q_n = H_n K_{n-1}(0,0) - H_n(0) sum_{k<n} 2^k k! H_k(0) H_k, Q_0 = 0."""
    if n == 0:
        return RefPoly()
    hs = members("hermite", {}, n)
    h0 = [h(Fraction(0)) for h in hs]
    tail = RefPoly()
    for k in range(n):
        tail = tail + (2 ** k * math.factorial(k) * h0[k]) * hs[k]
    return kernel_at_zero(n - 1) * hs[n] - h0[n] * tail


@functools.lru_cache(maxsize=None)
def hermite(n):
    return member("hermite", {}, n)


def de_residual(n, a_coeffs, q_coeffs, alpha_n, x0, m0):
    """M sum_{k<=n} a_k y^(k) + y'' - 2x y' + (2n + M alpha_n) y  at (x0, M0),
    with y = H_n + M Q_n; a_coeffs[k-1] is the coefficient list of a_k."""
    d = hermite(n) + m0 * RefPoly(q_coeffs)
    y = []  # y^(k)(x0), k = 0..max(n, 2)
    for _ in range(max(n, 2) + 1):
        y.append(d(x0))
        d = d.derivative()
    total = y[2] - 2 * x0 * y[1] + (2 * n + m0 * alpha_n) * y[0]
    for k in range(1, n + 1):
        total += m0 * evaluate(a_coeffs[k - 1], x0) * y[k]
    return total


# ---------------------------------------------------------------------------
# text form of opinv's JSON output
# ---------------------------------------------------------------------------

def parse_scalar(text):
    """Parse "p/q" or "a/b+c/d*i" (either part may be absent)."""
    if not text.endswith("i"):
        return Fraction(text)
    body = text[:-1].rstrip("*")
    k = max(body.rfind("+"), body.rfind("-"))
    if k <= 0:
        return QI(0, Fraction(body))
    return QI(Fraction(body[:k]), Fraction(body[k:]))


def parse_poly(obj):
    return RefPoly(parse_scalar(s) for s in obj["coeffs"])
