"""Triangular polynomial matrices, exact inversion, and the catalog of
inversion / convolution identities, each verified to zero residual.

The catalog is one table, ``_CATALOG``, that declares each identity once: a
matrix identity by its parameters, base entries t and closed-form inverse
entries u; a convolution identity by its parameters, its residual at n and
any pole check.  The name lists and IDENTITY_PARAMS are read off it.

In eleven matrix identities t_ij and u_ij depend on m = i - j alone: the
matrices are lower-triangular Toeplitz, the Riordan arrays (g(t), t) of
Shapiro, Getu, Woan & Woodson (Discrete Appl. Math. 34, 1991), and each is
built from its column 0, every distinct entry once.  Eight of them are
self-dual, u_m(p) = t_m(sigma(p)), sometimes taken at -x: a -> -a
(Charlier), alpha -> -alpha-2 (plain Laguerre), lam -> -lam (Gegenbauer;
Meixner-Pollaczek at -x, or with phase -> conj(phase)), beta -> -beta
(Meixner), alpha -> -alpha-1 (Jacobi from ultraspherical), (alpha, beta) ->
(-alpha-2, -beta) (Jacobi from Meixner).  Only the Legendre and Chebyshev
U and T inverses are written out.  laguerre_inv and jacobi_inv shift their
parameters with i or j, so their entries are functions of (i, j).

Matrix identities are checked the strong way: the closed-form left factor
must equal the computed inverse entry by entry, not merely give U*T = I.
LowerTriPolyMatrix.invert makes no product check of its own, since forward
substitution gives self @ inverse = I by construction; the CLI's ``invert``
command, whose output no closed form checks, multiplies inverse @ matrix.

trisolve's closed forms and genhermite's a_k apply the Laguerre, Jacobi and
Hermite inverses written here; no other module restates one.

Indexing: matrices are stored 0-based, matching the i,j = 0,1,2,... of the
Charlier/Laguerre/Jacobi catalog entries; the 1-based presentation of the
Toeplitz Legendre/Chebyshev matrices differs only by a relabeling.

The Jacobi inversion couples its scalar factor to (i, j, k) jointly, so it
is not literally a product of two polynomial matrices.  Writing
(a+b+k+j+1)_{i-j+1} = (a+b+k+1)_{i+1} / (a+b+k+1)_j splits the factor into
row and column weights; normalizing both matrices to unit diagonals gives

    t_kj = (a+b+k+1)_j / (a+b+j+1)_j           * P_{k-j}^(a+j, b+j)
    u_ik = (a+b+i+1)_i (a+b+2k+1)
              / (a+b+k+1)_{i+1}                * P_{i-k}^(-a-i-1, -b-i-1)

and the literal triple sum is verified separately as well.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .exact import GaussianRational, factorial, pochhammer
from .families import (
    CHARLIER,
    CHEBYSHEV_T,
    CHEBYSHEV_U,
    GEGENBAUER,
    HERMITE,
    JACOBI,
    LAGUERRE,
    LEGENDRE,
    MEIXNER,
    MEIXNER_POLLACZEK,
    DEFAULT_PHASE,
    EMPTY_PARAMS,
    PARAM_NAMES,
    ParamError,
    ParamSet,
    PoleError,
    polynomial,
)
from .poly import Poly

_NEG_X = Poly((0, -1))


class LowerTriPolyMatrix:
    """Square lower-triangular matrix with Poly entries (implicit zeros
    above the diagonal); row i stores entries for columns 0..i."""

    __slots__ = ("size", "rows")

    def __init__(self, rows: Sequence[Sequence[Poly]]):
        rows = [tuple(row) for row in rows]
        for i, row in enumerate(rows):
            if len(row) != i + 1:
                raise ValueError(f"row {i} must have {i + 1} entries, got {len(row)}")
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "size", len(rows))

    def __setattr__(self, name, value):
        raise AttributeError("LowerTriPolyMatrix is immutable")

    @classmethod
    def from_entry_fn(cls, size: int, entry: Callable[[int, int], Poly]):
        return cls([[entry(i, j) for j in range(i + 1)] for i in range(size)])

    @classmethod
    def toeplitz(cls, column: Sequence[Poly]):
        """The matrix whose (i, j) entry is column[i - j]."""
        return cls([column[i::-1] for i in range(len(column))])

    @classmethod
    def identity(cls, size: int):
        return cls.toeplitz([Poly.one() if m == 0 else Poly.zero() for m in range(size)])

    def entry(self, i: int, j: int) -> Poly:
        if j > i:
            return Poly.zero()
        return self.rows[i][j]

    def __matmul__(self, other: "LowerTriPolyMatrix") -> "LowerTriPolyMatrix":
        if self.size != other.size:
            raise ValueError("size mismatch")
        return LowerTriPolyMatrix.from_entry_fn(
            self.size,
            lambda i, j: sum(
                (self.entry(i, k) * other.entry(k, j) for k in range(j, i + 1)),
                Poly.zero(),
            ),
        )

    def __eq__(self, other):
        if not isinstance(other, LowerTriPolyMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def is_identity(self) -> bool:
        return self == LowerTriPolyMatrix.identity(self.size)

    def invert(self) -> "LowerTriPolyMatrix":
        """Exact inverse by forward substitution.  Diagonal entries must be
        nonzero constants (polynomial division is not supported)."""
        diag = []
        for i in range(self.size):
            d = self.entry(i, i)
            if d.degree > 0 or d.is_zero():
                raise ValueError(
                    f"diagonal entry ({i},{i}) is not a nonzero constant: {d!r}"
                )
            diag.append(d.coeff(0))
        rows: List[List[Poly]] = []
        for i in range(self.size):
            row = []
            for j in range(i):
                acc = Poly.zero()
                for k in range(j, i):
                    acc = acc + self.entry(i, k) * rows[k][j]
                row.append((1 / diag[i]) * -acc)
            row.append(Poly.const(1 / diag[i]))
            rows.append(row)
        # forward substitution makes self @ inverse the identity by construction
        return LowerTriPolyMatrix(rows)

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "rows": [[p.to_json() for p in row] for row in self.rows],
        }


# ---------------------------------------------------------------------------
# identity catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Matrix:
    """A matrix identity: base entries t and the closed-form inverse u,
    functions of (m, params) for a Toeplitz identity, of (i, j, params) for
    any other.  literal, where set, is a second form of the inversion, a
    function of (i, j, params) that must equal delta_ij."""

    params: Tuple[str, ...]
    base: Callable[..., Poly]
    inverse: Callable[..., Poly]
    toeplitz: bool = True
    literal: Optional[Callable[[int, int, ParamSet], Poly]] = None


@dataclass(frozen=True)
class _Convolution:
    """A convolution or recurrence identity: its residual at n must vanish
    for n = 0..size; poles(size, params), where set, raises PoleError if
    params hit a pole of those residuals."""

    params: Tuple[str, ...]
    residual: Callable[[int, ParamSet], Poly]
    poles: Optional[Callable[[int, ParamSet], None]] = None


def _member(family: str) -> Callable[[int, ParamSet], Poly]:
    """t_m(p): the family's m-th member at the identity's parameters."""
    return lambda m, p: polynomial(family, m, p)


def _self_dual(params, base, sigma, reflect=False) -> _Matrix:
    """A Toeplitz identity whose inverse is its base at dual parameters:
    u_m(p) = t_m(sigma(p)), taken at -x where reflect is set."""

    def inverse(m: int, p: ParamSet) -> Poly:
        u = base(m, sigma(p))
        return u(_NEG_X) if reflect else u

    return _Matrix(params, base, inverse)


def _ultraspherical_jacobi(m: int, p: ParamSet) -> Poly:
    # (2a+1)_m / (a+1)_m * P_m^(a,a), a = alpha
    den = pochhammer(p.alpha + 1, m)
    if den == 0:
        raise PoleError(f"jacobi_from_ultra pole at (i,j)=({m},0)")
    return (pochhammer(2 * p.alpha + 1, m) / den) * polynomial(
        JACOBI, m, ParamSet(alpha=p.alpha, beta=p.alpha)
    )


def _jacobi_inv_base(i: int, j: int, p: ParamSet) -> Poly:
    s = p.alpha + p.beta
    den = pochhammer(s + j + 1, j)
    if den == 0:
        raise PoleError(f"jacobi_inv pole in column weight at (i,j)=({i},{j})")
    return (pochhammer(s + i + 1, j) / den) * polynomial(
        JACOBI, i - j, ParamSet(alpha=p.alpha + j, beta=p.beta + j)
    )


def _jacobi_inv_inverse(i: int, j: int, p: ParamSet) -> Poly:
    s = p.alpha + p.beta
    den = pochhammer(s + j + 1, i + 1)
    if den == 0:
        raise PoleError(f"jacobi_inv pole in row weight at (i,j)=({i},{j})")
    factor = pochhammer(s + i + 1, i) * (s + 2 * j + 1) / den
    return factor * polynomial(
        JACOBI, i - j, ParamSet(alpha=-p.alpha - i - 1, beta=-p.beta - i - 1)
    )


def _jacobi_inv_literal(i: int, j: int, p: ParamSet) -> Poly:
    """The paper's literal triple sum for the Jacobi inversion at (i, j):
    sum_k (a+b+2k+1)/(a+b+k+j+1)_{i-j+1} P_{i-k}^(-a-i-1,-b-i-1) P_{k-j}^(a+j,b+j)."""
    a, b = p.alpha, p.beta
    s = a + b
    acc = Poly.zero()
    for k in range(j, i + 1):
        den = pochhammer(s + k + j + 1, i - j + 1)
        if den == 0:
            raise PoleError(f"jacobi_inv literal pole at (i,j,k)=({i},{j},{k})")
        acc = acc + ((s + 2 * k + 1) / den) * (
            polynomial(JACOBI, i - k, ParamSet(alpha=-a - i - 1, beta=-b - i - 1))
            * polynomial(JACOBI, k - j, ParamSet(alpha=a + j, beta=b + j))
        )
    return acc


def _legendre_limit_inverse(m: int, p: ParamSet) -> Poly:
    if m == 0:
        return Poly.one()
    if m == 1:
        return _NEG_X
    b = polynomial(JACOBI, m - 1, ParamSet(alpha=Fraction(1), beta=Fraction(-1)))
    return Fraction(1, m) * (Poly((1, -1)) * b)  # (1/m)(1-x) P_{m-1}^(1,-1)


#: the band 1, -2x, 1 of the Chebyshev U inverse
_CHEB_U_BAND = (Poly.one(), Poly((0, -2)), Poly.one())


def _chebyshev_t_inverse(m: int, p: ParamSet) -> Poly:
    if m == 0:
        return Poly.one()
    if m == 1:
        return _NEG_X
    return Poly.x() ** (m - 2) * Poly((1, 0, -1))  # x^(m-2)(1-x^2)


def _hermite_inverse_factors(count: int) -> List[Poly]:
    """i^d H_d(ix) for d < count: the Hermite inverse entry u_kj depends on
    k - j = d only.  It is the t^d coefficient of exp(-xt + t^2/4), the
    reciprocal of the generating function exp(xt - t^2/4), so it is rational:
    i^d H_d(ix) = sum_k (-x)^(d-2k) / (4^k k! (d-2k)!)."""
    factors = []
    for d in range(count):
        coeffs = [0] * (d + 1)
        for k in range(d // 2 + 1):
            coeffs[d - 2 * k] = Fraction((-1) ** d, 4 ** k * factorial(k) * factorial(d - 2 * k))
        factors.append(Poly(coeffs))
    return factors


def _convolve(f: Callable[[int], Poly], g: Callable[[int], Poly], n: int) -> Poly:
    """sum_{k<=n} f(k) g(n-k), the t^n coefficient of a Cauchy product."""
    return sum((f(k) * g(n - k) for k in range(n + 1)), Poly.zero())


def apply_hermite_inverse(rhs: Sequence[Poly]) -> Tuple[Poly, ...]:
    """a_k = sum_{j<=k} i^(k-j) H_{k-j}(ix) F_j for F_1..F_N = rhs."""
    factors = _hermite_inverse_factors(len(rhs))
    return tuple(_convolve(factors.__getitem__, rhs.__getitem__, k) for k in range(len(rhs)))


def _hermite_conv_residual(n: int, p: ParamSet) -> Poly:
    # sum_k H_k(x) H_{n-k}(ix) i^{n-k}  -  delta_{n0}
    factors = _hermite_inverse_factors(n + 1)
    acc = _convolve(lambda k: polynomial(HERMITE, k), factors.__getitem__, n)
    return acc - (Poly.one() if n == 0 else Poly.zero())


def jacobi_two_var_sides(n: int, alpha: Fraction, beta: Fraction):
    """Both sides of the two-variable Jacobi identity

        sum_k (a+b+2k+1)/(a+b+k+1)_{n+1} P_k^(a,b)(x) P_{n-k}^(-n-a-1,-n-b-1)(y)
            = (1/n!) ((x-y)/2)^n

    as tuples of n+1 Poly in x, entry m being the coefficient of y^m.
    """
    s = alpha + beta
    lhs = [Poly.zero()] * (n + 1)
    for k in range(n + 1):
        den = pochhammer(s + k + 1, n + 1)
        if den == 0:
            raise PoleError(f"jacobi_two_var pole at k={k}, n={n}")
        px = ((s + 2 * k + 1) / den) * polynomial(JACOBI, k, ParamSet(alpha=alpha, beta=beta))
        py = polynomial(
            JACOBI, n - k, ParamSet(alpha=-alpha - n - 1, beta=-beta - n - 1)
        )
        for m, c in enumerate(py.coeffs):
            lhs[m] = lhs[m] + c * px
    # binomial expansion: y^m has coefficient (x/2)^(n-m) (-1/2)^m / (m! (n-m)!)
    rhs = tuple(
        Poly((0,) * (n - m) + (Fraction((-1) ** m, 2 ** n * factorial(m) * factorial(n - m)),))
        for m in range(n + 1)
    )
    return tuple(lhs), rhs


def _jacobi_two_var_residual(n: int, p: ParamSet) -> Poly:
    lhs, rhs = jacobi_two_var_sides(n, p.alpha, p.beta)
    # the first y^m coefficient of lhs - rhs of highest x-degree
    return max((l - r for l, r in zip(lhs, rhs)), key=lambda q: q.degree)


def _jacobi_two_var_poles(size: int, p: ParamSet) -> None:
    # the factors (s+k+1)_{n+1}, k <= n <= size, run over s+1 .. s+2*size+1
    if pochhammer(p.alpha + p.beta + 1, 2 * size + 1) == 0:
        raise PoleError(f"jacobi_two_var pole for n <= {size}")


#: every identity of the catalog, matrix identities first
_CATALOG = {
    "charlier_inv": _self_dual(
        ("a",), _member(CHARLIER), lambda p: ParamSet(a=-p.a), reflect=True),
    "laguerre_inv": _Matrix(
        ("alpha",),
        lambda i, j, p: polynomial(LAGUERRE, i - j, ParamSet(alpha=p.alpha + j)),
        lambda i, j, p: polynomial(LAGUERRE, i - j, ParamSet(alpha=-p.alpha - i - 1))(_NEG_X),
        toeplitz=False),
    "laguerre_inv_plain": _self_dual(
        ("alpha",), _member(LAGUERRE), lambda p: ParamSet(alpha=-p.alpha - 2), reflect=True),
    "jacobi_inv": _Matrix(
        ("alpha", "beta"), _jacobi_inv_base, _jacobi_inv_inverse,
        toeplitz=False, literal=_jacobi_inv_literal),
    "jacobi_from_meixner": _self_dual(
        ("alpha", "beta"),
        lambda m, p: polynomial(JACOBI, m, ParamSet(alpha=p.alpha, beta=p.beta - m)),
        lambda p: ParamSet(alpha=-p.alpha - 2, beta=-p.beta)),
    "jacobi_from_ultra": _self_dual(
        ("alpha",), _ultraspherical_jacobi, lambda p: ParamSet(alpha=-p.alpha - 1)),
    "ultra_inv": _self_dual(("lam",), _member(GEGENBAUER), lambda p: ParamSet(lam=-p.lam)),
    "meixner_inv": _self_dual(
        ("beta_m", "c"), _member(MEIXNER), lambda p: replace(p, beta_m=-p.beta_m),
        reflect=True),
    "mp_inv_reflect": _self_dual(
        ("lam", "phase"), _member(MEIXNER_POLLACZEK), lambda p: replace(p, lam=-p.lam),
        reflect=True),
    "mp_inv_phase": _self_dual(
        ("lam", "phase"), _member(MEIXNER_POLLACZEK),
        lambda p: ParamSet(lam=-p.lam, phase=p.phase.conjugate())),
    "legendre_limit_inverse": _Matrix((), _member(LEGENDRE), _legendre_limit_inverse),
    "chebU_banded_inverse": _Matrix(
        (), _member(CHEBYSHEV_U), lambda m, p: _CHEB_U_BAND[m] if m < 3 else Poly.zero()),
    "chebT_inverse": _Matrix((), _member(CHEBYSHEV_T), _chebyshev_t_inverse),
    "hermite_conv": _Convolution((), _hermite_conv_residual),
    "legendre_conv_u": _Convolution((), lambda n, p: _convolve(
        lambda k: polynomial(LEGENDRE, k), lambda k: polynomial(LEGENDRE, k), n,
    ) - polynomial(CHEBYSHEV_U, n)),
    "chebT_geom_conv": _Convolution((), lambda n, p: _convolve(
        lambda k: Poly.x() ** k, lambda k: polynomial(CHEBYSHEV_T, k), n,
    ) - polynomial(CHEBYSHEV_U, n)),
    "chebU_recurrence": _Convolution((), lambda n, p: (
        polynomial(CHEBYSHEV_U, n)
        - Poly((0, 2)) * polynomial(CHEBYSHEV_U, n + 1)
        + polynomial(CHEBYSHEV_U, n + 2)
    )),
    "chebTU_relation": _Convolution((), lambda n, p: (
        Poly((1, 0, -1)) * polynomial(CHEBYSHEV_U, n)
        - Poly.x() * polynomial(CHEBYSHEV_T, n + 1)
        + polynomial(CHEBYSHEV_T, n + 2)
    )),
    "jacobi_two_var": _Convolution(
        ("alpha", "beta"), _jacobi_two_var_residual, _jacobi_two_var_poles),
}

MATRIX_IDENTITIES = tuple(name for name, spec in _CATALOG.items() if isinstance(spec, _Matrix))
CONVOLUTION_IDENTITIES = tuple(name for name in _CATALOG if name not in MATRIX_IDENTITIES)
ALL_IDENTITIES = MATRIX_IDENTITIES + CONVOLUTION_IDENTITIES

#: parameters each identity samples over
IDENTITY_PARAMS = {name: spec.params for name, spec in _CATALOG.items()}


def _check_identity_tag(identity: str):
    if identity not in _CATALOG:
        raise ValueError(
            f"unknown identity {identity!r}; expected one of {ALL_IDENTITIES}"
        )


def _check_size(size: int):
    if size < 1:
        raise ValueError(f"size must be at least 1, got {size}")


def _check_params(identity: str, params: ParamSet):
    """ParamError unless params sets exactly the parameters identity takes."""
    expected = IDENTITY_PARAMS[identity]
    given = [name for name, value in vars(params).items() if value is not None]
    if set(given) != set(expected):
        raise ParamError(
            f"{identity} takes parameters ({', '.join(expected)}), got ({', '.join(given)})"
        )


def _matrix_spec(identity: str) -> _Matrix:
    _check_identity_tag(identity)
    spec = _CATALOG[identity]
    if not isinstance(spec, _Matrix):
        raise ValueError(f"{identity!r} is a convolution identity, not a matrix one")
    return spec


def _matrix(identity: str, size: int, params: ParamSet, side: str) -> LowerTriPolyMatrix:
    """The matrix of a matrix identity's base or inverse entries, as side
    names the field; a Toeplitz one is built from its column 0."""
    spec = _matrix_spec(identity)
    _check_size(size)
    _check_params(identity, params)
    entry = getattr(spec, side)
    if spec.toeplitz:
        return LowerTriPolyMatrix.toeplitz([entry(m, params) for m in range(size)])
    return LowerTriPolyMatrix.from_entry_fn(size, lambda i, j: entry(i, j, params))


def build_matrix(identity: str, size: int, params: ParamSet = EMPTY_PARAMS) -> LowerTriPolyMatrix:
    """The lower-triangular family-member matrix an identity inverts."""
    return _matrix(identity, size, params, "base")


def closed_form_inverse(
    identity: str, size: int, params: ParamSet = EMPTY_PARAMS
) -> LowerTriPolyMatrix:
    """The inverse matrix the catalog asserts."""
    return _matrix(identity, size, params, "inverse")


def closed_form_inverse_entry(
    identity: str, i: int, j: int, params: ParamSet = EMPTY_PARAMS
) -> Poly:
    """The inverse-matrix entry u_ij the catalog asserts, zero for j > i."""
    spec = _matrix_spec(identity)
    if j > i:
        return Poly.zero()
    return spec.inverse(i - j, params) if spec.toeplitz else spec.inverse(i, j, params)


# ---------------------------------------------------------------------------
# deterministic parameter sampling
# ---------------------------------------------------------------------------

def sample_rational(rng: random.Random, bound: int = 50) -> Fraction:
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)


def sample_phase(rng: random.Random, bound: int = 12) -> GaussianRational:
    """A unimodular Gaussian rational from a random Pythagorean pair."""
    while True:
        m = rng.randint(1, bound)
        n = rng.randint(1, bound)
        if m == n:
            continue
        m, n = max(m, n), min(m, n)
        h = m * m + n * n
        return GaussianRational(Fraction(m * m - n * n, h), Fraction(2 * m * n, h))


def _sample_matrices(identity: str, size: int, params: ParamSet):
    """(base, closed-form inverse) of a matrix identity at params, (None,
    None) for a convolution identity; raises PoleError or ParamError where
    params hit a pole."""
    spec = _CATALOG[identity]
    if isinstance(spec, _Matrix):
        return build_matrix(identity, size, params), closed_form_inverse(identity, size, params)
    _check_params(identity, params)
    if spec.poles is not None:
        spec.poles(size, params)
    return None, None


def _candidates(names: Sequence[str], size: int, count: int, seed: int, pit: bool):
    """Parameter candidates in draw order: the whole PIT grid, or up to
    count * 200 seeded random draws."""
    if pit:
        # grid side exceeds the per-parameter degree bound, so zero residual
        # on the whole grid certifies the identity in those parameters
        grid_side = 2 * size + 3
        values = [Fraction(v, 2) + Fraction(1, 3) for v in range(1, grid_side + 1)]
        rational_names = [name for name in names if name != "phase"]
        for combo in itertools.product(values, repeat=len(rational_names)):
            kwargs = dict(zip(rational_names, combo))
            if "phase" in names:
                kwargs["phase"] = DEFAULT_PHASE
            yield ParamSet(**kwargs)
        return
    rng = random.Random(seed)
    for _ in range(count * 200):
        kwargs = {}
        for name in names:
            if name == "phase":
                kwargs[name] = sample_phase(rng)
            elif name == "c":
                c = sample_rational(rng)
                if c == 0:
                    c = Fraction(1, 2)
                kwargs[name] = c
            else:
                kwargs[name] = sample_rational(rng)
        yield ParamSet(**kwargs)


def _pole_free_samples(
    identity: str, size: int, count: int, seed: int, pit: bool
) -> Iterator[tuple]:
    """Lazily, (params, base, closed) for each pole-free candidate: the
    matrices built to prove params pole-free are the ones verified."""
    names = IDENTITY_PARAMS[identity]
    if not names:
        yield (EMPTY_PARAMS, *_sample_matrices(identity, size, EMPTY_PARAMS))
        return
    found = 0
    for params in _candidates(names, size, count, seed, pit):
        try:
            base, closed = _sample_matrices(identity, size, params)
        except (PoleError, ParamError):
            continue
        yield params, base, closed
        found += 1
        if found == count and not pit:
            return
    if found < count and not pit:
        raise RuntimeError(f"could not find {count} pole-free samples for {identity}")


def sample_params(
    identity: str, size: int, count: int, seed: int, pit: bool = False
) -> List[ParamSet]:
    """Deterministic seeded parameter samples avoiding all pole sets.

    With pit=True a grid is used whose side exceeds the per-parameter degree
    bound (2*size + 2) of every identity in the catalog, which turns the
    zero-residual checks into a proof by polynomial identity testing; count
    is then ignored.  ValueError for size < 1 or, without pit, count < 1.
    """
    _check_identity_tag(identity)
    _check_size(size)
    if count < 1 and not pit:
        raise ValueError(f"count must be at least 1, got {count}")
    return [params for params, _, _ in _pole_free_samples(identity, size, count, seed, pit)]


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    identity: str
    size: int
    param_samples: List[ParamSet] = field(default_factory=list)
    status: str = "pass"
    counterexample: Optional[dict] = None
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self, include_elapsed: bool = False) -> dict:
        # elapsed is reported as null in JSON so identical arguments give
        # byte-identical output; the measured time lives in the text format
        return {
            "identity": self.identity,
            "size": self.size,
            "samples": [_params_json(p) for p in self.param_samples],
            "status": self.status,
            "counterexample": self.counterexample,
            "elapsed_ms": round(self.elapsed_ms, 3) if include_elapsed else None,
        }


def _params_json(params: ParamSet) -> dict:
    from .exact import format_scalar

    out = {}
    for name in PARAM_NAMES:
        value = getattr(params, name)
        if value is not None:
            out[name] = format_scalar(value)
    return out


def verify_identity(
    identity: str,
    size: int,
    param_samples: Optional[Sequence[ParamSet]] = None,
    samples: int = 20,
    seed: int = 0,
    pit: bool = False,
) -> VerificationReport:
    """Run one identity's verifier over parameter samples; failures are
    reported (with the first counterexample location), never raised.
    ValueError for size < 1 or no samples, so no empty check reports a pass."""
    _check_identity_tag(identity)
    _check_size(size)
    start = time.monotonic()
    report = VerificationReport(identity=identity, size=size)
    if param_samples is None:
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        drawn = _pole_free_samples(identity, size, samples, seed, pit)
    else:
        report.param_samples = list(param_samples)
        if not report.param_samples:
            raise ValueError("param_samples is empty")
        drawn = ((p, *_sample_matrices(identity, size, p)) for p in report.param_samples)
    checked = []
    for params, base, closed in drawn:
        checked.append(params)
        found = _counterexample(identity, size, params, base, closed)
        if found is not None:
            location, residual = found
            report.status = "fail"
            report.counterexample = dict(location, residual=residual.to_json())
            break
    if param_samples is None:
        # a failure ends the checks; the rest of the draw only completes the
        # list of samples, so the report names the same ones sample_params does
        report.param_samples = checked + [p for p, _, _ in drawn]
    report.elapsed_ms = (time.monotonic() - start) * 1000.0
    return report


def _counterexample(identity: str, size: int, params: ParamSet, base, closed):
    """(location, residual) of the first nonzero residual of one sample, or None."""
    spec = _CATALOG[identity]
    if isinstance(spec, _Convolution):
        return _first_nonzero(
            (({"n": n}, spec.residual(n, params)) for n in range(size + 1)), params)
    computed = base.invert()
    cells = [(i, j) for i in range(size) for j in range(i + 1)]
    found = _first_nonzero(
        (({"i": i, "j": j}, closed.entry(i, j) - computed.entry(i, j)) for i, j in cells), params)
    if found is None and spec.literal is not None:
        found = _first_nonzero(
            (({"i": i, "j": j, "form": "literal"},
              spec.literal(i, j, params) - (Poly.one() if i == j else Poly.zero()))
             for i, j in cells), params)
    return found


def _first_nonzero(residuals, params: ParamSet):
    """(location with params, residual) of the first nonzero one, or None."""
    for location, residual in residuals:
        if not residual.is_zero():
            return dict(location, params=_params_json(params)), residual
    return None


def bavinck_series_replay(alpha: Fraction, i: int, j: int, order: int) -> bool:
    """Replay of the series derivation behind the Laguerre inversion:
    (1-t)^(-a-j-1) exp(xt/(t-1)) * (1-t)^(a+i) exp(-xt/(t-1)) = (1-t)^(i-j-1)."""
    from .series import TruncSeries

    one_minus_t = TruncSeries((1, -1), order)
    t = TruncSeries((Poly.zero(), Poly.one()), order)

    def exp_xt_over_tm1(x: Poly):
        # xt/(t-1) = -x * t * (1-t)^(-1)
        return (t * one_minus_t.invert()).scale(-x).exp()

    left = one_minus_t.pow(-alpha - j - 1) * exp_xt_over_tm1(Poly.x())
    right = one_minus_t.pow(Fraction(alpha + i)) * exp_xt_over_tm1(-Poly.x())
    return (left * right) == one_minus_t.pow(Fraction(i - j - 1))
