"""Triangular polynomial matrices, exact inversion, and the full catalog
of inversion / convolution identities, each verified to zero residual.

Matrix identities are checked the strong way: the closed-form left factor
must equal the computed inverse entry by entry, not merely give U*T = I.
LowerTriPolyMatrix.invert makes no product check of its own, since forward
substitution gives self @ inverse = I by construction; the CLI's ``invert``
command, whose output no closed form checks, multiplies inverse @ matrix.

trisolve's closed forms and genhermite's a_k apply the Laguerre, Jacobi and
Hermite inverses written here; no other module restates one.

Indexing: matrices are stored 0-based, matching the i,j = 0,1,2,... of the
Charlier/Laguerre/Jacobi catalog entries; the banded Legendre/Chebyshev
matrices are shift-invariant so the 1-based presentation they are usually
given in differs only by a relabeling.

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
from dataclasses import dataclass, field
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
    def identity(cls, size: int):
        return cls.from_entry_fn(
            size, lambda i, j: Poly.one() if i == j else Poly.zero()
        )

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

MATRIX_IDENTITIES = (
    "charlier_inv",
    "laguerre_inv",
    "laguerre_inv_plain",
    "jacobi_inv",
    "jacobi_from_meixner",
    "jacobi_from_ultra",
    "ultra_inv",
    "meixner_inv",
    "mp_inv_reflect",
    "mp_inv_phase",
    "legendre_limit_inverse",
    "chebU_banded_inverse",
    "chebT_inverse",
)

CONVOLUTION_IDENTITIES = (
    "hermite_conv",
    "legendre_conv_u",
    "chebT_geom_conv",
    "chebU_recurrence",
    "chebTU_relation",
    "jacobi_two_var",
)

ALL_IDENTITIES = MATRIX_IDENTITIES + CONVOLUTION_IDENTITIES

#: parameters each identity samples over
IDENTITY_PARAMS = {
    "charlier_inv": ("a",),
    "laguerre_inv": ("alpha",),
    "laguerre_inv_plain": ("alpha",),
    "jacobi_inv": ("alpha", "beta"),
    "jacobi_two_var": ("alpha", "beta"),
    "jacobi_from_meixner": ("alpha", "beta"),
    "jacobi_from_ultra": ("alpha",),
    "ultra_inv": ("lam",),
    "meixner_inv": ("beta_m", "c"),
    "mp_inv_reflect": ("lam", "phase"),
    "mp_inv_phase": ("lam", "phase"),
    "hermite_conv": (),
    "legendre_limit_inverse": (),
    "chebU_banded_inverse": (),
    "chebT_inverse": (),
    "legendre_conv_u": (),
    "chebT_geom_conv": (),
    "chebU_recurrence": (),
    "chebTU_relation": (),
}


def _check_identity_tag(identity: str):
    if identity not in ALL_IDENTITIES:
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


# -- base (right-factor) matrices -------------------------------------------

def _matrix_entry(identity: str, i: int, j: int, params: ParamSet) -> Poly:
    m = i - j
    if identity == "charlier_inv":
        return polynomial(CHARLIER, m, ParamSet(a=params.a))
    if identity == "laguerre_inv":
        return polynomial(LAGUERRE, m, ParamSet(alpha=params.alpha + j))
    if identity == "laguerre_inv_plain":
        return polynomial(LAGUERRE, m, ParamSet(alpha=params.alpha))
    if identity == "jacobi_inv":
        s = params.alpha + params.beta
        num = pochhammer(s + i + 1, j)
        den = pochhammer(s + j + 1, j)
        if den == 0:
            raise PoleError(f"jacobi_inv pole in column weight at (i,j)=({i},{j})")
        return (num / den) * polynomial(
            JACOBI, m, ParamSet(alpha=params.alpha + j, beta=params.beta + j)
        )
    if identity == "jacobi_from_meixner":
        return polynomial(
            JACOBI, m, ParamSet(alpha=params.alpha, beta=params.beta - m)
        )
    if identity == "jacobi_from_ultra":
        num = pochhammer(2 * params.alpha + 1, m)
        den = pochhammer(params.alpha + 1, m)
        if den == 0:
            raise PoleError(f"jacobi_from_ultra pole at (i,j)=({i},{j})")
        return (num / den) * polynomial(
            JACOBI, m, ParamSet(alpha=params.alpha, beta=params.alpha)
        )
    if identity == "ultra_inv":
        return polynomial(GEGENBAUER, m, ParamSet(lam=params.lam))
    if identity == "meixner_inv":
        return polynomial(MEIXNER, m, ParamSet(beta_m=params.beta_m, c=params.c))
    if identity in ("mp_inv_reflect", "mp_inv_phase"):
        return polynomial(
            MEIXNER_POLLACZEK, m, ParamSet(lam=params.lam, phase=params.phase)
        )
    if identity == "legendre_limit_inverse":
        return polynomial(LEGENDRE, m)
    if identity == "chebU_banded_inverse":
        return polynomial(CHEBYSHEV_U, m)
    if identity == "chebT_inverse":
        return polynomial(CHEBYSHEV_T, m)
    raise ValueError(f"{identity!r} has no base matrix")


def build_matrix(identity: str, size: int, params: ParamSet = EMPTY_PARAMS) -> LowerTriPolyMatrix:
    """The lower-triangular family-member matrix an identity inverts."""
    _check_identity_tag(identity)
    if identity not in MATRIX_IDENTITIES:
        raise ValueError(f"{identity!r} is a convolution identity, not a matrix one")
    _check_size(size)
    _check_params(identity, params)
    return LowerTriPolyMatrix.from_entry_fn(
        size, lambda i, j: _matrix_entry(identity, i, j, params)
    )


# -- closed-form left factors -------------------------------------------------

def closed_form_inverse_entry(
    identity: str, i: int, j: int, params: ParamSet = EMPTY_PARAMS
) -> Poly:
    """The inverse-matrix entry u_ij the catalog asserts, j <= i."""
    _check_identity_tag(identity)
    if j > i:
        return Poly.zero()
    m = i - j
    if identity == "charlier_inv":
        return polynomial(CHARLIER, m, ParamSet(a=-params.a))(_NEG_X)
    if identity == "laguerre_inv":
        return polynomial(LAGUERRE, m, ParamSet(alpha=-params.alpha - i - 1))(_NEG_X)
    if identity == "laguerre_inv_plain":
        return polynomial(LAGUERRE, m, ParamSet(alpha=-params.alpha - 2))(_NEG_X)
    if identity == "jacobi_inv":
        s = params.alpha + params.beta
        den = pochhammer(s + j + 1, i + 1)
        if den == 0:
            raise PoleError(f"jacobi_inv pole in row weight at (i,j)=({i},{j})")
        factor = pochhammer(s + i + 1, i) * (s + 2 * j + 1) / den
        return factor * polynomial(
            JACOBI, m, ParamSet(alpha=-params.alpha - i - 1, beta=-params.beta - i - 1)
        )
    if identity == "jacobi_from_meixner":
        return polynomial(
            JACOBI, m, ParamSet(alpha=-params.alpha - 2, beta=-params.beta - m)
        )
    if identity == "jacobi_from_ultra":
        num = pochhammer(-2 * params.alpha - 1, m)
        den = pochhammer(-params.alpha, m)
        if den == 0:
            raise PoleError(f"jacobi_from_ultra pole at (i,j)=({i},{j})")
        return (num / den) * polynomial(
            JACOBI, m, ParamSet(alpha=-params.alpha - 1, beta=-params.alpha - 1)
        )
    if identity == "ultra_inv":
        return polynomial(GEGENBAUER, m, ParamSet(lam=-params.lam))
    if identity == "meixner_inv":
        return polynomial(MEIXNER, m, ParamSet(beta_m=-params.beta_m, c=params.c))(_NEG_X)
    if identity == "mp_inv_reflect":
        return polynomial(
            MEIXNER_POLLACZEK, m, ParamSet(lam=-params.lam, phase=params.phase)
        )(_NEG_X)
    if identity == "mp_inv_phase":
        return polynomial(
            MEIXNER_POLLACZEK,
            m,
            ParamSet(lam=-params.lam, phase=params.phase.conjugate()),
        )
    if identity == "legendre_limit_inverse":
        if m == 0:
            return Poly.one()
        if m == 1:
            return _NEG_X
        b = polynomial(JACOBI, m - 1, ParamSet(alpha=Fraction(1), beta=Fraction(-1)))
        return Fraction(1, m) * (Poly((1, -1)) * b)  # (1/m)(1-x) P_{m-1}^(1,-1)
    if identity == "chebU_banded_inverse":
        if m == 0 or m == 2:
            return Poly.one()
        if m == 1:
            return Poly((0, -2))
        return Poly.zero()
    if identity == "chebT_inverse":
        if m == 0:
            return Poly.one()
        if m == 1:
            return _NEG_X
        return Poly.x() ** (m - 2) * Poly((1, 0, -1))  # x^(m-2)(1-x^2)
    raise ValueError(f"{identity!r} has no closed-form inverse")


def closed_form_inverse(
    identity: str, size: int, params: ParamSet = EMPTY_PARAMS
) -> LowerTriPolyMatrix:
    return LowerTriPolyMatrix.from_entry_fn(
        size, lambda i, j: closed_form_inverse_entry(identity, i, j, params)
    )


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


def apply_hermite_inverse(rhs: Sequence[Poly]) -> Tuple[Poly, ...]:
    """a_k = sum_{j<=k} i^(k-j) H_{k-j}(ix) F_j for F_1..F_N = rhs."""
    factors = _hermite_inverse_factors(len(rhs))
    return tuple(
        sum((factors[k - j] * rhs[j] for j in range(k + 1)), Poly.zero())
        for k in range(len(rhs))
    )


# ---------------------------------------------------------------------------
# convolution / recurrence verifiers
# ---------------------------------------------------------------------------

def _hermite_conv_residual(n: int) -> Poly:
    # sum_k H_k(x) H_{n-k}(ix) i^{n-k}  -  delta_{n0}
    factors = _hermite_inverse_factors(n + 1)
    acc = sum((polynomial(HERMITE, k) * factors[n - k] for k in range(n + 1)), Poly.zero())
    return acc - (Poly.one() if n == 0 else Poly.zero())


def _convolution_residual(identity: str, n: int) -> Poly:
    if identity == "hermite_conv":
        return _hermite_conv_residual(n)
    if identity == "legendre_conv_u":
        acc = sum(
            (polynomial(LEGENDRE, k) * polynomial(LEGENDRE, n - k) for k in range(n + 1)),
            Poly.zero(),
        )
        return acc - polynomial(CHEBYSHEV_U, n)
    if identity == "chebT_geom_conv":
        acc = sum(
            (Poly.x() ** k * polynomial(CHEBYSHEV_T, n - k) for k in range(n + 1)),
            Poly.zero(),
        )
        return acc - polynomial(CHEBYSHEV_U, n)
    if identity == "chebU_recurrence":
        return (
            polynomial(CHEBYSHEV_U, n)
            - Poly((0, 2)) * polynomial(CHEBYSHEV_U, n + 1)
            + polynomial(CHEBYSHEV_U, n + 2)
        )
    if identity == "chebTU_relation":
        return (
            Poly((1, 0, -1)) * polynomial(CHEBYSHEV_U, n)
            - Poly.x() * polynomial(CHEBYSHEV_T, n + 1)
            + polynomial(CHEBYSHEV_T, n + 2)
        )
    raise ValueError(f"{identity!r} is not a scalar convolution identity")


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
    if identity in MATRIX_IDENTITIES:
        return build_matrix(identity, size, params), closed_form_inverse(identity, size, params)
    _check_params(identity, params)
    if identity == "jacobi_two_var":
        # the factors (s+k+1)_{n+1}, k <= n <= size, run over s+1 .. s+2*size+1
        if pochhammer(params.alpha + params.beta + 1, 2 * size + 1) == 0:
            raise PoleError(f"jacobi_two_var pole for n <= {size}")
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
    zero-residual checks into a proof by polynomial identity testing.
    """
    _check_identity_tag(identity)
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
    max_residual_degree: int = -1
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
    if identity in MATRIX_IDENTITIES:
        computed = base.invert()
        for i in range(size):
            for j in range(i + 1):
                residual = closed.entry(i, j) - computed.entry(i, j)
                if not residual.is_zero():
                    return {"i": i, "j": j, "params": _params_json(params)}, residual
        if identity == "jacobi_inv":
            return _jacobi_inv_literal_counterexample(size, params)
        return None
    for n in range(size + 1):
        if identity == "jacobi_two_var":
            lhs, rhs = jacobi_two_var_sides(n, params.alpha, params.beta)
            # the first y^m coefficient of lhs - rhs of highest x-degree
            residual = max((l - r for l, r in zip(lhs, rhs)), key=lambda p: p.degree)
        else:
            residual = _convolution_residual(identity, n)
        if not residual.is_zero():
            return {"n": n, "params": _params_json(params)}, residual
    return None


def _jacobi_inv_literal_counterexample(size: int, params: ParamSet):
    """The paper's literal triple sum for the Jacobi inversion:
    sum_k (a+b+2k+1)/(a+b+k+j+1)_{i-j+1} P_{i-k}^(-a-i-1,-b-i-1) P_{k-j}^(a+j,b+j) = delta_ij;
    (location, residual) of its first nonzero residual, or None."""
    a, b = params.alpha, params.beta
    s = a + b
    for i in range(size):
        for j in range(i + 1):
            acc = Poly.zero()
            for k in range(j, i + 1):
                den = pochhammer(s + k + j + 1, i - j + 1)
                if den == 0:
                    raise PoleError(f"jacobi_inv literal pole at (i,j,k)=({i},{j},{k})")
                acc = acc + ((s + 2 * k + 1) / den) * (
                    polynomial(JACOBI, i - k, ParamSet(alpha=-a - i - 1, beta=-b - i - 1))
                    * polynomial(JACOBI, k - j, ParamSet(alpha=a + j, beta=b + j))
                )
            residual = acc - (Poly.one() if i == j else Poly.zero())
            if not residual.is_zero():
                return {"i": i, "j": j, "form": "literal", "params": _params_json(params)}, residual
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
