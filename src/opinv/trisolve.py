"""Solving sum_i a_i(x) D^i p_n(x) = F_n(x), n = 1..N, two ways.

The generic route is forward substitution: the system is triangular in the
coefficient index because D^n p_n is a nonzero constant, so a_n is pinned
by rows 1..n.  The closed forms apply the catalog's inverses from
opinv.inversion to F (laguerre_inv, jacobi_inv, and the Hermite inverse);
the two routes are cross-checked exactly.

The underlying systems are infinite (n = 1, 2, 3, ...), but a_i depends
only on F_1..F_i, so truncating at N determines a_1..a_N exactly; solving
with a longer prefix leaves the earlier coefficients unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .exact import pochhammer
from .families import (
    HERMITE,
    CheckFailure,
    JACOBI,
    LAGUERRE,
    ParamError,
    ParamSet,
    polynomial,
    validate_params,
)
from .inversion import apply_hermite_inverse, closed_form_inverse_entry
from .poly import Poly

SOLVABLE_FAMILIES = (LAGUERRE, HERMITE, JACOBI)


@dataclass(frozen=True)
class DiffSystem:
    family: str
    params: ParamSet
    rhs: Tuple[Poly, ...]  # F_1 .. F_N

    def __post_init__(self):
        if self.family not in SOLVABLE_FAMILIES:
            raise ParamError(
                f"solver supports {SOLVABLE_FAMILIES}, got {self.family!r}"
            )
        if len(self.rhs) < 1:
            raise ValueError("rhs must contain at least F_1")
        validate_params(self.family, self.params)
        object.__setattr__(self, "rhs", tuple(self.rhs))


@dataclass(frozen=True)
class CoeffSolution:
    coeffs: Tuple[Poly, ...]  # a_1 .. a_N
    method: str  # "generic" | "closed_form"

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "coeffs": [p.to_json() for p in self.coeffs],
        }


def solve_generic(sys: DiffSystem) -> CoeffSolution:
    """Forward substitution row by row in the polynomial degree n."""
    N = len(sys.rhs)
    coeffs = []
    for n in range(1, N + 1):
        p_n = polynomial(sys.family, n, sys.params)
        diag = p_n.derivative(n)
        if diag.degree > 0 or diag.is_zero():
            raise ParamError(
                f"diagonal term D^{n} p_{n} is not a nonzero constant "
                f"(family {sys.family}, params {sys.params})"
            )
        residual = sys.rhs[n - 1]
        for i in range(1, n):
            residual = residual - coeffs[i - 1] * p_n.derivative(i)
        coeffs.append((1 / diag.coeff(0)) * residual)
    # row n is solved for a_n exactly, so summing it again would repeat the
    # same arithmetic; the closed form back-substitutes its own result
    return CoeffSolution(tuple(coeffs), "generic")


def solve_closed_form(sys: DiffSystem) -> CoeffSolution:
    """The catalog's solution formulas, u being the closed-form inverse
    opinv.inversion gives for the identity named:

    laguerre: a_i = (-1)^i sum_j u_ij F_j, laguerre_inv: u_ij = L_{i-j}^(-alpha-i-1)(-x)
    hermite:  a_k = sum_j i^(k-j) H_{k-j}(ix) F_j, a rational inverse (apply_hermite_inverse)
    jacobi:   c_i = 2^i / (a+b+i+1)_i sum_j u_ij F_j, jacobi_inv

    The row scalings follow from D^i L_n^(alpha) = (-1)^i L_{n-i}^(alpha+i)
    and D^i P_n^(a,b) = (n+a+b+1)_i / 2^i P_{n-i}^(a+i,b+i); u_ii raises
    PoleError before (a+b+i+1)_i can vanish.
    """
    if sys.family == HERMITE:
        coeffs = apply_hermite_inverse(sys.rhs)
    else:  # DiffSystem admits laguerre, hermite and jacobi only
        identity = "laguerre_inv" if sys.family == LAGUERRE else "jacobi_inv"
        coeffs = []
        for i in range(1, len(sys.rhs) + 1):
            acc = Poly.zero()
            for j in range(1, i + 1):
                acc = acc + closed_form_inverse_entry(identity, i, j, sys.params) * sys.rhs[j - 1]
            if sys.family == LAGUERRE:
                scale = (-1) ** i
            else:
                scale = Fraction(2 ** i) / pochhammer(sys.params.alpha + sys.params.beta + i + 1, i)
            coeffs.append(scale * acc)
    solution = CoeffSolution(tuple(coeffs), "closed_form")
    _check_satisfies(sys, solution)
    return solution


def _check_satisfies(sys: DiffSystem, solution: CoeffSolution) -> None:
    """Back-substitution: sum_{i<=n} a_i D^i p_n must equal F_n for every n
    (CheckFailure otherwise)."""
    for n in range(1, len(sys.rhs) + 1):
        p_n = polynomial(sys.family, n, sys.params)
        acc = Poly.zero()
        for i in range(1, n + 1):
            acc = acc + solution.coeffs[i - 1] * p_n.derivative(i)
        if acc != sys.rhs[n - 1]:
            raise CheckFailure(f"solution does not satisfy row n={n} ({solution.method})")
