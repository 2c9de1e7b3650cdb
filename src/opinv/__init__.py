"""Exact-arithmetic toolkit for classical orthogonal polynomial families,
triangular inversion identities, and the coefficients of the infinite-order
differential equation satisfied by delta-perturbed Hermite polynomials."""

from .exact import GaussianRational, I, pochhammer, pochhammer_poly
from .families import FAMILIES, ParamSet, expand_generating_function, polynomial
from .inversion import (
    ALL_IDENTITIES,
    LowerTriPolyMatrix,
    VerificationReport,
    build_matrix,
    closed_form_inverse_entry,
    verify_identity,
)
from .poly import Poly
from .series import TruncSeries
from .trisolve import CoeffSolution, DiffSystem, solve_closed_form, solve_generic

__all__ = [
    "ALL_IDENTITIES",
    "CoeffSolution",
    "DiffSystem",
    "FAMILIES",
    "GaussianRational",
    "I",
    "LowerTriPolyMatrix",
    "ParamSet",
    "Poly",
    "TruncSeries",
    "VerificationReport",
    "build_matrix",
    "closed_form_inverse_entry",
    "expand_generating_function",
    "pochhammer",
    "pochhammer_poly",
    "polynomial",
    "solve_closed_form",
    "solve_generic",
    "verify_identity",
]

__version__ = "0.1.0"
