"""Acceptance gate: eight exact (zero-tolerance) end-to-end checks.

Each test prints one `ACCEPTANCE <k> <name>: PASS` line; a failing
assertion leaves the line reading FAIL.  Run with `pytest -s` to see the
lines as they happen.
"""

import json
import math
import random
import time
from fractions import Fraction as F

from opinv.cli import main as cli_main
from opinv.exact import GaussianRational, pochhammer
from opinv.families import (
    CHARLIER,
    FAMILIES,
    GEGENBAUER,
    HERMITE,
    JACOBI,
    LAGUERRE,
    MEIXNER,
    MEIXNER_POLLACZEK,
    ParamError,
    ParamSet,
    PoleError,
    expand_generating_function,
    hermite_moment_functional,
    polynomial,
)
from opinv.genhermite import (
    GenHermiteConfig,
    alpha_even,
    build_model,
    kernel_at_zero,
    verify_de,
)
from opinv.inversion import (
    CONVOLUTION_IDENTITIES,
    MATRIX_IDENTITIES,
    build_matrix,
    closed_form_inverse,
    jacobi_two_var_sides,
    verify_identity,
)
from opinv.poly import Poly
from opinv.trisolve import DiffSystem, solve_closed_form, solve_generic


def _report(number, name, passed):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"acceptance criterion {number} ({name}) failed"


def _rational(rng):
    return F(rng.randint(-50, 50), rng.randint(1, 50))


def _family_params(family, rng, n_max):
    """Seeded parameter sample, rejecting poles up to degree n_max."""
    while True:
        try:
            if family == JACOBI:
                ps = ParamSet(alpha=_rational(rng), beta=_rational(rng))
            elif family == GEGENBAUER:
                ps = ParamSet(lam=_rational(rng))
            elif family == LAGUERRE:
                ps = ParamSet(alpha=_rational(rng))
            elif family == CHARLIER:
                ps = ParamSet(a=_rational(rng))
            elif family == MEIXNER:
                ps = ParamSet(beta_m=_rational(rng), c=_rational(rng))
            elif family == MEIXNER_POLLACZEK:
                m = rng.randint(2, 12)
                k = rng.randint(1, m - 1)
                h = m * m + k * k
                phase = GaussianRational(F(m * m - k * k, h), F(2 * m * k, h))
                ps = ParamSet(lam=_rational(rng), phase=phase)
            else:
                ps = ParamSet()
            polynomial(family, n_max, ps)
            return ps
        except (ParamError, PoleError):
            continue


def test_criterion_1_family_oracle_equivalence():
    start = time.monotonic()
    n_max = 16
    ok = True
    for family in FAMILIES:
        rng = random.Random(sum(map(ord, family)))
        for _ in range(10):
            params = _family_params(family, rng, n_max)
            series = expand_generating_function(family, params, n_max)
            for n in range(n_max + 1):
                if series.coeff(n) != polynomial(family, n, params):
                    ok = False
    elapsed = time.monotonic() - start
    _report(1, "family-oracle-equivalence", ok and elapsed < 30)


def test_criterion_2_inversion_catalog():
    start = time.monotonic()
    ok = True
    for identity in MATRIX_IDENTITIES:
        report = verify_identity(identity, size=10, samples=20, seed=2)
        ok = ok and report.passed
    for identity in CONVOLUTION_IDENTITIES:
        report = verify_identity(identity, size=16, samples=20, seed=2)
        ok = ok and report.passed
    elapsed = time.monotonic() - start
    _report(2, "inversion-catalog", ok and elapsed < 60)


def test_criterion_3_two_variable_jacobi():
    rng = random.Random(3)
    ok = True
    for _ in range(20):
        alpha, beta = _rational(rng), _rational(rng)
        try:
            for n in range(9):
                lhs, rhs = jacobi_two_var_sides(n, alpha, beta)
                if lhs != rhs:
                    ok = False
        except PoleError:
            continue
    # y = x specialization against the jacobi_inv factorization, including
    # the unit-diagonal normalizer (s+i+1)_i / (s+j+1)_j
    alpha, beta = F(2, 9), F(-3, 11)
    size = 8
    s0 = alpha + beta
    base = build_matrix("jacobi_inv", size, ParamSet(alpha=alpha, beta=beta))
    closed = closed_form_inverse("jacobi_inv", size, ParamSet(alpha=alpha, beta=beta))
    for i in range(size):
        for j in range(i + 1):
            n = i - j
            a, b = alpha + j, beta + j
            s = a + b
            scale = pochhammer(s0 + i + 1, i) / pochhammer(s0 + j + 1, j)
            for k in range(n + 1):
                term = ((s + 2 * k + 1) / pochhammer(s + k + 1, n + 1)) * (
                    polynomial(JACOBI, k, ParamSet(alpha=a, beta=b))
                    * polynomial(
                        JACOBI, n - k, ParamSet(alpha=-a - n - 1, beta=-b - n - 1)
                    )
                )
                if scale * term != closed.entry(i, k + j) * base.entry(k + j, j):
                    ok = False
    _report(3, "two-variable-jacobi", ok)


def test_criterion_4_solver_routes_agree():
    rng = random.Random(4)
    N = 8
    ok = True
    for family in (LAGUERRE, HERMITE, JACOBI):
        for _ in range(10):
            if family == LAGUERRE:
                params = ParamSet(alpha=_rational(rng))
            elif family == JACOBI:
                params = _family_params(JACOBI, rng, N)
            else:
                params = ParamSet()
            rhs = tuple(
                Poly([_rational(rng) for _ in range(min(j, 4) + 1)])
                for j in range(1, N + 1)
            )
            try:
                sys_ = DiffSystem(family, params, rhs)
                if solve_generic(sys_).coeffs != solve_closed_form(sys_).coeffs:
                    ok = False
            except (ParamError, PoleError):
                continue
    _report(4, "solver-routes-agree", ok)


def test_criterion_5_kernel_and_eigenvalue_closed_forms():
    ok = True
    for n in range(21):
        if kernel_at_zero(2 * n) != pochhammer(F(3, 2), n) / math.factorial(n):
            ok = False
        closed = 4 * pochhammer(F(5, 2), n - 1) / math.factorial(n - 1) if n else 0
        if alpha_even(n) != closed:  # the returned sum form
            ok = False
    ok = ok and alpha_even(1) == 4 and alpha_even(2) == 10
    _report(5, "kernel-eigenvalue-closed-forms", ok)


def test_criterion_6_differential_equation_end_to_end():
    start = time.monotonic()
    ok = True
    cfg = GenHermiteConfig(10)
    model = build_model(cfg)
    for n in range(1, 11):
        if verify_de(n, cfg, model)["status"] != "pass":
            ok = False
    rng = random.Random(6)
    for _ in range(3):
        odd = tuple(F(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(5))
        cfg = GenHermiteConfig(10, odd)
        model = build_model(cfg)
        for n in range(1, 11):
            if verify_de(n, cfg, model)["status"] != "pass":
                ok = False
    elapsed = time.monotonic() - start
    _report(6, "differential-equation-end-to-end", ok and elapsed < 30)


def test_criterion_7_hermite_orthogonality():
    ok = True
    for m in range(11):
        hm = polynomial(HERMITE, m)
        for n in range(11):
            value = hermite_moment_functional(hm * polynomial(HERMITE, n))
            expected = F(1, 2 ** n * math.factorial(n)) if m == n else F(0)
            if value != expected:
                ok = False
    _report(7, "hermite-orthogonality", ok)


def test_criterion_8_cli_determinism(capsys):
    args = ["suite", "--seed", "7", "--format", "json"]
    code1 = cli_main(list(args))
    out1 = capsys.readouterr().out
    code2 = cli_main(list(args))
    out2 = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and out1 == out2
    ok = ok and json.loads(out1)["status"] == "pass"
    _report(8, "cli-determinism", ok)
