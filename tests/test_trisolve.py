import random
from fractions import Fraction as F

import pytest

from opinv.families import HERMITE, JACOBI, LAGUERRE, ParamError, ParamSet
from opinv.poly import Poly
from opinv.trisolve import (
    SOLVABLE_FAMILIES,
    CoeffSolution,
    DiffSystem,
    solve_closed_form,
    solve_generic,
)


def random_rhs(rng, count, max_degree):
    def poly(deg):
        return Poly(
            [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg + 1)]
        )

    return tuple(poly(min(j, max_degree)) for j in range(1, count + 1))


def default_params(family):
    if family == LAGUERRE:
        return ParamSet(alpha=F(2, 5))
    if family == JACOBI:
        return ParamSet(alpha=F(1, 3), beta=F(-1, 4))
    return ParamSet()


def test_hermite_hand_examples():
    # F_1 = x forces a_1 = x; then F_2 = 0 forces a_2 = -x^2
    sys = DiffSystem(HERMITE, ParamSet(), (Poly.x(), Poly.zero()))
    sol = solve_generic(sys)
    assert sol.coeffs[0] == Poly.x()
    assert sol.coeffs[1] == Poly((0, 0, -1))
    assert solve_closed_form(sys).coeffs == sol.coeffs


def test_laguerre_hand_example():
    # L_1' = -1, so F_1 = 1 gives a_1 = -1
    sys = DiffSystem(LAGUERRE, ParamSet(alpha=F(1, 3)), (Poly.one(),))
    assert solve_generic(sys).coeffs == (Poly.const(F(-1)),)
    assert solve_closed_form(sys).coeffs == (Poly.const(F(-1)),)


@pytest.mark.parametrize("family", SOLVABLE_FAMILIES)
def test_closed_form_matches_generic(family):
    rng = random.Random(family)  # a str seed is hashed by sha512, the same in every process
    for trial in range(4):
        sys = DiffSystem(family, default_params(family), random_rhs(rng, 6, 4))
        generic = solve_generic(sys)
        closed = solve_closed_form(sys)
        assert generic.coeffs == closed.coeffs
        assert generic.method == "generic" and closed.method == "closed_form"


@pytest.mark.parametrize("family", SOLVABLE_FAMILIES)
def test_prefix_consistency(family):
    # truncating the infinite system later must not change earlier coeffs
    rng = random.Random(99)
    rhs = random_rhs(rng, 8, 3)
    short = solve_generic(DiffSystem(family, default_params(family), rhs[:6]))
    long = solve_generic(DiffSystem(family, default_params(family), rhs))
    assert long.coeffs[:6] == short.coeffs


def test_linearity_in_rhs():
    rng = random.Random(4)
    params = default_params(JACOBI)
    rhs_a = random_rhs(rng, 5, 3)
    rhs_b = random_rhs(rng, 5, 3)
    combined = tuple(p + 3 * q for p, q in zip(rhs_a, rhs_b))
    sol_a = solve_generic(DiffSystem(JACOBI, params, rhs_a)).coeffs
    sol_b = solve_generic(DiffSystem(JACOBI, params, rhs_b)).coeffs
    sol_c = solve_generic(DiffSystem(JACOBI, params, combined)).coeffs
    assert sol_c == tuple(p + 3 * q for p, q in zip(sol_a, sol_b))


def test_homogeneous_system_gives_zero():
    sys = DiffSystem(HERMITE, ParamSet(), (Poly.zero(),) * 5)
    assert all(p.is_zero() for p in solve_generic(sys).coeffs)


def test_rejects_unsupported_family():
    with pytest.raises(ParamError, match="solver supports"):
        DiffSystem("legendre", ParamSet(), (Poly.one(),))


def test_rejects_empty_rhs():
    with pytest.raises(ValueError, match="at least"):
        DiffSystem(HERMITE, ParamSet(), ())


def test_degenerate_parameters_hit_vanishing_diagonal():
    # P_1^(-1,-1) = 0, so D^1 p_1 vanishes and row 1 cannot be solved
    sys = DiffSystem(JACOBI, ParamSet(alpha=F(-1), beta=F(-1)), (Poly.one(),))
    with pytest.raises(ParamError, match="nonzero constant"):
        solve_generic(sys)


def test_solution_json():
    sol = CoeffSolution((Poly.x(),), "generic")
    data = sol.to_json()
    assert data["method"] == "generic"
    assert Poly.from_json(data["coeffs"][0]) == Poly.x()


def test_closed_form_rejects_pole_parameters():
    # a+b = -2: the jacobi_inv row weight (a+b+2)_2 vanishes at u_11
    sys = DiffSystem(JACOBI, ParamSet(alpha=F(-1), beta=F(-1)), (Poly.one(),))
    with pytest.raises(ParamError, match="pole"):
        solve_closed_form(sys)


def test_only_the_closed_form_back_substitutes(monkeypatch):
    # forward substitution solves row n for a_n, so summing the row again
    # would repeat its arithmetic; the closed form keeps its own check
    from opinv import trisolve

    checked = []
    monkeypatch.setattr(trisolve, "_check_satisfies", lambda sys, sol: checked.append(sol.method))
    sys = DiffSystem(JACOBI, default_params(JACOBI), random_rhs(random.Random(5), 4, 3))
    assert solve_generic(sys).coeffs == solve_closed_form(sys).coeffs
    assert checked == ["closed_form"]
