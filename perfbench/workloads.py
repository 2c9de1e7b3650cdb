"""The benchmark's four workloads: input generation, the timed operation and
the output check of each.

A workload is a sequence of rounds.  Round r is generated from
``random.Random(seed * 1_000_003 + r)`` and r alone, so the same seed gives
the same operations, and every round has the same make-up of operation
kinds.
``prepare`` turns the generated data into opinv objects outside the timed
interval; ``run`` is the timed operation; ``check`` raises
:class:`CheckError` when an output is wrong.  Checks use :mod:`reference`
or properties the mathematics must have, never stored outputs.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from fractions import Fraction

import reference as ref
from reference import QI, RefPoly


class CheckError(Exception):
    """An operation's output is wrong."""


def require(cond, message):
    if not cond:
        raise CheckError(message)


def round_rng(seed, r):
    return random.Random(seed * 1_000_003 + r)


def rational(rng, bound=20):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def positive_rational(rng, bound=20):
    return Fraction(rng.randint(1, bound), rng.randint(1, bound))


PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def parameters(rng, count):
    """count values +-p/q, all p and q distinct primes from 11 to 47: the
    seed picks the values, but every parameter, and every sum of two, has
    the same few bits, so the cost of a run does not hinge on the sizes of
    the fractions a seed happens to draw."""
    primes = rng.sample(PRIMES, 2 * count)
    return [Fraction(rng.choice((-1, 1)) * p, q) for p, q in zip(primes[::2], primes[1::2])]


def parameter(rng):
    return parameters(rng, 1)[0]


#: (m, n) of primitive Pythagorean triples with hypotenuse 53..97
PHASE_PAIRS = ((7, 2), (7, 4), (7, 6), (8, 3), (8, 5), (9, 2), (9, 4))


def phase(rng):
    """A unimodular Gaussian rational ((m^2-n^2) + 2mn i)/(m^2+n^2)."""
    m, n = rng.choice(PHASE_PAIRS)
    h = m * m + n * n
    return (Fraction(m * m - n * n, h), Fraction(2 * m * n, h))


def family_params(family, rng):
    """Pole-free parameters for one family.  With distinct prime denominators
    Jacobi's alpha+beta is never an integer, where the reference recurrence
    would divide by zero, and the Gegenbauer poles lam = 0 and
    lam = -1/2 - m cannot be drawn."""
    if family == "jacobi":
        a, b = parameters(rng, 2)
        return {"alpha": a, "beta": b}
    if family == "gegenbauer":
        return {"lam": parameter(rng)}
    if family == "laguerre":
        return {"alpha": parameter(rng)}
    if family == "charlier":
        return {"a": parameter(rng)}
    if family == "meixner":
        beta_m, c = parameters(rng, 2)
        return {"beta_m": beta_m, "c": c}
    if family == "meixner_pollaczek":
        return {"lam": parameter(rng), "phase": phase(rng)}
    return {}


FAMILIES = (
    "jacobi", "gegenbauer", "chebyshev_t", "chebyshev_u", "legendre",
    "laguerre", "hermite", "charlier", "meixner", "meixner_pollaczek",
)

MATRIX_IDENTITIES = (
    "charlier_inv", "laguerre_inv", "laguerre_inv_plain", "jacobi_inv",
    "jacobi_from_meixner", "jacobi_from_ultra", "ultra_inv", "meixner_inv",
    "mp_inv_reflect", "mp_inv_phase", "legendre_limit_inverse",
    "chebU_banded_inverse", "chebT_inverse",
)

IDENTITIES = MATRIX_IDENTITIES + (
    "hermite_conv", "legendre_conv_u", "chebT_geom_conv", "chebU_recurrence",
    "chebTU_relation", "jacobi_two_var",
)


def to_ref(c):
    """opinv scalar (Fraction or GaussianRational) -> reference scalar."""
    im = getattr(c, "im", None)
    if im is None:
        return c
    return QI(c.re, im) if im else c.re


def ref_poly(p):
    """opinv Poly -> RefPoly."""
    return RefPoly(to_ref(c) for c in p.coeffs)


def param_set(m, params):
    kwargs = dict(params)
    if "phase" in kwargs:
        kwargs["phase"] = m.exact.GaussianRational(*kwargs["phase"])
    return m.families.ParamSet(**kwargs)


def check_inverse_at_points(matrix_rows, inverse_rows, points):
    """inverse(x0) * matrix(x0) is the identity for every x0; rows hold
    coefficient lists of a lower-triangular matrix (row i has i+1 entries)."""
    size = len(matrix_rows)
    for x0 in points:
        b = [[ref.evaluate(c, x0) for c in row] for row in matrix_rows]
        u = [[ref.evaluate(c, x0) for c in row] for row in inverse_rows]
        for i in range(size):
            for j in range(i + 1):
                value = sum((u[i][k] * b[k][j] for k in range(j, i + 1)), Fraction(0))
                require(value == (1 if i == j else 0),
                        f"inverse*matrix entry ({i},{j}) at x={x0} is {value}")


def sample_points(rng, count=2):
    return [positive_rational(rng, 9) + Fraction(1, 7) * k for k in range(count)]


class Workload:
    """Rounds of operations generated from a seed; see the module docstring."""

    def __init__(self, seed):
        self.seed = seed

    def make_round(self, r):
        return self.round_ops(round_rng(self.seed, r), r)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

class Catalog(Workload):
    """Each operation is one verify_identity call, sampling included; a round
    visits all 19 catalog identities once with fresh sampling seeds."""

    name = "catalog"
    size = 10
    tail = 0.95
    min_ops = 200
    trace_rounds = 2

    def round_ops(self, rng, r):
        return [
            {"identity": identity, "seed": rng.randrange(2 ** 31), "points": sample_points(rng)}
            for identity in IDENTITIES
        ]

    def prepare(self, m, op):
        return op

    def run(self, m, op):
        return m.inversion.verify_identity(op["identity"], self.size, samples=1, seed=op["seed"])

    def check(self, m, op, report):
        identity = op["identity"]
        require(report.identity == identity and report.size == self.size,
                f"report is for {report.identity} at size {report.size}")
        require(report.passed, f"{identity}: status {report.status}: {report.counterexample}")
        require(len(report.param_samples) == 1, f"{identity}: {len(report.param_samples)} samples")
        if identity not in MATRIX_IDENTITIES:
            return
        for params in report.param_samples:
            base = m.inversion.build_matrix(identity, self.size, params)
            inverse = m.inversion.closed_form_inverse(identity, self.size, params)
            check_inverse_at_points(
                [[ref_poly(p).coeffs for p in row] for row in base.rows],
                [[ref_poly(p).coeffs for p in row] for row in inverse.rows],
                op["points"],
            )


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

class Oracle(Workload):
    """Each operation expands one family's generating function and compares
    every coefficient with the explicit constructor; a round visits all ten
    families with fresh parameters.  Jacobi and Meixner-Pollaczek, the two
    slowest expansions, run at order 16 and the rest at order 20, so a round
    stays near five seconds."""

    name = "oracle"
    orders = {"jacobi": 16, "meixner_pollaczek": 16}
    default_order = 20
    tail = 0.85
    min_ops = 100
    trace_rounds = 1

    def round_ops(self, rng, r):
        ops = []
        for family in FAMILIES:
            order = self.orders.get(family, self.default_order)
            ops.append({
                "family": family,
                "order": order,
                "params": family_params(family, rng),
                "points": [positive_rational(rng, 9), QI(rational(rng, 9), positive_rational(rng, 9))],
            })
        return ops

    def prepare(self, m, op):
        return op["family"], param_set(m, op["params"]), op["order"]

    def run(self, m, args):
        family, params, order = args
        series = m.families.expand_generating_function(family, params, order)
        same = all(
            series.coeff(n) == m.families.polynomial(family, n, params)
            for n in range(order + 1)
        )
        return series, same

    def check(self, m, op, out):
        series, same = out
        self.check_coeffs(op, [ref_poly(p).coeffs for p in series.coeffs], same)

    def check_coeffs(self, op, coeffs, same):
        family, order = op["family"], op["order"]
        require(same, f"{family}: series and explicit constructor differ")
        require(len(coeffs) == order + 1, f"{family}: {len(coeffs)} coefficients")
        for x0 in op["points"]:
            expected = ref.members(family, op["params"], order, x0)
            for n in range(order + 1):
                require(ref.evaluate(coeffs[n], x0) == expected[n],
                        f"{family}: t^{n} coefficient differs from the recurrence at x={x0}")


# ---------------------------------------------------------------------------
# genhermite
# ---------------------------------------------------------------------------

reference_q = functools.lru_cache(maxsize=None)(ref.perturbation_q)


def check_genhermite(max_n, alphas, odd_alphas, a_coeffs, q_coeffs, points):
    """Closed forms of the even alphas and the kernel values, and the
    differential equation at rational (x, M) points, from coefficient lists.
    q_coeffs[n] is Q_n's coefficient list, or None to use the reference."""
    require(len(alphas) == max_n + 1 and len(a_coeffs) == max_n,
            f"{len(alphas)} alphas and {len(a_coeffs)} coefficients for max_n={max_n}")
    for n in range(max_n + 1):
        expected = ref.alpha_even_closed(n // 2) if n % 2 == 0 else odd_alphas[n // 2]
        require(alphas[n] == expected, f"alpha_{n} = {alphas[n]}, expected {expected}")
    qs = []
    for n in range(max_n + 1):
        q = reference_q(n)
        if q_coeffs is not None:
            require(RefPoly(q_coeffs[n]) == q, f"Q_{n} differs from the reference")
            if n % 2 == 1:
                # Q_n = K_{n-1}(0,0) H_n + lower terms, and H_n has leading coefficient 1/n!
                k = q_coeffs[n][-1] * math.factorial(n)
                require(k == ref.kernel_at_zero_closed(n // 2), f"K_{n - 1}(0,0) = {k}")
        qs.append(q.coeffs)
    for x0, m0 in points:
        for n in range(max_n + 1):
            residual = ref.de_residual(n, a_coeffs, qs[n], alphas[n], x0, m0)
            require(residual == 0, f"equation n={n} leaves {residual} at x={x0}, M={m0}")


class GenHermite(Workload):
    """Each operation is build_model plus verify_de for every n <= max_n.
    A round runs the default configuration (odd alphas all zero) and three
    seeded odd-alpha configurations."""

    name = "genhermite"
    max_n = 10
    tail = 0.95
    min_ops = 200
    trace_rounds = 10

    def round_ops(self, rng, r):
        ops = [{"odd_alphas": ()}]
        for _ in range(3):
            ops.append({"odd_alphas": tuple(parameters(rng, (self.max_n + 1) // 2))})
        for op in ops:
            op["points"] = [(positive_rational(rng, 9), rational(rng, 9) or Fraction(1)) for _ in range(2)]
        return ops

    def prepare(self, m, op):
        return m.genhermite.GenHermiteConfig(max_n=self.max_n, odd_alphas=op["odd_alphas"])

    def run(self, m, config):
        model = m.genhermite.build_model(config)
        reports = [m.genhermite.verify_de(n, config, model) for n in range(config.max_n + 1)]
        return model, reports

    def check(self, m, op, out):
        model, reports = out
        for n, report in enumerate(reports):
            require(report["n"] == n and report["status"] == "pass", f"verify_de n={n}: {report['status']}")
            require(all(not r["coeffs"] for r in report["residuals"].values()),
                    f"verify_de n={n} reports a nonzero residual")
        odd = op["odd_alphas"] or (Fraction(0),) * ((self.max_n + 1) // 2)
        check_genhermite(
            self.max_n,
            list(model.alphas),
            odd,
            [ref_poly(a).coeffs for a in model.a_coeffs],
            [ref_poly(q).coeffs for q in model.Q_polys],
            op["points"],
        )


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

_FLAG = {"alpha": "--alpha", "beta": "--beta", "lam": "--lambda", "a": "--a",
         "c": "--c", "beta_m": "--beta-m"}


def param_flags(params):
    # --flag=value keeps a negative value from being read as an option
    out = []
    for name, value in params.items():
        if name == "phase":
            out.append(f"--phase={value[0]},{value[1]}")
        else:
            out.append(f"{_FLAG[name]}={value}")
    return out


def poly_json(coeffs):
    return {"var": "x", "coeffs": [str(c) for c in coeffs]}


INVERT_FAMILY = {
    # identity -> (family of entry (i, j), its parameters given the request's)
    "laguerre_inv": ("laguerre", lambda p, j: {"alpha": p["alpha"] + j}),
    "charlier_inv": ("charlier", lambda p, j: {"a": p["a"]}),
}


class Requests(Workload):
    """Small CLI requests through opinv.cli.main(argv) with stdout captured.
    Every round holds the same 24 kinds of request: 18 fresh ones (10 eval,
    one per family; 3 solve; 2 invert; 2 verify; 1 gen-hermite coeffs) and
    the 6 requests of a hot pool fixed by the seed, in shuffled order."""

    name = "requests"
    tail = 0.99
    min_ops = 1000
    trace_rounds = 10

    def __init__(self, seed):
        super().__init__(seed)
        rng = random.Random(f"hot:{seed}")
        self.hot_pool = [self._eval(rng, 0, k) for k in (0, 5, 9)]
        self.hot_pool += [self._solve(rng, 1), self._invert(rng, 0), self._gen_hermite(rng)]

    def round_ops(self, rng, r):
        ops = [self._eval(rng, r, k) for k in range(len(FAMILIES))]
        ops += [self._solve(rng, k) for k in range(3)]
        ops += [self._invert(rng, k) for k in range(2)]
        ops += [self._verify(rng, k) for k in range(2)]
        ops.append(self._gen_hermite(rng))
        ops += self.hot_pool
        rng.shuffle(ops)
        return ops

    # -- request makers: the slot k fixes the kind and size of a request, the
    # seed its parameters, so every round costs about the same; parameter-free
    # families vary their degree with the round r instead

    def _eval(self, rng, r, k):
        family = FAMILIES[k % len(FAMILIES)]
        params = family_params(family, rng)
        n = 6 if params else 5 + (r + k) % 4
        argv = ["eval", "--family", family, "--n", str(n), *param_flags(params), "--format", "json"]
        return {"kind": "eval", "argv": argv, "family": family, "n": n, "params": params}

    def _solve(self, rng, k):
        family = ("laguerre", "hermite", "jacobi")[k % 3]
        params = family_params(family, rng)
        rhs = [[rational(rng, 9) for _ in range(1 + j % 3)] for j in range(4)]
        argv = ["solve", "--family", family, "--rhs", json.dumps([poly_json(c) for c in rhs]),
                *param_flags(params), "--format", "json"]
        return {"kind": "solve", "argv": argv, "family": family, "params": params,
                "rhs": rhs, "points": sample_points(rng)}

    def _invert(self, rng, k):
        identity = ("laguerre_inv", "charlier_inv")[k % 2]
        params = {"alpha": parameter(rng)} if identity == "laguerre_inv" else {"a": parameter(rng)}
        argv = ["invert", "--identity", identity, "--size", "4", *param_flags(params), "--format", "json"]
        return {"kind": "invert", "argv": argv, "identity": identity, "params": params,
                "points": sample_points(rng)}

    def _verify(self, rng, k):
        identity = ("jacobi_inv", "meixner_inv")[k % 2]
        argv = ["verify", "--identity", identity, "--size", "3", "--samples", "1",
                "--seed", str(rng.randrange(10 ** 6)), "--format", "json"]
        return {"kind": "verify", "argv": argv, "identity": identity}

    def _gen_hermite(self, rng):
        max_n = 5
        odd = tuple(parameters(rng, (max_n + 1) // 2))
        argv = ["gen-hermite", "coeffs", "--max-n", str(max_n), "--format", "json",
                "--odd-alphas=" + ",".join(str(v) for v in odd)]
        points = [(positive_rational(rng, 9), rational(rng, 9) or Fraction(1))]
        return {"kind": "gen-hermite", "argv": argv, "max_n": max_n, "odd_alphas": odd, "points": points}

    # -- the timed operation and its check ------------------------------------

    def prepare(self, m, op):
        return op["argv"]

    def run(self, m, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = m.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
        return rc, buf.getvalue()

    def check(self, m, op, out):
        rc, text = out
        require(rc == 0, f"{op['argv']} exited {rc}")
        obj = json.loads(text)
        getattr(self, "_check_" + op["kind"].replace("-", "_"))(op, obj)

    def _check_eval(self, op, obj):
        got = ref.parse_poly(obj)
        expected = ref.member(op["family"], op["params"], op["n"])
        require(got == expected, f"eval {op['family']} n={op['n']}: {got} != {expected}")

    def _check_solve(self, op, obj):
        require(obj["equal"] is True, "solve: methods disagree")
        generic = [ref.parse_poly(p) for p in obj["generic"]["coeffs"]]
        closed = [ref.parse_poly(p) for p in obj["closed_form"]["coeffs"]]
        require(generic == closed, "solve: coefficient lists differ")
        rhs = op["rhs"]
        require(len(generic) == len(rhs), f"solve: {len(generic)} coefficients for N={len(rhs)}")
        members = ref.members(op["family"], op["params"], len(rhs))
        for x0 in op["points"]:
            for n in range(1, len(rhs) + 1):
                total = sum((generic[i - 1](x0) * members[n].derivative(i)(x0) for i in range(1, n + 1)),
                            Fraction(0))
                require(total == ref.evaluate(rhs[n - 1], x0),
                        f"solve {op['family']}: row {n} fails back-substitution at x={x0}")

    def _check_invert(self, op, obj):
        family, entry_params = INVERT_FAMILY[op["identity"]]
        rows = [[ref.parse_poly(p) for p in row] for row in obj["matrix"]["rows"]]
        for i, row in enumerate(rows):
            for j, p in enumerate(row):
                expected = ref.member(family, entry_params(op["params"], j), i - j)
                require(p == expected, f"invert {op['identity']}: matrix entry ({i},{j})")
        inverse = [[ref.parse_poly(p).coeffs for p in row] for row in obj["inverse"]["rows"]]
        check_inverse_at_points([[p.coeffs for p in row] for row in rows], inverse, op["points"])

    def _check_verify(self, op, obj):
        require(obj["identity"] == op["identity"], "verify: wrong identity")
        require(obj["status"] == "pass", f"verify {op['identity']}: {obj['status']}")
        require(len(obj["samples"]) == 1, f"verify {op['identity']}: {len(obj['samples'])} samples")

    def _check_gen_hermite(self, op, obj):
        max_n = op["max_n"]
        odd = op["odd_alphas"] or (Fraction(0),) * ((max_n + 1) // 2)
        check_genhermite(
            max_n,
            [ref.parse_scalar(a) for a in obj["alphas"]],
            odd,
            [ref.parse_poly(p).coeffs for p in obj["coeffs"]],
            None,
            op["points"],
        )


WORKLOADS = {wl.name: wl for wl in (Catalog, Oracle, GenHermite, Requests)}
