"""Command-line interface: evaluation, identity verification, matrix
inversion, system solving, the generalized-Hermite pipeline, and the
aggregate suite.

Exit codes: 0 success/pass, 1 verification failure, 2 usage error.
Rationals cross this boundary as strings ("p/q"), never floats; there is
no precision flag because nothing is approximate.  Output is plain text by
default, JSON with --format json (byte-identical for identical arguments),
LaTeX with --format latex where it makes sense.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional, Tuple

from .exact import GaussianRational, format_scalar
from .families import (
    FAMILIES,
    REQUIRED_PARAMS,
    CheckFailure,
    ParamError,
    ParamSet,
    polynomial,
)
from .genhermite import (
    GenHermiteConfig,
    build_model,
    kernel,
    kernel_at_zero,
    verify_de,
)
from .inversion import (
    ALL_IDENTITIES,
    IDENTITY_PARAMS,
    MATRIX_IDENTITIES,
    build_matrix,
    verify_identity,
)
from .poly import Poly
from .trisolve import (
    SOLVABLE_FAMILIES,
    DiffSystem,
    solve_closed_form,
    solve_generic,
)

SUITE_MATRIX_SIZE = 8
SUITE_CONV_SIZE = 12
SUITE_SAMPLES = 5


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational 'p/q': {text!r}") from exc


def _phase(text: str) -> GaussianRational:
    try:
        re_str, im_str = text.split(",")
        return GaussianRational(Fraction(re_str), Fraction(im_str))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"phase must be 'a/b,c/d' (real,imag), got {text!r}"
        ) from exc


def _alpha_list(text: str):
    return tuple(_fraction(part) for part in text.split(","))


def _rhs(text: str) -> Tuple[Poly, ...]:
    try:
        return tuple(Poly.from_json(obj) for obj in json.loads(text))
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a JSON list of polynomials: {text!r}") from exc


#: the flag and value type of each ParamSet field, in field order
_PARAM_FLAGS = {
    "alpha": ("--alpha", _fraction),
    "beta": ("--beta", _fraction),
    "lam": ("--lambda", _fraction),
    "a": ("--a", _fraction),
    "c": ("--c", _fraction),
    "beta_m": ("--beta-m", _fraction),
    "phase": ("--phase", _phase),
}

#: options whose values may be negative rationals ("-1/3", "-3/5,4/5")
_RATIONAL_OPTIONS = frozenset([flag for flag, _ in _PARAM_FLAGS.values()] + ["--odd-alphas"])


def _attach_negative_values(argv):
    """Rewrite "--beta -1/3" as "--beta=-1/3".

    argparse takes a separate argument that starts with "-" and is not a
    plain negative number for an option, so it would refuse the value.  No
    option of this tool starts with "-" and a digit, so the rewrite is
    unambiguous.
    """
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        value = argv[i + 1] if i + 1 < len(argv) else ""
        if arg in _RATIONAL_OPTIONS and value[:1] == "-" and value[1:2].isdigit():
            out.append(f"{arg}={value}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def _add_param_flags(parser: argparse.ArgumentParser):
    for name, (flag, kind) in _PARAM_FLAGS.items():
        parser.add_argument(flag, dest=name, type=kind, default=None)


def _flags(names) -> str:
    return ", ".join(_PARAM_FLAGS[name][0] for name in names)


def _params_from_args(args) -> ParamSet:
    """The ParamSet the flags give; ParamError, naming the flags, unless they
    set exactly the parameters the command's family or identity takes."""
    if args.command == "invert":
        target, takes = args.identity, IDENTITY_PARAMS[args.identity]
    else:
        target, takes = args.family, REQUIRED_PARAMS[args.family]
    given = [name for name in _PARAM_FLAGS if getattr(args, name) is not None]
    if set(given) != set(takes):
        raise ParamError(f"{target} takes parameters ({_flags(takes)}), got ({_flags(given)})")
    return ParamSet(**{name: getattr(args, name) for name in _PARAM_FLAGS})


def _emit(obj: dict, text: str, fmt: str, latex: Optional[str] = None):
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True))
    elif fmt == "latex":
        print(latex if latex is not None else text)
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opinv",
        description="exact orthogonal-polynomial inversion toolkit",
    )
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=("text", "json", "latex"),
        default="text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[fmt], **kwargs)

    p_eval = add_parser("eval", help="construct one family member")
    p_eval.add_argument("--family", choices=FAMILIES, required=True)
    p_eval.add_argument("--n", type=int, required=True)
    _add_param_flags(p_eval)

    p_verify = add_parser("verify", help="verify one catalog identity")
    p_verify.add_argument("--identity", choices=ALL_IDENTITIES, required=True)
    p_verify.add_argument("--size", type=int, default=8)
    p_verify.add_argument("--samples", type=int, default=10)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--pit", action="store_true",
                          help="grid sampling above the parameter degree bound")

    p_invert = add_parser("invert", help="build and invert an identity's matrix")
    p_invert.add_argument("--identity", choices=MATRIX_IDENTITIES, required=True)
    p_invert.add_argument("--size", type=int, default=4)
    _add_param_flags(p_invert)

    p_solve = add_parser("solve", help="solve sum a_i D^i p_n = F_n both ways")
    p_solve.add_argument("--family", choices=SOLVABLE_FAMILIES, required=True)
    p_solve.add_argument(
        "--rhs",
        type=_rhs,
        required=True,
        help='JSON list of polynomials, e.g. \'[{"var":"x","coeffs":["0","1"]}]\'',
    )
    _add_param_flags(p_solve)

    p_gen = add_parser("gen-hermite", help="perturbed-Hermite pipeline")
    p_gen.add_argument("action", choices=("coeffs", "check", "kernel"))
    p_gen.add_argument("--max-n", type=int, required=True)
    p_gen.add_argument("--odd-alphas", type=_alpha_list, default=())

    p_suite = add_parser("suite", help="run every identity at default sizes")
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument("--samples", type=int, default=SUITE_SAMPLES)
    p_suite.add_argument("--size", type=int, default=SUITE_MATRIX_SIZE)
    p_suite.add_argument("--pit", action="store_true")

    return parser


def _cmd_eval(args) -> int:
    p = polynomial(args.family, args.n, _params_from_args(args))
    _emit(
        p.to_json(),
        f"{args.family}[{args.n}] = {p.to_latex()}",
        args.format,
        latex=p.to_latex(),
    )
    return 0


def _cmd_verify(args) -> int:
    report = verify_identity(
        args.identity,
        size=args.size,
        samples=args.samples,
        seed=args.seed,
        pit=args.pit,
    )
    text = (
        f"{report.identity}: {report.status} "
        f"(size={report.size}, samples={len(report.param_samples)}, "
        f"{report.elapsed_ms:.1f} ms)"
    )
    if report.counterexample:
        text += f"\n  counterexample: {report.counterexample}"
    _emit(report.to_json(), text, args.format)
    return 0 if report.passed else 1


def _cmd_invert(args) -> int:
    matrix = build_matrix(args.identity, args.size, _params_from_args(args))
    inverse = matrix.invert()
    # a one-sided inverse of a square matrix over a commutative ring is
    # two-sided, so this product also checks the forward substitution
    if not (inverse @ matrix).is_identity():
        raise CheckFailure(f"inverse @ matrix is not the identity (size {args.size})")
    obj = {
        "identity": args.identity,
        "matrix": matrix.to_json(),
        "inverse": inverse.to_json(),
    }
    lines = [f"{args.identity}, size {args.size}", "inverse entries:"]
    for i in range(args.size):
        lines.append(
            "  " + "  ".join(inverse.entry(i, j).to_latex() for j in range(i + 1))
        )
    _emit(obj, "\n".join(lines), args.format)
    return 0


def _cmd_solve(args) -> int:
    system = DiffSystem(args.family, _params_from_args(args), args.rhs)
    generic = solve_generic(system)
    closed = solve_closed_form(system)
    equal = generic.coeffs == closed.coeffs
    obj = {
        "family": args.family,
        "generic": generic.to_json(),
        "closed_form": closed.to_json(),
        "equal": equal,
    }
    lines = [f"{args.family}, N={len(args.rhs)}, methods agree: {equal}"]
    for k, p in enumerate(generic.coeffs, start=1):
        lines.append(f"  a_{k} = {p.to_latex()}")
    _emit(obj, "\n".join(lines), args.format)
    return 0 if equal else 1


def _cmd_gen_hermite(args) -> int:
    config = GenHermiteConfig(max_n=args.max_n, odd_alphas=args.odd_alphas)
    if args.action == "kernel":
        values = [(kernel(n), kernel_at_zero(n)) for n in range(args.max_n + 1)]
        obj = {
            "kernels": [k.to_json() for k, _ in values],
            "at_zero": [format_scalar(v) for _, v in values],
        }
        text = "\n".join(
            f"K_{n}(x,0) = {k.to_latex()}   K_{n}(0,0) = {v}" for n, (k, v) in enumerate(values)
        )
        _emit(obj, text, args.format)
        return 0
    if args.action == "coeffs" and args.max_n < 1:
        raise ValueError("gen-hermite coeffs computes a_1 .. a_max_n: --max-n must be at least 1")
    model = build_model(config)
    if args.action == "coeffs":
        obj = {
            "alphas": [format_scalar(a) for a in model.alphas],
            "coeffs": [p.to_json() for p in model.a_coeffs],
        }
        text = "\n".join(
            f"a_{k} = {p.to_latex()}" for k, p in enumerate(model.a_coeffs, start=1)
        )
        latex = "\\\\\n".join(
            f"a_{{{k}}}(x) = {p.to_latex()}"
            for k, p in enumerate(model.a_coeffs, start=1)
        )
        _emit(obj, text, args.format, latex=latex)
        return 0
    # check
    reports = [verify_de(n, config, model) for n in range(args.max_n + 1)]
    ok = all(r["status"] == "pass" for r in reports)
    obj = {"status": "pass" if ok else "fail", "reports": reports}
    text = "\n".join(f"n={r['n']}: {r['status']}" for r in reports)
    _emit(obj, text, args.format)
    return 0 if ok else 1


def _cmd_suite(args) -> int:
    reports = []
    for identity in ALL_IDENTITIES:
        size = args.size if identity in MATRIX_IDENTITIES else SUITE_CONV_SIZE
        reports.append(
            verify_identity(
                identity,
                size=size,
                samples=args.samples,
                seed=args.seed,
                pit=args.pit,
            )
        )
    ok = all(r.passed for r in reports)
    obj = {
        "status": "pass" if ok else "fail",
        "seed": args.seed,
        "reports": [r.to_json() for r in reports],
    }
    lines = [
        f"{r.identity}: {r.status} (size={r.size}, samples={len(r.param_samples)}, "
        f"{r.elapsed_ms:.1f} ms)"
        for r in reports
    ]
    lines.append(f"suite: {'pass' if ok else 'fail'}")
    _emit(obj, "\n".join(lines), args.format)
    return 0 if ok else 1


_COMMANDS = {
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "invert": _cmd_invert,
    "solve": _cmd_solve,
    "gen-hermite": _cmd_gen_hermite,
    "suite": _cmd_suite,
}


# built on the first main() call and reused: parsing leaves the parser unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_attach_negative_values(list(argv)))
    try:
        return _COMMANDS[args.command](args)
    except ParamError as exc:
        message = exc.naming(_PARAM_FLAGS[exc.field][0]) if exc.field else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
