"""Spans and counters recorded around opinv's public functions, from outside
the package.

:class:`Tracer` replaces each instrumented function or method with a wrapper
and puts the originals back on :meth:`Tracer.uninstall`.  A module-level
function is replaced under every name that binds it in every loaded opinv
module (``inversion.polynomial`` and ``trisolve.polynomial`` alike), so no
call path escapes the wrapper.

Ordinary wrappers record a span (name, start, end, parent span, operation
id).  The leaf kernels ``Poly.__mul__`` and ``GaussianRational.__mul__`` run
millions of times, so they only add to a call count and a self time.  A
layer's self time is its duration minus the time its instrumented callees
cover; both kinds of wrapper take part in that bookkeeping.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from fractions import Fraction

# (module, attribute, layer name); "Class.method" patches a class attribute
SPANS = (
    ("poly", "Poly.__call__", "poly.compose"),
    ("exact", "pochhammer_poly", "exact.pochhammer_poly"),
    ("series", "TruncSeries.__mul__", "series.mul"),
    ("series", "TruncSeries.__rmul__", "series.mul"),
    ("series", "TruncSeries.exp", "series.exp"),
    ("series", "TruncSeries.log", "series.log"),
    ("series", "TruncSeries.invert", "series.invert"),
    ("families", "polynomial", "families.polynomial"),
    ("families", "expand_generating_function", "families.expand_generating_function"),
    ("inversion", "verify_identity", "inversion.verify_identity"),
    ("inversion", "sample_params", "inversion.sample_params"),
    ("inversion", "build_matrix", "inversion.build_matrix"),
    ("inversion", "closed_form_inverse", "inversion.closed_form_inverse"),
    ("inversion", "LowerTriPolyMatrix.invert", "inversion.invert"),
    ("inversion", "LowerTriPolyMatrix.__matmul__", "inversion.matmul"),
    ("trisolve", "solve_generic", "trisolve.solve_generic"),
    ("trisolve", "solve_closed_form", "trisolve.solve_closed_form"),
    ("genhermite", "build_model", "genhermite.build_model"),
    ("genhermite", "de_coefficients", "genhermite.de_coefficients"),
    ("genhermite", "verify_de", "genhermite.verify_de"),
    ("genhermite", "kernel", "genhermite.kernel"),
    ("cli", "main", "cli.main"),
)

LEAVES = (
    ("poly", "Poly.__mul__", "poly.mul"),
    ("poly", "Poly.__rmul__", "poly.mul"),
    ("exact", "GaussianRational.__mul__", "exact.gaussian_mul"),
    ("exact", "GaussianRational.__rmul__", "exact.gaussian_mul"),
)

#: per-layer metrics of a traced run: (name, unit, better)
PER_LAYER = (
    ("poly.mul.calls", "count", "lower"),
    ("poly.mul.coef_products", "count", "lower"),
    ("poly.mul.self_s", "s", "lower"),
    ("poly.compose.calls", "count", "lower"),
    ("poly.compose.self_s", "s", "lower"),
    ("exact.gaussian_mul.calls", "count", "lower"),
    ("exact.pochhammer_poly.self_s", "s", "lower"),
    ("series.mul.calls", "count", "lower"),
    ("series.mul.self_s", "s", "lower"),
    ("series.exp.self_s", "s", "lower"),
    ("series.log.self_s", "s", "lower"),
    ("series.invert.self_s", "s", "lower"),
    ("families.polynomial.calls", "count", "lower"),
    ("families.polynomial.distinct", "count", "lower"),
    ("families.polynomial.hit_ratio", "ratio", "higher"),
    ("families.polynomial.self_s", "s", "lower"),
    ("families.expand_generating_function.self_s", "s", "lower"),
    ("inversion.sample_params.self_s", "s", "lower"),
    ("inversion.build_matrix.self_s", "s", "lower"),
    ("inversion.invert.self_s", "s", "lower"),
    ("inversion.matmul.calls", "count", "lower"),
    ("inversion.matmul.self_s", "s", "lower"),
    ("inversion.closed_form_inverse.self_s", "s", "lower"),
    ("trisolve.solve_generic.self_s", "s", "lower"),
    ("trisolve.solve_closed_form.self_s", "s", "lower"),
    ("genhermite.build_model.self_s", "s", "lower"),
    ("genhermite.de_coefficients.self_s", "s", "lower"),
    ("genhermite.verify_de.self_s", "s", "lower"),
    ("genhermite.kernel.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _resolve(owner, path):
    """(object holding the attribute, attribute name) for "name" or "Class.name"."""
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Wraps opinv's public functions and records spans and counters."""

    def __init__(self, m):
        self.m = m
        self.stack = []  # frames [time covered by callees, span index]
        self.spans = []  # (name, start, end, parent index, op id)
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.distinct_members = set()
        self.op_id = None
        self.patched = []  # (owner, attribute, original)
        self.rebound = {}  # layer name -> "module.attr" names replaced
        self._op = self._span(lambda fn, *args: fn(*args), "op")

    # -- installing --------------------------------------------------------

    def install(self):
        modules = list(vars(self.m).values())
        for module, path, name in SPANS + LEAVES:
            owner, attr = _resolve(getattr(self.m, module), path)
            original = owner.__dict__[attr]
            if name == "poly.compose":
                wrapper = self._compose(original)
            elif name == "poly.mul":
                wrapper = self._poly_mul(original)
            elif name == "exact.gaussian_mul":
                wrapper = self._leaf(original, name)
            elif name == "families.polynomial":
                wrapper = self._span(original, name, key=self._member_key)
            else:
                wrapper = self._span(original, name)
            if "." in path:
                self._patch(owner, attr, original, wrapper)
                continue
            # a module function: replace every binding of it in every module
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, original, wrapper)
                        self.rebound.setdefault(name, []).append(f"{mod.__name__}.{binding}")

    def _patch(self, owner, attr, original, wrapper):
        self.patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name, key=None):
        stack, spans, counts, self_s = self.stack, self.spans, self.counts, self.self_s
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key is not None:
                key(args, kwargs)
            parent = stack[-1][1] if stack else None
            index = len(spans)
            spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[0]
                counts[name] += 1
                if stack:
                    stack[-1][0] += duration
                spans[index] = (name, start, end, parent, tracer.op_id)

        return wrapper

    def _leaf(self, fn, name, size=None):
        stack, counts, self_s = self.stack, self.counts, self.self_s
        clock = time.perf_counter
        products = name + ".coef_products"

        @functools.wraps(fn)
        def wrapper(a, b):
            frame = [0.0, stack[-1][1] if stack else None]
            stack.append(frame)
            start = clock()
            try:
                result = fn(a, b)
            finally:
                duration = clock() - start
                stack.pop()
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if result is not NotImplemented:
                counts[name] += 1
                if size is not None:
                    counts[products] += size(a, b)
            return result

        return wrapper

    def _poly_mul(self, fn):
        poly = self.m.poly.Poly
        scalars = (int, Fraction, self.m.exact.GaussianRational)

        def size(a, b):
            if isinstance(b, poly):
                return len(a.coeffs) * len(b.coeffs)
            return len(a.coeffs) if isinstance(b, scalars) and b else 0

        return self._leaf(fn, "poly.mul", size)

    def _compose(self, fn):
        poly = self.m.poly.Poly
        span = self._span(fn, "poly.compose")

        @functools.wraps(fn)
        def wrapper(p, x0):
            if isinstance(x0, poly):
                return span(p, x0)
            return fn(p, x0)

        return wrapper

    def _member_key(self, args, kwargs):
        params = args[2] if len(args) > 2 else kwargs.get("params", self.m.families.EMPTY_PARAMS)
        family = args[0] if args else kwargs["family"]
        n = args[1] if len(args) > 1 else kwargs["n"]
        self.distinct_members.add((family, n, params))

    # -- one operation ------------------------------------------------------

    def run_op(self, op_id, fn, *args):
        """Run one operation as a root span named "op"."""
        self.op_id = op_id
        try:
            return self._op(fn, *args)
        finally:
            self.op_id = None

    # -- results ------------------------------------------------------------

    def layer_metrics(self, overhead_ratio):
        c, s = self.counts, self.self_s
        calls = c["families.polynomial"]
        distinct = len(self.distinct_members)
        values = {
            "poly.mul.calls": c["poly.mul"],
            "poly.mul.coef_products": c["poly.mul.coef_products"],
            "poly.mul.self_s": s["poly.mul"],
            "poly.compose.calls": c["poly.compose"],
            "poly.compose.self_s": s["poly.compose"],
            "exact.gaussian_mul.calls": c["exact.gaussian_mul"],
            "exact.pochhammer_poly.self_s": s["exact.pochhammer_poly"],
            "series.mul.calls": c["series.mul"],
            "series.mul.self_s": s["series.mul"],
            "series.exp.self_s": s["series.exp"],
            "series.log.self_s": s["series.log"],
            "series.invert.self_s": s["series.invert"],
            "families.polynomial.calls": calls,
            "families.polynomial.distinct": distinct,
            "families.polynomial.hit_ratio": (calls - distinct) / calls if calls else 0.0,
            "families.polynomial.self_s": s["families.polynomial"],
            "families.expand_generating_function.self_s": s["families.expand_generating_function"],
            "inversion.sample_params.self_s": s["inversion.sample_params"],
            "inversion.build_matrix.self_s": s["inversion.build_matrix"],
            "inversion.invert.self_s": s["inversion.invert"],
            "inversion.matmul.calls": c["inversion.matmul"],
            "inversion.matmul.self_s": s["inversion.matmul"],
            "inversion.closed_form_inverse.self_s": s["inversion.closed_form_inverse"],
            "trisolve.solve_generic.self_s": s["trisolve.solve_generic"],
            "trisolve.solve_closed_form.self_s": s["trisolve.solve_closed_form"],
            "genhermite.build_model.self_s": s["genhermite.build_model"],
            "genhermite.de_coefficients.self_s": s["genhermite.de_coefficients"],
            "genhermite.verify_de.self_s": s["genhermite.verify_de"],
            "genhermite.kernel.calls": c["genhermite.kernel"],
            "cli.main.self_s": s["cli.main"],
            "cli.output_bytes": c["cli.output_bytes"],
            "trace.overhead_ratio": overhead_ratio,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}

    def inclusive_s(self, name, under=None):
        """Total duration of the spans called name; with under, only those
        with an ancestor span called under."""
        total = 0.0
        for span in self.spans:
            if span[0] != name:
                continue
            if under is not None:
                parent = span[3]
                while parent is not None and self.spans[parent][0] != under:
                    parent = self.spans[parent][3]
                if parent is None:
                    continue
            total += span[2] - span[1]
        return total

    def dump_spans(self, path):
        """One JSON list per line: name, start, end, parent index, op id;
        times in seconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            for name, start, end, parent, op_id in self.spans:
                out.write(json.dumps([name, start - origin, end - origin, parent, op_id]) + "\n")
