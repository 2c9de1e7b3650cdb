"""opinv benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Each run is one single-threaded process and a closed loop with one caller:
the next operation starts when the previous one returns.  opinv is imported
from ``src/`` next to this directory and receives only generated inputs.

--trace 0 times rounds of operations until --seconds of operation time have
passed (and at least the workload's minimum number of operations, so its
tail percentile has ten operations beyond it), checks every output, and
prints the end-to-end metrics.

--trace 1 runs a fixed number of rounds twice on fresh imports of opinv:
once untraced, once with :mod:`tracing` wrapping opinv's public functions.
It prints the per-layer metrics of the traced pass, whose counts depend on
the seed alone, with the tracing overhead (untraced over traced operations
per second), and writes the spans and a summary to ``perfbench/results/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from tracing import Tracer
from workloads import WORKLOADS, CheckError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

MODULES = ("exact", "poly", "series", "families", "inversion", "trisolve", "genhermite", "cli")
SETUP_REPEATS = 7
ROUND_QUANTILE = 0.9

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def load_opinv():
    """Import opinv afresh from ROOT/src (empty caches), dropping any copy
    already imported, and return its modules as a namespace."""
    src = ROOT / "src"
    if not (src / "opinv" / "__init__.py").is_file():
        raise SystemExit(f"opinv sources not found under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "opinv" or n.startswith("opinv.")]:
        del sys.modules[name]
    package = importlib.import_module("opinv")
    if Path(package.__file__).resolve().parent != src / "opinv":
        raise SystemExit(f"imported opinv from {package.__file__}, not from {src}")
    mods = {name: importlib.import_module(f"opinv.{name}") for name in MODULES}
    return SimpleNamespace(package=package, **mods)


def setup(workload, seed):
    """Import opinv and generate the first rounds; repeated, timed, median.
    The interpreter's own start-up is not included: it cannot be repeated
    inside one process and runs no opinv code."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        m = load_opinv()
        wl = WORKLOADS[workload](seed)
        first = []
        while sum(map(len, first)) < wl.min_ops:
            first.append(wl.make_round(len(first)))
        times.append(time.perf_counter() - start)
    return m, wl, first, statistics.median(times)


class Pass:
    """One closed-loop pass: operations in round order, each timed alone."""

    def __init__(self, wl, m, tracer=None):
        self.wl, self.m, self.tracer = wl, m, tracer
        self.latencies = []
        self.round_rates = []  # operations per second of each round
        self.round_medians = []  # median operation latency of each round
        self.failed = 0

    def run_round(self, ops):
        """Run one round; return its (op, output) records."""
        wl, m, tracer = self.wl, self.m, self.tracer
        records, busy = [], 0.0
        for op in ops:
            args = wl.prepare(m, op)
            try:
                start = time.perf_counter()
                if tracer is None:
                    out = wl.run(m, args)
                else:
                    out = tracer.run_op(len(self.latencies), wl.run, m, args)
                elapsed = time.perf_counter() - start
            except Exception:
                self.failed += 1
                if self.failed == 1:
                    traceback.print_exc(file=sys.stderr)
                continue
            busy += elapsed
            self.latencies.append(elapsed)
            records.append((op, out))
            if tracer is not None and wl.name == "requests":
                tracer.counts["cli.output_bytes"] += len(out[1].encode())
        if records:
            self.round_rates.append(len(records) / busy)
            self.round_medians.append(statistics.median(self.latencies[-len(records):]))
        return records

    @property
    def attempted(self):
        return len(self.latencies) + self.failed

    @property
    def busy(self):
        return sum(self.latencies)

    def check(self, records):
        """Check every output; True when all are right."""
        for op, out in records:
            try:
                self.wl.check(self.m, op, out)
            except CheckError as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                return False
        return True


def quantile(values, q):
    """Nearest-rank quantile: the smallest value with a share q of values at
    or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(p, wl, setup_s):
    """The end-to-end metrics of an untraced pass.

    The host's speed drifts by tens of percent over seconds, so the central
    figures are taken per round and read at the slow end: ops_per_s is the
    throughput 90% of rounds reach, op_p50_ms the median latency 90% of
    rounds stay within.  op_tail_ms is the workload's tail quantile over all
    operations.
    """
    n = len(p.latencies)
    if n - math.ceil(wl.tail * n) < 10:
        raise SystemExit(f"{n} operations leave fewer than ten beyond p{wl.tail * 100:g}")
    values = {
        "setup_s": setup_s,
        "ops_per_s": quantile(p.round_rates, 1 - ROUND_QUANTILE),
        "op_p50_ms": quantile(p.round_medians, ROUND_QUANTILE) * 1e3,
        "op_tail_ms": quantile(p.latencies, wl.tail) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def measure(workload, seed, seconds):
    """Rounds until the time and operation floors are met; each round's
    outputs are checked, outside the timed interval, and then dropped."""
    m, wl, first, setup_s = setup(workload, seed)
    p = Pass(wl, m)
    correct, argvs, r = True, [], 0
    while r < len(first) or p.busy < seconds or len(p.latencies) < wl.min_ops:
        records = p.run_round(first[r] if r < len(first) else wl.make_round(r))
        correct = p.check(records) and correct
        if workload == "requests":
            argvs += [op["argv"] for op, _ in records]
        r += 1
    metrics = end_to_end(p, wl, setup_s)
    info = {"rounds": r, "tail_quantile": wl.tail, "operations": len(p.latencies),
            "round_rates": p.round_rates, "round_medians": p.round_medians, "latencies": p.latencies}
    if workload == "requests":
        info["repeat_share"] = repeat_share(argvs)
    return correct, p.attempted, p.failed, metrics, info


def repeat_share(argvs):
    seen, repeats, total = set(), 0, 0
    for argv in argvs:
        key = tuple(argv)
        repeats += key in seen
        seen.add(key)
        total += 1
    return repeats / total


#: spans whose share of operation time a traced run records
SHARED_SPANS = (
    "inversion.sample_params", "inversion.build_matrix", "inversion.closed_form_inverse",
    "inversion.invert", "inversion.matmul", "genhermite.de_coefficients", "poly.compose",
)


def trace(workload, seed):
    m, wl, _, _ = setup(workload, seed)
    rounds = [wl.make_round(r) for r in range(wl.trace_rounds)]
    plain = Pass(wl, m)
    plain_records = [rec for ops in rounds for rec in plain.run_round(ops)]
    traced_m = load_opinv()
    tracer = Tracer(traced_m)
    traced = Pass(wl, traced_m, tracer)
    tracer.install()
    try:
        traced_records = [rec for ops in rounds for rec in traced.run_round(ops)]
    finally:
        tracer.uninstall()
    overhead = traced.busy / plain.busy
    metrics = tracer.layer_metrics(overhead)
    op_s = tracer.inclusive_s("op")
    info = {
        "rounds": wl.trace_rounds,
        "operations": len(traced.latencies),
        "untraced_s": plain.busy,
        "traced_s": traced.busy,
        "rebound": tracer.rebound,
        "op_s": op_s,
        "share_of_op_time": {
            name: tracer.inclusive_s(name) / op_s for name in SHARED_SPANS
        },
        "share_of_op_time_under": {
            f"{name} in {under}": tracer.inclusive_s(name, under=under) / op_s
            for name, under in (("inversion.matmul", "inversion.invert"),
                                ("poly.compose", "genhermite.de_coefficients"))
        },
    }
    RESULTS.mkdir(exist_ok=True)
    tracer.dump_spans(RESULTS / f"{workload}-seed{seed}-spans.jsonl")
    correct = plain.check(plain_records) and traced.check(traced_records)
    attempted = plain.attempted + traced.attempted
    return correct, attempted, plain.failed + traced.failed, metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace:
        correct, attempted, failed, metrics, info = trace(args.workload, args.seed)
    else:
        correct, attempted, failed, metrics, info = measure(args.workload, args.seed, args.seconds)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    summary = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, info=info)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as out:
        json.dump(summary, out, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
