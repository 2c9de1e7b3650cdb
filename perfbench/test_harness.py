"""Self-test of the benchmark harness: every workload runs a few operations
and passes its checks, and every check fails on a corrupted output.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

import run
import tracing
import workloads
from workloads import CheckError

HERE = Path(__file__).resolve().parent


def first_ops(wl, count, pick=None):
    ops = wl.make_round(0)
    if pick is not None:
        ops = [op for op in ops if pick(op)]
    return ops[:count]


def run_checked(wl, ops):
    m = run.load_opinv()
    p = run.Pass(wl, m)
    records = p.run_round(ops)
    assert p.failed == 0 and len(records) == len(ops)
    assert p.check(records)
    return m, [out for _, out in records]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_rounds_depend_on_the_seed_alone():
    for name, make in workloads.WORKLOADS.items():
        a = make(5).make_round(2)
        b = make(5).make_round(2)
        assert repr(a) == repr(b), name


# -- catalog ----------------------------------------------------------------

def test_catalog_checks():
    wl = workloads.Catalog(3)
    ops = first_ops(wl, 3, pick=lambda op: op["identity"] in ("laguerre_inv", "chebT_inverse", "hermite_conv"))
    m, reports = run_checked(wl, ops)
    bad = replace(reports[0], status="fail")
    with pytest.raises(CheckError):
        wl.check(m, ops[0], bad)
    # swap two entries of a closed-form inverse: the product is no longer I
    params = reports[0].param_samples[0]
    base = m.inversion.build_matrix("laguerre_inv", wl.size, params)
    inverse = m.inversion.closed_form_inverse("laguerre_inv", wl.size, params)
    rows = [[workloads.ref_poly(p).coeffs for p in row] for row in inverse.rows]
    base_rows = [[workloads.ref_poly(p).coeffs for p in row] for row in base.rows]
    workloads.check_inverse_at_points(base_rows, rows, ops[0]["points"])
    rows[3][0], rows[3][1] = rows[3][1], rows[3][0]
    with pytest.raises(CheckError):
        workloads.check_inverse_at_points(base_rows, rows, ops[0]["points"])


# -- oracle -----------------------------------------------------------------

def test_oracle_checks():
    wl = workloads.Oracle(3)
    ops = first_ops(wl, 3, pick=lambda op: op["family"] in ("hermite", "laguerre", "charlier"))
    m, outs = run_checked(wl, ops)
    series, same = outs[1]
    coeffs = [workloads.ref_poly(p).coeffs for p in series.coeffs]
    coeffs[7] = coeffs[7][:2] + (coeffs[7][2] + F(1, 10 ** 6),) + coeffs[7][3:]
    with pytest.raises(CheckError):
        wl.check_coeffs(ops[1], coeffs, same)
    with pytest.raises(CheckError):
        wl.check(m, ops[1], (series, False))


# -- genhermite ---------------------------------------------------------------

def test_genhermite_checks():
    wl = workloads.GenHermite(3)
    ops = first_ops(wl, 2)
    m, outs = run_checked(wl, ops)
    model, reports = outs[1]
    op = ops[1]
    args = dict(
        max_n=wl.max_n,
        alphas=list(model.alphas),
        odd_alphas=op["odd_alphas"],
        a_coeffs=[workloads.ref_poly(a).coeffs for a in model.a_coeffs],
        q_coeffs=[workloads.ref_poly(q).coeffs for q in model.Q_polys],
        points=op["points"],
    )
    workloads.check_genhermite(**args)

    a = [list(c) or [F(0)] for c in args["a_coeffs"]]
    a[2][0] += 1
    with pytest.raises(CheckError):
        workloads.check_genhermite(**dict(args, a_coeffs=a))
    alphas = list(args["alphas"])
    alphas[4] += 1
    with pytest.raises(CheckError):
        workloads.check_genhermite(**dict(args, alphas=alphas))
    q = [list(c) for c in args["q_coeffs"]]
    q[5][1] += 1
    with pytest.raises(CheckError):
        workloads.check_genhermite(**dict(args, q_coeffs=q))
    failed = [dict(r) for r in reports]
    failed[3]["status"] = "fail"
    with pytest.raises(CheckError):
        wl.check(m, op, (model, failed))


# -- requests -----------------------------------------------------------------

def corrupt_first_coefficient(poly_json):
    coeffs = list(poly_json["coeffs"]) or ["0"]
    coeffs[0] = str(F(coeffs[0]) + 1) if "i" not in coeffs[0] else "1"
    return dict(poly_json, coeffs=coeffs)


def test_requests_checks():
    wl = workloads.Requests(3)
    ops = wl.make_round(0)
    kinds = {}
    for op in ops:
        kinds.setdefault(op["kind"], op)
    assert set(kinds) == {"eval", "solve", "invert", "verify", "gen-hermite"}
    m, outs = run_checked(wl, list(kinds.values()))
    for op, (rc, text) in zip(kinds.values(), outs):
        obj = json.loads(text)
        kind = op["kind"]
        if kind == "eval":
            obj = corrupt_first_coefficient(obj)
        elif kind == "solve":
            # both methods agree, and both are wrong
            for method in ("generic", "closed_form"):
                obj[method]["coeffs"][0] = corrupt_first_coefficient(obj[method]["coeffs"][0])
        elif kind == "invert":
            row = obj["inverse"]["rows"][2]
            row[0], row[1] = row[1], row[0]
        elif kind == "verify":
            obj["status"] = "fail"
        else:
            obj["coeffs"][1] = corrupt_first_coefficient(obj["coeffs"][1])
        with pytest.raises(CheckError):
            wl.check(m, op, (rc, json.dumps(obj)))
    with pytest.raises(CheckError):
        wl.check(m, ops[0], (2, outs[0][1]))


# -- tracing ------------------------------------------------------------------

def traced_counts(wl, ops):
    m = run.load_opinv()
    original = m.families.polynomial
    tracer = tracing.Tracer(m)
    p = run.Pass(wl, m, tracer)
    tracer.install()
    try:
        assert m.inversion.polynomial is not original
        assert m.trisolve.polynomial is m.inversion.polynomial
        records = p.run_round(ops)
    finally:
        tracer.uninstall()
    assert m.inversion.polynomial is original and m.trisolve.polynomial is original
    assert p.failed == 0 and p.check(records)
    return tracer


def test_traced_counts_repeat_exactly():
    wl = workloads.Requests(4)
    ops = wl.make_round(0)[:8]
    first, second = traced_counts(wl, ops), traced_counts(wl, ops)
    counts = {k: v for k, v in first.counts.items()}
    assert counts == dict(second.counts)
    assert counts["cli.main"] == 8 and counts["op"] == 8
    assert len(first.distinct_members) == len(second.distinct_members)
    metrics = first.layer_metrics(1.0)
    assert [name for name, _, _ in tracing.PER_LAYER] == list(metrics)
    spans = [s for s in first.spans if s[0] == "cli.main"]
    assert all(first.spans[s[3]][0] == "op" for s in spans)


def test_self_time_excludes_callees():
    wl = workloads.Catalog(3)
    ops = first_ops(wl, 1, pick=lambda op: op["identity"] == "charlier_inv")
    tracer = traced_counts(wl, ops)
    total = tracer.inclusive_s("op")
    assert 0 < sum(tracer.self_s.values()) <= total * 1.0001
    assert tracer.self_s["inversion.verify_identity"] < tracer.inclusive_s("inversion.verify_identity")


# -- the command --------------------------------------------------------------

def run_command(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric(trace):
    out = run_command(HERE.parent, "--workload", "requests", "--seed", "2", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    expected = run.END_TO_END if trace == "0" else [(n, u) for n, u, _ in tracing.PER_LAYER]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(expected)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = run_command(tmp_path, "--workload", "catalog", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
