"""Tests of the benchmark itself: oracle, failure accounting, metric names,
the tail percentile rule and the tracer.

    python3 -m pytest perfbench/test_perfbench.py
"""

import cmath
import dataclasses
import json
import math
import random
import re
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from oracle import hciz_reference  # noqa: E402
from tracer import SpanTable, Tracer, layer_metrics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def ulps(x: complex, y: complex) -> float:
    return abs(x - y) / (abs(y) * sys.float_info.epsilon)


@pytest.mark.parametrize("a, b", [(0.7, 1.3), (-2.0, 0.25), (1 + 2j, 0.5 - 1j), (0.0, 5.0)])
def test_oracle_is_exp_at_n1(a, b):
    assert ulps(hciz_reference([a], [b]), cmath.exp(a * b)) <= 1


def test_oracle_reproduces_readme_value():
    # the README quotes the float closed form; the exact value differs in the last place
    assert ulps(hciz_reference([1, 2], [0.5, 0.25]), 3.0882445160111835) <= 2


def test_oracle_at_coincident_spectrum():
    # A = c I makes the integrand constant: I = exp(c * sum(b))
    b = (0.5, -0.2, 1.1)
    assert ulps(hciz_reference([0.3] * 3, b), math.exp(0.3 * sum(b))) <= 2


def fake_hciz(det_factor=1.0, series_factor=1.0):
    import hciz

    def kernel_series(a, b, **kw):
        res = hciz.kernel_series(a, b, **kw)
        return dataclasses.replace(res, value=res.value * series_factor)

    return SimpleNamespace(
        hciz_mc=hciz.hciz_mc,
        kernel_series=kernel_series,
        hciz_determinant=lambda a, b: hciz.hciz_determinant(a, b) * det_factor,
    )


def pair_verdict(hciz, a, b, **kw):
    op = workloads.pair_op(hciz, a, b, **kw)
    [(_, _, rec, _)] = run.run_pass([op], run.Gauge())
    return run.verdict(op, rec)


def test_correct_value_passes():
    op = workloads.pair_op(fake_hciz(), (1.0, 2.0), (0.5, 0.25), series={})
    [(_, _, rec, _)] = run.run_pass([op], run.Gauge())
    assert run.verdict(op, rec).ok


def test_wrong_value_is_a_failed_op():
    op = workloads.pair_op(fake_hciz(1 + 1e-6), (1.0, 2.0), (0.5, 0.25), series={})
    [(_, _, rec, _)] = run.run_pass([op], run.Gauge())
    v = run.verdict(op, rec)
    assert not v.ok and v.known is None


@pytest.mark.parametrize("n", [6, 8])
def test_det_off_by_a_percent_makes_the_run_incorrect(n):
    # gap-0.1 spectra, where the closed form's own error is a known defect
    rng = random.Random(n)
    a, b = workloads.real_spectrum(rng, n), workloads.real_spectrum(rng, n)
    as_is = pair_verdict(fake_hciz(), a, b)
    assert as_is.ok or as_is.known == "det-cancellation"
    wrong = pair_verdict(fake_hciz(1.01), a, b)
    assert not wrong.ok and wrong.known is None
    assert not run.is_correct([as_is, wrong])


def test_deep_series_slice_is_checked_strictly():
    # tol=0 always runs to max_weight, but at magnitude 1 the last shell is negligible
    rng = random.Random(0)
    a, b = workloads.real_spectrum(rng, 4), workloads.real_spectrum(rng, 4)
    deep = {"max_weight": 24, "tol": 0.0}
    assert pair_verdict(fake_hciz(), a, b, series=deep, det=False).ok
    wrong = pair_verdict(fake_hciz(series_factor=1 + 1e-8), a, b, series=deep, det=False)
    assert not wrong.ok and wrong.known is None


def test_truncated_series_is_excused_only_within_its_tail():
    a, b = (-2.0, -2.0, -2.0), (-2.0, -1.8, -1.6)
    as_is = pair_verdict(fake_hciz(), a, b, series={}, det=False)
    assert not as_is.ok and as_is.known == "series-truncation"
    wrong = pair_verdict(fake_hciz(series_factor=1.01), a, b, series={}, det=False)
    assert not wrong.ok and wrong.known is None


def test_exception_is_a_failed_op():
    op = workloads.Op("boom", lambda: 1 / 0, lambda rec: workloads.OK)
    [(_, _, rec, _)] = run.run_pass([op], run.Gauge())
    assert not run.verdict(op, rec).ok


def test_nonzero_cli_exit_is_a_failed_op():
    runner = workloads.cli_runner(str(ROOT / "src"))
    argv = ["eval", "--n", "2", "--a", "1,1", "--b", "0,1", "--methods", "det", "--output", "-"]
    op = workloads.cli_op("eval", argv, runner)
    [(_, _, rec, _)] = run.run_pass([op], run.Gauge())
    assert rec["rc"] == 2
    v = run.verdict(op, rec)
    assert not v.ok and v.known is None


def test_verify_exit_codes():
    argv = ["verify", "haar", "--n", "2", "--output", "-"]
    crash = "TypeError: Object of type bool is not JSON serializable"
    for rc, err, known in ((1, crash, "haar-report-crash"), (1, "Traceback", None),
                           (2, crash, None)):
        op = workloads.cli_op("verify", argv, lambda _argv: (rc, "", err))
        v = run.verdict(op, op.run())
        assert not v.ok and v.known == known


def test_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    per = [m["name"] for m in spec["per_layer"]]
    assert e2e == list(run.END_TO_END)
    layers = set(layer_metrics(Tracer(), 1))
    layers |= {"cli.import_s", "cli.eval.ms", "cli.verify.ms", "cli.report_ok_ratio",
               "trace.overhead_s", "trace.overhead_ratio"}
    assert set(per) == layers
    extra = {"op_tail_ms", "fail_ratio", "mc_ns_per_sample", "mc_s_to_rse_1e-3",
             "series_ms_per_call", "det_us_per_call", "verify_cases_per_s"}
    for name in e2e + per + sorted(extra) + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name


def test_speed_factor_scales_latency_not_counts():
    ops = [workloads.Op("noop", lambda: {}, lambda rec: workloads.OK)] * 3
    res = run.run_pass(ops, run.Gauge())
    assert len(res) == 3 and all(f > 0 for _, _, _, f in res)
    assert run.pass_wall(res) == sum(lat * f for _, lat, _, f in res)
    assert run.pass_wall(res, scaled=False) == sum(lat for _, lat, _, _ in res)


def test_readings_inside_an_operation_are_not_its_latency():
    op = workloads.Op("sleep", lambda: time.sleep(3.5 * run.CALIBRATE_EVERY_S) or {},
                      lambda rec: workloads.OK)
    gauge = run.Gauge()
    [(_, latency, _, factor)] = run.run_pass([op], gauge, read_inside=True)
    assert len(gauge.inside) == 3 and factor > 0
    # the sleep ends on time however long the readings took; they are not its latency
    spent = sum(secs for _, secs in gauge.inside)
    assert abs(latency + spent - 3.5 * run.CALIBRATE_EVERY_S) < 0.02


def test_pass_count_follows_seconds_not_the_clock():
    class Slow(workloads.Workload):
        name = "slow"
        PASS_NOMINAL_S = 0.01

        def make_pass(self, index, runner=None):
            return [workloads.Op("sleep", lambda: time.sleep(0.02) or {}, lambda rec: workloads.OK)]

    # each pass takes twice its nominal time, and still 5 of them run
    plain, traced = run.timed_passes(Slow(1), 0.05, None)
    assert len(plain) == 5 and traced == []
    assert Slow(1).passes(0.001) == 1
    for cls in workloads.WORKLOADS.values():
        assert cls(1).passes(10) == cls(2).passes(10) >= 1


def test_kronecker_points_cover_the_cube_evenly():
    shift = [random.Random(1).random() for _ in range(12)]
    points = [workloads.kronecker_point(shift, k) for k in range(63)]
    assert all(len(u) == 12 and all(0.0 <= x < 1.0 for x in u) for u in points)
    for dim in range(12):
        bins = [0] * 8
        for u in points:
            bins[int(u[dim] * 8)] += 1
        assert min(bins) >= 6 and max(bins) <= 10  # 63 / 8 each, give or take


def test_tail_leaves_ten_samples_beyond():
    rng = random.Random(0)
    for count in range(0, 400, 3):
        xs = [rng.random() for _ in range(count)]
        got = run.tail_percentile(xs)
        if count < 11:
            assert got is None
        if got is not None:
            p, value, beyond = got
            assert beyond >= 10 and sum(x > value for x in xs) == beyond


def test_self_time_subtracts_children():
    tr = Tracer()
    spans = [("outer", 0.0, 10.0, -1), ("inner", 1.0, 4.0, 0), ("inner", 5.0, 6.0, 0),
             ("leaf", 2.0, 3.0, 1)]
    for name, start, end, parent in spans:
        tr.name_id.append(tr._intern(name))
        tr.start.append(start)
        tr.end.append(end)
        tr.parent.append(parent)
        tr.op.append(0)
    t = SpanTable(tr)
    assert t.self_s("outer") == 6.0
    assert t.self_s("inner") == 3.0
    assert t.self_s("leaf") == 1.0


def test_tracer_wraps_by_lookup_and_restores():
    import hciz
    import hciz.numeric as numeric

    orig = numeric.partitions_of_weight
    want = hciz.kernel_series((0.1, 0.4, 0.9), (0.2, -0.3, 0.5))
    tr = Tracer().install()
    try:
        assert numeric.partitions_of_weight is not orig
        got = hciz.kernel_series((0.1, 0.4, 0.9), (0.2, -0.3, 0.5))
    finally:
        tr.uninstall()
    assert numeric.partitions_of_weight is orig
    assert got == want
    m = layer_metrics(tr, 1)
    assert m["numeric.kernel_series.shells_per_call"][0] == want.max_weight_used + 1
    assert m["symfn.partitions_of_weight.calls"][0] == want.max_weight_used + 1
    # sx and sy each build the Jacobi-Trudi indices of every non-empty partition
    assert 1.9 < m["numeric.kernel_series.plan_builds_per_shell"][0] < 2.0
