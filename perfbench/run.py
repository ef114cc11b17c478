"""The hciz benchmark: runs one named workload and prints its metrics.

    python3 perfbench/run.py --workload mc-pairs --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the package from ./src.
The load is closed-loop: one client in one process, and each operation
starts only after the previous one returned.  BLAS and Monte Carlo run on
one thread each.

With --trace 0 the last line of output is a JSON object whose metrics are
the end-to-end metrics, measured untraced.  With --trace 1 each pass runs
once untraced and once with the tracer installed, and the metrics are the
per-layer ones, with the tracing overhead.  Either way every output is
checked (see workloads.py) and the lines before the JSON list every metric
by name with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

# pinned before anything imports numpy: one BLAS thread, one MC worker
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "HCIZ_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import SpanTable, Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    EXACT_SUITES, KNOWN_DEFECTS, WORKLOADS, Verdict, cli_env, cli_runner)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 7
# wall time of BARE_START on the machine whose runs set the bounds; any
# fixed value works, commits compare alike (see start_factor)
START_NOMINAL_S = 0.05
BARE_START = [sys.executable, "-c", "import fractions, json, subprocess"]
# time of reference_kernel() on the machine whose runs set the bounds
# (2-core Xeon, Python 3.11); any fixed value works, commits compare alike
KERNEL_NOMINAL_S = 0.02
CALIBRATE_EVERY_S = 0.25
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_MIN_BEYOND = 10


# -- statistics ---------------------------------------------------------------------------


def tail_percentile(latencies):
    """(percentile, value, count beyond) for the highest ladder percentile that
    leaves at least TAIL_MIN_BEYOND samples above it, or None."""
    xs = sorted(latencies)
    best = None
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100 * len(xs)))
        beyond = len(xs) - rank
        if beyond >= TAIL_MIN_BEYOND:
            best = (p, xs[rank - 1], beyond)
    return best


# -- machine speed --------------------------------------------------------------------------


# fixed keys for the reference kernel: a dict of thousands of Fraction
# entries, like the exact layer's polynomials, tracked that layer's speed
# better than a loop over a few small Fractions
_KERNEL_KEYS = [tuple(random.Random(i).randrange(50) for _ in range(4)) for i in range(8000)]


def reference_kernel():
    """Fixed pure-Python work (Fraction sums in a dict) that shares no code with hciz."""
    acc = {}
    for i, key in enumerate(_KERNEL_KEYS):
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 7 + 1, i % 5 + 1)
    return sum(acc.values(), Fraction(0))


def speed_factor() -> float:
    """KERNEL_NOMINAL_S over the reference kernel's time now.

    The machine's speed drifts by tens of percent over seconds (CPU time
    tracks wall time, so this is not scheduling). Times multiplied by this
    factor, measured next to them, read in seconds of a machine at nominal
    speed; the drift cancels and a change to hciz does not, since the
    kernel never calls it. Collection is off while it runs, so the size of
    hciz's heap cannot slow it.
    """
    gc.disable()
    try:
        t = time.perf_counter()
        reference_kernel()
        return KERNEL_NOMINAL_S / (time.perf_counter() - t)
    finally:
        gc.enable()


class Gauge:
    """The latest speed factor from `probe` (speed_factor by default; the CLI
    workload's operations are mostly process starts and use start_factor),
    refreshed between operations at most every CALIBRATE_EVERY_S, and
    optionally read every CALIBRATE_EVERY_S while an operation runs, from a
    SIGALRM handler."""

    def __init__(self, probe=None):
        self.probe = probe or speed_factor
        self.at = -math.inf
        self.factor = 1.0
        self.inside: list = []  # (factor, seconds spent reading) during the last operation

    def read(self) -> float:
        if time.perf_counter() - self.at >= CALIBRATE_EVERY_S:
            self.factor = self.probe()
            self.at = time.perf_counter()
        return self.factor

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.inside.append((self.probe(), time.perf_counter() - t))

    @contextlib.contextmanager
    def during(self, enabled: bool):
        """Readings inside the block go to `self.inside` (none unless enabled)."""
        self.inside = []
        if not enabled:
            yield
            return
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)


# -- running passes -----------------------------------------------------------------------


def run_pass(ops, gauge, tracer=None, read_inside=False):
    """Runs the operations back to back, calibrating between them (and, with
    `read_inside`, during them); returns [(op, latency seconds, record, speed
    factor)], the factor being the mean of the readings just before, during
    and just after the operation, and the latency excluding the readings."""
    out = []
    clock = time.perf_counter
    for op in ops:
        before = gauge.read()
        if tracer is not None:
            tracer.op_id += 1
        t = clock()
        with gauge.during(read_inside):
            try:
                rec = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                rec = {"error": f"{type(exc).__name__}: {exc}"}
        latency = clock() - t - sum(secs for _, secs in gauge.inside)
        factors = [before, *(f for f, _ in gauge.inside), gauge.read()]
        factor = sum(factors) / len(factors)
        if tracer is not None:
            tracer.op_scale[tracer.op_id] = factor
        out.append((op, latency, rec, factor))
    return out


def pass_wall(results, scaled=True) -> float:
    """Time the pass spent in its operations (calibration excluded)."""
    return sum(lat * (f if scaled else 1.0) for _, lat, _, f in results)


def verdict(op, rec) -> Verdict:
    if "error" in rec:
        return Verdict(False, rec["error"])
    try:
        return op.check(rec)
    except Exception as exc:  # an output the check cannot read is a failure
        return Verdict(False, f"unreadable output ({type(exc).__name__}: {exc})")


def is_correct(verdicts) -> bool:
    """True when every failed operation is a known defect of the program."""
    return all(v.ok or v.known for v in verdicts)


def setup_in_process(name, seed):
    """Import and input generation for the first pass, then warm-up; returns
    (workload, seconds to import and generate, warm-up seconds scaled by the
    speed factor).  The warm-up is work like the passes', so it is scaled
    like them; the import is scaled by the start factor (start_scaled)."""
    t = time.perf_counter()
    import hciz  # noqa: F401
    import hciz.suites  # noqa: F401

    wl = WORKLOADS[name](seed)
    wl.make_pass(0)
    imported = time.perf_counter() - t
    before = speed_factor()
    t = time.perf_counter()
    wl.warm_up()
    warm = time.perf_counter() - t
    return wl, imported, warm * (before + speed_factor()) / 2


def child_wall(cmd, env) -> float:
    """Wall time of a fresh process running `cmd`."""
    t = time.perf_counter()
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t


def start_factor(env) -> float:
    """START_NOMINAL_S over the wall time of a bare interpreter start now.

    Set-up is mostly process start and imports, which the machine's drift
    slows differently from the pure-Python reference kernel: scaled by that
    kernel, medians of 7 cold CLI starts spread 0.16, as much as raw ones.
    Scaled by this factor, read just before and after each start, they
    spread 0.035. BARE_START imports no hciz, so a change to hciz's start-up
    still shows.
    """
    return START_NOMINAL_S / child_wall(BARE_START, env)


def start_scaled(measure, env):
    """(`measure()`, the mean start factor just before and after it)."""
    before = start_factor(env)
    got = measure()
    return got, (before + start_factor(env)) / 2


def setup_samples(args, src, own):
    """Scaled times of SETUP_SAMPLES cold set-ups: this process's (`own`) and fresh ones."""
    env = cli_env(src)
    if not WORKLOADS[args.workload].in_process:
        cmd = [sys.executable, "-m", "hciz.cli", "--help"]
        return [math.prod(start_scaled(lambda: child_wall(cmd, env), env))
                for _ in range(SETUP_SAMPLES)]
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]

    def child_setup():
        proc = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True,
                              timeout=120)
        return [float(x) for x in proc.stdout.split()[-2:]]

    samples = [own]
    while len(samples) < SETUP_SAMPLES:
        (imported, warm), factor = start_scaled(child_setup, env)
        samples.append(imported * factor + warm)
    return samples


# -- metrics --------------------------------------------------------------------------------


def workload_metrics(results):
    """The per-workload end-to-end metrics that apply, as {name: (value, unit, note)};
    times are scaled by each operation's speed factor."""
    out = {}
    lat = [r[1] * r[3] for r in results]
    tail = tail_percentile(lat)
    out["op_tail_ms"] = (
        (tail[1] * 1e3, "ms", f"p{tail[0]} of {len(lat)} ops, {tail[2]} beyond")
        if tail else (None, "ms", f"{len(lat)} ops leave fewer than {TAIL_MIN_BEYOND} beyond p50")
    )
    mc = [(rec, f) for _, _, rec, f in results if "mc_s" in rec]
    if mc:
        out["mc_ns_per_sample"] = (statistics.median(
            r["mc_s"] * f / r["mc"].n_samples * 1e9 for r, f in mc), "ns", "")
        out["mc_s_to_rse_1e-3"] = (statistics.median(
            r["mc_s"] * f * (r["mc"].stderr / abs(r["mc"].mean) / 1e-3) ** 2 for r, f in mc),
            "s", "")
    for key, name, unit, scale in (("series_s", "series_ms_per_call", "ms", 1e3),
                                   ("det_s", "det_us_per_call", "us", 1e6)):
        vals = [rec[key] * f * scale for _, _, rec, f in results if key in rec]
        if vals:
            out[name] = (statistics.median(vals), unit, "")
    cases, secs = 0, 0.0
    for _, latency, rec, f in results:
        reports = [rep for rep in rec.get("reports", ()) if rep.suite in EXACT_SUITES]
        if reports:
            cases += sum(len(rep.cases) for rep in reports)
            secs += latency * f
        elif rec.get("stdout", "").startswith("{"):
            report = json.loads(rec["stdout"])
            if report.get("command") == "verify" and report["inputs"]["suite"] in EXACT_SUITES:
                cases += report["results"]["cases"]
                secs += latency * f
    if secs:
        out["verify_cases_per_s"] = (cases / secs, "1/s", "")
    return out


def cli_layer_metrics(args, src, traced_results):
    """The cli layer's metrics from the traced passes of cli-eval; 0 elsewhere."""
    if WORKLOADS[args.workload].in_process:
        return {"cli.import_s": (0.0, "s"), "cli.eval.ms": (0.0, "ms"),
                "cli.verify.ms": (0.0, "ms"), "cli.report_ok_ratio": (0.0, "ratio")}
    env = cli_env(src)
    imports = [math.prod(start_scaled(lambda: child_wall([sys.executable, "-c", "import hciz"],
                                                          env), env))
               for _ in range(SETUP_SAMPLES)]
    by_cmd = {"eval": [], "verify": []}
    ok = 0
    for op, latency, rec, factor in traced_results:
        by_cmd[op.label.split()[1]].append(latency * factor)
        ok += rec.get("rc") == 0 and rec.get("stdout", "").startswith("{")
    return {
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.eval.ms": (statistics.median(by_cmd["eval"]) * 1e3, "ms"),
        "cli.verify.ms": (statistics.median(by_cmd["verify"]) * 1e3, "ms"),
        "cli.report_ok_ratio": (ok / len(traced_results), "ratio"),
    }


# -- the two kinds of run ------------------------------------------------------------------


def timed_passes(wl, seconds, runner, tracer=None, traced_runner=None, probe=None):
    """The passes that fill `seconds` at nominal speed (Workload.passes),
    scaled by readings of `probe` (see Gauge); with a tracer, each pass runs
    untraced and then traced.  Returns (results of each plain pass, results
    of each traced pass)."""
    gauge = Gauge(probe)
    plain, traced = [], []
    for index in range(wl.passes(seconds)):
        # readings inside an operation would land in its spans when traced,
        # and would compete with a CLI child for the machine
        plain.append(run_pass(wl.make_pass(index, runner), gauge, read_inside=wl.in_process))
        if tracer is not None:
            ops = wl.make_pass(index, traced_runner)
            if wl.in_process:
                tracer.install()
            try:
                traced.append(run_pass(ops, gauge, tracer))
            finally:
                tracer.uninstall()
    return plain, traced


def traced_cli_runner(src, tracer, tmp):
    """Runs each CLI command under clitrace.py and merges its spans into `tracer`;
    the spans pass through a file in the directory `tmp`."""
    out_file = os.path.join(tmp, "spans.json")
    prefix = [sys.executable, str(HERE / "clitrace.py")]

    def run(argv):
        env = {"PERFBENCH_TRACE_OUT": out_file, "PERFBENCH_OP_ID": str(tracer.op_id)}
        rc, out, err = cli_runner(src, prefix, env)(argv)
        with open(out_file) as fh:
            tracer.merge(json.load(fh))
        os.remove(out_file)
        return rc, out, err

    return run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="amount of work, in seconds at nominal speed (Workload.passes)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "hciz" / "__init__.py").is_file():
        print(f"perfbench: no hciz sources at {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    found = importlib.util.find_spec("hciz")
    if not Path(found.origin).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: hciz resolves to {found.origin}, not {src}", file=sys.stderr)
        return 2
    src = str(src)

    if args.setup_only:
        print(*setup_in_process(args.workload, args.seed)[1:])
        return 0

    wl_cls = WORKLOADS[args.workload]
    if wl_cls.in_process:
        (wl, imported, warm), factor = start_scaled(
            lambda: setup_in_process(args.workload, args.seed), cli_env(src))
        own = imported * factor + warm
        runner, probe = None, None
    else:
        wl, own = wl_cls(args.seed), None
        runner = cli_runner(src)
        probe = lambda: start_factor(cli_env(src))  # noqa: E731

    if args.trace:
        tracer = Tracer()
        # the checkout is the only place the benchmark writes
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=Path.cwd()) as tmp:
            traced_runner = None if wl.in_process else traced_cli_runner(src, tracer, tmp)
            plain_passes, traced_passes = timed_passes(
                wl, args.seconds, runner, tracer, traced_runner, probe)
    else:
        setup = setup_samples(args, src, own)
        plain_passes, traced_passes = timed_passes(wl, args.seconds, runner, probe=probe)
        who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        peak_kb = resource.getrusage(who).ru_maxrss

    plain = [r for p in plain_passes for r in p]
    traced = [r for p in traced_passes for r in p]
    results = plain + traced
    verdicts = [verdict(op, rec) for op, _, rec, _ in results]
    failed = [(r[0], v) for r, v in zip(results, verdicts) if not v.ok]
    correct = is_correct(verdicts)

    walls = [pass_wall(p) for p in plain_passes]
    lines = [f"workload {args.workload}, seed {args.seed}, {len(plain_passes)} passes, "
             f"{len(results)} operations, {len(failed)} failed",
             "pass walls (s, raw): " + " ".join(f"{pass_wall(p, False):.3f}" for p in plain_passes),
             "speed factors: " + " ".join(f"{r[3]:.3f}" for r in plain[:: max(1, len(plain) // 12)])]
    reasons: dict[str, list] = {}
    for op, v in failed:
        reasons.setdefault(v.known or "UNEXPECTED", []).append(f"{op.label}: {v.reason}")
    for key, items in sorted(reasons.items()):
        lines.append(f"  failed [{key}] x{len(items)}, e.g. {items[0]}")
        if key in KNOWN_DEFECTS:
            lines.append(f"    known defect: {KNOWN_DEFECTS[key]}")

    if args.trace:
        table = SpanTable(tracer)
        metrics = layer_metrics(tracer, len(traced_passes), table)
        metrics.update(cli_layer_metrics(args, src, traced))
        plain_med = statistics.median(walls)
        overhead = statistics.median(pass_wall(p) for p in traced_passes) - plain_med
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_ratio"] = (overhead / plain_med, "ratio")
        lines.append(f"traced {len(tracer.start)} spans over {len(traced_passes)} passes")
        traced_s = sum(pass_wall(p) for p in traced_passes)
        lines.append("self time by layer, share of traced pass time: " + ", ".join(
            f"{layer} {secs / traced_s:.3f}"
            for layer, secs in sorted(table.self_by_layer().items(), key=lambda kv: -kv[1])))
        lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "ops_per_s": len(plain) / sum(walls),
            "op_p50_ms": statistics.median(r[1] * r[3] for r in plain) * 1e3,
            "peak_rss_mb": peak_kb / 1024,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
        extra = workload_metrics(plain)
        extra["fail_ratio"] = (len(failed) / len(results), "ratio", f"{len(failed)}/{len(results)}")
        for name, (value, unit, note) in extra.items():
            shown = "n/a" if value is None else f"{value:.6g} {unit}"
            lines.append(f"{name} = {shown}" + (f"  ({note})" if note else ""))

    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
