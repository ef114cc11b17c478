"""The benchmark's workloads: seeded inputs, the operations run on them, and
the checks that decide whether each operation's output is correct.

An operation is one unit of client work: one spectrum pair through the
workload's evaluators (criterion 1a runs `hciz_mc` and `hciz_determinant`
on a pair the same way), one sampler or suite call, or one CLI command.
Each workload is a sequence of passes; a pass is a fixed list of
operations whose inputs come from (seed, pass index), so every run of a
workload does the same mix of work and the median pass is comparable
between runs.  The number of passes follows from --seconds and the pass's
nominal time, never from the clock, so runs with the same seed and seconds
attempt the same operations and fail the same ones.  The program only ever
sees the generated spectra, sample counts and seeds.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

# stated tolerances; a failure outside KNOWN_DEFECTS makes the run incorrect
DET_RTOL = 1e-10
SERIES_RTOL = 1e-10
MC_K = 4.0
MC_STAT_K = 6.0
EPS = 2.220446049250313e-16

# documented defects of the program at the commit that defined this benchmark;
# they are counted as failed operations but do not mark the run incorrect.
# Each is matched only within what that commit's code does: the constants
# below sit at about twice the largest ratio measured over random draws of
# each input family and the extreme (packed or coincident) spectra of its
# domain (README.md, "Correctness").
DET_KAPPA_C = 1.0  # det error / (eps * cond_2[exp(a_i b_j)]) was at most 0.38
SERIES_TAIL_C = 4.0  # truncated series error / last shell's magnitude was at most 2.08
KNOWN_DEFECTS = {
    "det-cancellation": "hciz_determinant loses digits to cancellation in det/Vdm; "
    "matched when the relative error is within DET_KAPPA_C*eps*cond_2[exp(a_i b_j)]",
    "series-truncation": "kernel_series stops at max_weight without converging and "
    "without saying so; matched when it did and the error is within "
    "SERIES_TAIL_C*last_shell_magnitude",
    "haar-report-crash": "`hciz verify haar` exits 1: bool is not JSON serializable",
    "mc-statistical": "a Monte Carlo estimate outside 4 but within 6 standard errors",
}

GAP_MIN = 1e-8  # hciz_determinant's documented contract

# every verification suite, and whether its verdict is statistical (Monte Carlo)
SUITES = {"alt-orthonormal": False, "inv-orthonormal": False, "unitarity": False,
          "diffop": False, "fourier": False, "reproducing": False,
          "ginibre": True, "haar": True}
EXACT_SUITES = frozenset(s for s, statistical in SUITES.items() if not statistical)


@dataclass
class Op:
    label: str
    run: Callable[[], dict]
    check: Callable[[dict], "Verdict"]


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    known: str | None = None


OK = Verdict(True)


def real_spectrum(rng: random.Random, n: int, scale: float = 1.0, gap: float = 0.1,
                  us=None) -> tuple:
    """Uniform sorted draw from [-1, 1]^n with pairwise gap >= `gap`, times `scale`;
    `us`, n numbers in [0, 1), stand in for the n uniform draws from `rng`."""
    slack = 2.0 - (n - 1) * gap
    us = [rng.random() for _ in range(n)] if us is None else us
    xs = sorted(slack * u for u in us)
    return tuple(scale * (-1.0 + x + i * gap) for i, x in enumerate(xs))


# frac(sqrt(p)) for the first primes: the steps of a Kronecker sequence, one per
# dimension of the unit cube
KRONECKER_STEPS = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))


def kronecker_point(shift, k: int) -> list:
    """Point k of the Kronecker sequence rotated by `shift` (one number in [0, 1)
    per dimension).  Each point is uniform on the cube, as a random draw is,
    and any run of consecutive points covers the cube far more evenly than
    independent draws do."""
    return [(c + k * step) % 1.0 for c, step in zip(shift, KRONECKER_STEPS)]


def min_gap(v) -> float:
    return min((abs(v[i] - v[j]) for i in range(len(v)) for j in range(i + 1, len(v))),
               default=math.inf)


# -- checks --------------------------------------------------------------------------


_REF_CACHE: dict = {}


def reference(a, b) -> complex:
    key = (tuple(a), tuple(b))
    got = _REF_CACHE.get(key)
    if got is None:
        from oracle import hciz_reference

        got = _REF_CACHE[key] = hciz_reference(a, b)
    return got


def det_condition(a, b) -> float:
    """2-norm condition number of [exp(a_i b_j)], the matrix the closed form factors."""
    import numpy as np

    return float(np.linalg.cond(np.exp(np.outer(np.asarray(a), np.asarray(b)))))


def check_mc(est, ref: complex) -> Verdict:
    dev = abs(complex(est.mean) - ref)
    if math.isfinite(dev) and dev <= MC_K * est.stderr:
        return OK
    reason = f"mc off by {dev / est.stderr if est.stderr else math.inf:.2f} stderr"
    known = "mc-statistical" if dev <= MC_STAT_K * est.stderr else None
    return Verdict(False, reason, known)


def check_det(value, a, b, ref: complex) -> Verdict:
    rel = abs(complex(value) - ref) / abs(ref)
    if rel <= DET_RTOL:
        return OK
    reason = f"det relative error {rel:.2e} at n={len(a)}"
    explained = rel <= DET_KAPPA_C * EPS * det_condition(a, b)
    return Verdict(False, reason, "det-cancellation" if explained else None)


def check_series(res, max_weight: int, ref: complex, n: int) -> Verdict:
    rel = abs(complex(res.value) - ref) / abs(ref)
    if rel <= SERIES_RTOL:
        return OK
    reason = f"series relative error {rel:.2e} at n={n}, weight {res.max_weight_used}"
    # the remainder past a truncated sum is bounded by its last shell
    explained = (res.max_weight_used == max_weight
                 and abs(complex(res.value) - ref) <= SERIES_TAIL_C * res.last_shell_magnitude)
    return Verdict(False, reason, "series-truncation" if explained else None)


def combine(verdicts) -> Verdict:
    bad = [v for v in verdicts if not v.ok]
    if not bad:
        return OK
    known = [v.known for v in bad]
    return Verdict(False, "; ".join(v.reason for v in bad),
                   ",".join(known) if all(known) else None)


# -- in-process operations ---------------------------------------------------------------


def pair_op(hciz, a, b, *, mc=None, series=None, det=True) -> Op:
    """One spectrum pair through hciz_mc (mc=(samples, seed)) or kernel_series
    (series=dict of keyword arguments), then hciz_determinant when the gap allows."""
    use_det = det and min(min_gap(a), min_gap(b)) >= GAP_MIN

    def run():
        rec = {}
        clock = time.perf_counter
        if mc is not None:
            t = clock()
            rec["mc"] = hciz.hciz_mc(a, b, mc[0], mc[1], threads=1)
            rec["mc_s"] = clock() - t
        if series is not None:
            t = clock()
            rec["series"] = hciz.kernel_series(a, b, **series)
            rec["series_s"] = clock() - t
        if use_det:
            t = clock()
            rec["det"] = hciz.hciz_determinant(a, b)
            rec["det_s"] = clock() - t
        return rec

    def check(rec):
        ref = reference(a, b)
        out = []
        if "mc" in rec:
            out.append(check_mc(rec["mc"], ref))
        if "series" in rec:
            out.append(check_series(rec["series"], series.get("max_weight", 24), ref, len(a)))
        if "det" in rec:
            out.append(check_det(rec["det"], a, b, ref))
        return combine(out)

    n = len(a)
    kind = "mc" if mc is not None else "series"
    return Op(f"{kind}-pair n={n}", run, check)


def suite_op(label, *calls, statistical=False) -> Op:
    """One operation of one or more suite calls, back to back."""

    def run():
        return {"reports": [call() for call in calls]}

    def check(rec):
        return combine(check_report(rep, statistical) for rep in rec["reports"])

    return Op(label, run, check)


def check_report(rep, statistical) -> Verdict:
    if rep.cases and rep.n_failed == 0:
        return OK
    bad = [c.label for c in rep.cases if not c.passed]
    reason = f"{rep.suite}: {len(bad)} of {len(rep.cases)} cases failed"
    # Haar moments are statistical, the unitarity residual is not
    known = "mc-statistical" if statistical and all(b.startswith("E|") for b in bad) else None
    return Verdict(False, reason, known if bad else None)


def ginibre_op(hciz, n, samples, seed) -> Op:
    def run():
        return {"ginibre": hciz.ginibre_moment_suite(n, samples, seed, threads=1)}

    def check(rec):
        rep = rec["ginibre"]
        out = []
        for est, want in ((rep.trace_estimate, rep.trace_expected),
                          (rep.det_estimate, rep.det_expected)):
            out.append(check_mc(est, want))
        return combine(out)

    return Op(f"ginibre n={n}", run, check)


# -- CLI operations ---------------------------------------------------------------------


def cli_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_op(kind: str, argv: list, runner) -> Op:
    """A fresh `python -m hciz.cli` process; `runner(argv)` returns rc, stdout, stderr."""

    def run():
        rc, out, err = runner(argv)
        return {"rc": rc, "stdout": out, "stderr": err}

    def check(rec):
        try:
            report = json.loads(rec["stdout"])
        except ValueError:
            report = None
        if kind == "eval":
            return check_cli_eval(rec, report)
        return check_cli_verify(argv[1], rec, report)

    return Op(f"cli {kind} {argv[1] if kind == 'verify' else argv[argv.index('--n') + 1]}",
              run, check)


def check_cli_eval(rec, report) -> Verdict:
    if report is None:
        return Verdict(False, f"eval exit {rec['rc']} without a report")
    inputs, res = report["inputs"], report["results"]
    a = tuple(complex(e["re"], e["im"]) for e in inputs["a_resolved"])
    b = tuple(complex(e["re"], e["im"]) for e in inputs["b_resolved"])
    ref = reference(a, b)
    out = []
    if "det" in res:
        v = res["det"]["value"]
        out.append(check_det(complex(v["re"], v["im"]), a, b, ref))
    if "series" in res:
        s = res["series"]
        series = SimpleNamespace(value=complex(s["value"]["re"], s["value"]["im"]),
                                 max_weight_used=s["max_weight_used"],
                                 last_shell_magnitude=s["last_shell_magnitude"])
        out.append(check_series(series, inputs["max_weight"], ref, len(a)))
    if "mc" in res:
        m = res["mc"]
        est = SimpleNamespace(mean=complex(m["mean"]["re"], m["mean"]["im"]), stderr=m["stderr"])
        out.append(check_mc(est, ref))
    verdict = combine(out)
    if rec["rc"] == 0 and report.get("passed") is True:
        return verdict
    # the CLI's own agreement check failed; known only when the oracle
    # attributes it to a known defect
    if verdict.ok:
        return Verdict(False, f"eval exit {rec['rc']} though every value matches the oracle")
    return verdict


def check_cli_verify(suite, rec, report) -> Verdict:
    if report is None:
        crash = "is not JSON serializable" in rec["stderr"]
        known = "haar-report-crash" if suite == "haar" and rec["rc"] == 1 and crash else None
        return Verdict(False, f"verify {suite} exit {rec['rc']} without a report", known)
    res = report["results"]
    if rec["rc"] == 0 and res["cases"] > 0 and res["failed"] == 0:
        return OK
    bad = [c["name"] for c in report["checks"] if not c["passed"]]
    statistical = SUITES[suite] and all(b.startswith("E|") for b in bad) and bad
    return Verdict(False, f"verify {suite} exit {rec['rc']}, {res['failed']} cases failed",
                   "mc-statistical" if statistical else None)


# -- workloads ---------------------------------------------------------------------------


class Workload:
    """A named sequence of passes; `make_pass(i)` builds pass i from the seed."""

    name = ""
    in_process = True
    # a pass's time on the machine whose runs set the bounds, in the scaled
    # seconds run.py reports (its median wall_s there)
    PASS_NOMINAL_S = 1.0

    def __init__(self, seed: int):
        self.seed = seed

    def passes(self, seconds: float) -> int:
        """How many passes fill `seconds` at nominal speed; at least one."""
        return max(1, round(seconds / self.PASS_NOMINAL_S))

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def warm_up(self):
        """Run a small instance of each operation kind, untimed."""

    def make_pass(self, index: int, runner=None) -> list:
        raise NotImplementedError


class McPairs(Workload):
    """Criterion-1a traffic: MC at 1e5 samples plus det, n cycling 2, 3, 4, 8."""

    name = "mc-pairs"
    PASS_NOMINAL_S = 2.45
    DIMS = (2, 3, 4, 8)
    SAMPLES = 100_000

    def warm_up(self):
        import hciz
        import hciz.suites

        hciz.hciz_mc((0.0, 0.5), (0.1, 0.3), 2000, 0, threads=1)
        hciz.hciz_determinant((0.0, 0.5), (0.1, 0.3))
        hciz.ginibre_moment_suite(2, 2000, 0, threads=1)
        hciz.suites.suite_haar(2, 2000, 0)

    def make_pass(self, index, runner=None):
        import hciz
        import hciz.suites

        rng = self.rng(index)
        ops = []
        for _ in range(2):
            for n in self.DIMS:
                a, b = real_spectrum(rng, n), real_spectrum(rng, n)
                ops.append(pair_op(hciz, a, b, mc=(self.SAMPLES, rng.randrange(2**32))))
        # the sampler-only calls: Ginibre draws alone, then draw + QR + phase fix
        seed = rng.randrange(2**32)
        ops.insert(4, ginibre_op(hciz, 4, 20_000, seed))
        ops.append(suite_op("haar n=4", lambda: hciz.suites.suite_haar(4, 20_000, seed),
                            statistical=True))
        return ops


class SeriesSweep(Workload):
    """kernel_series over n in {2,3,4,6} and magnitudes 0.5, 1, 2, a fifth of the
    a-spectra coincident, plus a deep slice that evaluates all 25 shells."""

    name = "series-sweep"
    PASS_NOMINAL_S = 0.48
    DIMS = (2, 3, 4, 6)
    SCALES = (0.5, 1.0, 2.0)
    REPEATS = 3

    def warm_up(self):
        import hciz

        hciz.kernel_series((0.0, 0.5), (0.1, 0.3))
        hciz.hciz_determinant((0.0, 0.5), (0.1, 0.3))

    def make_pass(self, index, runner=None):
        import hciz

        # each (n, magnitude) cell walks its own rotated Kronecker sequence
        # through the passes, so that a run's inputs, and with them its
        # median latency, depend little on the seed
        shifts = self.rng("shifts")
        shift = {(n, scale): [shifts.random() for _ in range(2 * n)]
                 for n in self.DIMS for scale in self.SCALES}
        rng = self.rng(index)
        ops = []
        k = 0
        for rep in range(self.REPEATS):
            for n in self.DIMS:
                for scale in self.SCALES:
                    us = kronecker_point(shift[n, scale], index * self.REPEATS + rep)
                    a = real_spectrum(rng, n, scale, us=us[:n])
                    b = real_spectrum(rng, n, scale, us=us[n:])
                    if k % 5 == 4:
                        # exactly coincident: a repeated pair, or all points equal
                        a = (a[0],) * n if k % 10 == 9 else (a[0],) + a[:-1]
                    k += 1
                    ops.append(pair_op(hciz, a, b, series={}))
        for n in self.DIMS:
            a, b = real_spectrum(rng, n), real_spectrum(rng, n)
            # tol=0 never stops early: every call runs to max_weight=24
            ops.append(pair_op(hciz, a, b, series={"max_weight": 24, "tol": 0.0}))
        return ops


class ExactVerify(Workload):
    """The exact suites at sizes that take seconds."""

    name = "exact-verify"
    PASS_NOMINAL_S = 6.5

    def warm_up(self):
        from hciz import suites

        suites.suite_unitarity(2, 2)
        suites.suite_diffop(2, 2)
        suites.suite_inv_orthonormal(2, 2)
        suites.suite_alt_orthonormal(2, 2)
        suites.suite_fourier(2, count=1)
        suites.suite_reproducing(2, count=1)

    def make_pass(self, index, runner=None):
        from hciz import suites

        seed = self.rng(index).randrange(2**32)
        # the two sub-second suites share an operation, so that the median
        # operation is one of the big suites however many passes a run makes
        return [
            suite_op("unitarity n=4 d=4", lambda: suites.suite_unitarity(4, 4)),
            suite_op("diffop n=4 d=4", lambda: suites.suite_diffop(4, 4)),
            suite_op("inv-orthonormal n=4 w=6", lambda: suites.suite_inv_orthonormal(4, 6)),
            suite_op("alt-orthonormal n=4 w=8", lambda: suites.suite_alt_orthonormal(4, 8)),
            suite_op("fourier+reproducing n=3", lambda: suites.suite_fourier(3, seed=seed),
                     lambda: suites.suite_reproducing(3, seed=seed)),
        ]


class CliEval(Workload):
    """Fresh CLI processes, one at a time: eval on random spectra and one
    short verify per suite."""

    name = "cli-eval"
    PASS_NOMINAL_S = 2.4
    in_process = False

    def make_pass(self, index, runner=None):
        rng = self.rng(index)
        ops = []
        for n in (2, 3, 4, 2, 3, 4):
            argv = ["eval", "--n", str(n), "--a", "r", "--b", "r", "--methods", "det,mc,series",
                    "--samples", "2000", "--seed", str(rng.randrange(2**31)), "--threads", "1",
                    "--output", "-"]
            ops.append(cli_op("eval", argv, runner))
        for suite in SUITES:
            argv = ["verify", suite, "--n", "2", "--samples", "20000",
                    "--seed", str(rng.randrange(2**31)), "--threads", "1", "--output", "-"]
            ops.append(cli_op("verify", argv, runner))
        return ops


WORKLOADS = {w.name: w for w in (McPairs, SeriesSweep, ExactVerify, CliEval)}


def cli_runner(src: str, prefix=None, extra_env=None):
    """Runs `python -m hciz.cli argv` (or `prefix + argv`) to completion."""
    env = cli_env(src)
    env.update(extra_env or {})
    cmd = prefix or [sys.executable, "-m", "hciz.cli"]

    def run(argv):
        proc = subprocess.run(cmd + argv, capture_output=True, text=True, env=env, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    return run
