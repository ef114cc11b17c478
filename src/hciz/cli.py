"""Command-line front end: evaluators and verification suites with JSON reports.

Exit codes: 0 all checks passed, 1 a verification check failed, 2 domain
error (e.g. a degenerate spectrum sent to the determinant route), 64
usage or parse error.

Reports are deterministic for a fixed configuration and seed except for
the `timing_seconds` field.  Exact values appear as rational strings, so
nothing is lost to binary floating point in the output.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import platform
import re
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    NotAlternatingError,
    NotInImageError,
)
from .invariant import TracePoly, verify_fourier_reconstruction
from .numeric import (
    Spectrum,
    hciz_determinant,
    hciz_mc,
    kernel_series,
    random_real_spectrum,
)
from .scalars import GaussianRational
from .suites import (
    suite_alt_orthonormal,
    suite_diffop,
    suite_fourier,
    suite_ginibre,
    suite_haar,
    suite_inv_orthonormal,
    suite_reproducing,
    suite_unitarity,
)
from .symfn import Partition, schur_exact, schur_numeric, schur_to_power_sums

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64

RNG_NAME = "philox"


class UsageError(Exception):
    """Bad command-line input; maps to exit code 64."""


class NonFiniteValueError(ArithmeticError):
    """An evaluator returned inf or nan; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


@dataclass
class Report:
    command: str
    inputs: dict
    results: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    passed: bool | None = None
    timing_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "checks": self.checks,
            "passed": self.passed,
            "versions": {
                "hciz": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
            "rng": RNG_NAME,
            "timing_seconds": self.timing_seconds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


# -- input parsing ------------------------------------------------------------------


def parse_complex(text: str) -> complex:
    """Shell-safe complex literal `a+bi`, e.g. `1.5`, `2i`, `-0.3-0.7i`."""
    s = text.strip().replace(" ", "")
    if not s:
        raise UsageError("empty complex literal")
    try:
        return complex(s.replace("i", "j").replace("I", "j"))
    except ValueError as exc:
        raise UsageError(f"bad complex literal {text!r}") from exc


def parse_spectrum(text: str, n: int, rng: np.random.Generator) -> Spectrum:
    """Comma-separated complex literals, or `r` for a random well-separated draw."""
    text = text.strip()
    if text == "r":
        return random_real_spectrum(n, rng)
    eigs = tuple(parse_complex(p) for p in text.split(","))
    if len(eigs) != n:
        raise UsageError(f"spectrum {text!r} has {len(eigs)} entries, expected n={n}")
    return Spectrum(eigs)


def parse_partition(text: str) -> Partition:
    try:
        return Partition.from_text(text)
    except ValueError as exc:
        raise UsageError(f"bad partition {text!r}: {exc}") from exc


_GEN_TOKEN = re.compile(r"t(\d+)(?:\^(\d+))?$")
_NUM_TOKEN = re.compile(r"(\d+(?:/\d+|\.\d+)?)?(i)?$")


def parse_trace_poly(text: str) -> TracePoly:
    """Literal like `t1^2 - 1/2 t2 t3 + 3i`; `*` and whitespace both separate factors."""
    from fractions import Fraction

    src = text.strip()
    if not src:
        raise UsageError("empty trace polynomial")
    pieces = re.findall(r"[+-]?[^+-]+", src)
    if "".join(pieces).replace(" ", "") != src.replace(" ", ""):
        raise UsageError(f"malformed trace polynomial {text!r}")
    terms = []
    for raw in pieces:
        raw = raw.strip()
        sign = -1 if raw.startswith("-") else 1
        body = raw.lstrip("+-").strip()
        if not body:
            raise UsageError(f"dangling sign in {text!r}")
        coeff = GaussianRational(sign)
        exps: dict[int, int] = {}
        for tok in body.replace("*", " ").split():
            m = _GEN_TOKEN.match(tok)
            if m:
                k = int(m.group(1))
                if k < 1:
                    raise UsageError(f"bad generator {tok!r} in {text!r}")
                e = int(m.group(2) or 1)
                exps[k] = exps.get(k, 0) + e
                continue
            m = _NUM_TOKEN.match(tok)
            if m and (m.group(1) or m.group(2)):
                q = Fraction(m.group(1)) if m.group(1) else Fraction(1)
                coeff = coeff * (GaussianRational(0, q) if m.group(2) else GaussianRational(q))
                continue
            raise UsageError(f"unrecognized token {tok!r} in trace polynomial {text!r}")
        terms.append((exps, coeff))
    return TracePoly.from_terms(terms)


# -- output helpers ----------------------------------------------------------------


def _cj(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _spectrum_json(s: Spectrum) -> list:
    return [_cj(e) for e in s.eigs]


def _emit(report: Report, args, summary_lines) -> None:
    text = report.to_json()
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    if args.output == "-":
        print(text)
    elif not args.quiet:
        for line in summary_lines:
            print(line)


# -- commands -----------------------------------------------------------------------


def cmd_eval(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    bad = [m for m in methods if m not in ("det", "mc", "series")]
    if bad or not methods:
        raise UsageError(f"unknown methods {bad or args.methods!r}; pick from det,mc,series")

    rng = np.random.Generator(np.random.Philox(args.seed))
    a = parse_spectrum(args.a, args.n, rng)
    b = parse_spectrum(args.b, args.n, rng)

    t0 = time.perf_counter()
    report = Report(
        command="eval",
        inputs={
            "n": args.n,
            "a": args.a,
            "b": args.b,
            "a_resolved": _spectrum_json(a),
            "b_resolved": _spectrum_json(b),
            "methods": methods,
            "n_samples": args.samples,
            "seed": args.seed,
            "max_weight": args.max_weight,
            "tolerance": args.tol,
            "threads": args.threads,
        },
    )
    values: dict[str, complex] = {}
    if "det" in methods:
        det = hciz_determinant(a, b)
        values["det"] = det
        report.results["det"] = {"value": _cj(det)}
    if "mc" in methods:
        est = hciz_mc(a, b, args.samples, args.seed, threads=args.threads)
        values["mc"] = est.mean
        report.results["mc"] = {
            "mean": _cj(est.mean),
            "stderr": est.stderr,
            "rounding": est.rounding,
            "n_samples": est.n_samples,
            "seed": est.seed,
        }
    if "series" in methods:
        res = kernel_series(a, b.conj(), max_weight=args.max_weight, tol=args.tol)
        values["series"] = res.value
        report.results["series"] = {
            "value": _cj(res.value),
            "max_weight_used": res.max_weight_used,
            "last_shell_magnitude": res.last_shell_magnitude,
        }

    bad = [m for m in methods if not cmath.isfinite(values[m])]
    if bad:
        raise NonFiniteValueError(f"non-finite value from {', '.join(bad)}")

    mc = report.results.get("mc", {})
    stderr, rounding = mc.get("stderr", 0.0), mc.get("rounding", 0.0)

    def mc_band(m1, m2):
        # the estimate's own error, 4 standard errors plus its rounding
        # bound, and a floor for the other method's rounding
        floor = 1e-12 * max(abs(values[m1]), abs(values[m2]), 1.0)
        return 4 * stderr + rounding + floor

    policies = {
        ("det", "mc"): mc_band,
        ("mc", "series"): mc_band,
        ("det", "series"): lambda m1, m2: args.tol,
    }
    for (m1, m2), band in policies.items():
        if m1 in values and m2 in values:
            delta = abs(values[m1] - values[m2])
            report.checks.append(
                {
                    "name": f"{m1} vs {m2}",
                    "delta": delta,
                    "passed": bool(delta <= band(m1, m2)),
                }
            )
    report.passed = all(c["passed"] for c in report.checks) if report.checks else True
    report.timing_seconds = time.perf_counter() - t0

    lines = [f"{m}: {values[m]!r}" for m in methods]
    lines += [
        f"{c['name']}: delta {c['delta']:.3e} -> {'ok' if c['passed'] else 'FAIL'}"
        for c in report.checks
    ]
    lines.append(f"verdict: {'pass' if report.passed else 'FAIL'}")
    _emit(report, args, lines)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _given(args, name: str) -> dict:
    """{name: value} if the option was given, else {}, so the suite's own default holds."""
    return {} if getattr(args, name) is None else {name: getattr(args, name)}


_SUITES = {
    "alt-orthonormal": lambda a: suite_alt_orthonormal(a.n, **_given(a, "max_weight")),
    "inv-orthonormal": lambda a: suite_inv_orthonormal(a.n, **_given(a, "max_weight")),
    "unitarity": lambda a: suite_unitarity(a.n, **_given(a, "max_degree")),
    "diffop": lambda a: suite_diffop(a.n, **_given(a, "max_degree")),
    "fourier": lambda a: suite_fourier(a.n, a.count, seed=a.seed, **_given(a, "max_weight")),
    "ginibre": lambda a: suite_ginibre(a.n, a.samples, a.seed, a.threads),
    "reproducing": lambda a: suite_reproducing(
        a.n, a.count, seed=a.seed, **_given(a, "max_weight")),
    "haar": lambda a: suite_haar(a.n, a.samples, a.seed),
}


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    rep = _SUITES[args.suite](args)
    report = Report(
        command="verify",
        inputs={"suite": args.suite, **rep.params, "threads": args.threads},
        results={
            "cases": len(rep.cases),
            "failed": rep.n_failed,
        },
        checks=[
            {"name": c.label, "passed": c.passed, "detail": c.detail} for c in rep.cases
        ],
        passed=rep.passed,
    )
    report.timing_seconds = time.perf_counter() - t0
    lines = [
        f"{args.suite}: {len(rep.cases)} cases, {rep.n_failed} failed "
        f"-> {'pass' if rep.passed else 'FAIL'}"
    ]
    lines += [f"  {c.label}: FAIL ({c.detail})" for c in rep.cases if not c.passed]
    _emit(report, args, lines)
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def cmd_schur(args) -> int:
    lam = parse_partition(args.lam)
    if args.eigs is None and args.n is None and not args.power_sums:
        raise UsageError("need --eigs, or --n with --exact, or --power-sums")
    t0 = time.perf_counter()
    report = Report(
        command="schur",
        inputs={
            "lambda": lam.to_text(),
            "eigs": args.eigs,
            "n": args.n,
            "exact": args.exact,
            "power_sums": args.power_sums,
        },
    )
    lines = []
    if args.eigs is not None:
        # Spectrum rejects a non-finite point as a usage error, as in eval
        eigs = Spectrum(tuple(parse_complex(p) for p in args.eigs.split(","))).eigs
        value = schur_numeric(lam, eigs)
        if not cmath.isfinite(value):
            raise NonFiniteValueError(f"non-finite value of s[{lam}]")
        report.results["value"] = _cj(value)
        lines.append(f"s[{lam}]({args.eigs}) = {value!r}")
    if args.exact:
        if args.n is None:
            raise UsageError("--exact needs --n")
        poly = schur_exact(lam, args.n)
        report.results["exact"] = poly.to_text(var_symbol="x")
        lines.append(f"s[{lam}] in {args.n} variables: {report.results['exact']}")
    if args.power_sums:
        ps = schur_to_power_sums(lam)
        report.results["power_sums"] = ps.to_text(var_symbol="p")
        lines.append(f"s[{lam}] in power sums: {report.results['power_sums']}")
    report.passed = True
    report.timing_seconds = time.perf_counter() - t0
    _emit(report, args, lines)
    return EXIT_OK


def cmd_fourier(args) -> int:
    f = parse_trace_poly(args.f)
    t0 = time.perf_counter()
    ok, coeffs = verify_fourier_reconstruction(f, args.n, args.max_weight)
    report = Report(
        command="fourier",
        inputs={
            "f": args.f,
            "canonical": f.to_text(),
            "n": args.n,
            "max_weight": args.max_weight,
        },
        results={
            "coefficients": {lam.to_text(): str(c) for lam, c in coeffs.items()},
            "reconstruction": ok,
        },
        passed=ok,
    )
    report.timing_seconds = time.perf_counter() - t0
    lines = [f"f[{lam}] = {c}" for lam, c in coeffs.items()]
    lines.append(f"reconstruction: {'pass' if ok else 'FAIL'}")
    _emit(report, args, lines)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# -- wiring --------------------------------------------------------------------------


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get("HCIZ_THREADS", "1")))
    except ValueError:
        return 1


def build_parser() -> _Parser:
    top = _Parser(
        prog="hciz",
        description="Unitary-group exponential integrals and exact identity checks.",
    )

    def common(p):
        p.add_argument("--output", help="write the JSON report here ('-' for stdout)")
        p.add_argument("--quiet", action="store_true", help="suppress the human summary")
        p.add_argument(
            "--threads",
            type=int,
            default=_default_threads(),
            help="worker cap for Monte Carlo (default $HCIZ_THREADS or 1)",
        )
        p.add_argument("--seed", type=int, default=0, help="RNG seed (Philox streams)")

    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate the integral by det, mc and/or series")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", required=True, help="comma-separated a+bi literals, or 'r'")
    p.add_argument("--b", required=True, help="comma-separated a+bi literals, or 'r'")
    p.add_argument("--methods", default="det,mc", help="subset of det,mc,series")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--max-weight", type=int, default=24, dest="max_weight")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--max-weight", type=int, help="default: the suite's")
    p.add_argument("--max-degree", type=int, help="default: the suite's")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--count", type=int, default=10)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("schur", help="Schur polynomial values and expansions")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True, help="partition, e.g. 2,1")
    p.add_argument("--eigs", help="evaluation points, comma-separated a+bi")
    p.add_argument("--n", type=int, help="variable count for --exact")
    p.add_argument("--exact", action="store_true", help="print the exact expansion")
    p.add_argument("--power-sums", action="store_true", dest="power_sums")
    p.set_defaults(fn=cmd_schur)

    p = sub.add_parser("fourier", help="Schur-basis coefficients of a trace polynomial")
    common(p)
    p.add_argument("--f", required=True, help="trace polynomial, e.g. 't1^2 - 1/2 t2'")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-weight", type=int, help="default: f's weighted degree")
    p.set_defaults(fn=cmd_fourier)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the finiteness checks decide exit 2; numpy's warnings would garble stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except (
        DegenerateSpectrumError,
        DimensionMismatchError,
        NotAlternatingError,
        NotInImageError,
        NonFiniteValueError,
    ) as exc:
        payload = {
            "schema": 1,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return EXIT_DOMAIN
    except (UsageError, ValueError) as exc:
        # a bare ValueError is input the library rejects (a sample count, a
        # non-finite eigenvalue, a size out of range); the domain errors
        # above subclass it, so they must be caught first
        print(f"hciz: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
