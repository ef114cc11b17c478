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
import importlib.util
import json
import os
import re
import sys
import time
import warnings
from typing import TYPE_CHECKING

from . import __version__
from .errors import DegenerateSpectrumError, DimensionMismatchError

# Each command imports what it runs in its own body, so the exact commands
# and --help start without numpy.
if TYPE_CHECKING:
    import numpy as np

    from .numeric import Spectrum
    from .symfn import Partition, TracePoly

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64

# Monte Carlo draws from SFC64 streams (`numeric._substream`), `r` spectra
# from Philox(seed) (`spectrum_rng`)
RNG_NAME = "mc: sfc64, spectra: philox"


class UsageError(Exception):
    """Bad command-line input; maps to exit code 64."""


class NonFiniteValueError(ArithmeticError):
    """An evaluator's value left the double range: it returned inf or nan,
    raised an ArithmeticError or returned 0 or a subnormal (`eval`), or was
    nonzero and underflowed below the smallest normal double, or cancelled
    in its minor (`schur`); maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _numpy_version() -> str:
    """numpy's version, read from its version.py unless numpy is loaded:
    that takes a fraction of a millisecond, the import about 90."""
    numpy = sys.modules.get("numpy")
    if numpy is None:
        spec = importlib.util.find_spec("numpy")
        with open(os.path.join(spec.submodule_search_locations[0], "version.py")) as fh:
            found = re.search(r'^version = "([^"]+)"$', fh.read(), re.MULTILINE)
        if found:
            return found.group(1)
        import numpy  # a numpy whose version.py computes the version
    return numpy.__version__


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


def spectrum_rng(seed: int) -> np.random.Generator:
    """The generator of `r` spectra: Philox(seed), a stream apart from every
    Monte Carlo worker's, so an `r` input names the same spectrum whatever
    the sampler draws."""
    import numpy as np

    return np.random.Generator(np.random.Philox(seed))


def parse_spectrum(text: str, n: int, rng: np.random.Generator) -> Spectrum:
    """Comma-separated complex literals, or `r` for a random well-separated draw."""
    from .numeric import Spectrum, random_real_spectrum

    text = text.strip()
    if text == "r":
        return random_real_spectrum(n, rng)
    eigs = tuple(parse_complex(p) for p in text.split(","))
    if len(eigs) != n:
        raise UsageError(f"spectrum {text!r} has {len(eigs)} entries, expected n={n}")
    return Spectrum(eigs)


def parse_seed(text: str) -> int:
    """A `--seed` value: a non-negative integer, checked when the arguments are
    parsed, so every command refuses a bad one the same way (exit 64)."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return value


def parse_partition(text: str) -> Partition:
    from .symfn import Partition

    try:
        return Partition.from_text(text)
    except ValueError as exc:
        raise UsageError(f"bad partition {text!r}: {exc}") from exc


_GEN_TOKEN = re.compile(r"t(\d+)(?:\^(\d+))?$")
_NUM_TOKEN = re.compile(r"(\d+(?:/\d+|\.\d+)?)?(i)?$")


def parse_trace_poly(text: str) -> TracePoly:
    """Literal like `t1^2 - 1/2 t2 t3 + 3i`; `*` and whitespace both separate factors."""
    from fractions import Fraction

    from .scalars import GaussianRational
    from .symfn import TracePoly

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
                try:
                    q = Fraction(m.group(1)) if m.group(1) else Fraction(1)
                except ZeroDivisionError as exc:
                    raise UsageError(
                        f"zero denominator in {tok!r} in trace polynomial {text!r}") from exc
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


def _fields(result) -> dict:
    """A result's own fields, complex values as {re, im}."""
    return {k: _cj(v) if isinstance(v, complex) else v for k, v in vars(result).items()}


def _emit(args, command: str, t0: float, inputs: dict, results: dict, lines,
          passed: bool = True, checks=()) -> int:
    """Write the JSON report and the summary; returns the exit code `passed` maps to."""
    elapsed = time.perf_counter() - t0
    report = {
        "schema": 1,
        "command": command,
        "inputs": inputs,
        "results": results,
        "checks": list(checks),
        "passed": passed,
        "versions": {
            "hciz": __version__,
            "numpy": _numpy_version(),
            "python": sys.version.split()[0],
        },
        "rng": RNG_NAME,
        "timing_seconds": elapsed,
    }
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    if args.output == "-":
        print(text)
    elif not args.quiet:
        for line in lines:
            print(line)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# -- commands -----------------------------------------------------------------------


def cmd_eval(args) -> int:
    # each method once, in first-seen order
    methods = list(dict.fromkeys(m.strip() for m in args.methods.split(",") if m.strip()))
    bad = [m for m in methods if m not in ("det", "mc", "series")]
    if bad or not methods:
        raise UsageError(f"unknown methods {bad or args.methods!r}; pick from det,mc,series")

    from .numeric import _check_mc_limits, _check_series_limits
    from .numeric import hciz_determinant, hciz_mc, kernel_series

    # each method's limits, checked whatever runs: every input is reported
    _check_mc_limits(args.samples, args.threads)
    _check_series_limits(args.max_weight, args.tol)
    rng = spectrum_rng(args.seed)
    a = parse_spectrum(args.a, args.n, rng)
    b = parse_spectrum(args.b, args.n, rng)

    t0 = time.perf_counter()
    inputs = {
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
    }
    evaluators = {
        "det": lambda: hciz_determinant(a, b),
        "mc": lambda: hciz_mc(a, b, args.samples, args.seed, threads=args.threads),
        "series": lambda: kernel_series(a, b.conj(), max_weight=args.max_weight, tol=args.tol),
    }
    outs, caught = {}, {}
    for m in methods:
        try:
            outs[m] = evaluators[m]()
        except ArithmeticError as exc:  # a value past the double range, like inf or nan
            caught[m] = exc
    # det returns a bare value, mc an MCEstimate and series a SeriesResult
    values = {m: out if m == "det" else out.mean if m == "mc" else out.value
              for m, out in outs.items()}
    results = {m: {"value": _cj(out)} if m == "det" else _fields(out)
               for m, out in outs.items()}

    bad = [m for m in methods if m in caught or not cmath.isfinite(values[m])]
    if bad:
        why = "".join(f" ({m}: {type(e).__name__}: {e})" for m, e in caught.items())
        raise NonFiniteValueError(f"non-finite value from {', '.join(bad)}{why}")
    # 0 or a subnormal is a value lost below the normal range (or to
    # cancellation), not one held to a double's precision: exit 2 as for inf
    tiny = [m for m in methods if abs(values[m]) < sys.float_info.min]
    if tiny:
        raise NonFiniteValueError(f"value from {', '.join(tiny)} is 0 or below the "
                                  "smallest normal double")

    def mc_band(m1, m2):
        # the estimate's own band, and a floor for the other method's rounding
        return outs["mc"].band + 1e-12 * max(abs(values[m1]), abs(values[m2]), 1.0)

    policies = {
        ("det", "mc"): mc_band,
        ("mc", "series"): mc_band,
        ("det", "series"): lambda m1, m2: args.tol,
    }
    checks = []
    for (m1, m2), band in policies.items():
        if m1 in values and m2 in values:
            delta = abs(values[m1] - values[m2])
            checks.append(
                {
                    "name": f"{m1} vs {m2}",
                    "delta": delta,
                    "passed": bool(delta <= band(m1, m2)),
                }
            )
    passed = all(c["passed"] for c in checks)

    lines = [f"{m}: {values[m]!r}" for m in methods]
    lines += [
        f"{c['name']}: delta {c['delta']:.3e} -> {'ok' if c['passed'] else 'FAIL'}"
        for c in checks
    ]
    lines.append(f"verdict: {'pass' if passed else 'FAIL'}")
    return _emit(args, "eval", t0, inputs, results, lines, passed, checks)


def _given(args, name: str) -> dict:
    """{name: value} if the option was given, else {}, so the suite's own default holds."""
    return {} if getattr(args, name) is None else {name: getattr(args, name)}


# each entry runs on the suites module, which cmd_verify imports when it runs
_SUITES = {
    "alt-orthonormal": lambda s, a: s.suite_alt_orthonormal(a.n, **_given(a, "max_weight")),
    "inv-orthonormal": lambda s, a: s.suite_inv_orthonormal(a.n, **_given(a, "max_weight")),
    "unitarity": lambda s, a: s.suite_unitarity(a.n, **_given(a, "max_degree")),
    "diffop": lambda s, a: s.suite_diffop(a.n, **_given(a, "max_degree")),
    "fourier": lambda s, a: s.suite_fourier(a.n, a.count, seed=a.seed,
                                            **_given(a, "max_weight")),
    "ginibre": lambda s, a: s.suite_ginibre(a.n, a.samples, a.seed, a.threads),
    "reproducing": lambda s, a: s.suite_reproducing(
        a.n, a.count, seed=a.seed, **_given(a, "max_weight")),
    "haar": lambda s, a: s.suite_haar(a.n, a.samples, a.seed),
}


def cmd_verify(args) -> int:
    from . import suites

    t0 = time.perf_counter()
    rep = _SUITES[args.suite](suites, args)
    results = {"cases": len(rep.cases), "failed": rep.n_failed}
    checks = [{"name": c.label, "passed": c.passed, "detail": c.detail} for c in rep.cases]
    lines = [
        f"{args.suite}: {len(rep.cases)} cases, {rep.n_failed} failed "
        f"-> {'pass' if rep.passed else 'FAIL'}"
    ]
    lines += [f"  {c.label}: FAIL ({c.detail})" for c in rep.cases if not c.passed]
    return _emit(args, "verify", t0, {"suite": args.suite, **rep.params}, results, lines,
                 rep.passed, checks)


def cmd_schur(args) -> int:
    from .symfn import schur_exact, schur_to_power_sums

    lam = parse_partition(args.lam)
    if args.eigs is None and not args.exact and not args.power_sums:
        raise UsageError("need --eigs, or --n with --exact, or --power-sums")
    t0 = time.perf_counter()
    inputs = {
        "lambda": lam.to_text(),
        "eigs": args.eigs,
        "n": args.n,
        "exact": args.exact,
        "power_sums": args.power_sums,
    }
    results = {}
    lines = []
    if args.eigs is not None:
        from .numeric import Spectrum, schur_numeric

        # Spectrum rejects a non-finite point as a usage error, as in eval
        eigs = Spectrum(tuple(parse_complex(p) for p in args.eigs.split(","))).eigs
        value = schur_numeric(lam, eigs)
        if not cmath.isfinite(value):
            raise NonFiniteValueError(f"non-finite value of s[{lam}]")
        # s_lambda(|x|) > 0 with no more parts than nonzero points: if it underflows, so did
        # this.  h_k(|x|) sums positive terms, but a minor (length >= 2) can also cancel to 0
        # at both points, and no error estimate tells the two apart
        if (abs(value) < sys.float_info.min and lam.length <= sum(1 for e in eigs if e)
                and abs(schur_numeric(lam, [abs(e) for e in eigs])) < sys.float_info.min):
            cause = " or cancels to 0 in its minor" if lam.length >= 2 else ""
            raise NonFiniteValueError(
                f"s[{lam}] underflows below the smallest normal double{cause}")
        results["value"] = _cj(value)
        lines.append(f"s[{lam}]({args.eigs}) = {value!r}")
    if args.exact:
        if args.n is None:
            raise UsageError("--exact needs --n")
        results["exact"] = schur_exact(lam, args.n).to_text(var_symbol="x")
        lines.append(f"s[{lam}] in {args.n} variables: {results['exact']}")
    if args.power_sums:
        results["power_sums"] = schur_to_power_sums(lam).to_text(var_symbol="p")
        lines.append(f"s[{lam}] in power sums: {results['power_sums']}")
    return _emit(args, "schur", t0, inputs, results, lines)


def cmd_fourier(args) -> int:
    from .invariant import verify_fourier_reconstruction

    f = parse_trace_poly(args.f)
    t0 = time.perf_counter()
    ok, coeffs = verify_fourier_reconstruction(f, args.n, args.max_weight)
    inputs = {"f": args.f, "canonical": f.to_text(), "n": args.n, "max_weight": args.max_weight}
    results = {
        "coefficients": {lam.to_text(): str(c) for lam, c in coeffs.items()},
        "reconstruction": ok,
    }
    lines = [f"f[{lam}] = {c}" for lam, c in coeffs.items()]
    lines.append(f"reconstruction: {'pass' if ok else 'FAIL'}")
    return _emit(args, "fourier", t0, inputs, results, lines, ok)


# -- wiring --------------------------------------------------------------------------


def build_parser() -> _Parser:
    top = _Parser(
        prog="hciz",
        description="Unitary-group exponential integrals and exact identity checks.",
    )

    def common(p):
        p.add_argument("--output", help="write the JSON report here ('-' for stdout)")
        p.add_argument("--quiet", action="store_true", help="suppress the human summary")

    def sampling(p):
        p.add_argument(
            "--threads",
            type=int,
            # a string default goes through `type`, so a bad $HCIZ_THREADS exits 64
            default=os.environ.get("HCIZ_THREADS", "1"),
            help="Monte Carlo workers (default $HCIZ_THREADS or 1)",
        )
        p.add_argument("--seed", type=parse_seed, default=0,
                       help="RNG seed (SFC64 Monte Carlo streams, Philox `r` spectra)")

    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate the integral by det, mc and/or series")
    common(p)
    sampling(p)
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
    sampling(p)
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
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", r"(overflow|invalid value) encountered", RuntimeWarning)
            return args.fn(args)
    except (
        DegenerateSpectrumError,
        DimensionMismatchError,
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
