import dataclasses
import hashlib
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from hciz.cli import (
    EXIT_CHECK_FAILED,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    main,
    parse_complex,
    parse_partition,
    parse_spectrum,
    parse_trace_poly,
)
from hciz.invariant import TracePoly
from hciz.numeric import MCEstimate, SeriesResult
from hciz.scalars import GaussianRational


def run(tmp_path, argv):
    """Run the CLI in-process with a JSON report capture; returns (code, report)."""
    out = tmp_path / "report.json"
    code = main(argv + ["--output", str(out), "--quiet"])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


class TestParseComplex:
    def test_forms(self):
        assert parse_complex("2") == 2 + 0j
        assert parse_complex("1+2i") == 1 + 2j
        assert parse_complex("-0.5i") == -0.5j
        assert parse_complex("i") == 1j
        assert parse_complex("3-I") == 3 - 1j
        assert parse_complex(" 0.25 ") == 0.25

    def test_rejects_garbage(self):
        for bad in ("", "x", "1+", "2j3"):
            with pytest.raises(UsageError):
                parse_complex(bad)


class TestParsePartition:
    def test_forms(self):
        assert parse_partition("2,1").parts == (2, 1)
        assert parse_partition("0").parts == ()

    def test_rejects_increasing(self):
        with pytest.raises(UsageError):
            parse_partition("1,2")


class TestParseSpectrum:
    def test_literal(self):
        rng = np.random.default_rng(0)
        s = parse_spectrum("1,2i", 2, rng)
        assert s.eigs == (1 + 0j, 2j)

    def test_length_check(self):
        rng = np.random.default_rng(0)
        with pytest.raises(UsageError):
            parse_spectrum("1,2", 3, rng)

    def test_random_draw(self):
        s1 = parse_spectrum("r", 3, np.random.default_rng(5))
        s2 = parse_spectrum("r", 3, np.random.default_rng(5))
        assert s1.eigs == s2.eigs
        assert s1.gap >= 0.1


class TestParseTracePoly:
    def test_golden(self):
        got = parse_trace_poly("t1^2 - 1/2 t2 t3 + 3i")
        want = (
            TracePoly.gen(1) ** 2
            - TracePoly.gen(2) * TracePoly.gen(3) * Fraction(1, 2)
            + TracePoly.one() * GaussianRational(0, 3)
        )
        assert got == want

    def test_star_separator_and_repeats(self):
        assert parse_trace_poly("2*t1*t1") == TracePoly.gen(1) ** 2 * 2
        assert parse_trace_poly("t2^2") == TracePoly.gen(2) ** 2

    def test_constant(self):
        assert parse_trace_poly("1") == TracePoly.one()
        assert parse_trace_poly("-3/2") == TracePoly.one() * Fraction(-3, 2)

    def test_rejects(self):
        for bad in ("", "2t1", "t0", "zz", "t1 +"):
            with pytest.raises(UsageError):
                parse_trace_poly(bad)


class TestEval:
    def test_det_golden(self, tmp_path):
        code, rep = run(tmp_path, ["eval", "--n", "2", "--a", "0,1", "--b", "0,1", "--methods", "det"])
        assert code == EXIT_OK
        assert rep["results"]["det"]["value"]["re"] == pytest.approx(math.e - 1, rel=1e-12)
        assert rep["passed"] is True

    def test_det_mc_single_point(self, tmp_path):
        code, rep = run(
            tmp_path,
            ["eval", "--n", "1", "--a", "2", "--b", "3", "--methods", "det,mc", "--samples", "1000"],
        )
        assert code == EXIT_OK
        assert rep["results"]["det"]["value"]["re"] == pytest.approx(math.exp(6), rel=1e-12)
        assert rep["results"]["mc"]["mean"]["re"] == pytest.approx(math.exp(6), rel=1e-9)
        assert all(c["passed"] for c in rep["checks"])

    def test_three_way_random(self, tmp_path):
        code, rep = run(
            tmp_path,
            [
                "eval", "--n", "3", "--a", "r", "--b", "r", "--seed", "7",
                "--methods", "det,mc,series", "--samples", "40000",
            ],
        )
        assert code == EXIT_OK
        assert {c["name"] for c in rep["checks"]} == {"det vs mc", "mc vs series", "det vs series"}
        assert rep["passed"] is True

    def test_results_are_the_fields_of_each_result(self, tmp_path):
        _, rep = run(
            tmp_path,
            ["eval", "--n", "2", "--a", "0.3,-0.6", "--b", "0.9,0.1",
             "--methods", "det,mc,series", "--samples", "1000"],
        )
        res = rep["results"]
        assert set(res["mc"]) == {f.name for f in dataclasses.fields(MCEstimate)}
        assert set(res["series"]) == {f.name for f in dataclasses.fields(SeriesResult)}
        assert set(res["mc"]["mean"]) == set(res["series"]["value"]) == {"re", "im"}
        assert set(res["det"]) == {"value"}

    def test_random_spectra_reproducible(self, tmp_path):
        argv = ["eval", "--n", "2", "--a", "r", "--b", "r", "--seed", "3", "--methods", "det"]
        _, rep1 = run(tmp_path, argv)
        _, rep2 = run(tmp_path, argv)
        assert rep1["inputs"]["a_resolved"] == rep2["inputs"]["a_resolved"]
        assert rep1["inputs"]["b_resolved"] == rep2["inputs"]["b_resolved"]

    def test_degenerate_spectrum_exits_2(self, tmp_path, capsys):
        code = main(["eval", "--n", "2", "--a", "1,1", "--b", "0,1", "--methods", "det"])
        assert code == EXIT_DOMAIN
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "DegenerateSpectrumError"

    def test_degenerate_spectrum_series_still_works(self, tmp_path):
        code, rep = run(
            tmp_path,
            ["eval", "--n", "2", "--a", "0.5,0.5", "--b", "0.5,0.5", "--methods", "series"],
        )
        assert code == EXIT_OK
        assert math.isfinite(rep["results"]["series"]["value"]["re"])

    def test_unknown_method_exits_64(self, tmp_path):
        code = main(["eval", "--n", "1", "--a", "1", "--b", "1", "--methods", "magic", "--quiet"])
        assert code == EXIT_USAGE

    def test_wrong_length_exits_64(self, tmp_path):
        code = main(["eval", "--n", "3", "--a", "1,2", "--b", "1,2,3", "--quiet"])
        assert code == EXIT_USAGE

    def test_repeated_methods_run_once(self, tmp_path, capsys):
        argv = ["eval", "--n", "2", "--a", "1,2", "--b", "0.5,0.25"]
        code, rep = run(tmp_path, argv + ["--methods", "det,det,series"])
        _, once = run(tmp_path, argv + ["--methods", "det,series"])
        assert code == EXIT_OK
        assert rep["inputs"]["methods"] == ["det", "series"]
        del rep["timing_seconds"], once["timing_seconds"]
        assert rep == once
        main(argv + ["--methods", "series,det,series,det"])
        names = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert names == ["series", "det", "det vs series", "verdict"]

    # 2 samples at seeds 0 and 2 fall outside the band (det vs mc about 19
    # and 7 standard errors apart), the others inside
    @pytest.mark.parametrize("samples, seed", [(200, 0), (200, 1), (200, 2), (2, 0), (2, 2), (3, 11)])
    def test_mc_checks_use_the_estimate_band(self, tmp_path, samples, seed):
        code, rep = run(tmp_path, ["eval", "--n", "2", "--a", "r", "--b", "r", "--seed", str(seed),
                                   "--methods", "det,mc,series", "--samples", str(samples)])
        mc = rep["results"]["mc"]
        est = MCEstimate(**{**mc, "mean": complex(mc["mean"]["re"], mc["mean"]["im"])})
        values = {"det": rep["results"]["det"]["value"], "series": rep["results"]["series"]["value"],
                  "mc": mc["mean"]}
        mc_checks = [c for c in rep["checks"] if "mc" in c["name"]]
        assert len(mc_checks) == 2
        for check in mc_checks:
            m1, m2 = (complex(values[m]["re"], values[m]["im"]) for m in check["name"].split(" vs "))
            assert check["delta"] == abs(m1 - m2)
            floor = 1e-12 * max(abs(m1), abs(m2), 1.0)
            assert check["passed"] == (check["delta"] <= est.band + floor)
        assert rep["passed"] == ((samples, seed) not in [(2, 0), (2, 2)])
        assert code == (EXIT_OK if rep["passed"] else EXIT_CHECK_FAILED)


class TestVerify:
    def test_alt_orthonormal(self, tmp_path):
        code, rep = run(tmp_path, ["verify", "alt-orthonormal", "--n", "2", "--max-weight", "3"])
        assert code == EXIT_OK
        assert rep["results"]["failed"] == 0
        assert rep["results"]["cases"] > 0
        assert all(c["passed"] for c in rep["checks"])

    def test_diffop(self, tmp_path):
        code, rep = run(tmp_path, ["verify", "diffop", "--n", "2", "--max-degree", "3"])
        assert code == EXIT_OK
        assert rep["passed"] is True

    def test_ginibre(self, tmp_path):
        code, rep = run(
            tmp_path, ["verify", "ginibre", "--n", "2", "--samples", "20000", "--seed", "1"]
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize(
        "suite, option",
        [("alt-orthonormal", "--max-weight"), ("inv-orthonormal", "--max-weight"),
         ("unitarity", "--max-degree"), ("diffop", "--max-degree")],
    )
    def test_zero_bound_is_taken_as_given(self, tmp_path, suite, option):
        # 0 is a bound like any other, not "use the suite default"
        code, rep = run(tmp_path, ["verify", suite, "--n", "2", option, "0"])
        assert code == EXIT_OK
        assert rep["inputs"][option[2:].replace("-", "_")] == 0
        assert rep["results"]["cases"] == 1

    def test_threads_reported_only_where_used(self, tmp_path):
        # only the Ginibre suite runs on several workers
        _, rep = run(tmp_path, ["verify", "haar", "--n", "2", "--samples", "2000",
                                "--threads", "2"])
        assert "threads" not in rep["inputs"]
        _, rep = run(tmp_path, ["verify", "ginibre", "--n", "2", "--samples", "2000",
                                "--threads", "2"])
        assert rep["inputs"]["threads"] == 2

    def test_haar_report_to_stdout(self, capsys):
        code = main(["verify", "haar", "--n", "2", "--samples", "2000", "--output", "-"])
        assert code == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        assert rep["results"] == {"cases": 5, "failed": 0}

    def test_unknown_suite_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == EXIT_USAGE


class TestSchur:
    def test_numeric_value(self, tmp_path):
        code, rep = run(tmp_path, ["schur", "--lambda", "1", "--eigs", "2,3"])
        assert code == EXIT_OK
        assert rep["results"]["value"]["re"] == pytest.approx(5.0)
        assert rep["results"]["value"]["im"] == pytest.approx(0.0)

    def test_exact_expansion(self, tmp_path):
        code, rep = run(tmp_path, ["schur", "--lambda", "2,1", "--n", "2", "--exact"])
        assert code == EXIT_OK
        assert rep["results"]["exact"] == "(1, 0) : x0^2 x1 + (1, 0) : x0 x1^2"

    def test_exact_expansion_above_the_alternant_sizes(self, tmp_path):
        # no n!-term alternant is built, so n = 9 costs what its nine terms cost
        code, rep = run(tmp_path, ["schur", "--lambda", "1", "--n", "9", "--exact"])
        assert code == EXIT_OK
        assert rep["results"]["exact"] == " + ".join(f"(1, 0) : x{i}" for i in range(9))

    def test_power_sum_expansion(self, tmp_path):
        code, rep = run(tmp_path, ["schur", "--lambda", "2", "--power-sums"])
        assert code == EXIT_OK
        assert rep["results"]["power_sums"] == "(1/2, 0) p1^2 + (1/2, 0) p2"

    def test_power_sums_ignore_n(self, tmp_path):
        # the README example: --n is only for --exact, and does not stop --power-sums
        code, rep = run(tmp_path, ["schur", "--lambda", "2,1", "--n", "3", "--power-sums"])
        assert code == EXIT_OK
        assert rep["results"] == {"power_sums": "(1/3, 0) p1^3 + (-1/3, 0) p3"}

    def test_too_many_parts_exits_2(self, tmp_path, capsys):
        code = main(["schur", "--lambda", "2,1,1", "--n", "2", "--exact", "--quiet"])
        assert code == EXIT_DOMAIN
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "DimensionMismatchError"

    def test_no_mode_exits_64(self):
        assert main(["schur", "--lambda", "2", "--quiet"]) == EXIT_USAGE


class TestFourier:
    def test_square_of_trace(self, tmp_path):
        code, rep = run(tmp_path, ["fourier", "--f", "t1^2", "--n", "2"])
        assert code == EXIT_OK
        assert rep["results"]["coefficients"] == {"2": "1", "1,1": "1"}
        assert rep["results"]["reconstruction"] is True

    def test_constant(self, tmp_path):
        code, rep = run(tmp_path, ["fourier", "--f", "1", "--n", "3"])
        assert code == EXIT_OK
        assert rep["results"]["coefficients"] == {"0": "1"}

    def test_parse_error_exits_64(self):
        assert main(["fourier", "--f", "zz", "--n", "2", "--quiet"]) == EXIT_USAGE

    # SHA-256 of each `--output -` report, re-serialized without `timing_seconds`
    # and `versions`, the two fields that vary between runs and installs (re-recorded
    # when the `rng` field became "mc: sfc64, spectra: philox", and nothing else moved)
    F = "t1^2 - 1/2 t2 t3 + 3i"
    DIGESTS = {
        (F, "1", None):
            "8c333de2d0d7a70e47a06a0b0dc9ada571a77c49b0903e257690a3dc71e83bb7",
        (F, "2", None):
            "089443c4a55843fd8676338be0c01508ccdd72577fa8aac3d04e86e9d787e5dd",
        (F, "3", None):
            "4ae3e6e18205b0b63a8f73c9b1398adeae78345bbabdc5eb756b591a34ac2971",
        (F, "4", None):
            "b421473e21b7c1c5587aa213925eb16698a09dcc951b058a2889c00916a74105",
        (F, "3", "0"):
            "6e41dcf167e2e6f7e4a377e41df2b0a37f11bb4467d676e0c125f565d91bd4fe",
        (F, "3", "1"):
            "9e943e2927c88169377c855dc5357721367a627522eb6af62c97aff24029a623",
        (F, "3", "100000"):
            "b67dedb1bcf024a3249840c2e76d71d76063711cb2ad6cc1d3aae269c5df4407",
        ("t4 t1 + 2 t2^2", "2", "3"):
            "af5a05a49be7514ce739bfdc5be9848ceedfbca8a3336f842aceb53e38f74eda",
        ("t6 - t1^6", "1", None):
            "cea0eefd1701160f3dd8fd87739b42bd7ae69a3805e26a3a57b0a0dfc76e5d98",
        ("t6 - t1^6", "3", None):
            "34013eb31ec90dc7239df10d0717f80c6cb5d323d9d329cf7533d1ce321c0480",
        ("0", "2", None):
            "a4a90a42f8e23018db236b5d4c4b46e17dd582675436f93f3771e2c1ccd53264",
    }

    @pytest.mark.parametrize("f, n, max_weight", sorted(DIGESTS, key=str), ids=str)
    def test_report_digest(self, f, n, max_weight, capsys):
        argv = ["fourier", "--f", f, "--n", n, "--output", "-"]
        code = main(argv + ([] if max_weight is None else ["--max-weight", max_weight]))
        report = json.loads(capsys.readouterr().out)
        # a weight bound below f's degree fails the reconstruction, exit 1
        assert code == (EXIT_OK if report["passed"] else EXIT_CHECK_FAILED)
        del report["timing_seconds"], report["versions"]
        text = json.dumps(report, sort_keys=True, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[f, n, max_weight]


class TestReport:
    def test_schema_fields(self, tmp_path):
        _, rep = run(tmp_path, ["schur", "--lambda", "1", "--eigs", "1,1"])
        assert rep["schema"] == 1
        assert rep["rng"] == "mc: sfc64, spectra: philox"
        assert set(rep["versions"]) == {"hciz", "numpy", "python"}
        assert isinstance(rep["timing_seconds"], float)

    def test_deterministic_modulo_timing(self, tmp_path):
        argv = [
            "eval", "--n", "2", "--a", "0.3,-0.6", "--b", "0.9,0.1",
            "--methods", "det,mc,series", "--samples", "5000", "--seed", "11",
        ]
        _, r1 = run(tmp_path, argv)
        _, r2 = run(tmp_path, argv)
        r1.pop("timing_seconds")
        r2.pop("timing_seconds")
        assert r1 == r2

    def test_quiet_suppresses_summary(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        main(["schur", "--lambda", "1", "--eigs", "1,1", "--quiet", "--output", str(out)])
        assert capsys.readouterr().out == ""

    def test_stdout_json(self, capsys):
        code = main(["schur", "--lambda", "1", "--eigs", "2,3", "--output", "-"])
        assert code == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        assert rep["command"] == "schur"

    def test_human_summary_default(self, capsys):
        main(["schur", "--lambda", "1", "--eigs", "2,3"])
        out = capsys.readouterr().out
        assert "s[1](2,3)" in out


_STEPS = ",".join(str(i / 1000) for i in range(16))  # 0, 0.001, ..., 0.015

# the exit-2 rows of test_invalid_input_gets_its_exit_code whose error is not a
# value past the double range, by message
_DOMAIN_ERROR_TYPES = {"partition 1,1,1 needs more than 2 variables": "DimensionMismatchError"}


class TestExitCodeContract:
    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["eval", "--n", "2", "--a", "1,2", "--b", "1,3", "--samples", "1"], EXIT_USAGE, ""),
            (["eval", "--n", "2", "--a", "nan,2", "--b", "1,3"], EXIT_USAGE, ""),
            (["eval", "--n", "25", "--a", "r", "--b", "r"], EXIT_USAGE, ""),
            (
                ["eval", "--n", "2", "--a", "1,2", "--b", "1,3", "--methods", "series",
                 "--max-weight", "-1"],
                EXIT_USAGE,
                "",
            ),
            (["verify", "ginibre", "--n", "9"], EXIT_USAGE, ""),
            (
                ["eval", "--n", "2", "--a", "1e200,2", "--b", "1,3", "--methods", "det"],
                EXIT_DOMAIN,
                "",
            ),
            (["schur", "--lambda", "2", "--eigs", "nan,1"], EXIT_USAGE, "non-finite"),
            (["schur", "--lambda", "2", "--eigs", "1e200,1"], EXIT_DOMAIN, ""),
            # nonzero values lost below the normal range, not printed as 0
            (["schur", "--lambda", "1100", "--eigs", "0.5"], EXIT_DOMAIN, "s[1100] underflows"),
            (["schur", "--lambda", "2,1", "--eigs", "1e-110,1e-110,0"], EXIT_DOMAIN,
             "s[2,1] underflows"),
            # a minor can cancel to 0 at x and at |x| alike: the true value is 3.03e126
            (["schur", "--lambda", "200,100", "--eigs", "2,3,1"], EXIT_DOMAIN,
             "s[200,100] underflows below the smallest normal double or cancels to 0"),
            (
                ["verify", "fourier", "--n", "2", "--count", "0"],
                EXIT_USAGE,
                "count must be positive",
            ),
            (
                ["verify", "reproducing", "--n", "2", "--count", "-1"],
                EXIT_USAGE,
                "count must be positive",
            ),
            (["eval", "--n", "0", "--a", "r", "--b", "r"], EXIT_USAGE, "n must be positive"),
            (["verify", "haar", "--n", "0"], EXIT_USAGE, "n must be positive"),
            (["verify", "unitarity", "--n", "0"], EXIT_USAGE, "n must be positive"),
            (["verify", "diffop", "--n", "0"], EXIT_USAGE, "n must be positive"),
            (["verify", "alt-orthonormal", "--n", "0"], EXIT_USAGE, "n must be positive"),
            (["verify", "inv-orthonormal", "--n", "0"], EXIT_USAGE, "n must be positive"),
            (["verify", "fourier", "--n", "0"], EXIT_USAGE, "n must be positive"),
            (["verify", "reproducing", "--n", "0"], EXIT_USAGE, "n must be positive"),
            (
                ["verify", "unitarity", "--n", "2", "--max-degree", "-1"],
                EXIT_USAGE,
                "max_degree must be nonnegative",
            ),
            (["verify", "haar", "--n", "2", "--samples", "1"], EXIT_USAGE, "n_samples >= 2"),
            (
                ["verify", "reproducing", "--n", "2", "--max-weight", "0"],
                EXIT_USAGE,
                "max_weight must be at least n(n-1)/2 = 1, got 0",
            ),
            # two samples start at most two workers even where the cap is not checked
            (["eval", "--n", "2", "--a", "r", "--b", "r", "--samples", "2", "--threads",
              "100000"], EXIT_USAGE, "threads must be an integer in 1..64, got 100000"),
            (["eval", "--n", "2", "--a", "r", "--b", "r", "--samples", "2", "--threads", "0"],
             EXIT_USAGE, "threads must be an integer in 1..64, got 0"),
            (["eval", "--n", "2", "--a", "r", "--b", "r", "--samples", "2", "--threads", "-1"],
             EXIT_USAGE, "threads must be an integer in 1..64, got -1"),
            (["verify", "ginibre", "--n", "2", "--samples", "2", "--threads", "0"],
             EXIT_USAGE, "threads must be an integer in 1..64, got 0"),
            # the message names the generator, not the internal variable id
            (["fourier", "--f", "t1^40000", "--n", "2"], EXIT_USAGE,
             "exponent 40000 of t1 outside 0..32767"),
            (["fourier", "--f", "t40000", "--n", "2"], EXIT_USAGE,
             "generator t40000 outside t1..t32767"),
            (["fourier", "--f", "t1", "--n", "2", "--max-weight", "-1"], EXIT_USAGE,
             "max_weight must be nonnegative"),
            (["schur", "--lambda", "33", "--power-sums"], EXIT_USAGE,
             "s[33] in power sums is a sum over the p(33) classes of weight 33, above 10000"),
            (["fourier", "--f", "1/0 t1", "--n", "2"], EXIT_USAGE, "zero denominator"),
            (["fourier", "--f", "1/0", "--n", "2"], EXIT_USAGE, "zero denominator"),
            (["schur", "--lambda", "0", "--n", "0", "--exact"], EXIT_USAGE, "n must be positive"),
            (["schur", "--lambda", "0", "--n", "-1", "--exact"], EXIT_USAGE, "n must be positive"),
            (["schur", "--lambda", "3,2,1", "--n", "40", "--exact"], EXIT_USAGE,
             "s[3,2,1] in n = 40 variables may have C(45, 6) = 8145060 monomials of n exponents"),
            (["verify", "fourier", "--n", "2", "--max-weight", "-1"], EXIT_USAGE,
             "max_weight must be nonnegative"),
            # inf would pass any det-vs-series delta after n shells; nan and
            # negative tolerances never stop the series early
            (["eval", "--n", "2", "--a", "1,2", "--b", "1,2", "--methods", "det,series",
              "--tol", "inf"], EXIT_USAGE, "tol must be finite and nonnegative, got inf"),
            (["eval", "--n", "2", "--a", "1,2", "--b", "1,2", "--methods", "det,series",
              "--tol", "nan"], EXIT_USAGE, "tol must be finite and nonnegative, got nan"),
            (["eval", "--n", "2", "--a", "1,2", "--b", "1,2", "--methods", "det,series",
              "--tol", "-1"], EXIT_USAGE, "tol must be finite and nonnegative, got -1"),
            # the series' limits hold whatever runs: NaN would be written as invalid JSON
            (["eval", "--n", "2", "--a", "1,2", "--b", "0.5,0.25", "--methods", "det,mc",
              "--tol", "nan", "--output", "-"], EXIT_USAGE,
             "tol must be finite and nonnegative, got nan"),
            (["eval", "--n", "2", "--a", "1,2", "--b", "0.5,0.25", "--methods", "det",
              "--max-weight", "-1"], EXIT_USAGE, "max_weight must be nonnegative"),
            # so do the Monte Carlo limits: the report would echo a sample and worker count
            (["eval", "--n", "2", "--a", "1,2", "--b", "0.5,0.25", "--methods", "det",
              "--samples", "-5", "--threads", "0", "--output", "-"], EXIT_USAGE,
             "need n_samples >= 2"),
            (["eval", "--n", "2", "--a", "1,2", "--b", "0.5,0.25", "--methods", "series",
              "--samples", "1"], EXIT_USAGE, "need n_samples >= 2"),
            (["eval", "--n", "2", "--a", "1,2", "--b", "0.5,0.25", "--methods", "det",
              "--threads", "0"], EXIT_USAGE, "threads must be an integer in 1..64, got 0"),
            (["eval", "--n", "2", "--a", "1,2", "--b", "0.5,0.25", "--methods", "det,series",
              "--threads", "65"], EXIT_USAGE, "threads must be an integer in 1..64, got 65"),
            # each would build an alternant with n! terms before any check ran
            (["fourier", "--f", "t1^2", "--n", "30"], EXIT_USAGE,
             "n = 30 is above 9: an alternant in n variables has n! terms"),
            (["verify", "unitarity", "--n", "30", "--max-degree", "1"], EXIT_USAGE,
             "n = 30 is above 9"),
            (["verify", "diffop", "--n", "30", "--max-degree", "1"], EXIT_USAGE,
             "n = 30 is above 9"),
            (["verify", "alt-orthonormal", "--n", "10"], EXIT_USAGE, "n = 10 is above 9"),
            # the entry expansion of Tr(z^k) walks n^k index paths of n^2 entries
            (["verify", "inv-orthonormal", "--n", "30"], EXIT_USAGE,
             "Tr(z^3) at n = 30 walks n^k = 27000 index paths of n^2 = 900 entries each"),
            # the message shows the parts given, not an emptied generator
            (["schur", "--lambda", "2,3", "--eigs", "1"], EXIT_USAGE,
             "parts not weakly decreasing: (2, 3)"),
            # --n alone asks for nothing: --exact is what needs it
            (["schur", "--lambda", "1", "--n", "3"], EXIT_USAGE,
             "need --eigs, or --n with --exact, or --power-sums"),
            # e^640000 is above the double range, for the closed form and the series alike
            (["eval", "--n", "1", "--a", "800", "--b", "800", "--methods", "det"], EXIT_DOMAIN,
             "non-finite value from det"),
            (["eval", "--n", "1", "--a", "800", "--b", "800", "--methods", "series"], EXIT_DOMAIN,
             "non-finite value from series"),
            # prod_{p<n} p! passes the double range from n = 28
            (["eval", "--n", "28", "--a", ",".join(str(i / 10) for i in range(28)),
              "--b=" + ",".join(str(-i / 20) for i in range(28)), "--methods", "det"],
             EXIT_DOMAIN, "non-finite value from det"),
            # refused before the (W + n) x n tables are built: tol 0 takes W = max_weight,
            # and at r = 2e6 no W within the entry limit meets the tolerance
            (["eval", "--n", "2", "--a", "1,2", "--b", "1,2", "--methods", "series",
              "--max-weight", "1000000000", "--tol", "0"], EXIT_USAGE,
             "would sum past weight 499998, and its (W + n) x n tables would pass 1000000"),
            (["eval", "--n", "2", "--a", "1000,-1000", "--b", "1000,-1000", "--methods",
              "series", "--max-weight", "1000000000"], EXIT_USAGE,
             "would pass 1000000 entries"),
            # an evaluator's ArithmeticError past the double range exits 2, as inf does:
            # the Vandermonde product underflows to 0, the variance merge squares
            # ~1e156, and fsum(b) overflows
            (["eval", "--n", "16", "--a", _STEPS, "--b", _STEPS, "--methods", "det"],
             EXIT_DOMAIN, "non-finite value from det (det: ZeroDivisionError"),
            (["eval", "--n", "2", "--a", "0,19", "--b", "0,19", "--methods", "mc"],
             EXIT_DOMAIN, "non-finite value from mc (mc: OverflowError"),
            (["eval", "--n", "2", "--a", "1,2", "--b", "1e308,1e308", "--methods", "mc"],
             EXIT_DOMAIN, "non-finite value from mc (mc: OverflowError"),
            # the series' exponent n s t itself is past the double range
            (["eval", "--n", "2", "--a", "3e200+1e200i,1", "--b", "1e200,2", "--methods",
              "series"], EXIT_DOMAIN, "non-finite value from series (series: OverflowError"),
            # refused before the (lambda_1 + n) x n prefix table is built
            (["schur", "--lambda", "1000000000", "--eigs", "1"], EXIT_USAGE,
             "needs a 1000000001 x 1 prefix table, above 1000000 entries"),
            # e^-31850 is below the double range: each method's 0 exits 2, not as a pass
            (["eval", "--n", "1", "--a=-700", "--b=45.5", "--methods", "series"], EXIT_DOMAIN,
             "value from series is 0 or below the smallest normal double"),
            (["eval", "--n", "1", "--a=-700", "--b=45.5", "--methods", "det"], EXIT_DOMAIN,
             "value from det is 0 or below the smallest normal double"),
            (["eval", "--n", "1", "--a=-700", "--b=45.5", "--methods", "mc"], EXIT_DOMAIN,
             "value from mc is 0 or below the smallest normal double"),
            (["fourier", "--f", "t1 + - t2", "--n", "2"], EXIT_USAGE,
             "dangling sign in 't1 + - t2'"),
            (["schur", "--lambda", "2,1", "--exact"], EXIT_USAGE, "--exact needs --n"),
            (["schur", "--lambda", "1,1,1", "--eigs", "1,2"], EXIT_DOMAIN,
             "partition 1,1,1 needs more than 2 variables"),
        ],
        ids=["samples-1", "nan-eigenvalue", "n25-random", "negative-max-weight", "ginibre-n9",
             "det-nan", "schur-nan-point", "schur-overflow", "schur-underflow",
             "schur-underflow-zero-point", "schur-minor-cancels", "fourier-count-0",
             "reproducing-count-1", "eval-n0", "haar-n0", "unitarity-n0", "diffop-n0",
             "alt-orthonormal-n0", "inv-orthonormal-n0", "fourier-n0", "reproducing-n0",
             "unitarity-degree-1", "haar-samples-1", "reproducing-weight-0",
             "threads-100000", "threads-0", "threads-1", "ginibre-threads-0",
             "fourier-exponent-limit", "fourier-generator-limit", "fourier-negative-max-weight",
             "schur-power-sum-classes", "fourier-zero-denominator", "fourier-constant-over-zero",
             "schur-exact-n0", "schur-exact-n-1", "schur-exact-n40", "fourier-max-weight-1",
             "tol-inf", "tol-nan", "tol-1", "tol-nan-without-series",
             "max-weight-1-without-series", "samples-5-without-mc", "samples-1-without-mc",
             "threads-0-without-mc", "threads-65-without-mc", "fourier-n30", "unitarity-n30",
             "diffop-n30", "alt-orthonormal-n10", "inv-orthonormal-n30", "schur-increasing-parts",
             "schur-n-without-exact", "det-n1-overflow", "series-n1-overflow",
             "det-n28-superfactorial", "series-table-limit", "series-weight-search-limit",
             "det-vandermonde-underflow", "mc-variance-overflow", "mc-fsum-overflow",
             "series-exponent-overflow", "schur-recurrence-limit", "series-n1-underflow",
             "det-n1-underflow", "mc-n1-underflow", "fourier-dangling-sign",
             "schur-exact-without-n", "schur-partition-too-long"],
    )
    def test_invalid_input_gets_its_exit_code(self, argv, code, message, capsys):
        with np.errstate(all="ignore"):
            assert main(argv + ["--quiet"]) == code
        err = capsys.readouterr().err
        assert message in err
        if code == EXIT_USAGE:
            assert err.startswith("hciz: error: ")
        else:
            assert json.loads(err)["error"]["type"] == _DOMAIN_ERROR_TYPES.get(
                message, "NonFiniteValueError")

    @pytest.mark.parametrize(
        "argv",
        [["schur", "--lambda", "3,2,1", "--n", "40", "--exact"],
         ["verify", "inv-orthonormal", "--n", "30"],
         ["schur", "--lambda", "100", "--power-sums"]],
        ids=["schur-exact-n40", "inv-orthonormal-n30", "schur-power-sums-100"],
    )
    def test_size_limits_stop_before_the_work(self, argv, capsys):
        t0 = time.perf_counter()
        assert main(argv + ["--quiet"]) == EXIT_USAGE
        assert time.perf_counter() - t0 < 1.0
        assert "above" in capsys.readouterr().err

    @pytest.mark.parametrize("eigs", ["1,-1", "0,0"], ids=["cancelling", "zero-points"])
    def test_exact_zero_schur_value_exits_0(self, eigs, tmp_path):
        code, rep = run(tmp_path, ["schur", "--lambda", "1", "--eigs", eigs])
        assert code == EXIT_OK
        assert rep["results"]["value"] == {"re": 0.0, "im": 0.0}

    @pytest.mark.parametrize(
        "argv",
        [["schur", "--lambda", "2", "--n", "2", "--exact"], ["fourier", "--f", "t1", "--n", "2"]],
        ids=["schur", "fourier"],
    )
    def test_commands_without_sampling_ignore_threads_environment(self, argv, monkeypatch):
        monkeypatch.setenv("HCIZ_THREADS", "abc")
        assert main(argv + ["--quiet"]) == EXIT_OK

    # refused when the arguments are parsed, for every command that takes a seed,
    # with the option and the value named
    @pytest.mark.parametrize(
        "argv",
        [["eval", "--n", "2", "--a", "1,2", "--b", "1,3", "--methods", "det"],
         ["verify", "haar", "--n", "2"],
         ["verify", "fourier", "--n", "2"],
         ["verify", "reproducing", "--n", "2"]],
        ids=["eval", "verify-haar", "verify-fourier", "verify-reproducing"],
    )
    @pytest.mark.parametrize("seed", ["-1", "x", "2.5"])
    def test_seed_must_be_a_non_negative_integer(self, argv, seed, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", seed, "--quiet"])
        assert exc.value.code == EXIT_USAGE
        assert (f"argument --seed: must be a non-negative integer, got {seed}"
                in capsys.readouterr().err)

    def test_schur_rejects_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["schur", "--lambda", "2", "--n", "2", "--exact", "--seed", "1"])
        assert exc.value.code == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "2.5", "", "100000", "0"])
    def test_bad_threads_environment_exits_usage(self, value, monkeypatch, capsys):
        monkeypatch.setenv("HCIZ_THREADS", value)
        argv = ["eval", "--n", "2", "--a", "r", "--b", "r", "--samples", "2", "--quiet"]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a value that is not an integer
            code = exc.code
        assert code == EXIT_USAGE
        assert "threads" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [["schur", "--lambda", "2", "--eigs", "1e200,1"],
         ["eval", "--n", "2", "--a", "1e200,2", "--b", "1,3", "--methods", "det"]],
        ids=["schur", "eval-det"],
    )
    def test_overflow_leaves_one_json_error(self, argv, capsys):
        # "error" makes a numpy RuntimeWarning fail the test; outside pytest
        # it would print ahead of the JSON
        assert main(argv + ["--quiet"]) == EXIT_DOMAIN
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "NonFiniteValueError"

    def test_failed_check_exits_1(self, tmp_path):
        # an absurdly tight tolerance forces the det-vs-series check to fail
        code, rep = run(
            tmp_path,
            [
                "eval", "--n", "2", "--a", "0.4,-0.8", "--b", "0.9,0.2",
                "--methods", "det,series", "--max-weight", "2", "--tol", "1e-300",
            ],
        )
        assert code == EXIT_CHECK_FAILED
        assert rep["passed"] is False


_SWEEP_NS = (1, 2, 3, 4, 5, 6, 8, 12, 16, 20, 24, 27, 28, 32)
_SWEEP_METHODS = ("det", "mc", "series", "det,mc", "det,series", "mc,series", "det,mc,series")


def _sweep_spectrum(gen: random.Random, n: int) -> str:
    """n points about 0 of magnitude 10^U(-3, 3), real or complex, one in
    eight times all equal, as an --a/--b literal."""
    mag = 10 ** gen.uniform(-3, 3)
    imag = gen.random() < 0.5

    def point():
        re, im = gen.uniform(-mag, mag), gen.uniform(-mag, mag) if imag else 0.0
        return f"{re!r}{im:+}i" if imag else repr(re)

    if gen.random() < 0.125:
        return ",".join([point()] * n)
    return ",".join(point() for _ in range(n))


def _sweep_inputs(seed: int, count: int):
    gen = random.Random(seed)
    for _ in range(count):
        n = gen.choice(_SWEEP_NS)
        # --a=... because a spectrum may start with "-"
        yield ["eval", "--n", str(n), f"--a={_sweep_spectrum(gen, n)}",
               f"--b={_sweep_spectrum(gen, n)}", "--methods", gen.choice(_SWEEP_METHODS),
               "--samples", "200", "--seed", str(gen.randrange(1000))]


class TestEvalSweep:
    """Seeded eval inputs across n, magnitude and method: whatever the input,
    `main` returns a documented exit code with stderr in its documented form."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_input_gets_a_documented_exit(self, seed, capsys):
        faults = []
        for argv in _sweep_inputs(seed, 100):
            try:
                code = main(argv + ["--quiet"])
            except Exception as exc:
                faults.append((argv, f"escaped: {type(exc).__name__}: {exc}"))
                continue
            err = capsys.readouterr().err
            if code == EXIT_DOMAIN:
                try:
                    json.loads(err)
                except ValueError:
                    faults.append((argv, f"exit 2 with stderr {err!r}"))
            elif code == EXIT_USAGE:
                if not err.startswith("hciz: error: "):
                    faults.append((argv, f"exit 64 with stderr {err!r}"))
            elif code not in (EXIT_OK, EXIT_CHECK_FAILED):
                faults.append((argv, f"exit {code}"))
        assert not faults, "\n".join(f"{' '.join(a)}: {why}" for a, why in faults)
