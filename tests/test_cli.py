import json
import math
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

    def test_power_sum_expansion(self, tmp_path):
        code, rep = run(tmp_path, ["schur", "--lambda", "2", "--power-sums"])
        assert code == EXIT_OK
        assert rep["results"]["power_sums"] == "(1/2, 0) p1^2 + (1/2, 0) p2"

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


class TestReport:
    def test_schema_fields(self, tmp_path):
        _, rep = run(tmp_path, ["schur", "--lambda", "1", "--eigs", "1,1"])
        assert rep["schema"] == 1
        assert rep["rng"] == "philox"
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
            (["verify", "unitarity", "--n", "0"], EXIT_USAGE, "n >= 1"),
            (
                ["verify", "unitarity", "--n", "2", "--max-degree", "-1"],
                EXIT_USAGE,
                "max_degree must be nonnegative",
            ),
            (["verify", "haar", "--n", "2", "--samples", "1"], EXIT_USAGE, "n_samples >= 2"),
        ],
        ids=["samples-1", "nan-eigenvalue", "n25-random", "negative-max-weight", "ginibre-n9",
             "det-nan", "schur-nan-point", "schur-overflow", "fourier-count-0",
             "reproducing-count-1", "eval-n0", "haar-n0", "unitarity-n0",
             "unitarity-degree-1", "haar-samples-1"],
    )
    def test_invalid_input_gets_its_exit_code(self, argv, code, message, capsys):
        with np.errstate(all="ignore"):
            assert main(argv + ["--quiet"]) == code
        err = capsys.readouterr().err
        assert message in err
        if code == EXIT_USAGE:
            assert err.startswith("hciz: error: ")
        else:
            assert json.loads(err)["error"]["type"] == "NonFiniteValueError"

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
