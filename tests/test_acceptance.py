"""Acceptance gate: one test per shipping criterion, each printing a single
PASS/FAIL line (run pytest with -rA to see them) and asserting the stated
tolerance and time budget."""

import math
import time

import numpy as np
import pytest

from hciz.errors import DegenerateSpectrumError
from hciz.invariant import TracePoly, chi_lambda, e_lambda, invariant_inner, psi_map, verify_psi_roundtrip
from hciz.numeric import (
    ginibre_moment_suite,
    hciz_determinant,
    hciz_mc,
    kernel_series,
    random_real_spectrum,
)
from hciz.scalars import GaussianRational
from hciz.suites import (
    random_trace_poly,
    suite_alt_orthonormal,
    suite_diffop,
    suite_haar,
    suite_inv_orthonormal,
)
from hciz.symfn import Partition, d_lambda, enumerate_partitions
from hciz.invariant import verify_fourier_reconstruction


def report(num, ok, msg):
    print(f"{'PASS' if ok else 'FAIL'} criterion-{num}: {msg}")
    return ok


def seeded_pairs(count, rng_seed=2024):
    """Deterministic real spectra pairs with gap >= 0.1, n cycling 2,3,4."""
    rng = np.random.default_rng(rng_seed)
    dims = [2, 3, 4]
    return [
        (
            random_real_spectrum(dims[i % 3], rng),
            random_real_spectrum(dims[i % 3], rng),
        )
        for i in range(count)
    ]


class TestCriterion1:
    def test_det_vs_mc_hundred_pairs(self):
        t0 = time.perf_counter()
        pairs = seeded_pairs(100)
        hits = 0
        worst = 0.0
        for i, (a, b) in enumerate(pairs):
            det = hciz_determinant(a, b)
            est = hciz_mc(a, b, n_samples=100000, seed=i)
            delta = abs(det - est.mean)
            if delta <= 4.0 * est.stderr:
                hits += 1
            if est.stderr > 0:
                worst = max(worst, delta / est.stderr)
        elapsed = time.perf_counter() - t0
        ok = hits >= 95 and elapsed <= 60.0
        report(
            "1a",
            ok,
            f"det vs mc within 4*stderr in {hits}/100 seeded pairs "
            f"(worst {worst:.2f} stderr, {elapsed:.1f}s <= 60s)",
        )
        assert hits >= 95
        assert elapsed <= 60.0

    def test_det_vs_series_small_spectra(self):
        t0 = time.perf_counter()
        pairs = seeded_pairs(100)
        worst = 0.0
        deepest = 0
        for x, y in pairs:
            xs = tuple(0.5 * e for e in x.eigs)
            ys = tuple(0.5 * e for e in y.eigs)
            want = hciz_determinant(xs, tuple(e.conjugate() for e in ys))
            got = kernel_series(xs, ys, max_weight=24)
            worst = max(worst, abs(got.value - want))
            deepest = max(deepest, got.max_weight_used)
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-8 and elapsed <= 10.0
        report(
            "1b",
            ok,
            f"det vs series agree to {worst:.2e} <= 1e-8 on radius-0.5 spectra "
            f"(deepest weight {deepest} <= 24, {elapsed:.1f}s <= 10s)",
        )
        assert worst <= 1e-8
        assert deepest <= 24
        assert elapsed <= 10.0


class TestCriterion2:
    def test_alternating_basis_orthonormal(self):
        t0 = time.perf_counter()
        failed = 0
        cases = 0
        for n in (2, 3):
            rep = suite_alt_orthonormal(n, max_weight=6)
            failed += rep.n_failed
            cases += len(rep.cases)
        elapsed = time.perf_counter() - t0
        ok = failed == 0 and elapsed <= 30.0
        report(
            2,
            ok,
            f"<d_lam, d_mu> = delta exactly on {cases} pairs, |lam| <= 6, "
            f"n in {{2,3}} ({elapsed:.1f}s <= 30s)",
        )
        assert failed == 0
        assert elapsed <= 30.0


class TestCriterion3:
    def test_invariant_basis_orthonormal(self):
        t0 = time.perf_counter()
        failed = 0
        cases = 0
        for n in (2, 3):
            rep = suite_inv_orthonormal(n, max_weight=4)
            failed += rep.n_failed
            cases += len(rep.cases)
        elapsed = time.perf_counter() - t0
        ok = failed == 0 and elapsed <= 300.0
        report(
            3,
            ok,
            f"<e_lam, e_mu> = delta exactly on {cases} pairs, |lam| <= 4, "
            f"n in {{2,3}} ({elapsed:.1f}s <= 300s)",
        )
        assert failed == 0
        assert elapsed <= 300.0


class TestCriterion4:
    def test_derivative_conjugation_identity(self):
        t0 = time.perf_counter()
        failed = 0
        cases = 0
        for n in (2, 3):
            rep = suite_diffop(n, max_degree=4, max_gen=3)
            failed += rep.n_failed
            cases += len(rep.cases)
        elapsed = time.perf_counter() - t0
        ok = failed == 0 and elapsed <= 120.0
        report(
            4,
            ok,
            f"alternant-conjugation derivative identity exact on {cases} monomial "
            f"pairs in t1,t2,t3, wdeg <= 4, n in {{2,3}} ({elapsed:.1f}s <= 120s)",
        )
        assert failed == 0
        assert elapsed <= 120.0


class TestCriterion5:
    def test_ginibre_moments(self):
        t0 = time.perf_counter()
        stat_ok = True
        for n in (1, 2, 3):
            rep = ginibre_moment_suite(n, n_samples=100000, seed=5)
            stat_ok = (stat_ok and rep.trace_estimate.within(rep.trace_expected)
                       and rep.det_estimate.within(rep.det_expected))
        elapsed = time.perf_counter() - t0
        exact_ok = True
        for n in (1, 2, 3):
            tr = TracePoly.gen(1)
            exact_ok = exact_ok and invariant_inner(tr, tr, n) == GaussianRational(n)
            chi = chi_lambda(Partition((1,) * n))
            exact_ok = exact_ok and invariant_inner(chi, chi, n) == GaussianRational(
                math.factorial(n)
            )
        ok = stat_ok and exact_ok and elapsed <= 10.0
        report(
            5,
            ok,
            f"E|Tr z|^2 and E|det z|^2 within 4*stderr of n and n! for n in "
            f"{{1,2,3}} at 1e5 samples ({elapsed:.1f}s <= 10s); exact inner "
            f"products give n and n!",
        )
        assert stat_ok
        assert exact_ok
        assert elapsed <= 10.0


class TestCriterion6:
    def test_restriction_map_structure(self):
        t0 = time.perf_counter()
        basis_ok = True
        for n in (2, 3):
            for lam in enumerate_partitions(4, n):
                e = e_lambda(lam, n)
                if psi_map(e.poly, n) * e.scale != d_lambda(lam, n):
                    basis_ok = False
        import random as _random

        rng = _random.Random(6)
        roundtrip_ok = True
        count = 0
        for n in (1, 2, 3):
            for _ in range(7):
                f = random_trace_poly(rng, max_weight=5, n_terms=4)
                ok, _ = verify_psi_roundtrip(f, n)
                roundtrip_ok = roundtrip_ok and ok
                count += 1
        elapsed = time.perf_counter() - t0
        ok = basis_ok and roundtrip_ok and elapsed <= 30.0
        report(
            6,
            ok,
            f"psi(e_lam) == d_lam exactly (|lam| <= 4, n in {{2,3}}) and "
            f"psi_inverse(psi(F)) == F on {count} random invariants of wdeg <= 5 "
            f"({elapsed:.1f}s <= 30s)",
        )
        assert basis_ok
        assert roundtrip_ok
        assert elapsed <= 30.0


class TestCriterion7:
    def test_fourier_reconstruction(self):
        import random as _random

        t0 = time.perf_counter()
        rng = _random.Random(7)
        failed = 0
        for _ in range(50):
            f = random_trace_poly(rng, max_weight=5, n_terms=4)
            ok, _ = verify_fourier_reconstruction(f, 3, 5)
            if not ok:
                failed += 1
        elapsed = time.perf_counter() - t0
        ok = failed == 0 and elapsed <= 60.0
        report(
            7,
            ok,
            f"sum f_lam chi_lam == F exactly on 50 random invariants, wdeg <= 5, "
            f"n = 3 ({elapsed:.1f}s <= 60s)",
        )
        assert failed == 0
        assert elapsed <= 60.0


class TestCriterion8:
    def test_degenerate_spectrum_contract(self):
        raised = False
        try:
            hciz_determinant((0.5, 0.5 + 1e-9), (0.9, 0.1))
        except DegenerateSpectrumError:
            raised = True
        a = (0.5, 0.5)
        b = (0.9, 0.1)
        series = kernel_series(a, b, tol=1e-12)
        est = hciz_mc(a, b, n_samples=100000, seed=8)
        finite = math.isfinite(abs(series.value))
        agree = est.within(series.value)
        ok = raised and finite and agree
        delta = abs(series.value - est.mean)
        # a coincident a-spectrum makes the integrand constant, so the mc
        # stderr collapses to the rounding scale; the residual delta is
        # representation error in the two float pipelines, measured here in
        # ulps of the value so the verdict is legible either way
        ulps = delta / math.ulp(abs(est.mean))
        report(
            8,
            ok,
            f"closed form raises on gap < 1e-8; series at the coincident spectrum "
            f"is finite ({series.value.real:.6f}) and within 4*stderr of mc "
            f"(delta {delta:.2e} = {ulps:.1f} ulps, 4*stderr {4 * est.stderr:.2e})",
        )
        assert raised
        assert finite
        assert agree


class TestCriterion9:
    def test_haar_sampler_statistics(self):
        rep = suite_haar(3, n_samples=100000, seed=9)
        resid_case = next(c for c in rep.cases if c.label == "unitarity residual")
        entry_cases = [c for c in rep.cases if c is not resid_case]
        ok = rep.passed
        report(
            9,
            ok,
            f"E|u_ij|^2 = 1/3 within 4*stderr for all {len(entry_cases)} entries at "
            f"1e5 samples; {resid_case.detail}",
        )
        assert resid_case.passed
        assert all(c.passed for c in entry_cases)
