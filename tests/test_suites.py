import random

import pytest

from hciz import invariant
from hciz.suites import (
    SuiteCase,
    SuiteReport,
    random_alternating_poly,
    random_trace_poly,
    suite_alt_orthonormal,
    suite_diffop,
    suite_fourier,
    suite_ginibre,
    suite_haar,
    suite_inv_orthonormal,
    suite_reproducing,
    suite_unitarity,
    trace_monomials,
)
from hciz.symfn import is_alternating


class TestReportStructure:
    def test_passed_and_failed_counts(self):
        rep = SuiteReport(
            suite="x",
            params={},
            cases=(
                SuiteCase("a", True),
                SuiteCase("b", False, "boom"),
                SuiteCase("c", True),
            ),
        )
        assert not rep.passed
        assert rep.n_failed == 1

    def test_empty_passes(self):
        assert SuiteReport(suite="x", params={}, cases=()).passed


class TestGenerators:
    def test_trace_monomials_count_and_bounds(self):
        monos = trace_monomials(4)
        # one monomial per partition of each weight 0..4: 1+1+2+3+5
        assert len(monos) == 12
        for rho, m in monos:
            assert m.weighted_degree() == rho.weight

    def test_trace_monomials_reject_negative_degree(self):
        with pytest.raises(ValueError, match="max_degree"):
            trace_monomials(-1)

    def test_trace_monomials_generator_cap(self):
        for rho, _ in trace_monomials(5, max_gen=3):
            assert all(p <= 3 for p in rho.parts)

    def test_random_trace_poly_degree(self):
        rng = random.Random(0)
        for _ in range(10):
            f = random_trace_poly(rng, max_weight=5)
            assert f.weighted_degree() <= 5

    def test_random_alternating_poly(self):
        rng = random.Random(1)
        seen_nonzero = False
        for _ in range(10):
            f = random_alternating_poly(rng, 2, 4)
            if not f.is_zero:
                seen_nonzero = True
                assert is_alternating(f)
        assert seen_nonzero


class TestExactSuites:
    def test_alt_orthonormal_small(self):
        rep = suite_alt_orthonormal(2, max_weight=3)
        # weights 0..3 with at most 2 parts: 1+1+2+2 partitions, squared pairs
        assert len(rep.cases) == 36
        assert rep.passed

    def test_inv_orthonormal_small(self):
        rep = suite_inv_orthonormal(2, max_weight=2)
        assert rep.passed and len(rep.cases) == 16

    def test_unitarity_small(self):
        rep = suite_unitarity(2, max_degree=3)
        assert rep.passed

    def test_diffop_small(self):
        rep = suite_diffop(2, max_degree=3, max_gen=3)
        assert rep.passed
        assert all(c.detail == "" for c in rep.cases)

    def test_fourier_small(self):
        rep = suite_fourier(2, count=4, max_weight=4, seed=0)
        assert rep.passed and len(rep.cases) == 4

    def test_pair_suites_image_each_element_once(self, monkeypatch):
        expand = invariant.expand_to_entries
        monos = sorted(f.to_text() for _, f in trace_monomials(3))
        assert len(monos) == 7
        seen = []

        def counting(f, n):
            seen.append(f.to_text())
            return expand(f, n)

        monkeypatch.setattr(invariant, "expand_to_entries", counting)
        for suite in (suite_unitarity, suite_diffop):
            seen.clear()
            assert suite(2, 3).passed
            assert sorted(seen) == monos

    def test_params_recorded(self):
        rep = suite_diffop(2, max_degree=2)
        assert rep.params == {"n": 2, "max_degree": 2, "max_gen": 3}


class TestStatisticalSuites:
    def test_ginibre_small(self):
        rep = suite_ginibre(2, n_samples=20000, seed=0)
        assert rep.passed
        assert {c.label for c in rep.cases} == {"E|Tr z|^2", "E|det z|^2"}

    def test_reproducing_small(self):
        rep = suite_reproducing(2, count=4, max_weight=6, seed=0)
        assert rep.passed and len(rep.cases) == 4

    def test_haar_small(self):
        rep = suite_haar(3, n_samples=20000, seed=0)
        assert rep.passed
        labels = {c.label for c in rep.cases}
        assert "unitarity residual" in labels
        # each entry is an MC estimate decided by `within`, like the Ginibre moments
        entry = next(c for c in rep.cases if c.label == "E|u_12|^2")
        assert entry.detail.startswith("estimate ") and entry.detail.endswith(
            ", expected 0.3333333333333333")
