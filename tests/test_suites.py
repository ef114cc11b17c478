import hashlib
import random

import pytest

from hciz import exactpoly, invariant, suites, symfn
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
from hciz.symfn import Partition, Scaled, TracePoly, _partition, is_alternating


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

    def test_immutable_with_default_detail(self):
        case = SuiteCase(label="a", passed=True)
        rep = SuiteReport(suite="x", params={}, cases=(case,))
        assert case.detail == ""
        with pytest.raises(AttributeError):
            case.passed = False
        with pytest.raises(AttributeError):
            rep.cases = ()


class TestGenerators:
    def test_trace_monomials_count_and_bounds(self):
        monos = trace_monomials(4)
        # one monomial per partition of each weight 0..4: 1+1+2+3+5
        assert len(monos) == 12
        for rho, m in monos:
            assert [sum(_partition(key)) for key in m.terms] == [rho.weight]

    def test_trace_monomials_reject_negative_degree(self):
        with pytest.raises(ValueError, match="max_degree"):
            trace_monomials(-1)

    def test_trace_monomials_generator_cap(self):
        for rho, _ in trace_monomials(5, max_gen=3):
            assert all(p <= 3 for p in rho.parts)

    # 1+1+2+3+5+7+11 partitions of weight <= 6; 1+1+2+3+4+5 of weight <= 5 with parts <= 3
    @pytest.mark.parametrize("max_degree, max_gen, count", [(6, None, 30), (5, 3, 16)])
    def test_trace_monomials_are_the_generator_products(self, max_degree, max_gen, count):
        monos = trace_monomials(max_degree, max_gen)
        assert len(monos) == count
        for rho, mono in monos:
            want = TracePoly.one()
            for part in rho:
                want = want * TracePoly.gen(part)
            assert isinstance(rho, Partition)
            assert list(mono.terms.items()) == list(want.terms.items())
            assert type(mono) is TracePoly and mono.n_vars == want.n_vars

    def test_random_trace_poly_degree(self):
        rng = random.Random(0)
        for _ in range(10):
            f = random_trace_poly(rng, max_weight=5)
            assert all(sum(_partition(key)) <= 5 for key in f.terms)

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
        # the chi_lambda with at most 2 parts and weight <= 3 use all 7 monomials
        image = invariant._monomial_image
        monos = sorted(rho for rho, _ in trace_monomials(3))
        assert len(monos) == 7
        seen, depth = [], [0]

        def counting(rho, n, diagonal):
            # a monomial imaged in the entry picture, not the prefix it is built on
            if not depth[0] and not diagonal:
                seen.append(rho)
            depth[0] += 1
            try:
                return image(rho, n, diagonal)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(invariant, "_monomial_image", counting)
        for suite in (suite_unitarity, suite_diffop, suite_inv_orthonormal):
            seen.clear()
            assert suite(2, 3).passed
            assert sorted(seen) == monos

    def test_params_recorded(self):
        rep = suite_diffop(2, max_degree=2)
        assert rep.params == {"n": 2, "max_degree": 2, "max_gen": 3}


class TestRecordedReports:
    """Every case's (label, passed, detail) text, pinned by its SHA-256.

    The digests were recorded before the monomial keys became packed ints,
    so a change to the exact layer that alters any verdict or any printed
    value, including the float residuals of `reproducing`, shows here.
    """

    CALLS = {
        "alt-orthonormal": suite_alt_orthonormal,
        "inv-orthonormal": suite_inv_orthonormal,
        # the sizes exact-verify runs
        "inv-orthonormal w=6": lambda n: suite_inv_orthonormal(n, max_weight=6),
        "alt-orthonormal w=8": lambda n: suite_alt_orthonormal(n, max_weight=8),
        "unitarity": suite_unitarity,
        "diffop": suite_diffop,
        "fourier": lambda n: suite_fourier(n, count=5, seed=3),
        "reproducing": lambda n: suite_reproducing(n, count=5, seed=3),
        # exact-verify's reproducing size, at two seeds
        "reproducing c=10 seed=1": lambda n: suite_reproducing(n, count=10, max_weight=8, seed=1),
        "reproducing c=10 seed=2": lambda n: suite_reproducing(n, count=10, max_weight=8, seed=2),
    }
    DIGESTS = {
        ("alt-orthonormal", 1): "9600e567043f1014988f76dae7057bb08502f10fcbf15f72ddce736890603e2f",
        ("alt-orthonormal", 2): "8248e18d91dd8425658fe31cf8e84be869fb10daf04e7ff509dd6e62576ce532",
        ("alt-orthonormal", 3): "f034670cb6caabe552e83415a4131606bbc3a71a581cae3de9ca2f0f94a42b69",
        ("alt-orthonormal w=8", 4): "4eac816986e957ff3ecc0227a58bc61835166e2869d1c83bf58c32cea096f5cb",
        ("inv-orthonormal", 1): "d4d82c1d8298b0d58c49a5405014ad417907bcec36a3a50ffe5105345d23081a",
        ("inv-orthonormal", 2): "7d7a3b547b60c26ffb1c0c53ee544218aaeb70490a02eef5f52224f8aa8863c6",
        ("inv-orthonormal", 3): "981433732f96bfcbdfef68414a04ba6fd51d16232d52b686f0cccacab402535d",
        ("inv-orthonormal", 4): "15cf90c97675891a873ea99741d938aa1e7f3209562bd019271be6ace96d568c",
        ("inv-orthonormal w=6", 4): "f6619745a3343f88406415a750037d83deebf25382f8c210b7d85c5417082136",
        ("unitarity", 1): "b4caa92f52f828573c480e62a24b584d7f104f4a25f20fe662518c95d7acc4f9",
        ("unitarity", 2): "dbdeb485de3a679ba776fa3220c2602738491ec4efb0ebdf3caead98fe82c863",
        ("unitarity", 3): "8815800076a9793956b3b4a13b6cd4e8deb110b62f7013ee766cc5863099b46a",
        ("unitarity", 4): "5a409a0b9809fe43380585032100b6ab80be2b911dcab42ff41678fd7f8c1cf1",
        ("diffop", 1): "baf53ac15789953e8e543c2f303911611b8f0ebac2b0593f7a260486cc34156d",
        ("diffop", 2): "baf53ac15789953e8e543c2f303911611b8f0ebac2b0593f7a260486cc34156d",
        ("diffop", 3): "baf53ac15789953e8e543c2f303911611b8f0ebac2b0593f7a260486cc34156d",
        ("diffop", 4): "baf53ac15789953e8e543c2f303911611b8f0ebac2b0593f7a260486cc34156d",
        ("fourier", 1): "07e854c6b87dc6deb134b9776ab39a89c15a87a7d4a70a40246bc52afb2693dd",
        ("fourier", 2): "36012b35a3b9723d5af46b36f788b9dbaa861c2c26ee9fe4be292fc548568c97",
        ("fourier", 3): "598850cfd34c36dbfd08120445bd85a2f0cba230ff0818cb0a6cf8d463624d21",
        ("fourier", 4): "e75440acb8ee5a1125d7134af6e26d4268c026e902184b0f4fc530be03f349ae",
        ("reproducing", 1): "2bd8ff3d75a90201de8232810104596956f9258a182ef785085aa3d95dd78ccf",
        ("reproducing", 2): "58f326d2f0cc89bab7df66808719f51f877c156a87c206418efc141e83b45376",
        ("reproducing", 3): "2a5ed71f1851a9f249c5dd4cb529bc728b49a0adc83114be238d692cf476304a",
        ("reproducing c=10 seed=1", 3):
            "4bcfd26e8c265f8e699accfe7e6b384cc755a765e3779a6a9d0640a2842207ed",
        ("reproducing c=10 seed=2", 3):
            "676497103d94bd22cf95be54b18a62c9849ea41e9af6009a59eceddcb5f81c3f",
    }

    @pytest.mark.parametrize("suite, n", sorted(DIGESTS), ids=lambda v: str(v))
    def test_case_text_digest(self, suite, n):
        rep = self.CALLS[suite](n)
        text = "".join(f"{c.label}\t{c.passed}\t{c.detail}\n" for c in rep.cases)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[suite, n]

    # a passing diffop case prints nothing, so the digests above pin only its
    # verdicts; these pin both sides' coordinates for every pair of suite_diffop's
    # default basis (trace monomials of weight <= 4 in t1..t3)
    DIFFOP_VALUES = {
        1: "cd27bd6a827d54c29432c83b122dac100c0b7ae124d9c04ad53854594c8758b4",
        2: "13530f9cc1f997833d6e5fac3fec103bf6bae741f0fdc37eefe865cba21f7669",
        3: "74bbfecfd2d62adaf399731d26c9001223959950c4e486142f991d486e664fef",
        4: "00a18e3e4bb94dd03566837ca393c85630af1ee631d4c19a15882f39f827074f",
    }

    @pytest.mark.parametrize("n", sorted(DIFFOP_VALUES))
    def test_diffop_coordinates_digest(self, n):
        res = invariant.verify_diffop_identity([f for _, f in trace_monomials(4, 3)], n)
        text = "".join(
            f"{i},{j}\t{ok}\t{suites._coordinates_text(lhs)}\t{suites._coordinates_text(rhs)}\n"
            for (i, j), (ok, lhs, rhs) in res.items())
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIFFOP_VALUES[n]


class TestNoAlternantProduct:
    """unitarity, diffop and fourier read psi's coordinates and never build an
    n!-term alternant or its product with F|_D: with every builder of one made
    to raise, they still pass."""

    @pytest.fixture
    def no_alternants(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an alternant was built")

        monkeypatch.setattr(symfn, "alternant", refuse)
        monkeypatch.setattr(invariant, "alternant_delta", refuse)
        monkeypatch.setattr(invariant, "psi_map", refuse)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("run", [suite_unitarity, suite_diffop,
                                     lambda n: suite_fourier(n, count=5, seed=3)],
                             ids=["unitarity", "diffop", "fourier"])
    def test_suites_pass_without_alternants(self, no_alternants, run, n):
        assert run(n).passed

    def test_the_guard_bites(self, no_alternants):
        with pytest.raises(AssertionError, match="an alternant was built"):
            suite_alt_orthonormal(2, 2)


class TestRationalGramChecksBite:
    """The exact suites use squared scales in their Gram entries; a wrong one must still fail."""

    # each suite looks its basis up in the module that defines it when it runs
    @pytest.mark.parametrize(
        "suite, home, basis, letter",
        [(suite_alt_orthonormal, symfn, "d_lambda", "d"),
         (suite_inv_orthonormal, invariant, "e_lambda", "e")],
        ids=["alt", "inv"],
    )
    @pytest.mark.parametrize("n", [2, 3])
    def test_one_wrong_scale_fails_only_its_diagonal(self, suite, home, basis, letter, n,
                                                     monkeypatch):
        build = getattr(home, basis)
        wrong = Partition((1,))

        def skewed(lam, dim):
            b = build(lam, dim)
            return Scaled(b.scale2 * 4, b.poly) if lam == wrong else b

        monkeypatch.setattr(home, basis, skewed)
        rep = suite(n, 3)
        assert [c.label for c in rep.cases if not c.passed] == [f"<{letter}[1], {letter}[1]>"]
        bad = next(c for c in rep.cases if not c.passed)
        assert bad.detail == "value 4"

    def test_wrong_restriction_scale_fails_unitarity(self, monkeypatch):
        right = suite_unitarity(2, 3)
        nonzero = {c.label for c in right.cases if not c.detail.startswith("lhs 0,")}
        assert right.passed and nonzero
        c2 = invariant.norm_const_c2
        monkeypatch.setattr(invariant, "norm_const_c2", lambda n: c2(n) * 2)
        rep = suite_unitarity(2, 3)
        assert {c.label for c in rep.cases if not c.passed} == nonzero


class TestGramPairsEachUnorderedPairOnce:
    """A Gram of N polynomials calls `bargmann_inner` N(N+1)/2 times, not N^2; an entry-side
    Gram (`entry_gram`) pairs the distinct monomials m_w of each weight w, m_w(m_w+1)/2 times."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        inner = exactpoly.bargmann_inner

        def counting(f, g):
            calls.append(None)
            return inner(f, g)

        # every module that holds the name, so a direct call is counted too
        for mod in (exactpoly, invariant, suites):
            if hasattr(mod, "bargmann_inner"):
                monkeypatch.setattr(mod, "bargmann_inner", counting)
        return calls

    @pytest.mark.parametrize(
        "run, size, pairings",
        [
            (lambda: suite_alt_orthonormal(3, 4), 11, 11 * 12 // 2),
            # the chi_lambda use m_w = 1, 1, 2, 3, 5 monomials at weights 0..4
            (lambda: suite_inv_orthonormal(2, 4), 9, 1 + 1 + 3 + 6 + 15),
            # monomials of weight 0..3 on the entry side, psi's coordinates on the other
            (lambda: suite_unitarity(2, 3), 7, (1 + 1 + 3 + 6) + 7 * 8 // 2),
        ],
        ids=["alt-orthonormal", "inv-orthonormal", "unitarity"],
    )
    def test_pairing_count(self, calls, run, size, pairings):
        rep = run()
        assert rep.passed and len(rep.cases) == size * size
        assert len(calls) == pairings


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
        entry = next(c for c in rep.cases if c.label == "E|u_1,2|^2")
        assert entry.detail.startswith("estimate ") and entry.detail.endswith(
            ", expected 0.3333333333333333")
