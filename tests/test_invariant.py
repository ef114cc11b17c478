import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from hciz.errors import DimensionMismatchError, NotAlternatingError
from hciz import invariant
from hciz.exactpoly import MAX_EXPONENT, ExactPoly, bargmann_gram, bargmann_inner
from hciz.invariant import (
    TracePoly,
    _schur_coefficients,
    _staircase_shifts,
    alternant_coordinates,
    chi_lambda,
    e_lambda,
    entry_gram,
    entry_to_diagonal,
    entry_var,
    expand_to_entries,
    fourier_coefficients,
    invariant_inner,
    psi_inverse,
    psi_map,
    restrict_to_diagonal,
    trace_power_entry,
    verify_diffop_identity,
    verify_fourier_reconstruction,
    verify_psi_roundtrip,
    verify_unitarity,
)
from hciz.scalars import GaussianRational
from hciz.suites import random_alternating_poly, random_trace_poly, trace_monomials
from hciz.symfn import (
    Partition,
    Scaled,
    _partition,
    alternant,
    alternant_delta,
    d_lambda,
    enumerate_partitions,
    is_alternating,
    norm_const_c2,
    partitions_of_weight,
    schur_exact,
    staircase,
    vector_factorial,
)


def t(k):
    return TracePoly.gen(k)


def mono(n, exps, c=1):
    return ExactPoly.monomial(n, exps, c)


def is_symmetric(f):
    """f is fixed by every permutation of its variables."""
    perms = itertools.permutations(range(f.n_vars))
    return all(f.permute_vars(p) == f for p in perms)


class TestTracePolySerialization:
    def test_golden(self):
        p = t(1) ** 2 * t(3) * Fraction(3, 2)
        assert p.to_text() == "(3/2, 0) t1^2 t3"

    def test_sum_order_and_zero(self):
        p = t(2) + t(1) ** 2 * GaussianRational(0, 1)
        assert p.to_text() == "(0, 1) t1^2 + (1, 0) t2"
        assert TracePoly.zero().to_text() == "0"


class TestTracePolyAlignment:
    def test_mixed_generator_counts_match_direct_construction(self):
        # t1 lives over one generator, t3 over three: sums and products align them
        a = t(1) * 2 + 1
        b = t(3) - t(1) * Fraction(1, 2)
        direct_sum = TracePoly.from_terms(
            [({}, 1), ({1: 1}, Fraction(3, 2)), ({3: 1}, 1)])
        direct_product = TracePoly.from_terms(
            [({1: 1, 3: 1}, 2), ({1: 2}, -1), ({3: 1}, 1), ({1: 1}, Fraction(-1, 2))])
        for got, want in [(a + b, direct_sum), (b + a, direct_sum),
                          (a * b, direct_product), (b * a, direct_product)]:
            assert got == want
            assert hash(got) == hash(want)
            assert got.terms == want.terms and got.n_vars == want.n_vars == MAX_EXPONENT
            assert got.max_gen() == 3
            assert got.to_text() == want.to_text()
        assert (a * b).coefficient({1: 1, 3: 1}) == GaussianRational(2)

    def test_generator_index_must_be_positive(self):
        with pytest.raises(ValueError):
            TracePoly.from_terms([({0: 1}, 1)])
        with pytest.raises(ValueError):
            t(1).coefficient({0: 2})
        assert TracePoly.from_terms([({0: 0, 2: 1}, 1)]) == t(2)

    def test_generator_index_has_the_exponent_range(self):
        # p_k and Tr(z^k) hold the exponent k, so t_k stops where exponents do
        top = TracePoly.from_terms([({32767: 1}, 1)])
        assert top.max_gen() == 32767 and top == t(32767)
        assert top.coefficient({32767: 1}) == GaussianRational(1)
        with pytest.raises(ValueError, match=r"^generator t32768 outside t1\.\.t32767$"):
            TracePoly.from_terms([({32768: 1}, 1)])
        with pytest.raises(ValueError, match="generator t32768"):
            t(32768)
        with pytest.raises(ValueError, match="generator t40000"):
            top.coefficient({40000: 1})

    def test_cancelling_the_top_generator_trims(self):
        got = (t(3) + t(1)) - t(3)
        assert got == t(1)
        assert got.n_vars == MAX_EXPONENT and got.max_gen() == 1
        assert got.terms == t(1).terms


class TestTracePolyIsAnExactPoly:
    def test_ring_operations_return_trace_polys(self):
        f, g = t(1) * 2 + t(2), t(1) ** 3 * t(2) + t(3) * Fraction(1, 2) + 1
        results = [f + g, f - g, -f, f * g, f**3, f**0, f * Fraction(2, 3), 3 * f, 2 + f,
                   1 - f, f.apply_diff(g)]
        for got in results:
            assert type(got) is TracePoly and got.n_vars == MAX_EXPONENT
        # 2 d/dt1 + d/dt2 on t1^3 t2: 6 t1^2 t2 + t1^3
        assert f.apply_diff(g) == t(1) ** 2 * t(2) * 6 + t(1) ** 3

    def test_a_polynomial_over_other_variables_does_not_mix(self):
        x = ExactPoly.variable(2, 0)
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(DimensionMismatchError, match="over 32767 and 2 variables"):
                op(t(1), x)
            with pytest.raises(DimensionMismatchError, match="over 2 and 32767 variables"):
                op(x, t(1))

    def test_degree_reads_only_the_fields_in_use(self):
        import time

        # 5090 terms, the longest class 1^32; unpacking all 32767 fields of
        # each key took about 1.7 s, reading its pairs takes about 15 ms
        f = invariant.chi_lambda(Partition((6, 6, 6, 6, 6, 2)))
        start = time.perf_counter()
        assert f.degree() == 32
        assert time.perf_counter() - start < 0.25

    def test_grlex_order_reads_only_the_fields_in_use(self):
        import time

        from hciz.exactpoly import _grlex

        f = t(1) ** 3 * t(2) + t(3) ** 2 + t(2) * t(1) * 5 + t(40) + 7
        full = sorted(f.terms.items(), key=lambda kv: _grlex(kv[0], MAX_EXPONENT), reverse=True)
        assert f.items_grlex() == full
        g = invariant.chi_lambda(Partition((6, 6, 6, 6, 6, 2)))
        start = time.perf_counter()
        assert len(g.items_grlex()) == len(g.terms)
        assert time.perf_counter() - start < 0.25

    @pytest.mark.parametrize("call", [lambda f: f.eval_complex([0.5] * MAX_EXPONENT),
                                      lambda f: f.permute_vars(list(range(MAX_EXPONENT))),
                                      lambda f: is_alternating(f)],
                             ids=["eval_complex", "permute_vars", "is_alternating"])
    def test_whole_space_methods_refuse(self, call):
        with pytest.raises(TypeError, match="restrict_to_diagonal.*expand_to_entries"):
            call(t(1) * t(2) + 1)


class TestEntryExpansion:
    def test_trace_expansion_n2(self):
        # Tr(z^2) = z00^2 + 2 z01 z10 + z11^2
        got = trace_power_entry(2, 2)
        want = (
            mono(4, (2, 0, 0, 0))
            + mono(4, (0, 1, 1, 0), 2)
            + mono(4, (0, 0, 0, 2))
        )
        assert got == want

    def test_trace_is_diagonal_sum(self):
        for n in (1, 2, 3):
            want = ExactPoly.zero(n * n)
            for i in range(n):
                want = want + ExactPoly.variable(n * n, entry_var(i, i, n))
            assert trace_power_entry(1, n) == want

    def test_size_limit_counts_paths_times_entries(self, monkeypatch):
        # n^k index paths of n^2 entries: (6, 6) and (4, 16) pass, (3, 30) does not
        assert max(6**6 * 6**2, 16**4 * 16**2) <= invariant.MAX_TRACE_ENTRIES < 30**3 * 30**2
        with pytest.raises(ValueError, match="n = 30 walks n.k = 27000 index paths"):
            trace_power_entry(3, 30)

        # past n^2 a path costs its k key additions; each size is judged before the
        # walk's Counter is built, so no path is walked here
        class Walked(Exception):
            pass

        def no_walk(paths):
            raise Walked

        monkeypatch.setattr(invariant, "Counter", no_walk)
        for k, n in [(20, 2), (21, 2), (22, 2), (13, 3)]:
            with pytest.raises(ValueError, match=f"n = {n} walks .* of k = {k} key additions each"):
                trace_power_entry.__wrapped__(k, n)
        for k, n in [(10, 4), (12, 3), (19, 2), (6, 6), (4, 16), (3, 27)]:
            with pytest.raises(Walked):
                trace_power_entry.__wrapped__(k, n)

    def test_walk_matches_a_dense_reference(self):
        # the reference writes one dense exponent vector per index path
        def dense_walk(k, n):
            counts = {}
            for path in itertools.product(range(n), repeat=k):
                exps = [0] * (n * n)
                for s in range(k):
                    exps[entry_var(path[s], path[(s + 1) % k], n)] += 1
                counts[tuple(exps)] = counts.get(tuple(exps), 0) + 1
            return ExactPoly(n * n, counts)

        trace_power_entry.cache_clear()
        sizes = [(k, n) for n in (1, 2, 3) for k in range(1, 7)] + [(k, 4) for k in range(1, 5)]
        for k, n in sizes:
            want = dense_walk(k, n)
            assert list(trace_power_entry(k, n).terms.items()) == list(want.terms.items())

    def test_exponent_limit_is_checked_before_the_walk(self):
        # at n = 1 the one path's key is k times z_00's: past 32767 it would carry
        assert trace_power_entry(32767, 1) == ExactPoly.monomial(1, (32767,))
        for k in (40000, 65536):
            with pytest.raises(ValueError, match="k <= 32767"):
                trace_power_entry(k, 1)

    def test_numeric_against_matrix_power(self):
        import numpy as np

        rng = random.Random(0)
        for n in (2, 3):
            for k in (1, 2, 3, 4):
                z = np.array(
                    [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)] for _ in range(n)]
                )
                want = np.trace(np.linalg.matrix_power(z, k))
                got = trace_power_entry(k, n).eval_complex(list(z.reshape(-1)))
                assert abs(got - want) < 1e-10

    def test_expand_is_ring_homomorphism(self):
        rng = random.Random(1)
        for _ in range(5):
            f = random_trace_poly(rng, max_weight=3, n_terms=3)
            g = random_trace_poly(rng, max_weight=3, n_terms=3)
            n = 2
            assert expand_to_entries(f * g, n) == expand_to_entries(f, n) * expand_to_entries(g, n)
            assert expand_to_entries(f + g, n) == expand_to_entries(f, n) + expand_to_entries(g, n)

    def test_cached_expansion_matches_substitution(self):
        # the reference route substitutes t_k -> Tr(z^k) term by term, with no cache
        rng = random.Random(11)
        polys = [random_trace_poly(rng, max_weight=4, n_terms=4) for _ in range(6)]
        for n in (1, 2, 3):
            for cold in (True, False):
                if cold:
                    invariant._monomial_image.cache_clear()
                for f in polys:
                    images = {k - 1: trace_power_entry(k, n) for k in range(1, f.max_gen() + 1)}
                    assert expand_to_entries(f, n) == f.substitute(images, n * n)

    def test_each_monomial_is_expanded_once(self, monkeypatch):
        builds = []
        trace_power = invariant.trace_power_entry

        def counting(k, n):
            builds.append((k, n))
            return trace_power(k, n)

        # every monomial built multiplies its cached prefix by one Tr(z^k), its largest k
        monkeypatch.setattr(invariant, "trace_power_entry", counting)
        invariant._monomial_image.cache_clear()
        monos = [f for _, f in trace_monomials(4)]
        n = 2
        expand_to_entries(sum(monos, TracePoly.zero()), n)
        want = [(f.max_gen(), n) for f in monos if f.max_gen()]
        assert sorted(builds) == sorted(want)
        builds.clear()
        for f in monos:
            expand_to_entries(f * Fraction(3, 2), n)
        assert builds == []

    def test_restriction_matches_substitution(self):
        # the reference route substitutes t_k -> p_k term by term, with no cache
        rng = random.Random(12)
        polys = [random_trace_poly(rng, max_weight=4, n_terms=4) for _ in range(6)]
        polys += [
            TracePoly.from_terms([({1: 2, 3: 1}, Fraction(-3, 4)), ({2: 1}, Fraction(5, 2)),
                                  ({}, Fraction(1, 3))]),
            TracePoly.const(Fraction(7, 5)),
        ]
        for n in (1, 2, 3, 4):
            for cold in (True, False):
                if cold:
                    invariant._monomial_image.cache_clear()
                for f in polys:
                    # p_k as the sum of the n monomials x_i^k
                    images = {k - 1: sum((ExactPoly.variable(n, i) ** k for i in range(n)),
                                         ExactPoly.zero(n))
                              for k in range(1, f.max_gen() + 1)}
                    assert restrict_to_diagonal(f, n) == f.substitute(images, n)

    def test_each_monomial_is_restricted_once(self, monkeypatch):
        products = []
        mul = ExactPoly.__mul__

        def counting(self, other):
            products.append(1)
            return mul(self, other)

        # each monomial is imaged once, a one-part one with no product and every
        # longer one as one product of its cached prefix and p_k, its largest k
        monkeypatch.setattr(ExactPoly, "__mul__", counting)
        invariant._monomial_image.cache_clear()
        monos = trace_monomials(4)
        n = 3
        restrict_to_diagonal(sum((f for _, f in monos), TracePoly.zero()), n)
        assert invariant._monomial_image.cache_info().misses == len(monos)
        assert len(products) == sum(1 for rho, _ in monos if len(rho) > 1)
        scaled = [f * Fraction(3, 2) for _, f in monos]
        products.clear()
        for f in scaled:
            restrict_to_diagonal(f, n)
        assert invariant._monomial_image.cache_info().misses == len(monos)
        assert products == []

    def test_one_part_image_is_the_cached_walk(self):
        for n in (1, 2, 3):
            for k in (1, 2, 5):
                assert invariant._monomial_image((k,), n, False) is trace_power_entry(k, n)

    def test_an_evicted_image_does_not_walk_again(self):
        # t6 at n = 2, then enough one-term monomials at n = 1 to evict every image
        # of n = 2 from the bounded cache, then t6 t1 at n = 2: Tr(z^6) is walked once
        invariant._monomial_image.cache_clear()
        trace_power_entry.cache_clear()
        expand_to_entries(t(6), 2)
        fill = [rho for w in range(1, 18) for rho in partitions_of_weight(w, w)][:1125]
        assert len(fill) == 1125 > invariant._monomial_image.cache_info().maxsize
        for rho in fill:
            expand_to_entries(TracePoly.from_terms([(Counter(rho), 1)]), 1)
        walks = trace_power_entry.cache_info().misses
        expand_to_entries(t(6) * t(1), 2)
        assert trace_power_entry.cache_info().misses == walks + 1  # Tr(z^1) at n = 2 only

    def test_conjugation_invariance_under_permutations(self):
        # relabeling basis vectors maps entry (i,j) to (sigma(i), sigma(j))
        # and must fix every expanded trace polynomial
        import itertools

        n = 3
        f = t(1) ** 2 + t(2) * t(1) + t(3)
        fe = expand_to_entries(f, n)
        for sigma in itertools.permutations(range(n)):
            images = {
                entry_var(i, j, n): entry_var(sigma[i], sigma[j], n)
                for i in range(n)
                for j in range(n)
            }
            assert fe.map_vars(images, n * n) == fe


class TestDiagonalRestriction:
    def test_restriction_golden(self):
        # at a diagonal matrix, Tr(z^k) is the k-th power sum
        got = restrict_to_diagonal(t(2), 2)
        assert got == mono(2, (2, 0)) + mono(2, (0, 2))

    def test_two_paths_agree(self):
        rng = random.Random(2)
        for n in (1, 2, 3):
            for _ in range(5):
                f = random_trace_poly(rng, max_weight=4, n_terms=3)
                direct = restrict_to_diagonal(f, n)
                via_entries = entry_to_diagonal(expand_to_entries(f, n), n)
                assert direct == via_entries

    def test_restriction_is_symmetric_poly(self):
        f = t(1) * t(2)
        out = restrict_to_diagonal(f, 3)
        assert is_symmetric(out)


class TestPsiMap:
    def test_constant_maps_to_scaled_alternant(self):
        got = psi_map(TracePoly.one(), 2)
        assert got.scale2 == norm_const_c2(2) == Fraction(1, 2)
        assert got == Scaled(norm_const_c2(2), alternant_delta(2))

    def test_image_is_alternating(self):
        rng = random.Random(3)
        for _ in range(5):
            f = random_trace_poly(rng, max_weight=4, n_terms=3)
            assert is_alternating(psi_map(f, 2).poly)

    def test_module_map_over_invariants(self):
        # psi(F G) == F|_D * psi(G): multiplication by an invariant commutes
        # with multiplying in the alternating picture
        rng = random.Random(4)
        for n in (2, 3):
            for _ in range(4):
                f = random_trace_poly(rng, max_weight=3, n_terms=2)
                g = random_trace_poly(rng, max_weight=3, n_terms=2)
                lhs = psi_map(f * g, n)
                rhs = psi_map(g, n).map_poly(lambda p: p * restrict_to_diagonal(f, n))
                assert lhs == rhs

    def test_maps_e_basis_to_d_basis(self):
        for n in (1, 2, 3, 4):
            for w in range(0, 6 if n < 4 else 5):
                for lam in partitions_of_weight(w, n):
                    got = psi_map(e_lambda(lam, n), n)
                    assert got == d_lambda(lam, n)
                    # c^2 delta! / (lambda+delta)! is 1 / (n! (lambda+delta)!) exactly
                    assert got.scale2 == d_lambda(lam, n).scale2


class TestPsiInverse:
    def test_inverse_of_alternant(self):
        got = psi_inverse(alternant_delta(2), 2)
        want = Scaled(1 / norm_const_c2(2), TracePoly.one())
        assert got == want
        assert got.scale2 == 2
        # and back: psi of the lifted Scaled value is the alternant itself
        assert psi_map(got, 2) == Scaled.of(alternant_delta(2))

    def test_roundtrip_on_random_invariants(self):
        rng = random.Random(5)
        for n in (1, 2, 3):
            for _ in range(4):
                f = random_trace_poly(rng, max_weight=4, n_terms=3)
                ok, _ = verify_psi_roundtrip(f, n)
                assert ok

    def test_rejects_nonalternating(self):
        with pytest.raises(NotAlternatingError):
            psi_inverse(ExactPoly.monomial(2, (1, 1)), 2)

    def test_rejects_wrong_width(self):
        with pytest.raises(DimensionMismatchError):
            psi_inverse(alternant_delta(3), 2)

    def test_maps_d_basis_to_e_basis(self):
        count = 0
        for n in (1, 2, 3, 4):
            for lam in enumerate_partitions(5 if n < 4 else 4, n):
                got = psi_inverse(d_lambda(lam, n), n)
                assert got == e_lambda(lam, n), (lam, n)
                assert got.scale2 == e_lambda(lam, n).scale2
                count += 1
        assert count == 46

    def test_psi_of_inverse_is_identity_on_alternating(self):
        rng = random.Random(14)
        for n in (1, 2, 3):
            for _ in range(5):
                g = random_alternating_poly(rng, n, 4)
                assert psi_map(psi_inverse(g, n), n) == Scaled.of(g)

    @staticmethod
    def running_sum_lift(g, n):
        """sum_lambda g_{lambda+delta} chi_lambda, added one chi_lambda at a time."""
        acc = TracePoly.zero()
        for lam in enumerate_partitions(max(g.degree() - n * (n - 1) // 2, 0), n):
            c = g.coefficient(lam.plus_staircase(n))
            if not c.is_zero:
                acc = acc + chi_lambda(lam) * c
        return acc

    def test_lift_terms_match_the_running_sum(self):
        # term for term and in `terms` order, which eval_complex sums in
        rng = random.Random(23)
        for n in (1, 2, 3, 4):
            for _ in range(6):
                g = random_alternating_poly(rng, n, 4 if n < 4 else 3)
                want = self.running_sum_lift(g, n)
                assert list(psi_inverse(g, n).poly.terms.items()) == list(want.terms.items())


class TestCharacterBasis:
    def test_chi_restriction_is_schur(self):
        for n in (1, 2, 3):
            for w in range(0, 5):
                for lam in partitions_of_weight(w, n):
                    assert restrict_to_diagonal(chi_lambda(lam), n) == schur_exact(lam, n)

    def test_chi_empty(self):
        assert chi_lambda(Partition()) == TracePoly.one()

    def test_e_lambda_scale(self):
        e = e_lambda(Partition((1,)), 2)
        assert e.scale2 == Fraction(1, 2)
        assert e.poly == chi_lambda(Partition((1,)))

    def test_e_lambda_normalized(self):
        for n in (2, 3):
            for w in range(0, 4):
                for lam in partitions_of_weight(w, n):
                    e = e_lambda(lam, n)
                    assert e.scale2 * invariant_inner(e.poly, e.poly, n) == 1

    def test_chi_norm_is_factorial_ratio(self):
        for n in (2, 3):
            for lam in [Partition((1,) * n), Partition((2,)), Partition()]:
                want = Fraction(
                    vector_factorial(lam.plus_staircase(n)),
                    vector_factorial(staircase(n)),
                )
                got = invariant_inner(chi_lambda(lam), chi_lambda(lam), n)
                assert got == GaussianRational(want)


class TestInvariantInner:
    def test_trace_norm(self):
        for n in (1, 2, 3):
            assert invariant_inner(t(1), t(1), n) == GaussianRational(n)

    def test_unit_and_orthogonality(self):
        one = TracePoly.one()
        assert invariant_inner(one, one, 2) == GaussianRational(1)
        assert invariant_inner(one, t(1), 2).is_zero

    def test_antisymmetric_character_norm(self):
        for n in (2, 3):
            chi = chi_lambda(Partition((1,) * n))
            assert invariant_inner(chi, chi, n) == GaussianRational(math.factorial(n))

    def test_conjugate_symmetry(self):
        rng = random.Random(7)
        for _ in range(5):
            f = random_trace_poly(rng, max_weight=3, n_terms=2)
            g = random_trace_poly(rng, max_weight=3, n_terms=2)
            lhs = invariant_inner(f, g, 2)
            assert lhs == invariant_inner(g, f, 2).conjugate()


class TestEntryGram:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_gram_of_the_expansions(self, n):
        # the reference route expands every F to the entries and pairs the expansions
        rng = random.Random(23)
        fs = [random_trace_poly(rng, max_weight=4, n_terms=k % 5) for k in range(8)]
        coeffs = [c for f in fs for c in f.terms.values()]
        assert any(c.im for c in coeffs) and any(type(c.re) is Fraction for c in coeffs)
        assert any(len({sum(_partition(key)) for key in f.terms}) > 1 for f in fs)
        assert any(f.is_zero for f in fs)
        for cold in (True, False):
            if cold:
                invariant._monomial_image.cache_clear()
            got = entry_gram(fs, n)
            want = bargmann_gram([expand_to_entries(f, n) for f in fs])
            assert list(got.items()) == list(want.items())


class TestUnitarity:
    def test_hand_case(self):
        ok, lhs, rhs = verify_unitarity([t(1)], 2)[0, 0]
        assert ok and lhs == GaussianRational(2) and rhs == GaussianRational(2)

    def test_random_invariants(self):
        rng = random.Random(8)
        for n in (2, 3):
            for _ in range(4):
                f = random_trace_poly(rng, max_weight=3, n_terms=2)
                g = random_trace_poly(rng, max_weight=3, n_terms=2)
                results = verify_unitarity([f, g], n)
                assert len(results) == 4
                for ok, lhs, rhs in results.values():
                    assert ok and lhs == rhs


class TestAlternantCoordinates:
    """psi's coordinates by the pruned sigma-sum, against the full n!-term image."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_match_the_full_image_on_random_invariants(self, n):
        rng = random.Random(n)
        for _ in range(4 if n < 6 else 2):
            f = random_trace_poly(rng, max_weight=4, n_terms=3)
            want = _schur_coefficients(psi_map(f, n).poly, n)
            got = alternant_coordinates(restrict_to_diagonal(f, n), n)
            assert got == want and list(got) == list(want)
            assert fourier_coefficients(f, n) == want
            assert fourier_coefficients(f, n, 2) == _schur_coefficients(psi_map(f, n).poly, n, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_sign_is_taken_against_delta(self, n):
        # a_delta * 1 = a_delta, whose one coordinate is +1 at lambda = 0; a parity
        # taken against (0, 1, ..., n-1) instead flips it where reversal is odd
        assert alternant_coordinates(ExactPoly.one(n), n) == {Partition(): GaussianRational(1)}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_shifts_without_caps_are_the_alternant(self, n):
        shifts = dict(_staircase_shifts((n - 1,) * n))
        assert shifts == {key: c.re for key, c in alternant_delta(n).terms.items()}

    def test_shifts_prune_to_the_rows_caps(self):
        # row i of lambda + delta caps sigma(delta)_i, so prod_i (min(lambda_i, i) + 1) survive
        n = 5
        for lam in enumerate_partitions(6, n):
            mu = lam.plus_staircase(n)
            got = _staircase_shifts(tuple(min(m, n - 1) for m in mu))
            assert len(got) == math.prod(min(lam.part(i), i) + 1 for i in range(n))

    def test_not_symmetric_gives_none(self):
        rng = random.Random(4)
        for n in (2, 3):
            for _ in range(10):
                f = restrict_to_diagonal(random_trace_poly(rng, max_weight=3, n_terms=2), n)
                broken = ExactPoly._raw(n, dict(list(f.terms.items())[1:]))
                assert (alternant_coordinates(broken, n) is None) == (not is_symmetric(broken))
        # every key of the orbit present, but two coefficients
        assert alternant_coordinates(ExactPoly(2, {(1, 0): 1, (0, 1): 2}), 2) is None

    def test_rejects_wrong_width_and_large_n(self):
        with pytest.raises(DimensionMismatchError):
            alternant_coordinates(ExactPoly.one(3), 2)
        with pytest.raises(ValueError, match="n = 10 is above 9"):
            alternant_coordinates(ExactPoly.one(10), 10)

    def test_a_restriction_that_is_not_symmetric_fails_fourier(self, monkeypatch):
        restrict = invariant.restrict_to_diagonal

        def lopsided(f, n):
            g = restrict(f, n)
            return ExactPoly._raw(n, dict(list(g.terms.items())[1:]))

        monkeypatch.setattr(invariant, "restrict_to_diagonal", lopsided)
        with pytest.raises(NotAlternatingError, match="is not symmetric"):
            fourier_coefficients(t(1) ** 2, 2)
        assert verify_fourier_reconstruction(t(1) ** 2, 2) == (False, {})
        results = verify_unitarity([t(1) ** 2, t(2)], 2)
        assert not any(ok for ok, _, _ in results.values())
        assert all(rhs is None for _, _, rhs in results.values())


class TestUnitarityAgainstFullImages:
    def test_right_side_is_the_pairing_of_the_images(self):
        rng = random.Random(12)
        for n in (1, 2, 3, 4):
            fs = [random_trace_poly(rng, max_weight=3, n_terms=2) for _ in range(3)]
            images = bargmann_gram(psi_map(f, n).poly for f in fs)
            results = verify_unitarity(fs, n)
            for key, (ok, lhs, rhs) in results.items():
                assert ok and rhs == images[key] * norm_const_c2(n)
                assert str(rhs) == str(images[key] * norm_const_c2(n))


def ref_diffop_identity(fs, n):
    """The identity as whole polynomials: a_delta (F_i(d)F_j)|_D against
    F_i|_D(d)(a_delta F_j|_D), each side formed in full, {(i, j): (equal, lhs, rhs)}."""
    a_delta = alternant_delta(n)
    entries = [expand_to_entries(f, n) for f in fs]
    diagonals = [restrict_to_diagonal(f, n) for f in fs]
    images = [a_delta * g for g in diagonals]
    out = {}
    for i, j in itertools.product(range(len(fs)), repeat=2):
        lhs = a_delta * entry_to_diagonal(entries[i].apply_diff(entries[j]), n)
        rhs = diagonals[i].apply_diff(images[j])
        out[i, j] = (lhs == rhs, lhs, rhs)
    return out


class TestDiffOpAgainstFullPolynomials:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trace_monomials(self, n):
        fs = [f for _, f in trace_monomials(4, max_gen=3)]
        got, want = verify_diffop_identity(fs, n), ref_diffop_identity(fs, n)
        assert got.keys() == want.keys()
        for key, (ok, lhs, rhs) in got.items():
            ref_ok, ref_lhs, ref_rhs = want[key]
            assert ok == ref_ok
            assert lhs == _schur_coefficients(ref_lhs, n)
            assert rhs == _schur_coefficients(ref_rhs, n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_polys(self, n):
        rng = random.Random(20 + n)
        fs = [random_trace_poly(rng, max_weight=3, n_terms=3) for _ in range(4)]
        got, want = verify_diffop_identity(fs, n), ref_diffop_identity(fs, n)
        assert {k: v[0] for k, v in got.items()} == {k: v[0] for k, v in want.items()}
        assert all(ok for ok, _, _ in got.values())

    def test_a_left_side_that_is_not_symmetric_fails(self, monkeypatch):
        mapped = ExactPoly.apply_diff_mapped

        def dropping(self, g, images, n_vars_out):
            h = mapped(self, g, images, n_vars_out)
            return ExactPoly._raw(h.n_vars, dict(list(h.terms.items())[1:]))

        monkeypatch.setattr(ExactPoly, "apply_diff_mapped", dropping)
        fs = [f for _, f in trace_monomials(3, max_gen=3)]
        results = verify_diffop_identity(fs, 3)
        # every pair whose (F_i(d)F_j)|_D is nonzero loses a term, and most an orbit's
        # term, which leaves it not symmetric
        nonzero = {key for key, (_, _, rhs) in ref_diffop_identity(fs, 3).items() if rhs}
        assert {key for key, (ok, _, _) in results.items() if not ok} == nonzero
        assert sum(results[key][1] is None for key in nonzero) > len(nonzero) // 2


class TestDiffOpIdentity:
    def test_hand_case_traces(self):
        # d/dz applied to Tr z is Tr 1 = 2, and a_delta * 2 has the one coordinate 2 at delta
        ok, lhs, rhs = verify_diffop_identity([t(1)], 2)[0, 0]
        assert ok
        assert lhs == rhs == {Partition(()): GaussianRational(2)}

    def test_monomial_pairs_small(self):
        monos = trace_monomials(3, max_gen=3)
        results = verify_diffop_identity([f for _, f in monos], 2)
        assert len(results) == len(monos) ** 2
        for (i, j), (ok, lhs, rhs) in results.items():
            assert ok, f"failed at {monos[i][0]} , {monos[j][0]}"

    def test_random_polys(self):
        rng = random.Random(9)
        for _ in range(3):
            f = random_trace_poly(rng, max_weight=3, n_terms=2)
            g = random_trace_poly(rng, max_weight=3, n_terms=2)
            for ok, _, _ in verify_diffop_identity([f, g], 3).values():
                assert ok


class TestFourier:
    def test_character_is_its_own_expansion(self):
        for n in (2, 3):
            for lam in [Partition((1,)), Partition((2, 1)), Partition()]:
                got = fourier_coefficients(chi_lambda(lam), n)
                assert got == {lam: GaussianRational(1)}

    def test_square_of_trace(self):
        got = fourier_coefficients(t(1) ** 2, 2)
        assert got == {
            Partition((2,)): GaussianRational(1),
            Partition((1, 1)): GaussianRational(1),
        }

    def test_zero_polynomial(self):
        assert fourier_coefficients(TracePoly.zero(), 2) == {}

    def test_reconstruction_random(self):
        rng = random.Random(10)
        for n in (2, 3):
            for _ in range(5):
                f = random_trace_poly(rng, max_weight=4, n_terms=3)
                ok, coeffs = verify_fourier_reconstruction(f, n)
                assert ok
                for lam in coeffs:
                    assert lam.length <= n

    def test_linear(self):
        # coefficients are linear in the invariant
        f = t(2)
        g = t(1) ** 2
        cf = fourier_coefficients(f, 2)
        cg = fourier_coefficients(g, 2)
        ch = fourier_coefficients(f + g, 2)
        keys = set(cf) | set(cg)
        for k in keys:
            z = GaussianRational(0)
            assert ch.get(k, z) == cf.get(k, z) + cg.get(k, z)
