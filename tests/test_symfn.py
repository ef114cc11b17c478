import cmath
import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hciz.errors import DegenerateExponentError, DimensionMismatchError
from hciz.exactpoly import ExactPoly, bargmann_inner, exponent_pairs, exponent_vector
from hciz.invariant import restrict_to_diagonal
from hciz.numeric import _prefix_table, schur_numeric
from hciz.scalars import GaussianRational
from hciz.suites import random_alternating_poly, random_trace_poly
from hciz.symfn import (
    MAX_ALTERNANT_N,
    MAX_POWER_SUM_CLASSES,
    MAX_SCHUR_EXPONENTS,
    Partition,
    Scaled,
    TracePoly,
    _orbits,
    _signs,
    _sort_sign,
    alternant,
    alternant_delta,
    character,
    d_lambda,
    enumerate_partitions,
    is_alternating,
    norm_const_c2,
    partitions_of_weight,
    schur_exact,
    schur_to_power_sums,
    staircase,
    superfactorial,
    vector_factorial,
    zee,
)


def homogeneous_values(eigs, kmax):
    """h_0..h_kmax of all the points: the last column of the unscaled
    `_prefix_table`, from row n - 1 on."""
    n = len(eigs)
    return _prefix_table(eigs, kmax + n, 1.0)[n - 1:, n - 1]


def recurrence_h(eigs, kmax):
    """h_0..h_kmax of all the points by h_k += x h_(k-1), point by point,
    written out here apart from the package."""
    h = [1.0 + 0j] + [0j] * kmax
    for x in eigs:
        x = complex(x)
        for k in range(1, kmax + 1):
            h[k] += x * h[k - 1]
    return h


# -- independent combinatorial oracles --------------------------------------------


def brute_partitions(weight, max_parts):
    """All weakly decreasing positive tuples summing to weight, by exhaustion."""
    if weight == 0:
        return [()]
    out = []

    def rec(prefix, remaining, cap):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == max_parts:
            return
        for p in range(min(cap, remaining), 0, -1):
            rec(prefix + [p], remaining - p, p)

    rec([], weight, weight)
    return out


def count_ssyt(shape, n):
    """Semistandard tableaux of the given shape, entries in 1..n: rows weakly
    increase left to right, columns strictly increase top to bottom."""
    cells = [(r, c) for r, s in enumerate(shape) for c in range(s)]

    def rec(idx, filling):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, filling[(r, c - 1)])
        if r > 0:
            lo = max(lo, filling[(r - 1, c)] + 1)
        total = 0
        for v in range(lo, n + 1):
            filling[(r, c)] = v
            total += rec(idx + 1, filling)
        filling.pop((r, c), None)
        return total

    return rec(0, {})


def count_standard_tableaux(shape):
    """Hook length formula: |shape|! divided by the product of hook lengths."""
    if not shape:
        return 1
    conj = [sum(1 for s in shape if s > c) for c in range(shape[0])]
    hooks = 1
    for r, s in enumerate(shape):
        for c in range(s):
            hooks *= (s - c) + (conj[c] - r) - 1
    return math.factorial(sum(shape)) // hooks


# -- partitions --------------------------------------------------------------------


class TestPartition:
    def test_basic(self):
        lam = Partition((3, 1))
        assert lam.weight == 4 and lam.length == 2
        assert lam.part(0) == 3 and lam.part(5) == 0
        assert list(lam) == [3, 1]

    def test_trailing_zeros_dropped(self):
        assert Partition((2, 1, 0, 0)) == Partition((2, 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, -1))

    def test_text_roundtrip(self):
        assert Partition.from_text("2,1").parts == (2, 1)
        assert Partition.from_text("0") == Partition()
        assert Partition((2, 1)).to_text() == "2,1"
        assert Partition().to_text() == "0"

    def test_plus_staircase(self):
        assert Partition((2, 1)).plus_staircase(3) == (4, 2, 0)
        assert Partition().plus_staircase(3) == (2, 1, 0)
        with pytest.raises(DimensionMismatchError):
            Partition((1, 1, 1)).plus_staircase(2)

    def test_tuple_equality_and_hash(self):
        assert Partition((2, 1)) == (2, 1)
        assert hash(Partition((2, 1))) == hash(Partition((2, 1, 0)))
        # a tuple that is not a partition compares unequal instead of raising
        assert Partition((2, 1)) != (1, 2)
        assert Partition((1,)) != (-1,)
        # trailing zeros are not dropped from a tuple, so equal always means equal hashes
        assert Partition((2, 1)) != (2, 1, 0)
        assert Partition((2, 1)) in {(2, 1)} and (2, 1) in {Partition((2, 1))}
        assert Partition((2, 1)) not in {(2, 1, 0)}

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Partition((1,)).parts = (2,)

    def test_is_a_tuple_of_its_parts(self):
        lam = Partition((2, 1, 0))
        assert isinstance(lam, tuple)
        assert tuple(lam) == lam.parts == (2, 1) and type(lam.parts) is tuple
        assert lam[1:] == (1,) and lam + (1,) == (2, 1, 1)
        assert repr(lam) == "Partition((2, 1))" and str(lam) == "2,1"
        with pytest.raises(AttributeError):
            lam.weight_cache = 3

    def test_constructor_messages(self):
        with pytest.raises(ValueError, match=r"^negative part$"):
            Partition((2, -1))
        # the first bad part decides: 3 > 1 comes before the negative -1
        with pytest.raises(ValueError, match=r"^parts not weakly decreasing: \(1, 3, -1\)$"):
            Partition((1, 3, -1))
        with pytest.raises(ValueError, match=r"^negative part$"):
            Partition((-1, 0))
        # a generator is read once, and the message names its parts
        with pytest.raises(ValueError, match=r"^parts not weakly decreasing: \(2, 3\)$"):
            Partition(p for p in (2, 3))
        assert Partition(p for p in (3, 1, 0)) == (3, 1)


class TestEnumeration:
    def test_against_brute_force(self):
        for w in range(0, 7):
            for mp in (1, 2, 3, 6):
                got = [p.parts for p in partitions_of_weight(w, mp)]
                want = brute_partitions(w, mp)
                assert sorted(got) == sorted(want)

    def test_weight_six_count(self):
        assert len(list(partitions_of_weight(6, 6))) == 11

    def test_order_weight_then_lex_descending(self):
        got = [p.parts for p in enumerate_partitions(3, 3)]
        assert got == [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]

    def test_max_parts_respected(self):
        assert all(len(p) <= 2 for p in enumerate_partitions(5, 2))


class TestStaircaseHelpers:
    def test_staircase(self):
        assert staircase(1) == (0,)
        assert staircase(3) == (2, 1, 0)

    def test_vector_factorial(self):
        assert vector_factorial((2, 1, 0)) == 2
        assert vector_factorial((3, 2)) == 12

    def test_superfactorial(self):
        assert superfactorial(1) == 1
        assert superfactorial(3) == 12
        assert superfactorial(4) == 288


# -- alternants --------------------------------------------------------------------


def x(n, i):
    return ExactPoly.variable(n, i)


def difference_product(n):
    """prod_{i<j} (x_i - x_j), one factor at a time."""
    out = ExactPoly.one(n)
    for i, j in itertools.combinations(range(n), 2):
        out = out * (x(n, i) - x(n, j))
    return out


def is_symmetric(f):
    """f is fixed by every permutation of its variables."""
    perms = itertools.permutations(range(f.n_vars))
    return all(f.permute_vars(p) == f for p in perms)


def brute_is_alternating(f):
    """f(x_sigma) == sgn(sigma) f(x) for every permutation sigma of the variables."""
    def sign(p):
        return (-1) ** sum(a > b for a, b in itertools.combinations(p, 2))

    perms = itertools.permutations(range(f.n_vars))
    return all(f.permute_vars(p) == f * sign(p) for p in perms)


class TestAlternant:
    def test_golden_n2(self):
        assert alternant((1, 0), 2) == x(2, 0) - x(2, 1)
        assert alternant((2, 0), 2) == ExactPoly.monomial(2, (2, 0)) - ExactPoly.monomial(2, (0, 2))

    def test_n1(self):
        assert alternant((0,), 1) == ExactPoly.one(1)
        assert alternant((3,), 1) == ExactPoly.monomial(1, (3,))

    def test_delta_is_signed_vandermonde(self):
        # the Vandermonde product prod_{i<j} (x_j - x_i) up to (-1)^{n(n-1)/2}
        for n in range(1, 5):
            assert alternant_delta(n) == difference_product(n)

    def test_vandermonde_n3_shape(self):
        v = alternant_delta(3)
        assert len(v.terms) == 6 and v.degree() == 3
        assert v.coefficient((2, 1, 0)) == GaussianRational(1)
        assert v.coefficient((0, 1, 2)) == GaussianRational(-1)

    def test_antisymmetry(self):
        a = alternant((3, 1, 0), 3)
        assert is_alternating(a)
        assert a.permute_vars([1, 0, 2]) == -a

    def test_column_reorder_flips_sign(self):
        assert alternant((0, 1), 2) == -alternant((1, 0), 2)

    @pytest.mark.parametrize("mu, n, error, message", [
        ((2, 2, 0), 3, DegenerateExponentError,
         "repeated exponents in (2, 2, 0): alternant vanishes"),
        ((1, -1), 2, ValueError, "negative exponent in alternant"),
        ((0, 32768), 2, ValueError, "exponent 32768 of v1 outside 0..32767"),
        ((1, 0), 3, DimensionMismatchError, "exponent vector of length 2, expected 3"),
    ], ids=["repeated", "negative", "past-max-exponent", "length"])
    def test_errors(self, mu, n, error, message):
        with pytest.raises(error) as info:
            alternant(mu, n)
        assert str(info.value) == message

    def test_size_limit(self):
        # n = 10 would build 3.6 million terms before returning
        assert MAX_ALTERNANT_N == 9
        with pytest.raises(ValueError) as info:
            alternant(staircase(MAX_ALTERNANT_N + 1), MAX_ALTERNANT_N + 1)
        assert str(info.value) == "n = 10 is above 9: an alternant in n variables has n! terms"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_the_definition_term_by_term_in_order(self, n):
        # one term per rearrangement of mu, signed by its sort sign over mu's own, in
        # the order of itertools.permutations, which is the order eval_complex sums in
        decreasing = tuple(i * i + 2 * i for i in range(n))[::-1]
        for mu in (decreasing, decreasing[::-1], decreasing[1:] + decreasing[:1]):
            sign = _sort_sign(mu)
            want = ExactPoly(n, {perm: GaussianRational(sign * _sort_sign(perm))
                                 for perm in itertools.permutations(mu)})
            got = alternant(mu, n)
            assert got.n_vars == n
            assert list(got.terms.items()) == list(want.terms.items())

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sign_table_is_the_sort_sign_of_each_permutation(self, n):
        # _signs builds block i of the permutations, those starting with i, from _signs(n - 1)
        got = _signs(n)
        assert [c.re for c in got] == [_sort_sign(p) for p in itertools.permutations(staircase(n))]
        assert all(c.im == 0 for c in got)
        assert len({id(c) for c in got}) == min(n, 2)
        assert len({id(c) for m in range(1, 9) for c in _signs(m)}) == 2

    def test_derivative_pairing_equals_superfactorial(self):
        # the staircase alternant paired with itself under F(d)G|_0 gives
        # n! * delta! = prod_{p=1}^{n} p!
        for n in range(1, 5):
            a = alternant_delta(n)
            got = a.apply_diff(a).coefficient(())
            assert got == GaussianRational(superfactorial(n))


class TestSymmetryPredicates:
    def test_examples(self):
        e2 = ExactPoly.monomial(2, (1, 1))
        assert is_symmetric(e2)
        assert not is_alternating(e2)
        assert is_alternating(alternant_delta(3))
        assert not is_symmetric(x(2, 0))
        assert not is_alternating(x(2, 0))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_alternating_agrees_with_every_permutation(self, n):
        # random alternants, and each with one term dropped, one term's sign
        # flipped and one coefficient scaled, which breaks alternation for n >= 2
        rng = random.Random(40 + n)
        tried = 0
        while tried < 5:
            f = random_alternating_poly(rng, n, 3)
            if f.is_zero:
                continue
            tried += 1
            key, c = rng.choice(list(f.terms.items()))
            dropped = {k: v for k, v in f.terms.items() if k != key}
            broken = [ExactPoly._raw(n, t) for t in
                      (dropped, {**f.terms, key: -c}, {**f.terms, key: c * Fraction(3, 2)})]
            assert is_alternating(f) and brute_is_alternating(f)
            for g in broken:
                assert is_alternating(g) == brute_is_alternating(g) == (n == 1)
            # each orbit is read at its decreasing exponents, where a_mu has +1
            orbits = _orbits(f, alternating=True)
            assert orbits == {exponent_vector(k, n): v for k, v in f.terms.items()
                              if list(exponent_vector(k, n)) == sorted(exponent_vector(k, n),
                                                                       reverse=True)}

    def test_repeated_exponent_is_not_alternating(self):
        # each term times its sort parity is 1, and the three terms are the whole
        # orbit of (1, 1, 0): only the repeated exponent tells it from an alternant
        f = ExactPoly(3, {(1, 1, 0): 1, (1, 0, 1): -1, (0, 1, 1): 1})
        assert not is_alternating(f) and not brute_is_alternating(f)


# -- Schur polynomials -------------------------------------------------------------


class TestSchurExact:
    def test_goldens(self):
        assert schur_exact(Partition((1,)), 2) == x(2, 0) + x(2, 1)
        assert schur_exact(Partition((1, 1)), 2) == ExactPoly.monomial(2, (1, 1))
        s21 = schur_exact(Partition((2, 1)), 2)
        assert s21 == ExactPoly.monomial(2, (2, 1)) + ExactPoly.monomial(2, (1, 2))
        assert schur_exact(Partition(), 3) == ExactPoly.one(3)

    def test_total_ssyt_count(self):
        # summing the (nonnegative integer) coefficients evaluates at all-ones,
        # which counts semistandard tableaux with entries bounded by n
        for n in (1, 2, 3):
            for w in range(0, 5):
                for lam in partitions_of_weight(w, n):
                    s = schur_exact(lam, n)
                    total = Fraction(0)
                    for _, c in s.terms.items():
                        assert c.im == 0
                        f = c.re
                        assert f.denominator == 1 and f >= 0
                        total += f
                    assert total == count_ssyt(lam.parts, n)

    def test_kostka_coefficient(self):
        # tableaux of shape (2,1) with one each of 1,2,3
        s = schur_exact(Partition((2, 1)), 3)
        assert s.coefficient((1, 1, 1)) == GaussianRational(2)

    def test_homogeneous_and_symmetric(self):
        for lam in [(2,), (1, 1), (3, 1), (2, 2)]:
            s = schur_exact(Partition(lam), 3)
            assert is_symmetric(s)
            assert all(sum(exponent_vector(key, 3)) == sum(lam) for key in s.terms)

    def test_bialternant_identity(self):
        # s_lambda * a_delta == a_{lambda+delta}: the definition as a
        # bialternant, checked by multiplying instead of dividing
        for n in range(2, 7):
            for w in range(0, 7):
                for lam in partitions_of_weight(w, n):
                    lam = Partition(lam)
                    lhs = schur_exact(lam, n) * alternant_delta(n)
                    assert lhs == alternant(lam.plus_staircase(n), n)

    def test_too_many_parts(self):
        with pytest.raises(DimensionMismatchError):
            schur_exact(Partition((1, 1, 1)), 2)

    def test_term_order_matches_a_dense_build(self):
        # the branching rule on dense exponent vectors, x_{n-1} first
        def dense_branching(lam, n):
            states = {lam.parts: {(0,) * n: 1}}
            for m in range(n - 1, -1, -1):
                below = {}
                for parts, vecs in states.items():
                    slots = [range(q, p + 1) for p, q in zip(parts, parts[1:] + (0,))][:m]
                    for mu in itertools.product(*slots):
                        out = below.setdefault(tuple(p for p in mu if p), {})
                        for vec, c in vecs.items():
                            vec = vec[:m] + (sum(parts) - sum(mu),) + vec[m + 1:]
                            out[vec] = out.get(vec, 0) + c
                states = below
            return ExactPoly(n, states[()])

        for n in range(1, 6):
            for w in range(5):
                for lam in partitions_of_weight(w, n):
                    got, want = schur_exact(lam, n), dense_branching(lam, n)
                    assert list(got.terms.items()) == list(want.terms.items())

    def test_size_limit_is_the_monomial_count_times_n(self):
        # at most C(n+|lambda|-1, |lambda|) monomials, each n exponents
        assert math.comb(18 + 5, 6) * 18 <= MAX_SCHUR_EXPONENTS < math.comb(19 + 5, 6) * 19
        assert len(schur_exact(Partition((1,)), 40).terms) == 40
        assert schur_exact(Partition(), 10**6) == ExactPoly.one(10**6)
        with pytest.raises(ValueError, match=r"C\(45, 6\) = 8145060 monomials of n exponents"):
            schur_exact(Partition((3, 2, 1)), 40)
        # one monomial per variable, but n^2 exponents
        with pytest.raises(ValueError, match="above"):
            schur_exact(Partition((1,)), 10**5)


class TestRecordedSchur:
    """`schur_exact` text over every lambda of weight <= 6, pinned by its SHA-256 per n.

    Recorded from the bialternant quotient a_{lambda+delta} / a_delta
    before `schur_exact` moved to the branching rule.
    """

    DIGESTS = {
        1: "2930b08579db7ae08ab1783c1143540f8c0bd5f019ce72f1c96d3fa44e188c83",
        2: "a437f021c129801384ce42d1329237c84b7fe843bb0051abb51e1d739c466bc1",
        3: "b6b7471655b8db03f9784347a462289e74b0c3569d879c534b0a405cab5d1bfe",
        4: "28c560a336ceeaa9d4e3768238528f9c31a7282f6b05286265d53442a652b2bb",
        5: "b7d1b1cf9c9c376d081efad0fc39db9399265df5f2e1bc2cf5a7c13ff2796d6b",
        6: "26d5d120a38084a650f5200f11ca55864bd7643dbda72fd28e499649c251feb2",
    }

    @pytest.mark.parametrize("n", sorted(DIGESTS))
    def test_text_digest(self, n):
        text = "".join(
            f"{lam}\t{schur_exact(lam, n).to_text(var_symbol='x')}\n"
            for w in range(7)
            for lam in partitions_of_weight(w, n)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[n]


class TestHomogeneousValues:
    def test_small_case(self):
        a, b = 2.0, 3.0
        h = homogeneous_values([a, b], 3)
        assert abs(h[0] - 1) < 1e-12
        assert abs(h[1] - (a + b)) < 1e-12
        assert abs(h[2] - (a * a + a * b + b * b)) < 1e-12
        assert abs(h[3] - (a**3 + a * a * b + a * b * b + b**3)) < 1e-12

    def test_coincident_points(self):
        c = 1.7
        h = homogeneous_values([c, c], 4)
        for k in range(5):
            assert abs(h[k] - (k + 1) * c**k) < 1e-10 * (k + 1) * abs(c) ** k

    @staticmethod
    def exact_h(eigs, kmax):
        """h_0..h_kmax of the given doubles, exactly, as (re, im) Fractions.

        Every double is an integer times 2^-e for one e, so the recurrence
        h_k += x h_{k-1} runs on integers H_k = 2^(e k) h_k.
        """
        parts = [(Fraction(complex(x).real), Fraction(complex(x).imag)) for x in eigs]
        e = max(v.denominator.bit_length() - 1 for p in parts for v in p)
        pts = [(int(re * 2**e), int(im * 2**e)) for re, im in parts]
        big = [(1, 0)] + [(0, 0)] * kmax
        for xr, xi in pts:
            for k in range(1, kmax + 1):
                (hr, hi), (gr, gi) = big[k], big[k - 1]
                big[k] = (hr + xr * gr - xi * gi, hi + xr * gi + xi * gr)
        return [(Fraction(hr, 2 ** (e * k)), Fraction(hi, 2 ** (e * k)))
                for k, (hr, hi) in enumerate(big)]

    def test_within_rounding_of_exact_values(self):
        # |fl(h_k) - h_k| <= 4 (n + k) u h_k(|x|) against exact rationals from
        # the same doubles; coincident 5.0 at n = 6 is where the series shows
        # 1e-9 of error (ROADMAP item 2), which h rounding cannot explain
        rng = random.Random(17)
        u, kmax = 2.0**-53, 60
        for n in range(1, 9):
            for mag in (0.5, 1.0, 2.0, 5.0):
                spectra = {
                    "real": [rng.uniform(-mag, mag) for _ in range(n)],
                    "complex": [complex(rng.uniform(-mag, mag), rng.uniform(-mag, mag))
                                for _ in range(n)],
                    "coincident": [mag] * n,
                    "roots of unity": [mag * cmath.exp(2j * math.pi * j / n) for j in range(n)],
                    "alternating": [(-1) ** j * rng.uniform(mag / 2, mag) for j in range(n)],
                }
                for kind, eigs in spectra.items():
                    got = homogeneous_values(eigs, kmax)
                    want = self.exact_h(eigs, kmax)
                    scale = self.exact_h([abs(x) for x in eigs], kmax)
                    for k in range(kmax + 1):
                        err = abs(complex(float(Fraction(got[k].real) - want[k][0]),
                                          float(Fraction(got[k].imag) - want[k][1])))
                        bound = 4 * (n + k) * u * float(scale[k][0])
                        assert err <= bound, (n, mag, kind, k, err / bound)


class TestSchurNumeric:
    def test_goldens(self):
        assert abs(schur_numeric(Partition((1,)), [2.0, 3.0]) - 5.0) < 1e-12
        assert abs(schur_numeric(Partition((2, 1)), [2.0, 3.0]) - 30.0) < 1e-12
        assert abs(schur_numeric(Partition((2, 1)), [1.0, 1.0]) - 2.0) < 1e-12
        assert abs(schur_numeric(Partition(), [1.5, -0.5]) - 1.0) < 1e-12

    def test_matches_exact_on_random_points(self):
        rng = random.Random(2)
        for w in range(0, 5):
            for lam in partitions_of_weight(w, 3):
                s = schur_exact(Partition(lam), 3)
                for _ in range(3):
                    pt = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
                    want = s.eval_complex(pt)
                    got = schur_numeric(Partition(lam), pt)
                    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_coincident_points_stable(self):
        # the bialternant ratio is 0/0 here; the evaluator must still match
        # the exact polynomial value
        pt = [0.8, 0.8, 0.8]
        for lam in [(2,), (1, 1), (2, 1), (3, 1)]:
            want = schur_exact(Partition(lam), 3).eval_complex(pt)
            got = schur_numeric(Partition(lam), pt)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    @staticmethod
    def exact_value(poly, eigs):
        """poly at the given doubles, exactly, as (re, im) Fractions."""
        pts = [(Fraction(complex(x).real), Fraction(complex(x).imag)) for x in eigs]
        re, im = Fraction(0), Fraction(0)
        for key, c in poly.terms.items():
            vr, vi = Fraction(c.re), Fraction(c.im)
            for var, e in exponent_pairs(key):
                xr, xi = pts[var]
                for _ in range(e):
                    vr, vi = vr * xr - vi * xi, vr * xi + vi * xr
            re, im = re + vr, im + vi
        return re, im

    def test_within_rounding_of_exact_values(self):
        # |fl(s) - s| <= 8 * 4^ell * u * s_lambda(|x|) against the exact value
        # at the same doubles, on random and all-equal points.  The bound is
        # set by the det[h_(lambda_i - i + j)] route this evaluator replaced:
        # on this grid its errors reached 0.80 of it (n = 3, ell = 3), and
        # 7042 u s_lambda(|x|) at n = ell = 6 on equal points.  One row,
        # ell <= 1, is h_lambda_1 itself, to the last bit.
        rng = random.Random(7)
        u = 2.0**-53
        for n in (1, 2, 3, 4, 6):
            for mag in (0.5, 2.0, 4.0):
                pt = [complex(rng.uniform(-mag, mag), rng.uniform(-mag, mag)) for _ in range(n)]
                for eigs in (pt, [pt[0]] * n):
                    for lam in enumerate_partitions(6, n):
                        got = schur_numeric(lam, eigs)
                        if lam.length <= 1:
                            want = recurrence_h(eigs, lam.part(0))[lam.part(0)]
                            assert np.array(got).tobytes() == np.array(want).tobytes()
                        s = schur_exact(lam, n)
                        re, im = self.exact_value(s, eigs)
                        err = abs(complex(float(Fraction(got.real) - re),
                                          float(Fraction(got.imag) - im)))
                        bound = 8 * 4**lam.length * u * s.eval_complex([abs(x) for x in eigs]).real
                        assert err <= bound, (n, mag, lam, eigs[1:] == eigs[:-1], err / bound)

    def test_dynamic_range_of_one_row(self):
        # h_k of two points in closed form, (b^(k+1) - a^(k+1))/(b - a), up
        # to 5.6e286, within the bound of TestHomogeneousValues: the table is
        # unscaled, and scaled by sqrt(1/(k + 1)!) these would underflow to 0
        u = 2.0**-53
        for k, (a, b), want in [
            (600, (2.0, 3.0), (Fraction(3) ** 601 - Fraction(2) ** 601)),
            (1000, (0.5, 1.5), (Fraction(3, 2) ** 1001 - Fraction(1, 2) ** 1001)),
            (2000, (1.0, 1.2), (Fraction(1.2) ** 2001 - 1) / (Fraction(1.2) - 1)),
        ]:
            got = schur_numeric(Partition((k,)), [a, b])
            assert got.imag == 0.0
            assert abs(Fraction(got.real) - want) <= 4 * (2 + k) * u * want, (k, got)


# -- characters and power sums -----------------------------------------------------


class TestCharacters:
    def test_s3_table(self):
        classes = [(1, 1, 1), (2, 1), (3,)]
        assert [character((3,), r) for r in classes] == [1, 1, 1]
        assert [character((2, 1), r) for r in classes] == [2, 0, -1]
        assert [character((1, 1, 1), r) for r in classes] == [1, -1, 1]

    def test_dimension_matches_hook_lengths(self):
        for w in range(1, 7):
            for lam in partitions_of_weight(w, w):
                assert character(lam.parts, (1,) * w) == count_standard_tableaux(lam.parts)

    def test_orthogonality(self):
        # sum_rho chi_lam(rho) chi_mu(rho) / z_rho == [lam == mu]
        for w in range(1, 6):
            shapes = [p.parts for p in partitions_of_weight(w, w)]
            for lam in shapes:
                for mu in shapes:
                    acc = Fraction(0)
                    for rho in shapes:
                        acc += Fraction(
                            character(lam, rho) * character(mu, rho), zee(Partition(rho))
                        )
                    assert acc == (1 if lam == mu else 0)

    def test_empty(self):
        assert character((), ()) == 1


class TestZee:
    def test_goldens(self):
        assert zee(Partition()) == 1
        assert zee(Partition((1, 1, 1))) == 6
        assert zee(Partition((2, 1))) == 2
        assert zee(Partition((3,))) == 3
        assert zee(Partition((2, 2))) == 8
        assert zee(Partition((4, 2, 1, 1))) == 16

    def test_class_sizes_sum_to_group_order(self):
        for w in range(1, 7):
            total = sum(
                Fraction(math.factorial(w), zee(Partition(r)))
                for r in partitions_of_weight(w, w)
            )
            assert total == math.factorial(w)


class TestSchurToPowerSums:
    def test_goldens(self):
        half = Fraction(1, 2)
        p1, p2 = TracePoly.gen(1), TracePoly.gen(2)
        assert schur_to_power_sums(Partition((2,))) == (p1 * p1 + p2) * half
        assert schur_to_power_sums(Partition((1, 1))) == (p1 * p1 - p2) * half
        p3 = TracePoly.gen(3)
        third = Fraction(1, 3)
        assert schur_to_power_sums(Partition((2, 1))) == (p1**3 - p3) * third

    def test_substitution_recovers_schur(self):
        # with at least |lambda| variables the power sums are independent, so
        # agreement here pins every coefficient; smaller n must agree too
        for w in range(0, 5):
            for lam in partitions_of_weight(w, w if w else 1):
                lam = Partition(lam)
                ps = schur_to_power_sums(lam)
                for n in (1, 2, 3, max(1, w)):
                    if lam.length > n:
                        continue
                    assert restrict_to_diagonal(ps, n) == schur_exact(lam, n)

    def test_partition_and_tuple_share_one_cache_entry(self):
        assert schur_to_power_sums(Partition((3, 2, 1))) is schur_to_power_sums((3, 2, 1))

    def test_class_limit(self):
        # p(32) = 8349 classes are accepted, p(33) = 10143 are not
        assert sum(1 for _ in partitions_of_weight(32, 32)) <= MAX_POWER_SUM_CLASSES
        with pytest.raises(ValueError, match=r"s\[33\] in power sums is a sum over the p\(33\)"):
            schur_to_power_sums(Partition((33,)))
        with pytest.raises(ValueError, match=r"s\[50,50\] in power sums"):
            schur_to_power_sums((50, 50))

    def test_power_substitution_golden(self):
        p2 = TracePoly.gen(2)
        want = ExactPoly.monomial(2, (2, 0)) + ExactPoly.monomial(2, (0, 2))
        assert restrict_to_diagonal(p2, 2) == want


class TestRecordedTracePoly:
    """`TracePoly` text, pinned by SHA-256.

    Recorded while `TracePoly` wrapped an `ExactPoly` trimmed to its top
    generator, before it became an `ExactPoly` over MAX_EXPONENT variables.
    """

    def test_power_sum_expansions(self):
        # every lambda with |lambda| <= 12: 1 + 1 + 2 + 3 + ... + 77 = 272 expansions
        text = "".join(
            f"{lam}\t{schur_to_power_sums(lam).to_text(var_symbol='p')}\n"
            for w in range(13)
            for lam in partitions_of_weight(w, w)
        )
        assert (hashlib.sha256(text.encode()).hexdigest()
                == "693a71536c02a26f3805be8d43216e8ca89df6f1d4b9908452f2652728d7c97c")

    def test_random_trace_polys(self):
        rng = random.Random(3)
        polys = [random_trace_poly(rng, max_weight=8, n_terms=6) for _ in range(200)]
        text = "".join(f"{f.to_text()}\t{f!r}\n" for f in polys)
        assert (hashlib.sha256(text.encode()).hexdigest()
                == "5368804f44d8763573a983b7f7846f03c7de00ec70f58162e4ecf24deef05749")


# -- scaled polynomials ------------------------------------------------------------


def scaled_equal_reference(q1, a, q2, b):
    """sqrt(q1) a == sqrt(q2) b, decided term by term without a square test.

    For one monomial, sqrt(q1) u == sqrt(q2) v holds when both coefficients
    are zero, or both are nonzero with the same argument (u conj(v) real
    and positive) and the same modulus (q1 |u|^2 == q2 |v|^2).
    """
    if a.terms.keys() != b.terms.keys():
        return False
    for key, u in a.terms.items():
        v = b.terms[key]
        cross = u * v.conjugate()
        if cross.im != 0 or cross.re < 0 or q1 * u.norm2() != q2 * v.norm2():
            return False
    return True


def rand_gaussian_poly(rng, n_terms):
    terms = {}
    for _ in range(n_terms):
        key = (rng.randint(0, 3), rng.randint(0, 3))
        terms[key] = GaussianRational(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
        )
    return ExactPoly(2, terms)


class TestScaled:
    def test_equality_across_presentations(self):
        p = x(2, 0) + x(2, 1)
        assert Scaled(8, p) == Scaled(2, p * 2)
        assert Scaled(4, p) == Scaled.of(p * 2)
        assert Scaled(Fraction(9, 4), p) == Scaled(1, p * Fraction(3, 2))
        assert Scaled(Fraction(1, 2), p * 2) == Scaled(2, p)
        # the square root is the positive one
        assert Scaled(8, p) != Scaled(2, p * -2)

    def test_radicand_mismatch(self):
        p = x(2, 0)
        assert Scaled(2, p) != Scaled(3, p)
        assert Scaled(2, p) != Scaled.of(p)
        # sqrt(12) = 2 sqrt(3), not 3 sqrt(3)
        assert Scaled(12, p) == Scaled(3, p * 2)
        assert Scaled(12, p) != Scaled(3, p * 3)

    def test_zero_normalization(self):
        z = Scaled(2, ExactPoly.zero(2))
        assert z.is_zero and z.scale2 == 1
        assert z == Scaled(7, ExactPoly.zero(2))
        assert z != Scaled(2, x(2, 0))
        assert Scaled(2, x(2, 0)) != z

    def test_scale2_must_be_a_positive_rational(self):
        for bad in (0, -1, Fraction(-1, 2)):
            with pytest.raises(ValueError):
                Scaled(bad, x(1, 0))
        with pytest.raises(ValueError):
            Scaled(0, ExactPoly.zero(1))
        for bad in (2.0, GaussianRational(2), True, "2", None):
            with pytest.raises(TypeError):
                Scaled(bad, x(1, 0))

    def test_equality_matches_termwise_reference(self):
        rng = random.Random(11)
        agreed = {True: 0, False: 0}
        for _ in range(400):
            q1 = Fraction(rng.randint(1, 30), rng.randint(1, 12))
            a = rand_gaussian_poly(rng, rng.randint(0, 3))
            # b = s a with q2 = q1 / s^2 is equal; each change below may break it
            s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            q2, b = q1 / (s * s), a * s
            change = rng.randrange(6)
            if change == 1:
                q2 *= rng.choice([2, 3, 5, Fraction(1, 7)])
            elif change == 2:
                b = b * rng.choice([-1, GaussianRational(0, 1), GaussianRational(1, 1)])
            elif change == 3 and b.terms:
                key = next(iter(b.terms))
                b = b + ExactPoly(2, {exponent_vector(key, 2): b.terms[key] * rng.choice([1, -2])})
            elif change == 4:
                b = b + x(2, 0) * x(2, 1) ** 4
            elif change == 5:
                q2 = Fraction(rng.randint(1, 30), rng.randint(1, 12))
            want = scaled_equal_reference(q1, a, q2, b)
            assert (Scaled(q1, a) == Scaled(q2, b)) is want
            assert (Scaled(q2, b) == Scaled(q1, a)) is want
            agreed[want] += 1
        # both verdicts are exercised
        assert min(agreed.values()) > 50

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Scaled.of(ExactPoly.one(1)))


def scaled_gram(a, b):
    """q_a <P_a, P_b>: the rational Gram test of sqrt(q_a) P_a against sqrt(q_b) P_b."""
    return bargmann_inner(a.poly, b.poly) * a.scale2


class TestNormalizedAlternants:
    def test_spot_orthonormality(self):
        d1 = d_lambda(Partition((1,)), 2)
        d2 = d_lambda(Partition((2,)), 2)
        d11 = d_lambda(Partition((1, 1)), 2)
        assert scaled_gram(d1, d1) == 1
        assert scaled_gram(d2, d2) == 1
        assert scaled_gram(d11, d11) == 1
        assert scaled_gram(d2, d11) == 0

    def test_empty_partition_n2(self):
        d0 = d_lambda(Partition(), 2)
        assert d0.scale2 == Fraction(1, 2)
        assert d0 == Scaled(Fraction(1, 2), x(2, 0) - x(2, 1))

    def test_norm_const(self):
        assert norm_const_c2(1) == 1
        assert norm_const_c2(2) == Fraction(1, 2)
        assert norm_const_c2(3) == Fraction(1, 12)

    def test_norm_const_prefactor_identity(self):
        # 1/c^2 = prod_{p=1}^{n} p!, so (1/c^2)/n! = prod_{p<n} p!, the
        # prefactor of the determinant formula
        for n in range(1, 6):
            inv_c2 = 1 / norm_const_c2(n)
            lead = Fraction(1)
            for p in range(1, n):
                lead *= math.factorial(p)
            assert inv_c2 / math.factorial(n) == lead
