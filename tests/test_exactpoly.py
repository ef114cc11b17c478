import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest

from hciz.errors import DimensionMismatchError
from hciz.exactpoly import (
    MAX_EXPONENT,
    ExactPoly,
    _as_key,
    _guards,
    bargmann_gram,
    bargmann_inner,
    exponent_pairs,
    exponent_vector,
    linear_combination,
)
from hciz.scalars import GaussianRational, QQI_I, QQI_ZERO
from hciz.symfn import TracePoly


def z(n, i):
    return ExactPoly.variable(n, i)


def random_poly(rng, n_vars, max_deg=3, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        exps = [0] * n_vars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(n_vars)] += 1
        c = GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        )
        exps = tuple(exps)
        terms[exps] = terms.get(exps, GaussianRational(0)) + c
    return ExactPoly(n_vars, terms)


def conj_coeffs(p):
    """F*: every coefficient replaced by its complex conjugate."""
    return ExactPoly(p.n_vars, {mi: c.conjugate() for mi, c in p.terms.items()})


class TestMonomials:
    def test_construction_and_factorial(self):
        m = ExactPoly.monomial(3, (2, 0, 3))
        assert m.degree() == 5
        assert m.to_text() == "(1, 0) : v0^2 v2^3"
        assert m.coefficient((2, 0, 3)) == GaussianRational(1)
        assert m.coefficient((2, 1, 3)).is_zero
        # <z^a, z^a> = a! = 2! 0! 3!
        assert bargmann_inner(m, m) == GaussianRational(2 * 6)

    def test_product_adds_exponents(self):
        a = ExactPoly.monomial(3, (1, 2, 0))
        b = ExactPoly.monomial(3, (0, 1, 4))
        assert a * b == ExactPoly.monomial(3, (1, 3, 4))
        assert (a * b).to_text() == "(1, 0) : v0 v1^3 v2^4"

    def test_apply_diff_subtracts_exponents_with_falling_factor(self):
        b = ExactPoly.monomial(2, (3, 2))
        a = ExactPoly.monomial(2, (2, 1))
        # d0^2 d1 z0^3 z1^2 = (3*2) (2) z0 z1
        assert a.apply_diff(b) == ExactPoly.monomial(2, (1, 1), 12)
        assert b.apply_diff(a).is_zero
        # one exponent too high is enough to kill the term
        assert ExactPoly.monomial(2, (0, 3)).apply_diff(b).is_zero

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError):
            ExactPoly(2, {(1, -1): 1})
        with pytest.raises(ValueError):
            ExactPoly.monomial(1, (MAX_EXPONENT + 1,))
        with pytest.raises(ValueError):
            ExactPoly(2, {-1: 1})
        with pytest.raises(DimensionMismatchError):
            ExactPoly(2, {(0, 0, 1): 1})

    def test_exponent_limit_raises_instead_of_carrying(self):
        x = ExactPoly.variable(2, 0)
        top = ExactPoly.monomial(2, (MAX_EXPONENT, 0))
        assert x**MAX_EXPONENT == top
        with pytest.raises(ValueError):
            top * x
        with pytest.raises(ValueError):
            x * top
        with pytest.raises(ValueError):
            x ** (MAX_EXPONENT + 1)
        with pytest.raises(ValueError):
            (top + 1) ** 2
        with pytest.raises(ValueError):
            top.map_vars({0: 0, 1: 0}, 1) * ExactPoly.variable(1, 0)
        with pytest.raises(ValueError):
            (top * ExactPoly.variable(2, 1)).map_vars({0: 0, 1: 0}, 1)

    def test_keys_do_not_depend_on_the_variable_count(self):
        p = ExactPoly.monomial(2, (1, 2)) + 3
        # the constructor takes packed keys, so p's keys build the same terms over 5
        wide = ExactPoly(5, p.terms)
        assert wide.terms == p.terms
        assert wide == ExactPoly.monomial(5, (1, 2)) + 3
        assert wide.min_n_vars() == 2
        with pytest.raises(DimensionMismatchError):
            ExactPoly(1, p.terms)


class TestRingOps:
    def test_additive_inverse(self):
        p = z(2, 0)
        assert (p + (-p)).is_zero

    def test_coefficient_merge(self):
        got = (z(2, 0) + z(2, 1)) + z(2, 1)
        want = ExactPoly(2, {(1, 0): 1, (0, 1): 2})
        assert got == want

    def test_difference_of_squares(self):
        n = 2
        got = (z(n, 0) + z(n, 1)) * (z(n, 0) - z(n, 1))
        want = ExactPoly.monomial(n, (2, 0)) - ExactPoly.monomial(n, (0, 2))
        assert got == want

    def test_multiplicative_identity(self):
        rng = random.Random(0)
        f = random_poly(rng, 3)
        assert f * ExactPoly.one(3) == f

    def test_commutativity_and_associativity(self):
        rng = random.Random(1)
        for _ in range(20):
            f, g, h = (random_poly(rng, 2) for _ in range(3))
            assert f + g == g + f
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h

    def test_degree_additivity(self):
        rng = random.Random(2)
        for _ in range(20):
            f, g = random_poly(rng, 2), random_poly(rng, 2)
            if f.is_zero or g.is_zero:
                continue
            assert (f * g).degree() == f.degree() + g.degree()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            z(2, 0) + z(3, 0)
        with pytest.raises(DimensionMismatchError):
            z(2, 0) * z(3, 0)

    def test_pow(self):
        f = z(2, 0) + 1
        assert f**3 == f * f * f
        assert f**0 == ExactPoly.one(2)


class TestConjugation:
    def test_conjugates_i(self):
        p = z(1, 0) * QQI_I
        assert conj_coeffs(p) == z(1, 0) * GaussianRational(0, -1)

    def test_real_fixed_point(self):
        p = z(2, 0) * 3 + ExactPoly.monomial(2, (1, 1), Fraction(1, 2))
        assert conj_coeffs(p) == p

    def test_multiplicative(self):
        rng = random.Random(3)
        for _ in range(10):
            f, g = random_poly(rng, 2), random_poly(rng, 2)
            assert conj_coeffs(f) * conj_coeffs(g) == conj_coeffs(f * g)
            assert conj_coeffs(conj_coeffs(f)) == f


def diff(f, v):
    """d/dz_v f, as the operator z_v(d) applied to f."""
    return ExactPoly.variable(f.n_vars, v).apply_diff(f)


class TestDifferentiation:
    def test_power_rule(self):
        p = ExactPoly.monomial(2, (3, 0))
        assert diff(p, 0) == ExactPoly.monomial(2, (2, 0), 3)

    def test_other_variable(self):
        assert diff(z(2, 0), 1).is_zero

    def test_out_of_range(self):
        with pytest.raises(DimensionMismatchError):
            diff(z(2, 0), 2)

    def test_leibniz(self):
        rng = random.Random(4)
        for _ in range(10):
            f, g = random_poly(rng, 2), random_poly(rng, 2)
            for v in range(2):
                assert diff(f * g, v) == diff(f, v) * g + f * diff(g, v)


class TestApplyDiff:
    def test_single_derivative(self):
        f = z(1, 0)
        g = ExactPoly.monomial(1, (2,))
        assert f.apply_diff(g) == z(1, 0) * 2

    def test_constant_operator(self):
        rng = random.Random(5)
        g = random_poly(rng, 2)
        c = GaussianRational(Fraction(7, 3))
        assert ExactPoly.const(2, c).apply_diff(g) == g * c

    def test_trace_polynomial_matches_the_same_terms_over_six_variables(self):
        # a TracePoly spans MAX_EXPONENT variables; only the fields in use are checked,
        # also where the operator's top variable is above every variable of G
        rng = random.Random(9)
        top = ExactPoly.monomial(6, (1, 0, 0, 0, 0, 1))
        for _ in range(20):
            g_low = ExactPoly(6, random_poly(rng, 3, max_deg=5, n_terms=8).terms)
            for f, g in ((random_poly(rng, 6), random_poly(rng, 6, max_deg=5, n_terms=8)),
                         (top, g_low), (g_low, top)):
                got = TracePoly(MAX_EXPONENT, f.terms).apply_diff(TracePoly(MAX_EXPONENT, g.terms))
                assert isinstance(got, TracePoly)
                assert got.terms == f.apply_diff(g).terms

    def test_agrees_with_inner_product(self):
        # <F*, G> equals the value of F(d)G at the origin
        rng = random.Random(6)
        for _ in range(20):
            f, g = random_poly(rng, 2), random_poly(rng, 2)
            at_zero = f.apply_diff(g).coefficient((0, 0))
            assert at_zero == bargmann_inner(conj_coeffs(f), g)


class TestBargmannInner:
    def test_monomials(self):
        n = 2
        za = ExactPoly.monomial(n, (2, 1))
        zb = ExactPoly.monomial(n, (1, 2))
        assert bargmann_inner(za, za) == GaussianRational(2 * 1)
        assert bargmann_inner(za, zb).is_zero

    def test_normalized_monomials_orthonormal(self):
        n = 2
        for ea in [(0, 0), (1, 0), (2, 1), (0, 3)]:
            for eb in [(0, 0), (1, 0), (2, 1), (0, 3)]:
                fa = ExactPoly.monomial(n, ea)
                fb = ExactPoly.monomial(n, eb)
                na = math.prod(map(math.factorial, ea))
                nb = math.prod(map(math.factorial, eb))
                got = bargmann_inner(fa, fb) * Fraction(1, na if ea == eb else 1)
                if ea == eb:
                    assert got == GaussianRational(1)
                else:
                    assert got.is_zero

    def test_trace_linear_form(self):
        # sum of the n diagonal entry variables has squared norm n
        for n in (1, 2, 3):
            tr = ExactPoly.zero(n * n)
            for i in range(n):
                tr = tr + ExactPoly.variable(n * n, i * n + i)
            assert bargmann_inner(tr, tr) == GaussianRational(n)

    def test_unit(self):
        assert bargmann_inner(ExactPoly.one(1), ExactPoly.one(1)) == GaussianRational(1)

    def test_conjugate_symmetry_and_positivity(self):
        rng = random.Random(7)
        for _ in range(15):
            f, g = random_poly(rng, 2), random_poly(rng, 2)
            assert bargmann_inner(f, g) == bargmann_inner(g, f).conjugate()
            nf = bargmann_inner(f, f)
            assert nf.im == 0 and nf.re >= 0
            if not f.is_zero:
                assert nf.re > 0

    def test_multiplication_adjoint_to_derivation(self):
        rng = random.Random(8)
        for _ in range(15):
            f, g = random_poly(rng, 2), random_poly(rng, 2)
            for v in range(2):
                lhs = bargmann_inner(ExactPoly.variable(2, v) * f, g)
                rhs = bargmann_inner(f, diff(g, v))
                assert lhs == rhs


class TestCoefficientsAndEval:
    def test_coefficient_extraction(self):
        p = z(2, 0) + z(2, 1) * 2
        assert p.coefficient((0, 1)) == GaussianRational(2)
        assert p.coefficient((5, 0)).is_zero

    def test_roundtrip_by_coefficients(self):
        rng = random.Random(9)
        f = random_poly(rng, 3)
        rebuilt = ExactPoly(3, dict(f.terms.items()))
        assert rebuilt == f
        for mi, c in f.terms.items():
            assert f.coefficient(mi) == c

    def test_eval_simple(self):
        p = ExactPoly.monomial(1, (2,))
        assert p.eval_complex([3.0]) == 9.0

    def test_eval_vandermonde_vanishes_on_repeats(self):
        d = (z(2, 1) - z(2, 0))
        assert d.eval_complex([1.7, 1.7]) == 0

    def test_eval_against_naive_sum(self):
        rng = random.Random(10)
        for _ in range(10):
            f = random_poly(rng, 3)
            pt = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
            naive = 0j
            for key, c in f.terms.items():
                term = c.to_complex()
                for v, e in enumerate(exponent_vector(key, 3)):
                    term *= pt[v] ** e
                naive += term
            assert abs(f.eval_complex(pt) - naive) < 1e-9 * max(1.0, abs(naive))

    def test_eval_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            z(2, 0).eval_complex([1.0])


class TestStructuralMaps:
    def test_permute_vars(self):
        p = ExactPoly.monomial(3, (2, 1, 0))
        q = p.permute_vars([1, 2, 0])
        # new exponent at j is old exponent at sigma[j]
        assert q == ExactPoly.monomial(3, (1, 0, 2))

    def test_substitute(self):
        p = ExactPoly.monomial(1, (2,))
        img = {0: z(2, 0) + z(2, 1)}
        got = p.substitute(img, 2)
        want = (z(2, 0) + z(2, 1)) ** 2
        assert got == want

    def test_map_vars_merges_and_kills(self):
        p = ExactPoly.monomial(3, (1, 1, 1))
        assert p.map_vars({0: 0, 1: 0, 2: None}, 1).is_zero
        q = ExactPoly.monomial(3, (1, 2, 0))
        assert q.map_vars({0: 0, 1: 0, 2: 0}, 1) == ExactPoly.monomial(1, (3,))


class TestSerialization:
    def test_graded_lex_order(self):
        p = (
            ExactPoly.monomial(2, (1, 1), Fraction(3, 2))
            + ExactPoly.monomial(2, (0, 1), QQI_I)
            + ExactPoly.one(2)
            + ExactPoly.monomial(2, (2, 0))
        )
        assert p.to_text() == "(1, 0) : v0^2 + (3/2, 0) : v0 v1 + (0, 1) : v1 + (1, 0) : 1"

    def test_zero(self):
        assert ExactPoly.zero(2).to_text() == "0"


class TestNonExactOperands:
    @pytest.mark.parametrize("other", [1.5, "x", None], ids=["float", "str", "None"])
    def test_arithmetic_raises_type_error(self, other):
        p = z(2, 0) + 1
        for op in (
            lambda: p + other,
            lambda: other + p,
            lambda: p - other,
            lambda: other - p,
            lambda: p * other,
            lambda: other * p,
        ):
            with pytest.raises(TypeError):
                op()

    def test_binary_operators_return_not_implemented(self):
        p = z(2, 0)
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
            assert getattr(p, name)(1.5) is NotImplemented


class TestGaussianRationalOnTheLeft:
    # GaussianRational's operators return NotImplemented for a polynomial, which
    # then takes the operation through its reflected method
    @pytest.mark.parametrize("p", [ExactPoly(2, {(1, 0): 3, (0, 0): Fraction(1, 2), (0, 2): QQI_I}),
                                   TracePoly.from_terms([({2: 1}, Fraction(1, 2)), ({}, -1)])],
                             ids=["ExactPoly", "TracePoly"])
    def test_each_operator_equals_the_mirrored_form(self, p):
        for c in (GaussianRational(1, 1), GaussianRational(2), GaussianRational(Fraction(-1, 2))):
            assert_same(c * p, p * c)
            assert_same(c + p, p + c)
            assert_same(c - p, -(p - c))
            assert type(c * p) is type(p)
        assert_same(GaussianRational(2) - p, 2 - p)


# the per-term GaussianRational loops the summing kernels replaced, kept as a
# reference: same terms, and the same key order, which eval_complex sums in; `+`,
# negation, scalar multiples and the constructor each ran one of their own


def ref_add(self, other):
    out = dict(self.terms)
    for key, c in other.terms.items():
        s = out.get(key)
        s = c if s is None else s + c
        if s.is_zero:
            out.pop(key, None)
        else:
            out[key] = s
    return self._like(out)


def ref_neg(self):
    return self._like({key: -c for key, c in self.terms.items()})


def ref_scale(self, c):
    c = GaussianRational.coerce(c)
    if c.is_zero:
        return self._like({})
    return self._like({key: a * c for key, a in self.terms.items()})


def ref_const(n_vars, c):
    c = GaussianRational.coerce(c)
    return ExactPoly._raw(n_vars, {} if c.is_zero else {0: c})


def ref_init(cls, n_vars, items):
    clean = {}
    for mono, c in items:
        key = _as_key(mono)
        c = GaussianRational.coerce(c)
        if not c.is_zero:
            prev = clean.get(key)
            c = c if prev is None else prev + c
            if c.is_zero:
                del clean[key]
            else:
                clean[key] = c
    return cls._raw(n_vars, clean)


def ref_mul(self, other):
    out = {}
    for m1, c1 in self.terms.items():
        for m2, c2 in other.terms.items():
            # no exponent of either key passes MAX_EXPONENT, so no field carries
            k = m1 + m2
            s = out.get(k)
            p = c1 * c2
            s = p if s is None else s + p
            if s.is_zero:
                out.pop(k, None)
            else:
                out[k] = s
    return ExactPoly._raw(self.n_vars, out)


def ref_apply_diff(self, g):
    guards = _guards(self.n_vars)
    out = {}
    g_terms = [(beta, gb, exponent_vector(beta, g.n_vars)) for beta, gb in g.terms.items()]
    for alpha, fa in self.terms.items():
        alpha_pairs = exponent_pairs(alpha)
        for beta, gb, beta_exps in g_terms:
            # every field of beta | guards stays at or above its guard bit
            # after the subtraction exactly when alpha <= beta there
            k = (beta | guards) - alpha
            if k & guards != guards:
                continue
            k ^= guards
            # the falling factorial prod_v b_v (b_v - 1) ... (b_v - a_v + 1)
            fall = 1
            for v, a in alpha_pairs:
                b = beta_exps[v]
                for j in range(a):
                    fall *= b - j
            s = out.get(k)
            p = fa * gb * fall
            s = p if s is None else s + p
            if s.is_zero:
                out.pop(k, None)
            else:
                out[k] = s
    return ExactPoly._raw(self.n_vars, out)


def ref_linear_combination(pairs, n_vars):
    out = {}
    for poly, c in pairs:
        for key, a in poly.terms.items():
            p = a * c
            s = out.get(key)
            s = p if s is None else s + p
            if s.is_zero:
                out.pop(key, None)
            else:
                out[key] = s
    return ExactPoly._raw(n_vars, out)


COEFFICIENT_KINDS = {
    "int": lambda rng: GaussianRational(rng.choice([-2, -1, 1, 1, 3])),
    "fraction": lambda rng: GaussianRational(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))),
    "imaginary": lambda rng: GaussianRational(0, Fraction(rng.choice([-2, -1, 1]), rng.randint(1, 2))),
    "complex": lambda rng: GaussianRational(
        Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
        Fraction(rng.choice([-2, -1, 1]), rng.randint(1, 3)),
    ),
}


def small_poly(rng, kind, n_vars=2, n_terms=6):
    """Few low exponents, so products collide, cancel and come back often."""
    pairs = [
        (tuple(rng.randint(0, 2) for _ in range(n_vars)), COEFFICIENT_KINDS[kind](rng))
        for _ in range(n_terms)
    ]
    return ExactPoly(n_vars, pairs)


def assert_same(got, want):
    """Same type, space and terms, in the same order, with components of the same types."""
    def components(p):
        return [(k, type(c), type(c.re), c.re, type(c.im), c.im) for k, c in p.terms.items()]

    assert type(got) is type(want)
    assert got.n_vars == want.n_vars
    assert components(got) == components(want)
    assert all(type(c) is GaussianRational for c in got.terms.values())


class TestSummingKernelsAgainstReference:
    KINDS = sorted(COEFFICIENT_KINDS)

    @pytest.mark.parametrize("kind_f", KINDS)
    @pytest.mark.parametrize("kind_g", KINDS)
    def test_random_operands(self, kind_f, kind_g):
        rng = random.Random(f"{kind_f}/{kind_g}")
        for _ in range(40):
            f, g = small_poly(rng, kind_f), small_poly(rng, kind_g)
            assert_same(f + g, ref_add(f, g))
            assert_same(f - g, ref_add(f, -g))
            assert_same(f * g, ref_mul(f, g))
            assert_same(f.apply_diff(g), ref_apply_diff(f, g))
            pairs = [(f, COEFFICIENT_KINDS[kind_g](rng)), (g, 0), (f, Fraction(-1, 3)),
                     (g, GaussianRational(0)), (g * f, 1), (f, Fraction(1, 3))]
            assert_same(linear_combination(pairs, 2), ref_linear_combination(pairs, 2))

    @pytest.mark.parametrize("images", [{0: 0, 1: None, 2: None, 3: 1},
                                        {0: 1, 1: 0, 2: 0, 3: None},
                                        {0: None, 1: None, 2: None, 3: 0}],
                             ids=["diagonal", "merge", "one-kept"])
    def test_apply_diff_mapped_is_the_map_of_apply_diff(self, images):
        rng = random.Random(str(images))
        n_out = max(w for w in images.values() if w is not None) + 1
        for kind_f, kind_g in itertools.product(self.KINDS, repeat=2):
            for _ in range(10):
                f = small_poly(rng, kind_f, n_vars=4, n_terms=8)
                g = small_poly(rng, kind_g, n_vars=4, n_terms=12)
                got = f.apply_diff_mapped(g, images, n_out)
                assert got == f.apply_diff(g).map_vars(images, n_out)
                assert all(type(c) is GaussianRational for c in got.terms.values())

    def test_exact_cancellation_to_zero(self):
        rng = random.Random(5)
        for kind in self.KINDS:
            f = small_poly(rng, kind)
            c = COEFFICIENT_KINDS[kind](rng)
            assert_same(f + (-f), ref_add(f, -f))
            assert (f - f).is_zero
            pairs = [(f, c), (f * c, -1)]
            assert linear_combination(pairs, 2).is_zero
            assert_same(linear_combination(pairs, 2), ref_linear_combination(pairs, 2))
            # d/dv1 of a polynomial in v0 alone
            d = ExactPoly.monomial(2, (0, 1))
            g = f.map_vars({0: 0, 1: 0}, 2)
            assert d.apply_diff(g).is_zero
        assert_same(ExactPoly.zero(2) * z(2, 0), ref_mul(ExactPoly.zero(2), z(2, 0)))

    def test_sum_of_disjoint_supports(self):
        rng = random.Random(11)
        for kind in self.KINDS:
            f = small_poly(rng, kind)
            g = small_poly(rng, kind, n_terms=3).map_vars({0: 0, 1: 1}, 2) * z(2, 0) ** 3
            assert f.terms.keys().isdisjoint(g.terms)
            assert_same(f + g, ref_add(f, g))
            assert_same(g - f, ref_add(g, -f))

    def test_substitute(self):
        rng = random.Random(13)
        for kind in self.KINDS:
            f = small_poly(rng, kind)
            images = {0: small_poly(rng, kind, n_terms=3), 1: small_poly(rng, "int", n_terms=2)}

            def ref_image(key):
                term = ExactPoly.one(2)
                for v, e in exponent_pairs(key):
                    for _ in range(e):
                        term = ref_mul(term, images[v])
                return term

            want = ref_linear_combination([(ref_image(k), c) for k, c in f.terms.items()], 2)
            assert_same(f.substitute(images, 2), want)

    def test_map_vars_checks_the_terms_that_survive(self):
        x, y = z(2, 0), z(2, 1)
        assert (x - y).map_vars({0: 2, 1: 2}, 2).is_zero
        with pytest.raises(DimensionMismatchError):
            (x + y).map_vars({0: 2, 1: 2}, 2)
        # one check, of the highest variable among the terms that survive
        with pytest.raises(DimensionMismatchError, match=r"^variable v3 out of range for n_vars=2$"):
            (x + y).map_vars({0: 2, 1: 3}, 2)
        with pytest.raises(DimensionMismatchError, match=r"^variable v3 out of range for n_vars=3$"):
            x.apply_diff_mapped(x * y, {0: 0, 1: 3}, 3)

    def test_zero_weights_only(self):
        f = z(2, 0) + z(2, 1)
        pairs = [(f, 0), (f, GaussianRational(0)), (f, Fraction(0))]
        assert_same(linear_combination(pairs, 2), ref_linear_combination(pairs, 2))
        assert linear_combination([], 2).is_zero

    def test_a_key_that_cancels_comes_back_last(self):
        x, y = z(2, 0), z(2, 1)
        pairs = [(x + y, 1), (x, -1), (x, Fraction(1, 2))]
        got = linear_combination(pairs, 2)
        assert_same(got, ref_linear_combination(pairs, 2))
        assert list(got.terms) == [next(iter(y.terms)), next(iter(x.terms))]
        assert list(got.terms.values()) == [GaussianRational(1), GaussianRational(Fraction(1, 2))]

    def test_integer_sums_come_out_as_ints(self):
        f = ExactPoly(2, {(1, 0): 2, (0, 1): 4})
        got = linear_combination([(f, Fraction(1, 2)), (f, Fraction(1, 6))], 2)
        assert [(type(c.re), c.re) for c in got.terms.values()] == [
            (Fraction, Fraction(4, 3)), (Fraction, Fraction(8, 3))
        ]
        got = linear_combination([(f, Fraction(1, 2))], 2)
        assert [(type(c.re), type(c.im)) for c in got.terms.values()] == [(int, int)] * 2


def scalars(rng, kind):
    """An int, a zero int, a Fraction, a GaussianRational of `kind` and a zero one."""
    return [rng.choice([-2, -1, 1, 3]), 0, Fraction(rng.choice([-3, 1, 2]), rng.randint(1, 4)),
            COEFFICIENT_KINDS[kind](rng), GaussianRational(0)]


def trace_poly(rng, kind, n_terms=5):
    """A TracePoly in t_1..t_3 of few low exponents, so its terms collide and cancel."""
    return TracePoly.from_terms([(Counter({rng.randint(1, 3): rng.randint(0, 2)}),
                                  COEFFICIENT_KINDS[kind](rng)) for _ in range(n_terms)])


class TestRingOperatorsAgainstReference:
    """`+`, `-`, negation, scalar multiples, `sum` and the constructor give the terms of
    the per-key loops above, in their order and with their component types."""

    KINDS = sorted(COEFFICIENT_KINDS)

    def check_ring(self, f, g, rng, kind):
        n = f.n_vars
        assert_same(f + g, ref_add(f, g))
        assert_same(f - g, ref_add(f, ref_neg(g)))
        assert_same(g - f, ref_add(g, ref_neg(f)))
        assert_same(-f, ref_neg(f))
        assert_same(f + (-f), ref_add(f, ref_neg(f)))
        for c in scalars(rng, kind):
            assert_same(f * c, ref_scale(f, c))
            assert_same(f + c, ref_add(f, ref_const(n, c)))
            assert_same(f - c, ref_add(f, ref_const(n, -c)))
            if not isinstance(c, GaussianRational):
                assert_same(c * f, ref_scale(f, c))
                assert_same(c + f, ref_add(f, ref_const(n, c)))
                assert_same(c - f, ref_add(ref_neg(f), ref_const(n, c)))
        # sum starts from 0, so it adds 0 to f first
        want = reduce(ref_add, [g, ref_scale(f, 2), ref_neg(g)], ref_add(f, ref_const(n, 0)))
        assert_same(sum([f, g, f * 2, -g]), want)

    @pytest.mark.parametrize("kind_f", KINDS)
    @pytest.mark.parametrize("kind_g", KINDS)
    def test_random_operands(self, kind_f, kind_g):
        rng = random.Random(f"ring/{kind_f}/{kind_g}")
        for _ in range(25):
            self.check_ring(small_poly(rng, kind_f), small_poly(rng, kind_g), rng, kind_g)

    @pytest.mark.parametrize("kind", KINDS)
    def test_trace_poly_operands(self, kind):
        rng = random.Random(f"trace/{kind}")
        for _ in range(25):
            self.check_ring(trace_poly(rng, kind), trace_poly(rng, "complex"), rng, kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_constructor_sums_repeated_and_cancelling_monomials(self, kind):
        rng = random.Random(f"init/{kind}")
        for _ in range(40):
            items = []
            for _ in range(rng.randint(0, 10)):
                mono = tuple(rng.randint(0, 1) for _ in range(3))
                c = COEFFICIENT_KINDS[kind](rng)
                items.append((mono, c))
                if rng.random() < 0.3:
                    items.append((mono, -c))
                if rng.random() < 0.2:
                    items.append((_as_key(mono), rng.choice([0, 1, Fraction(-1, 2), c])))
            assert_same(ExactPoly(3, items), ref_init(ExactPoly, 3, items))
            assert_same(ExactPoly(3, dict(items)), ref_init(ExactPoly, 3, dict(items).items()))
            assert_same(TracePoly(MAX_EXPONENT, items), ref_init(TracePoly, MAX_EXPONENT, items))

    def test_a_cancelled_monomial_comes_back_last(self):
        p = ExactPoly(2, [((1, 0), 1), ((0, 1), 2), ((1, 0), -1), ((1, 0), Fraction(1, 2))])
        assert list(p.terms.items()) == [(_as_key((0, 1)), GaussianRational(2)),
                                         (_as_key((1, 0)), GaussianRational(Fraction(1, 2)))]

    @pytest.mark.parametrize("kind", KINDS)
    def test_from_terms_sums_as_adding_one_term_at_a_time(self, kind):
        # random_trace_poly builds its polynomial with one from_terms
        rng = random.Random(f"from_terms/{kind}")
        for _ in range(40):
            terms = [(Counter({rng.randint(1, 3): rng.randint(0, 2)}), COEFFICIENT_KINDS[kind](rng))
                     for _ in range(rng.randint(0, 8))]
            want = reduce(ref_add, (TracePoly.from_terms([t]) for t in terms), TracePoly.zero())
            assert_same(TracePoly.from_terms(terms), want)


class TestNoScalarPerTermPair:
    def test_product_builds_one_scalar_per_output_term(self, monkeypatch):
        rng = random.Random(7)
        monomials = list(itertools.product(range(7), repeat=3))
        f, g = (
            ExactPoly(3, {exps: rng.randint(1, 9) for exps in rng.sample(monomials, 30)})
            for _ in range(2)
        )
        assert len(f.terms) == len(g.terms) == 30
        raw = GaussianRational._raw
        calls = []

        def counting(cls, re, im):
            calls.append(None)
            return raw(re, im)

        monkeypatch.setattr(GaussianRational, "_raw", classmethod(counting))
        h = f * g
        monkeypatch.undo()
        assert len(calls) <= len(h.terms) < len(f.terms) * len(g.terms)
        assert_same(h, ref_mul(f, g))


class TestBargmannGram:
    KINDS = sorted(COEFFICIENT_KINDS)

    def random_family(self, rng, n_vars):
        """Random polynomials of every coefficient kind, with repeats, zeros and disjoint supports."""
        polys = [small_poly(rng, kind, n_vars) for kind in self.KINDS]
        polys += [ExactPoly.zero(n_vars), polys[0], -polys[2]]
        # a shifted copy shares no monomial with any of the small polynomials
        polys.append(polys[3] * z(n_vars, 0) ** 5)
        rng.shuffle(polys)
        return polys

    @pytest.mark.parametrize("n_vars", [1, 2, 3])
    def test_every_entry_is_the_pairing(self, n_vars):
        rng = random.Random(f"gram/{n_vars}")
        for _ in range(8):
            polys = self.random_family(rng, n_vars)
            gram = bargmann_gram(iter(polys))
            pairs = list(itertools.product(range(len(polys)), repeat=2))
            assert list(gram) == pairs
            for i, j in pairs:
                want = bargmann_inner(polys[i], polys[j])
                assert gram[i, j] == want
                assert str(gram[i, j]) == str(want)
                assert type(gram[i, j].re) is type(want.re)
                assert type(gram[i, j].im) is type(want.im)

    def test_empty_and_single(self):
        assert bargmann_gram([]) == {}
        p = ExactPoly(2, {(1, 0): GaussianRational(1, 2)})
        assert bargmann_gram([p]) == {(0, 0): GaussianRational(5)}

    def test_mixed_variable_counts_raise(self):
        with pytest.raises(DimensionMismatchError):
            bargmann_gram([z(2, 0), z(2, 1), z(3, 0)])
        with pytest.raises(DimensionMismatchError):
            bargmann_gram([ExactPoly.zero(1), ExactPoly.zero(2)])

    def test_pairs_each_unordered_pair_once(self, monkeypatch):
        import hciz.exactpoly as exactpoly

        calls = []

        def counting(f, g):
            calls.append(None)
            return bargmann_inner(f, g)

        monkeypatch.setattr(exactpoly, "bargmann_inner", counting)
        bargmann_gram([z(3, v) for v in range(3)] * 2)
        assert len(calls) == 6 * 7 // 2


class TestDisjointPairing:
    def test_disjoint_supports_pair_to_a_canonical_zero(self):
        rng = random.Random(17)
        for kind in sorted(COEFFICIENT_KINDS):
            f = small_poly(rng, kind)
            g = small_poly(rng, kind, n_terms=3) * z(2, 1) ** 3
            assert f.terms.keys().isdisjoint(g.terms)
            for got in (bargmann_inner(f, g), bargmann_inner(g, f)):
                assert got == 0
                assert got == QQI_ZERO
                assert str(got) == "0"
                assert (type(got.re), type(got.im)) == (int, int)

    def test_zero_operands(self):
        for f in (ExactPoly.zero(2), z(2, 0)):
            assert str(bargmann_inner(ExactPoly.zero(2), f)) == "0"
            assert str(bargmann_inner(f, ExactPoly.zero(2))) == "0"

    def test_disjoint_supports_still_check_the_space(self):
        with pytest.raises(DimensionMismatchError):
            bargmann_inner(z(2, 0), z(3, 1))
        with pytest.raises(DimensionMismatchError):
            bargmann_inner(ExactPoly.zero(2), ExactPoly.zero(3))
