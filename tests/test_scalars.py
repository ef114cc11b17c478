import random
from fractions import Fraction

import pytest

from hciz.scalars import GaussianRational, QQI_I, QQI_ONE, QQI_ZERO


def rand_gr(rng):
    return GaussianRational(
        Fraction(rng.randint(-20, 20), rng.randint(1, 7)),
        Fraction(rng.randint(-20, 20), rng.randint(1, 7)),
    )


class TestGaussianRational:
    def test_basic_arithmetic(self):
        a = GaussianRational(Fraction(1, 2), Fraction(3, 4))
        b = GaussianRational(2, -1)
        assert a + b == GaussianRational(Fraction(5, 2), Fraction(-1, 4))
        assert a - a == QQI_ZERO
        assert QQI_I * QQI_I == GaussianRational(-1)

    def test_multiplication_against_complex(self):
        rng = random.Random(5)
        for _ in range(50):
            a, b = rand_gr(rng), rand_gr(rng)
            got = (a * b).to_complex()
            want = a.to_complex() * b.to_complex()
            assert abs(got - want) < 1e-9

    def test_division_roundtrip(self):
        rng = random.Random(6)
        for _ in range(50):
            a, b = rand_gr(rng), rand_gr(rng)
            if b.is_zero:
                continue
            assert (a / b) * b == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QQI_ONE / QQI_ZERO

    def test_conjugation(self):
        a = GaussianRational(1, 2)
        assert a.conjugate() == GaussianRational(1, -2)
        assert a.conjugate().conjugate() == a
        assert (a * a.conjugate()).im == 0
        assert a.norm2() == Fraction(5)

    def test_coercion_and_equality(self):
        assert GaussianRational(3) == 3
        assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
        assert GaussianRational(0, 1) != 1

    @pytest.mark.parametrize("other", ["x", 1.5, None], ids=["str", "float", "None"])
    def test_non_exact_operands_raise_type_error(self, other):
        a = GaussianRational(1)
        for op in (lambda: a + other, lambda: other + a, lambda: a - other,
                   lambda: a * other, lambda: other * a):
            with pytest.raises(TypeError):
                op()
        for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__"):
            assert getattr(a, name)(other) is NotImplemented

    def test_real_values_hash_like_fractions(self):
        assert hash(GaussianRational(Fraction(3, 2))) == hash(GaussianRational(Fraction(3, 2), 0))
        d = {GaussianRational(2): "x"}
        assert d[GaussianRational(2, 0)] == "x"

    def test_immutability(self):
        a = GaussianRational(1)
        with pytest.raises(AttributeError):
            a.re = Fraction(2)

    def test_str_forms(self):
        assert str(GaussianRational(Fraction(3, 2))) == "3/2"
        assert str(GaussianRational(0, 1)) == "i"
        assert str(GaussianRational(1, Fraction(-1, 2))) == "1-1/2i"
        assert GaussianRational(Fraction(3, 2), 0).pair_str() == "(3/2, 0)"


def assert_canonical(x):
    """An int exactly when the value is integral, else a Fraction."""
    assert type(x) in (int, Fraction)
    assert (type(x) is int) == (x.denominator == 1)


def canonical_pair(z):
    assert_canonical(z.re)
    assert_canonical(z.im)
    return z.re, z.im


class TestCanonicalComponents:
    def reference(self, op, a, b):
        """The operation on plain Fraction pairs."""
        ar, ai, br, bi = (Fraction(v) for v in (a.re, a.im, b.re, b.im))
        if op == "+":
            return ar + br, ai + bi
        if op == "-":
            return ar - br, ai - bi
        if op == "*":
            return ar * br - ai * bi, ar * bi + ai * br
        n2 = br * br + bi * bi
        return (ar * br + ai * bi) / n2, (ai * br - ar * bi) / n2

    def test_arithmetic_against_fraction_reference(self):
        rng = random.Random(12)

        def operand():
            # small denominators, so integral and fractional results both occur
            return GaussianRational(
                Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))),
                Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))),
            )

        kinds = set()
        for _ in range(300):
            a, b = operand(), operand()
            canonical_pair(a)
            for op, fn in (("+", a.__add__), ("-", a.__sub__), ("*", a.__mul__),
                           ("/", a.__truediv__)):
                if op == "/" and b.is_zero:
                    continue
                got = canonical_pair(fn(b))
                assert got == self.reference(op, a, b)
                kinds.update(type(v) for v in got)
            assert canonical_pair(-a) == (-Fraction(a.re), -Fraction(a.im))
            assert canonical_pair(a.conjugate()) == (a.re, -Fraction(a.im))
            assert_canonical(a.norm2())
            assert a.norm2() == Fraction(a.re) ** 2 + Fraction(a.im) ** 2
        assert kinds == {int, Fraction}

    def test_coerce_and_construction(self):
        for x in (Fraction(4, 2), Fraction(-6, 3), 3, True, Fraction(1, 3)):
            canonical_pair(GaussianRational.coerce(x))
            canonical_pair(GaussianRational(x, x))
        assert type(GaussianRational(Fraction(4, 2)).re) is int

    def test_division_builds_fractions(self):
        q = GaussianRational(1) / 3
        assert q == GaussianRational(Fraction(1, 3))
        assert type(q.re) is Fraction and type(q.im) is int
        assert canonical_pair(GaussianRational(6) / 3) == (2, 0)
        assert canonical_pair(3 / GaussianRational(0, 2)) == (0, Fraction(-3, 2))

    def test_integral_values_hash_like_ints(self):
        assert hash(GaussianRational(Fraction(4, 2))) == hash(2)
        assert hash(GaussianRational(Fraction(4, 2), 1)) == hash(GaussianRational(2, 1))
