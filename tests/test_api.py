from fractions import Fraction

import hciz
from hciz.invariant import TracePoly as InvariantTracePoly
from hciz.symfn import Partition, TracePoly


def test_every_public_name_imports():
    for name in hciz.__all__:
        assert getattr(hciz, name) is not None, name


def test_one_trace_polynomial_class():
    assert InvariantTracePoly is TracePoly
    assert hciz.TracePoly is TracePoly


def test_character_polynomial_is_the_power_sum_expansion():
    lam = Partition((2,))
    assert hciz.chi_lambda(lam) == hciz.schur_to_power_sums(lam)
    p1, p2 = TracePoly.gen(1), TracePoly.gen(2)
    assert hciz.chi_lambda(lam) == (p1 * p1 + p2) * Fraction(1, 2)
