import importlib
from fractions import Fraction

import pytest

import hciz
from hciz import numeric
from hciz.invariant import TracePoly as InvariantTracePoly
from hciz.symfn import Partition, TracePoly


def test_every_public_name_imports():
    for name in hciz.__all__:
        obj = getattr(hciz, name)
        assert obj is not None, name
        if name != "__version__":
            # the object its defining module holds, however it is resolved
            assert obj is getattr(importlib.import_module(obj.__module__), name), name


def test_one_trace_polynomial_class():
    assert InvariantTracePoly is TracePoly
    assert hciz.TracePoly is TracePoly


def test_character_polynomial_is_the_power_sum_expansion():
    lam = Partition((2,))
    assert hciz.chi_lambda(lam) == hciz.schur_to_power_sums(lam)
    p1, p2 = TracePoly.gen(1), TracePoly.gen(2)
    assert hciz.chi_lambda(lam) == (p1 * p1 + p2) * Fraction(1, 2)


def test_star_import_dir_and_unknown_names():
    namespace = {}
    exec("from hciz import *", namespace)
    assert set(hciz.__all__) <= set(namespace)
    assert dir(hciz) == sorted(hciz.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        hciz.no_such_name


@pytest.mark.parametrize("name", ["RadicalScalar", "norm_const_c"])
def test_radical_scale_names_are_gone(name):
    # scales are kept as their rational squares: Scaled.scale2, norm_const_c2
    with pytest.raises(AttributeError, match=name):
        getattr(hciz, name)
    assert "norm_const_c2" in hciz.__all__


def test_patch_of_a_module_attribute_is_seen_and_undone(monkeypatch):
    # what perfbench's Tracer does: wrap numeric.kernel_series, then restore it
    orig = numeric.kernel_series

    def wrapped(*args, **kwargs):
        return orig(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(numeric, "kernel_series", wrapped)
        assert hciz.kernel_series is wrapped
    assert hciz.kernel_series is orig
