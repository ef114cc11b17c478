import dataclasses
import importlib
from fractions import Fraction

import pytest

import hciz
from hciz import numeric
from hciz.exactpoly import ExactPoly
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
    # one class for generator polynomials: a trace polynomial is an ExactPoly
    assert issubclass(TracePoly, ExactPoly)


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


@pytest.mark.parametrize("name", ["RadicalScalar", "norm_const_c", "NotInImageError"])
def test_radical_scale_names_are_gone(name):
    # scales are kept as their rational squares: Scaled.scale2, norm_const_c2;
    # psi_inverse reads Schur coefficients and divides nothing, so it has no
    # "not in the image" case
    with pytest.raises(AttributeError, match=name):
        getattr(hciz, name)
    assert "norm_const_c2" in hciz.__all__


@pytest.mark.parametrize("name", ["ExactDivisionError", "vandermonde", "alternating_projection"])
def test_division_names_are_gone(name):
    # schur_exact sums over horizontal strips and divides nothing; the
    # staircase alternant is the one product of differences
    from hciz import errors, symfn

    with pytest.raises(AttributeError, match=name):
        getattr(hciz, name)
    assert name not in hciz.__all__
    assert not hasattr(errors, name) and not hasattr(symfn, name)


@pytest.mark.parametrize("module, name", [("symfn", "_perm_sign"), ("symfn", "_transposition"),
                                          ("invariant", "_is_symmetric"),
                                          ("numeric", "homogeneous_prefixes"),
                                          ("invariant", "power_sum")])
def test_permutation_names_are_gone(module, name):
    # symmetry and alternation are one orbit walk (symfn._orbits), and a sort's
    # sign has one helper (symfn._sort_sign); likewise the h recurrence runs
    # in numeric._prefix_table alone, whose minors schur_numeric reads, and
    # p_k is built only as a diagonal image in invariant._monomial_image
    import importlib

    assert not hasattr(importlib.import_module(f"hciz.{module}"), name)
    assert not hasattr(hciz, name)


def test_patch_of_a_module_attribute_is_seen_and_undone(monkeypatch):
    # what perfbench's Tracer does: wrap numeric.kernel_series, then restore it
    orig = numeric.kernel_series

    def wrapped(*args, **kwargs):
        return orig(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(numeric, "kernel_series", wrapped)
        assert hciz.kernel_series is wrapped
    assert hciz.kernel_series is orig


def test_what_perfbench_reads_exists():
    # perfbench/ wraps these methods and reads these result fields; it is not
    # edited alongside the package, so a rename here would show up there only
    # as failed operations, not as an error
    from hciz import exactpoly, scalars, suites

    for cls, meth in [(exactpoly.ExactPoly, "__mul__"), (exactpoly.ExactPoly, "apply_diff"),
                      (exactpoly.ExactPoly, "substitute"),
                      (scalars.GaussianRational, "__mul__"),
                      (scalars.GaussianRational, "__add__")]:
        assert meth in cls.__dict__, (cls.__name__, meth)
    est = hciz.hciz_mc((0.0, 0.5), (0.1, 0.3), 4, 0, threads=1)
    for field in ("mean", "stderr", "n_samples"):
        assert hasattr(est, field), field
    # series-sweep passes these keywords; its series-truncation rule reads these fields
    res = hciz.kernel_series((0.0, 0.5), (0.1, 0.3), max_weight=2, tol=1e-8)
    for field in ("value", "max_weight_used", "last_shell_magnitude"):
        assert hasattr(res, field), field
    # its tests scale a result's value, as a wrong evaluator would return it
    scaled = dataclasses.replace(res, value=res.value * 1.01)
    assert type(scaled) is type(res) and scaled.value == res.value * 1.01
    assert scaled.max_weight_used == res.max_weight_used
    rep = hciz.ginibre_moment_suite(2, 4, 0, threads=1)
    for field in ("trace_estimate", "trace_expected", "det_estimate", "det_expected"):
        assert hasattr(rep, field), field
    report = suites.suite_alt_orthonormal(1, 1)
    for field in ("suite", "cases", "n_failed"):
        assert hasattr(report, field), field
    assert report.cases
    for field in ("label", "passed"):
        assert hasattr(report.cases[0], field), field
