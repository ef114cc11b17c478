"""Named verification suites: each runs a family of checks and reports
per-case results.

Exact suites (orthonormality, unitarity, the differential-operator
identity, Schur-coefficient reconstruction) decide equality in rational
arithmetic and their pass/fail is unconditional; statistical suites
(Ginibre moments, Haar moments) pass when estimates land within four
standard errors, plus a rounding bound, of the exact values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .invariant import (
    TracePoly,
    _gram,
    e_lambda,
    expand_to_entries,
    verify_diffop_identity,
    verify_fourier_reconstruction,
    verify_unitarity,
)
from .exactpoly import ExactPoly
from .numeric import (
    _haar_batch,
    _mc_mean,
    coherent_reproducing_check,
    ginibre_moment_suite,
)
from .scalars import GaussianRational
from .symfn import (
    Partition,
    alternant,
    d_lambda,
    enumerate_partitions,
    partitions_of_weight,
    scaled_bargmann,
)


@dataclass(frozen=True)
class SuiteCase:
    label: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    params: dict
    cases: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def n_failed(self) -> int:
        return sum(not c.passed for c in self.cases)


def _report(suite: str, params: dict, cases) -> SuiteReport:
    return SuiteReport(suite=suite, params=dict(params), cases=tuple(cases))


def _pair_cases(keys, label: str, results: dict, detail) -> list:
    """One SuiteCase per ordered pair (i, j) of keys, from {(i, j): (passed, lhs, rhs)}."""
    return [
        SuiteCase(label.format(keys[i], keys[j]), res[0], detail(*res))
        for (i, j), res in results.items()
    ]


def _orthonormal(suite: str, letter: str, n: int, max_weight: int, image) -> SuiteReport:
    """<b_lambda, b_mu> = delta_{lambda mu} exactly, each b_lambda = image(lambda) built once."""
    lams = enumerate_partitions(max_weight, n)
    images = [image(lam) for lam in lams]
    results = _gram(
        len(lams),
        lambda i, j: scaled_bargmann(images[i], images[j]),
        lambda i, j: GaussianRational(int(i == j)),
    )
    label = f"<{letter}[{{}}], {letter}[{{}}]>"
    cases = _pair_cases(lams, label, results, lambda ok, got, want: f"value {got}")
    return _report(suite, {"n": n, "max_weight": max_weight}, cases)


def suite_alt_orthonormal(n: int, max_weight: int = 6) -> SuiteReport:
    """<d_lambda, d_mu> = delta_{lambda mu}, exactly, on the alternating side."""
    return _orthonormal("alt-orthonormal", "d", n, max_weight, lambda lam: d_lambda(lam, n))


def suite_inv_orthonormal(n: int, max_weight: int = 4) -> SuiteReport:
    """<e_lambda, e_mu> = delta_{lambda mu}, exactly, via entry expansion."""
    return _orthonormal(
        "inv-orthonormal", "e", n, max_weight,
        lambda lam: e_lambda(lam, n).map_poly(lambda p: expand_to_entries(p, n)),
    )


def trace_monomials(max_degree: int, max_gen: int | None = None) -> list:
    """Monomials in the t_k of weighted degree <= max_degree, via partitions."""
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    out = []
    for w in range(max_degree + 1):
        cap = max_gen if max_gen is not None else w
        for rho in partitions_of_weight(w, w) if w else [Partition()]:
            if rho.parts and rho.parts[0] > cap:
                continue
            mono = TracePoly.one()
            for part in rho.parts:
                mono = mono * TracePoly.gen(part)
            out.append((rho, mono))
    return out


def suite_unitarity(n: int, max_degree: int = 4) -> SuiteReport:
    """<F, G> == <psi F, psi G> on all trace monomial pairs, each monomial imaged once."""
    monos = trace_monomials(max_degree)
    results = verify_unitarity([f for _, f in monos], n)
    cases = _pair_cases(
        [rho for rho, _ in monos], "t[{}] vs t[{}]", results,
        lambda ok, lhs, rhs: f"lhs {lhs}, rhs {rhs}",
    )
    return _report("unitarity", {"n": n, "max_degree": max_degree}, cases)


def suite_diffop(n: int, max_degree: int = 4, max_gen: int = 3) -> SuiteReport:
    """The alternant-conjugation identity for derivative operators, exactly."""
    monos = trace_monomials(max_degree, max_gen)
    results = verify_diffop_identity([f for _, f in monos], n)
    cases = _pair_cases(
        [rho for rho, _ in monos], "t[{}] on t[{}]", results,
        lambda ok, lhs, rhs: "" if ok else f"lhs {lhs.to_text()} != rhs {rhs.to_text()}",
    )
    return _report("diffop", {"n": n, "max_degree": max_degree, "max_gen": max_gen}, cases)


def random_trace_poly(
    rng: random.Random,
    max_weight: int = 5,
    n_terms: int = 4,
    complex_coeffs: bool = True,
) -> TracePoly:
    """Sparse random trace polynomial of weighted degree <= max_weight."""
    out = TracePoly.zero()
    for _ in range(n_terms):
        w = rng.randint(0, max_weight)
        if w == 0:
            mono = TracePoly.one()
        else:
            rho = rng.choice(list(partitions_of_weight(w, w)))
            mono = TracePoly.one()
            for part in rho.parts:
                mono = mono * TracePoly.gen(part)
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        im = Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if complex_coeffs else 0
        out = out + mono * GaussianRational(re, im)
    return out


def suite_fourier(n: int, count: int = 10, max_weight: int = 5, seed: int = 0) -> SuiteReport:
    """Reconstruction F == sum_lambda f_lambda chi_lambda on random trace polynomials."""
    if count < 1:
        raise ValueError("count must be positive")
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        f = random_trace_poly(rng, max_weight=max_weight)
        ok, coeffs = verify_fourier_reconstruction(f, n, max_weight)
        cases.append(
            SuiteCase(
                label=f"random poly #{k}",
                passed=ok,
                detail=f"{len(coeffs)} nonzero coefficients",
            )
        )
    return _report(
        "fourier", {"n": n, "count": count, "max_weight": max_weight, "seed": seed}, cases
    )


def _moment_cases(moments) -> list:
    """One SuiteCase per (label, MCEstimate, expected value), decided by `within`."""
    return [
        SuiteCase(label, est.within(want),
                  f"estimate {est.mean.real:.6f} +/- {est.stderr:.6f}, expected {want}")
        for label, est, want in moments
    ]


def suite_ginibre(n: int, n_samples: int = 100000, seed: int = 0, threads: int = 1) -> SuiteReport:
    """E|Tr z|^2 = n and E|det z|^2 = n! within four standard errors plus rounding."""
    rep = ginibre_moment_suite(n, n_samples, seed, threads)
    cases = _moment_cases([
        ("E|Tr z|^2", rep.trace_estimate, rep.trace_expected),
        ("E|det z|^2", rep.det_estimate, rep.det_expected),
    ])
    return _report("ginibre", {"n": n, "n_samples": n_samples, "seed": seed}, cases)


def random_alternating_poly(rng: random.Random, n: int, max_weight: int) -> ExactPoly:
    """Random rational combination of alternants a_{lambda+delta}, |lambda| <= max_weight."""
    lams = enumerate_partitions(max_weight, n)
    out = ExactPoly.zero(n)
    for lam in lams:
        if rng.random() < 0.4:
            c = GaussianRational(
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            )
            if not c.is_zero:
                out = out + alternant(lam.plus_staircase(n), n) * c
    return out


def suite_reproducing(
    n: int, count: int = 10, max_weight: int = 8, seed: int = 0, tol: float = 1e-10
) -> SuiteReport:
    """Truncated kernel sections reproduce point evaluation of alternating polynomials."""
    if count < 1:
        raise ValueError("count must be positive")
    rng = random.Random(seed)
    cases = []
    done = 0
    while done < count:
        f = random_alternating_poly(rng, n, max_weight - n * (n - 1) // 2)
        if f.is_zero:
            continue
        a = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        resid = coherent_reproducing_check(a, f, max_weight)
        cases.append(
            SuiteCase(
                label=f"random alternating #{done}",
                passed=resid < tol,
                detail=f"residual {resid:.3e}",
            )
        )
        done += 1
    return _report(
        "reproducing",
        {"n": n, "count": count, "max_weight": max_weight, "seed": seed, "tol": tol},
        cases,
    )


def suite_haar(n: int = 3, n_samples: int = 100000, seed: int = 0) -> SuiteReport:
    """Haar sampler statistics: E|u_ij|^2 = 1/n entrywise, unitarity to 1e-12."""
    if n < 1:
        raise ValueError("n must be positive")
    resids = []

    def second_moments(rng, count):
        u = _haar_batch(count, n, rng)
        resids.append(float(np.abs(np.einsum("bki,bkj->bij", u.conj(), u) - np.eye(n)).max()))
        return (np.abs(u) ** 2).reshape(count, n * n).T

    # one worker, whose substream Philox(seed).jumped(0) is Philox(seed) itself
    ests = _mc_mean(second_moments, n_samples, seed, 1)
    # the residual is a safety check on every draw, so its max, not a mean
    cases = [SuiteCase("unitarity residual", max(resids) < 1e-12,
                       f"max over samples {max(resids):.3e}")]
    labels = [f"E|u_{i + 1}{j + 1}|^2" for i in range(n) for j in range(n)]
    cases += _moment_cases(zip(labels, ests, [1.0 / n] * (n * n)))
    return _report("haar", {"n": n, "n_samples": n_samples, "seed": seed}, cases)
