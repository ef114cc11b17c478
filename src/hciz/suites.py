"""Named verification suites: each runs a family of checks and reports
per-case results.

Exact suites (orthonormality, unitarity, the differential-operator
identity, Schur-coefficient reconstruction) decide equality in rational
arithmetic and their pass/fail is unconditional; statistical suites
(Ginibre moments, Haar moments) pass when estimates land within four
standard errors of the exact values.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .invariant import (
    TracePoly,
    e_lambda,
    expand_to_entries,
    verify_diffop_identity,
    verify_fourier_reconstruction,
    verify_unitarity,
)
from .exactpoly import ExactPoly, bargmann_inner
from .numeric import (
    _haar_batch,
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


def _kron(l1: Partition, l2: Partition) -> GaussianRational:
    return GaussianRational(1 if l1 == l2 else 0)


def suite_alt_orthonormal(n: int, max_weight: int = 6) -> SuiteReport:
    """<d_lambda, d_mu> = delta_{lambda mu}, exactly, on the alternating side."""
    lams = enumerate_partitions(max_weight, n)
    ds = [(lam, d_lambda(lam, n)) for lam in lams]
    cases = []
    for l1, d1 in ds:
        for l2, d2 in ds:
            got = scaled_bargmann(d1, d2)
            ok = got == _kron(l1, l2)
            cases.append(
                SuiteCase(
                    label=f"<d[{l1}], d[{l2}]>",
                    passed=ok,
                    detail=f"value {got}",
                )
            )
    return _report("alt-orthonormal", {"n": n, "max_weight": max_weight}, cases)


def suite_inv_orthonormal(n: int, max_weight: int = 4) -> SuiteReport:
    """<e_lambda, e_mu> = delta_{lambda mu}, exactly, via entry expansion."""
    lams = enumerate_partitions(max_weight, n)
    basis = []
    for lam in lams:
        el = e_lambda(lam, n)
        basis.append((lam, el.scale, expand_to_entries(el.poly, n)))
    cases = []
    for l1, s1, p1 in basis:
        for l2, s2, p2 in basis:
            got = s1.conjugate() * s2 * bargmann_inner(p1, p2)
            ok = got == _kron(l1, l2)
            cases.append(
                SuiteCase(
                    label=f"<e[{l1}], e[{l2}]>",
                    passed=ok,
                    detail=f"value {got}",
                )
            )
    return _report("inv-orthonormal", {"n": n, "max_weight": max_weight}, cases)


def trace_monomials(max_degree: int, max_gen: int | None = None) -> list:
    """Monomials in the t_k of weighted degree <= max_degree, via partitions."""
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
    """<F, G> == c^2 <a_delta F|_D, a_delta G|_D> on all trace monomial pairs."""
    monos = trace_monomials(max_degree)
    cases = []
    for r1, f in monos:
        for r2, g in monos:
            ok, lhs, rhs = verify_unitarity(f, g, n)
            cases.append(
                SuiteCase(
                    label=f"t[{r1}] vs t[{r2}]",
                    passed=ok,
                    detail=f"lhs {lhs}, rhs {rhs}",
                )
            )
    return _report("unitarity", {"n": n, "max_degree": max_degree}, cases)


def suite_diffop(n: int, max_degree: int = 4, max_gen: int = 3) -> SuiteReport:
    """The alternant-conjugation identity for derivative operators, exactly."""
    monos = trace_monomials(max_degree, max_gen)
    cases = []
    for r1, f in monos:
        for r2, g in monos:
            ok, lhs, rhs = verify_diffop_identity(f, g, n)
            detail = "" if ok else f"lhs {lhs.to_text()} != rhs {rhs.to_text()}"
            cases.append(SuiteCase(label=f"t[{r1}] on t[{r2}]", passed=ok, detail=detail))
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


def suite_ginibre(n: int, n_samples: int = 100000, seed: int = 0, threads: int = 1) -> SuiteReport:
    """E|Tr z|^2 = n and E|det z|^2 = n! within four standard errors."""
    rep = ginibre_moment_suite(n, n_samples, seed, threads)
    cases = [
        SuiteCase(
            label="E|Tr z|^2",
            passed=rep.trace_ok,
            detail=(
                f"estimate {rep.trace_estimate.mean.real:.6f} "
                f"+/- {rep.trace_estimate.stderr:.6f}, expected {rep.trace_expected}"
            ),
        ),
        SuiteCase(
            label="E|det z|^2",
            passed=rep.det_ok,
            detail=(
                f"estimate {rep.det_estimate.mean.real:.6f} "
                f"+/- {rep.det_estimate.stderr:.6f}, expected {rep.det_expected}"
            ),
        ),
    ]
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
    rng = np.random.Generator(np.random.Philox(seed))
    second = np.zeros((n, n))
    max_resid = 0.0
    eye = np.eye(n)
    todo = n_samples
    while todo:
        cnt = min(todo, 32768)
        u = _haar_batch(cnt, n, rng)
        second += (np.abs(u) ** 2).sum(axis=0)
        resid = np.abs(np.einsum("bki,bkj->bij", u.conj(), u) - eye).max()
        max_resid = max(max_resid, float(resid))
        todo -= cnt
    second /= n_samples
    # |u_ij|^2 has mean 1/n and second moment 2/(n(n+1)) under Haar measure
    var = 2.0 / (n * (n + 1)) - 1.0 / n**2
    se = math.sqrt(var / n_samples)
    cases = [
        SuiteCase(
            label="unitarity residual",
            passed=max_resid < 1e-12,
            detail=f"max over samples {max_resid:.3e}",
        )
    ]
    for i in range(n):
        for j in range(n):
            dev = abs(second[i, j] - 1.0 / n)
            cases.append(
                SuiteCase(
                    label=f"E|u_{i + 1}{j + 1}|^2",
                    passed=bool(dev <= 4 * se),
                    detail=f"estimate {second[i, j]:.6f}, expected {1 / n:.6f}, 4se {4 * se:.2e}",
                )
            )
    return _report("haar", {"n": n, "n_samples": n_samples, "seed": seed}, cases)
