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
from collections import Counter, namedtuple
from typing import TYPE_CHECKING

# Each suite imports the layer it runs in its own body, so that the
# statistical suites load neither the exact layer nor fractions
if TYPE_CHECKING:
    from .exactpoly import ExactPoly
    from .invariant import TracePoly

REPRODUCING_TOL = 1e-10  # reproducing residuals are pure rounding, about 1e-15

# named tuples, not dataclasses: `dataclasses` and the `inspect` it imports
# would add about 9 ms to the start of every exact `verify` command
SuiteCase = namedtuple("SuiteCase", ["label", "passed", "detail"], defaults=[""])


class SuiteReport(namedtuple("SuiteReport", ["suite", "params", "cases"])):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def n_failed(self) -> int:
        return sum(not c.passed for c in self.cases)


def _require_positive_n(n: int) -> None:
    if n < 1:
        raise ValueError("n must be positive")


def _report(suite: str, params: dict, cases) -> SuiteReport:
    return SuiteReport(suite=suite, params=dict(params), cases=tuple(cases))


def _pair_cases(keys, label: str, results: dict, detail) -> list:
    """One SuiteCase per ordered pair (i, j) of keys, from {(i, j): (passed, lhs, rhs)};
    each key's text is formed once, not once per pair it labels."""
    texts = [str(k) for k in keys]
    return [
        SuiteCase(label.format(texts[i], texts[j]), res[0], detail(*res))
        for (i, j), res in results.items()
    ]


def _orthonormal(suite: str, letter: str, n: int, max_weight: int, basis, gram) -> SuiteReport:
    """<b_lambda, b_mu> = delta_{lambda mu} exactly, b_lambda = basis(lambda), from the
    scales and the Gram matrix `gram` gives of the polynomials.

    b_lambda = sqrt(q_lambda) P_lambda, and the test is q_lambda <P_lambda, P_mu>
    == delta_{lambda mu}: with S = diag(sqrt(q)), q > 0, and g the Gram matrix
    of the P, S g S = I exactly when S^2 g = I entry by entry, so the verdicts
    are those of the scaled pairing and no square root is ever formed.  The
    Gram matrix pairs each unordered pair once, and only its nonzero entries
    are scaled by q_lambda.
    """
    from .scalars import QQI_ONE, QQI_ZERO
    from .symfn import enumerate_partitions

    _require_positive_n(n)
    lams = enumerate_partitions(max_weight, n)
    elements = [basis(lam) for lam in lams]
    g = gram([b.poly for b in elements])
    texts = [str(lam) for lam in lams]
    label = f"<{letter}[{{}}], {letter}[{{}}]>"
    cases = []
    for (i, j), got in g.items():
        got = got * elements[i].scale2 if got else got
        cases.append(SuiteCase(label.format(texts[i], texts[j]),
                               got == (QQI_ONE if i == j else QQI_ZERO), f"value {got}"))
    return _report(suite, {"n": n, "max_weight": max_weight}, cases)


def suite_alt_orthonormal(n: int, max_weight: int = 6) -> SuiteReport:
    """<d_lambda, d_mu> = delta_{lambda mu}, exactly, on the alternating side."""
    from .exactpoly import bargmann_gram
    from .symfn import d_lambda

    return _orthonormal("alt-orthonormal", "d", n, max_weight, lambda lam: d_lambda(lam, n),
                        bargmann_gram)


def suite_inv_orthonormal(n: int, max_weight: int = 4) -> SuiteReport:
    """<e_lambda, e_mu> = delta_{lambda mu}, exactly, in the entry picture: the Gram
    matrix of the chi_lambda from that of their trace monomials (`entry_gram`)."""
    from .invariant import e_lambda, entry_gram

    return _orthonormal("inv-orthonormal", "e", n, max_weight, lambda lam: e_lambda(lam, n),
                        lambda fs: entry_gram(fs, n))


def trace_monomials(max_degree: int, max_gen: int | None = None) -> list:
    """(rho, p_rho) for the trace monomials of weighted degree <= max_degree, parts <= max_gen."""
    from .invariant import TracePoly
    from .symfn import partitions_of_weight

    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    return [(rho, TracePoly.from_terms([(Counter(rho), 1)]))
            for w in range(max_degree + 1) for rho in partitions_of_weight(w, w)
            if max_gen is None or rho.part(0) <= max_gen]


def suite_unitarity(n: int, max_degree: int = 4) -> SuiteReport:
    """<F, G> == <psi F, psi G> on all trace monomial pairs, each monomial imaged once."""
    from .invariant import verify_unitarity

    _require_positive_n(n)
    monos = trace_monomials(max_degree)
    results = verify_unitarity([f for _, f in monos], n)
    cases = _pair_cases(
        [rho for rho, _ in monos], "t[{}] vs t[{}]", results,
        lambda ok, lhs, rhs: f"lhs {lhs}, rhs {rhs}",
    )
    return _report("unitarity", {"n": n, "max_degree": max_degree}, cases)


def _coordinates_text(coords) -> str:
    """Alternant coordinates {lambda: c} as `(re, im) a[lambda] + ...`, a[lambda] standing
    for a_{lambda+delta}; None, a side whose restriction is not symmetric, as such."""
    if coords is None:
        return "undefined (a restriction is not symmetric)"
    return " + ".join(f"{c.pair_str()} a[{lam}]" for lam, c in coords.items()) or "0"


def suite_diffop(n: int, max_degree: int = 4, max_gen: int = 3) -> SuiteReport:
    """The alternant-conjugation identity for derivative operators, exactly."""
    from .invariant import verify_diffop_identity

    _require_positive_n(n)
    monos = trace_monomials(max_degree, max_gen)
    results = verify_diffop_identity([f for _, f in monos], n)
    cases = _pair_cases(
        [rho for rho, _ in monos], "t[{}] on t[{}]", results,
        lambda ok, lhs, rhs: "" if ok else
        f"lhs {_coordinates_text(lhs)} != rhs {_coordinates_text(rhs)}",
    )
    return _report("diffop", {"n": n, "max_degree": max_degree, "max_gen": max_gen}, cases)


def random_trace_poly(rng: random.Random, max_weight: int = 5, n_terms: int = 4) -> TracePoly:
    """Sparse random trace polynomial of weighted degree <= max_weight, complex coefficients."""
    from fractions import Fraction

    from .invariant import TracePoly
    from .scalars import GaussianRational
    from .symfn import partitions_of_weight

    terms = []
    for _ in range(n_terms):
        w = rng.randint(0, max_weight)
        rho = rng.choice(list(partitions_of_weight(w, w))) if w else ()
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        im = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        terms.append((Counter(rho), GaussianRational(re, im)))
    return TracePoly.from_terms(terms)


def suite_fourier(n: int, count: int = 10, max_weight: int = 5, seed: int = 0) -> SuiteReport:
    """Reconstruction F == sum_lambda f_lambda chi_lambda on random trace polynomials."""
    from .invariant import verify_fourier_reconstruction

    _require_positive_n(n)
    if count < 1:
        raise ValueError("count must be positive")
    if max_weight < 0:
        raise ValueError("max_weight must be nonnegative")
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
    from .numeric import ginibre_moment_suite

    rep = ginibre_moment_suite(n, n_samples, seed, threads)
    cases = _moment_cases([
        ("E|Tr z|^2", rep.trace_estimate, rep.trace_expected),
        ("E|det z|^2", rep.det_estimate, rep.det_expected),
    ])
    params = {"n": n, "n_samples": n_samples, "seed": seed, "threads": threads}
    return _report("ginibre", params, cases)


def random_alternating_poly(rng: random.Random, n: int, max_weight: int) -> ExactPoly:
    """Random rational combination of alternants a_{lambda+delta}, |lambda| <= max_weight."""
    from fractions import Fraction

    from .exactpoly import linear_combination
    from .scalars import GaussianRational
    from .symfn import alternant, enumerate_partitions

    pairs = []
    for lam in enumerate_partitions(max_weight, n):
        if rng.random() < 0.4:
            c = GaussianRational(
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            )
            pairs.append((alternant(lam.plus_staircase(n), n), c))
    return linear_combination(pairs, n)


def suite_reproducing(n: int, count: int = 10, max_weight: int = 8, seed: int = 0) -> SuiteReport:
    """Truncated kernel sections reproduce point evaluation of alternating polynomials."""
    from .invariant import coherent_reproducing_check

    _require_positive_n(n)
    if count < 1:
        raise ValueError("count must be positive")
    # an alternating polynomial has degree at least that of the Vandermonde
    min_weight = n * (n - 1) // 2
    if max_weight < min_weight:
        raise ValueError(f"max_weight must be at least n(n-1)/2 = {min_weight}, got {max_weight}")
    rng = random.Random(seed)
    cases = []
    done = 0
    while done < count:
        f = random_alternating_poly(rng, n, max_weight - min_weight)
        if f.is_zero:
            continue
        a = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        resid = coherent_reproducing_check(a, f, max_weight)
        cases.append(
            SuiteCase(
                label=f"random alternating #{done}",
                passed=resid < REPRODUCING_TOL,
                detail=f"residual {resid:.3e}",
            )
        )
        done += 1
    return _report(
        "reproducing",
        {"n": n, "count": count, "max_weight": max_weight, "seed": seed, "tol": REPRODUCING_TOL},
        cases,
    )


def suite_haar(n: int = 3, n_samples: int = 100000, seed: int = 0) -> SuiteReport:
    """Haar sampler statistics: E|u_ij|^2 = 1/n entrywise, unitarity to 1e-12."""
    import numpy as np

    from .numeric import _haar_batch, _matrix_batch, _mc_mean

    _require_positive_n(n)
    resids = []

    def second_moments(rng, count):
        # the draw's own (column, row, matrix) layout; every temporary below
        # is one row of u^H u, or |u|^2 itself
        q = _haar_batch(count, n, rng).T
        resid = 0.0
        for i in range(n):
            row = np.einsum("kb,jkb->jb", q[i].conj(), q)  # row i of u^H u
            row[i] -= 1.0
            resid = max(resid, float(np.abs(row).max()))
        resids.append(resid)
        # |u_ij|^2 = re^2 + im^2, squared in place and summed straight into
        # (row, column, matrix) order, with no transposed copy
        parts = np.square(q.view(float), out=q.view(float)).reshape(n, n, count, 2)
        swap = (1, 0, 2)
        moments = np.add(parts[..., 0].transpose(swap), parts[..., 1].transpose(swap),
                         out=np.empty((n, n, count)))
        return moments.reshape(n * n, count)

    # one worker, SFC64 seeded by the first child of SeedSequence(seed)
    ests = _mc_mean(second_moments, n_samples, seed, 1, batch=_matrix_batch(n))
    # the residual is a safety check on every draw, so its max, not a mean
    cases = [SuiteCase("unitarity residual", max(resids) < 1e-12,
                       f"max over samples {max(resids):.3e}")]
    labels = [f"E|u_{i + 1},{j + 1}|^2" for i in range(n) for j in range(n)]
    cases += _moment_cases(zip(labels, ests, [1.0 / n] * (n * n)))
    return _report("haar", {"n": n, "n_samples": n_samples, "seed": seed}, cases)
