"""Conjugation-invariant polynomials on n x n matrices, and the maps between
the three exact pictures the verification suites compare:

    trace picture      TracePoly, an ExactPoly in generators t_k = Tr(z^k)
    entry picture      ExactPoly over the n^2 matrix entries (row-major)
    diagonal picture   symmetric / alternating ExactPoly in n eigenvalues

Each trace monomial is imaged once per picture (`_monomial_image`), and t_k's
entry image Tr(z^k) is walked once per n and kept (`trace_power_entry`).

The restriction map psi(F) = c * a_delta * F|_D carries the invariant
picture to the alternating one and e_lambda to d_lambda.  An alternating
polynomial is fixed by its coordinates, its coefficients at the strictly
decreasing exponents x^{lambda+delta}, and <a_alpha, a_beta> = n! alpha!
delta_{alpha beta} (Macdonald I.3), so the unitarity, Fourier and
differential-operator checks read psi's coordinates
(`alternant_coordinates`) and never form the n!-term product a_delta F|_D.
Coordinates fix a_delta g only for symmetric g, so that premise is
checked, and a check whose premise fails fails its case.  `psi_inverse`
and the reproducing check read an alternating polynomial's own
coordinates in the pass over its terms' orbits that checks it alternates
(`_schur_coefficients`); the inverse and the Fourier
reconstruction sum g_{lambda+delta} chi_lambda as one linear combination
(`_character_sum`).  All of it is checked here with rational arithmetic
only; the one float is the reproducing check's residual, an exact pairing
evaluated at a point.  The scales c, and those of d_lambda and e_lambda,
are square roots of positive rationals, held as their squares
(`Scaled.scale2`); a Gram entry needs only those squares, so no square
root is ever taken.

A caution on presentations: at fixed n the generators t_k with k > n are
algebraically dependent on the lower ones, so identities between trace
polynomials are compared after restriction to the diagonal (faithful on
invariants), never coefficientwise in the t_k.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .errors import DimensionMismatchError, NotAlternatingError
from .exactpoly import (
    _BITS, MAX_EXPONENT, ExactPoly, _pack, bargmann_gram, bargmann_inner, exponent_vector,
    linear_combination,
)
from .scalars import QQI_ZERO, GaussianRational
from .symfn import (
    Partition,
    Scaled,
    TracePoly,
    _orbits,
    _partition,
    _sort_sign,
    alternant_delta,
    d_lambda,
    norm_const_c2,
    partitions_of_weight,
    require_alternant_n,
    schur_to_power_sums,
    staircase,
    vector_factorial,
)


# n^k index paths times the more of a path's n^2 key fields and its k key additions: the
# slowest walks accepted take about 1.7 s at (k, n) = (10, 4) and 0.9 s at (12, 3) and
# (19, 2), and (20, 2) and (13, 3) are refused before a path is walked (ROADMAP item 15)
MAX_TRACE_ENTRIES = 20_000_000


def entry_var(i: int, j: int, n: int) -> int:
    """Row-major variable id of the entry z_{ij} (0-based indices)."""
    return i * n + j


@lru_cache(maxsize=None)
def trace_power_entry(k: int, n: int) -> ExactPoly:
    """Tr(z^k) as a polynomial in the n^2 entries: sum over cyclic index paths."""
    if not 1 <= k <= MAX_EXPONENT or n < 1:
        raise ValueError(f"need 1 <= k <= {MAX_EXPONENT} and n >= 1")
    if n**k * max(n * n, k) > MAX_TRACE_ENTRIES:
        each = f"n^2 = {n * n} entries" if k <= n * n else f"k = {k} key additions"
        raise ValueError(f"Tr(z^{k}) at n = {n} walks n^k = {n**k} index paths of {each} each, "
                         f"above {MAX_TRACE_ENTRIES}")
    # rows[i][j] is the key of z_{ij}, and a path's key the sum of its k entries' keys:
    # no exponent passes k <= MAX_EXPONENT, so no field carries into the next
    rows = [[_pack([(entry_var(i, j, n), 1)]) for j in range(n)] for i in range(n)]
    return ExactPoly(n * n, Counter(sum([rows[i][j] for i, j in zip(path, path[1:] + path[:1])])
                                    for path in itertools.product(range(n), repeat=k)))


@lru_cache(maxsize=512)
def _monomial_image(rho: tuple, n: int, diagonal: bool) -> ExactPoly:
    """p_rho = prod_i t_(rho_i) from its partition, t_k -> p_k on the diagonal, else Tr(z^k).

    A one-part rho is t_k's image itself, in the entries the cached Tr(z^k); a
    longer one is the cached image of rho without its largest part times that
    part's image, so the monomials of one weight share their prefixes.
    """
    if not rho:
        return ExactPoly.one(n if diagonal else n * n)
    image = (ExactPoly(n, {_pack([(i, rho[0])]): 1 for i in range(n)}) if diagonal
             else trace_power_entry(rho[0], n))
    return _monomial_image(rho[1:], n, diagonal) * image if rho[1:] else image


def _image(f: TracePoly, n: int, diagonal: bool) -> ExactPoly:
    """f in one picture: the linear combination of its monomials' cached images."""
    pairs = ((_monomial_image(_partition(key), n, diagonal), c) for key, c in f.terms.items())
    return linear_combination(pairs, n if diagonal else n * n)


def expand_to_entries(f: TracePoly, n: int) -> ExactPoly:
    """Substitute t_k -> Tr(z^k); ring homomorphism into the entry picture."""
    return _image(f, n, diagonal=False)


def restrict_to_diagonal(f: TracePoly, n: int) -> ExactPoly:
    """Substitute t_k -> x_1^k + ... + x_n^k; the diagonal picture F|_D, symmetric."""
    return _image(f, n, diagonal=True)


def _diagonal_images(n: int) -> dict:
    """{entry variable: x_i for z_{ii}, None off the diagonal}, for `map_vars`."""
    return {entry_var(i, j, n): (i if i == j else None) for i in range(n) for j in range(n)}


def entry_to_diagonal(e: ExactPoly, n: int) -> ExactPoly:
    """Set off-diagonal entries to zero and rename z_{ii} -> x_i."""
    return e.map_vars(_diagonal_images(n), n)


def psi_map(f, n: int) -> Scaled:
    """psi(F) = c * a_delta * F|_D, kept as c^2 and a polynomial; alternating by construction.

    Accepts a TracePoly or a Scaled one, whose scale multiplies c.
    """
    f = Scaled.of(f)
    image = alternant_delta(n) * restrict_to_diagonal(f.poly, n)
    return Scaled(f.scale2 * norm_const_c2(n), image)


# -- the canonical bases -------------------------------------------------------------


def chi_lambda(lam: Partition) -> TracePoly:
    """The character polynomial: s_lambda with power sums read as traces."""
    return schur_to_power_sums(lam)


def e_lambda(lam: Partition, n: int) -> Scaled:
    """e_lambda = sqrt(delta! / (lambda+delta)!) * chi_lambda at dimension n."""
    ratio = Fraction(
        vector_factorial(staircase(n)), vector_factorial(lam.plus_staircase(n))
    )
    return Scaled(ratio, chi_lambda(lam))


def _schur_coefficients(h: ExactPoly, n: int, max_weight: int | None = None):
    """{lambda: coefficient of x^{lambda+delta} in h} for |lambda| <= max_weight, zeros
    omitted, by weight and then lexicographically descending; None if h is not alternating.

    An alternating h is sum_lambda h_{lambda+delta} a_{lambda+delta}, and
    x^{lambda+delta} is the one term of a_{lambda+delta} with strictly
    decreasing exponents, so these are its coordinates in the alternants, one
    per orbit of h's terms.
    """
    orbits = _orbits(h, alternating=True)
    if orbits is None:
        return None
    out = {}
    for mu in sorted(orbits, key=lambda mu: (-sum(mu), mu), reverse=True):
        lam = Partition(m - (n - 1 - i) for i, m in enumerate(mu))
        if max_weight is None or lam.weight <= max_weight:
            out[lam] = orbits[mu]
    return out


@lru_cache(maxsize=4096)
def _staircase_shifts(caps: tuple) -> tuple:
    """(key of sigma(delta), sgn sigma) for each rearrangement sigma(delta) of delta,
    n = len(caps), whose row i is at most caps[i].

    Rows are filled from the last up, so a branch that would pass a cap is never
    grown.  The sign is the parity against delta itself, not against 0..n-1:
    the pairs i < j whose values increase.
    """
    states = [(0, 0, 1)]  # (the values used, as bits; the key so far; the sign)
    for i in range(len(caps) - 1, -1, -1):
        # the rows below i hold `used`; those above d are the new increasing pairs
        states = [(used | 1 << d, key + (d << _BITS * i),
                   -sign if (used >> d).bit_count() & 1 else sign)
                  for used, key, sign in states for d in range(caps[i] + 1) if not used >> d & 1]
    return tuple((key, sign) for _, key, sign in states)


def alternant_coordinates(g: ExactPoly, n: int, max_weight: int | None = None):
    """{lambda: [x^{lambda+delta}](a_delta g)} for a symmetric g in n variables, zeros
    omitted, |lambda| <= max_weight; None if g is not symmetric.

    These fix a_delta g = sum_lambda g_lambda a_{lambda+delta}.  Each is the sum
    sum_sigma sgn sigma g[lambda+delta - sigma(delta)] over only the sigma that
    keep every exponent nonnegative (`_staircase_shifts`), and only for the
    weights |lambda| of g's terms.
    """
    require_alternant_n(n)
    if g.n_vars != n:
        raise DimensionMismatchError(f"polynomial over {g.n_vars} variables, expected {n}")
    orbits = _orbits(g)
    if orbits is None:
        return None
    terms = g.terms
    out = {}
    for w in sorted({sum(e) for e in orbits}):
        if max_weight is not None and w > max_weight:
            break
        for lam in partitions_of_weight(w, n):
            mu = lam.plus_staircase(n)
            key = _pack(enumerate(mu))
            re = im = 0
            for shift, sign in _staircase_shifts(tuple(min(m, n - 1) for m in mu)):
                c = terms.get(key - shift)
                if c is not None:
                    re, im = (re + c.re, im + c.im) if sign > 0 else (re - c.re, im - c.im)
            if re or im:
                out[lam] = GaussianRational._raw(re, im)
    return out


def _character_sum(coeffs: dict) -> TracePoly:
    """sum_lambda coeffs[lambda] * chi_lambda, one linear combination of the chi_lambda."""
    pairs = ((chi_lambda(lam), c) for lam, c in coeffs.items())
    return TracePoly._raw(MAX_EXPONENT, linear_combination(pairs, MAX_EXPONENT).terms)


def psi_inverse(g, n: int) -> Scaled:
    """Inverse of psi: sum_lambda g_{lambda+delta} a_{lambda+delta} lifts to
    sum_lambda g_{lambda+delta} chi_lambda, the scale divided by c^2.

    psi sends chi_lambda to c * a_{lambda+delta}, so this sends d_lambda to
    e_lambda exactly.  Accepts a plain ExactPoly or a Scaled one over n
    variables, which must be alternating.  The output is written in the
    chi_lambda and may use t_k with k > n: compare it in the diagonal picture.
    """
    g = Scaled.of(g)
    if g.poly.n_vars != n:
        raise DimensionMismatchError(f"polynomial over {g.poly.n_vars} variables, expected {n}")
    coeffs = _schur_coefficients(g.poly, n)
    if coeffs is None:
        raise NotAlternatingError("psi_inverse needs an alternating input")
    lift = _character_sum(coeffs)
    return Scaled(g.scale2 / norm_const_c2(n), lift)


def entry_gram(fs, n: int) -> dict:
    """{(i, j): <F_i, F_j>} in the entry picture for trace polynomials, row-major.

    Monomials are imaged once and paired within their weight only (Tr(z^k) has
    degree k), one `bargmann_gram` per weight; <F_i, F_j> = sum_ab conj(f_ia) G_ab
    f_jb follows in Gaussian integers, each F_i scaled by its common denominator.
    """
    fs = list(fs)
    blocks, slot = {}, {}  # weight -> [rho]; monomial key -> (weight, position)
    for key in dict.fromkeys(key for f in fs for key in f.terms):
        rho = _partition(key)
        block = blocks.setdefault(sum(rho), [])
        slot[key] = sum(rho), len(block)
        block.append(rho)
    grams = {w: bargmann_gram(_monomial_image(rho, n, False) for rho in block)
             for w, block in blocks.items()}
    rows = []  # D, D F and G D F, by weight
    for f in fs:
        d = math.lcm(*(x.denominator for c in f.terms.values() for x in (c.re, c.im)))
        row = {}  # weight -> [(position, re, im)]
        for key, c in f.terms.items():
            w, a = slot[key]
            row.setdefault(w, []).append((a, int(c.re * d), int(c.im * d)))
        rows.append((d, row, {w: [(sum(grams[w][a, b].re * x for b, x, _ in vs),
                                   sum(grams[w][a, b].re * y for b, _, y in vs))
                                  for a in range(len(blocks[w]))] for w, vs in row.items()}))
    out = {}
    for (i, (di, lhs, _)), (j, (dj, _, gv)) in itertools.product(enumerate(rows), repeat=2):
        re = im = 0
        for w in lhs.keys() & gv.keys():
            for a, x, y in lhs[w]:
                p, q = gv[w][a]
                re += x * p + y * q
                im += x * q - y * p
        d = di * dj
        out[i, j] = GaussianRational(Fraction(re, d), Fraction(im, d)) if re or im else QQI_ZERO
    return out


def invariant_inner(f: TracePoly, g: TracePoly, n: int) -> GaussianRational:
    """Gaussian inner product of invariants, in the entry picture (`entry_gram`)."""
    return entry_gram([f, g], n)[0, 1]


# -- identity verifiers ---------------------------------------------------------------


def _gram(size: int, lhs, rhs) -> dict:
    """{(i, j): (lhs == rhs, lhs, rhs)} over every ordered pair, row-major."""
    out = {}
    for i, j in itertools.product(range(size), repeat=2):
        left, right = lhs(i, j), rhs(i, j)
        out[i, j] = (left == right, left, right)
    return out


def verify_unitarity(fs, n: int) -> dict:
    """The Gram identity <F_i, F_j> == <psi F_i, psi F_j> on a basis, each F imaged once.

    An alternating polynomial's terms come in orbits of n! under permutations
    of the variables, each orbit with one coefficient up to sign and one a!,
    so <psi F_i, psi F_j> is c^2 n! times the pairing of their terms at the
    strictly decreasing exponents x^{lambda+delta}, psi's coordinates.  The
    left Gram matrix comes from `entry_gram`, the right from `bargmann_gram`.
    Returns {(i, j): (equal, lhs, rhs)} for every ordered pair, row-major; rhs
    is None, and the pair fails, where an F|_D is not symmetric.
    """
    # the coordinates first: they check n against the alternant limit
    coords = [alternant_coordinates(restrict_to_diagonal(f, n), n) for f in fs]
    leading = [ExactPoly._raw(n, {_pack(enumerate(lam.plus_staircase(n))): c
                                  for lam, c in (cs or {}).items()}) for cs in coords]
    scale = norm_const_c2(n) * math.factorial(n)
    lhs, rhs = entry_gram(fs, n), bargmann_gram(leading)
    return _gram(len(fs), lambda i, j: lhs[i, j], lambda i, j: (
        None if coords[i] is None or coords[j] is None else rhs[i, j] * scale))


def _diff_coordinates(terms: list, coords: dict, n: int) -> dict:
    """The coordinates of g(d)A from g's terms [(exponents, coeff)] and those of A.

    [x^mu] g(d)A = sum_alpha g_alpha (mu+alpha)!/mu! A_{mu+alpha}, and A_beta is
    0 when beta repeats an exponent, else the sign of sorting beta times the
    coordinate at sorted(beta) - delta.  |lambda| = |nu| - |alpha| for a
    coordinate nu of A and a term alpha of g.
    """
    weights = {sum(nu) - sum(alpha) for nu in coords for alpha, _ in terms}
    out = {}
    for w in sorted(x for x in weights if x >= 0):
        for lam in partitions_of_weight(w, n):
            mu = lam.plus_staircase(n)
            mu_fact = vector_factorial(mu)
            acc = QQI_ZERO
            for alpha, c in terms:
                beta = [m + a for m, a in zip(mu, alpha)]
                sign = _sort_sign(beta)
                if not sign:
                    continue
                order = sorted(beta, reverse=True)
                # sorted(beta) - delta without its zero parts: a tuple keys a Partition
                a = coords.get(tuple(p for i, b in enumerate(order) if (p := b - (n - 1 - i))))
                if a is not None:
                    acc = acc + c * a * (sign * (vector_factorial(beta) // mu_fact))
            if not acc.is_zero:
                out[lam] = acc
    return out


def verify_diffop_identity(fs, n: int) -> dict:
    """a_delta * (F_i(d)F_j)|_D  against  F_i|_D(d) (a_delta * F_j|_D) on a basis.

    Both sides are alternating when F_i|_D, F_j|_D and (F_i(d)F_j)|_D are
    symmetric, so their coordinates are compared, which is equality for every
    x at once.  (F_i(d)F_j)|_D pairs only the entry terms that agree off the
    diagonal (`ExactPoly.apply_diff_mapped`), and the right side reads
    a_delta F_j|_D from its coordinates (`_diff_coordinates`).  Returns
    {(i, j): (equal, lhs, rhs)} of coordinate dicts for every ordered pair,
    row-major; a side whose restriction is not symmetric is None and fails.
    """
    # the coordinates first, as in verify_unitarity
    diagonals = [restrict_to_diagonal(f, n) for f in fs]
    coords = [alternant_coordinates(g, n) for g in diagonals]
    entries = [expand_to_entries(f, n) for f in fs]
    terms = [[(exponent_vector(key, n), c) for key, c in g.terms.items()] for g in diagonals]
    images = _diagonal_images(n)

    def lhs(i, j):
        return alternant_coordinates(entries[i].apply_diff_mapped(entries[j], images, n), n)

    def rhs(i, j):
        if coords[i] is None or coords[j] is None:
            return None
        return _diff_coordinates(terms[i], coords[j], n)

    return _gram(len(fs), lhs, rhs)


def fourier_coefficients(f: TracePoly, n: int, max_weight: int | None = None) -> dict:
    """Schur-basis coefficients: f_lambda = coefficient of z^{lambda+delta} in a_delta F|_D.

    Returns {Partition: GaussianRational}, zero coefficients omitted, from
    `alternant_coordinates`.  By default they run to F|_D's degree, which is
    at most wdeg(F).
    """
    if max_weight is not None and max_weight < 0:
        raise ValueError("max_weight must be nonnegative")
    coeffs = alternant_coordinates(restrict_to_diagonal(f, n), n, max_weight)
    if coeffs is None:
        raise NotAlternatingError("a_delta F|_D is not alternating: F|_D is not symmetric")
    return coeffs


def verify_fourier_reconstruction(f: TracePoly, n: int, max_weight: int | None = None):
    """Check sum_lambda f_lambda chi_lambda == F in the diagonal picture.

    Returns (equal, coeffs).  The comparison happens after restriction to n
    variables because trace presentations of the same invariant can differ
    through the relations among t_k for k > n.
    """
    try:
        coeffs = fourier_coefficients(f, n, max_weight)
    except NotAlternatingError:
        return False, {}
    same = restrict_to_diagonal(_character_sum(coeffs), n) == restrict_to_diagonal(f, n)
    return same, coeffs


def verify_psi_roundtrip(f: TracePoly, n: int):
    """psi_inverse(psi_map(F)) == F, compared in the diagonal picture.

    Returns (equal, psi_inverse(psi_map(F))).  The lift is written in the
    chi_lambda, a presentation that can differ from F's through the
    relations among t_k for k > n, so only the restrictions are compared.
    """
    back = psi_inverse(psi_map(f, n), n)
    same = back.map_poly(lambda p: restrict_to_diagonal(p, n)) == restrict_to_diagonal(f, n)
    return same, back


def coherent_reproducing_check(a, f: ExactPoly, max_weight: int) -> float:
    """|<R_a truncated, F> - F(a)| for alternating F; exact pairing, numeric value.

    The kernel section R_a = sum_lambda d_lambda conj(d_lambda(a)) reproduces
    point evaluation; once max_weight reaches deg F the truncation error is
    exactly zero, so the residual is pure floating rounding.
    """
    a = tuple(complex(e) for e in a)
    if not a:
        raise ValueError("empty spectrum")
    if not all(cmath.isfinite(e) for e in a):
        raise ValueError("non-finite eigenvalue")
    n = len(a)
    if f.n_vars != n:
        raise DimensionMismatchError(f"polynomial over {f.n_vars} variables, expected {n}")
    coeffs = _schur_coefficients(f, n, max_weight)
    if coeffs is None:
        raise NotAlternatingError("the reproducing check needs an alternating polynomial")
    acc = 0j
    # <d_lambda, F> is zero unless F has the term x^{lambda+delta}
    for lam in coeffs:
        d = d_lambda(lam, n)
        acc += complex(d.scale2) * d.poly.eval_complex(a) * bargmann_inner(d.poly, f).to_complex()
    return abs(acc - f.eval_complex(a))
