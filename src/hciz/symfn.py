"""Partitions, alternants, Schur polynomials and their normalizations.

Exact throughout: everything returns ExactPoly values, exact scalars or
partitions, and nothing here imports numpy.  Schur values at float points
(`schur_numeric`, and the h recurrence behind it) belong to the float
layer, `numeric`.  A normalization constant is the square root of a
positive rational; `Scaled` carries it as that rational, its square, next
to the polynomial it scales, and is only compared or mapped, never
multiplied or evaluated, so no root is formed.

Conventions.  The staircase is delta = (n-1, n-2, ..., 0), and
alternant(delta, n) = det[x_i^{delta_j}] = prod_{i<j} (x_i - x_j).  A
`Partition` is the tuple of its parts, so it and the plain tuple are one
cache key.  A `TracePoly` is an ExactPoly over MAX_EXPONENT variables,
variable k-1 standing for t_k; its constructors and text form take and
show generator indices.  The trace monomial p_rho = prod_i t_{rho_i} is
built from its partition's multiplicities,
`TracePoly.from_terms([(Counter(rho), c)])`, and its key is read back as
rho by `_partition`.
"""

from __future__ import annotations

import itertools
import math
import struct
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .errors import DegenerateExponentError, DimensionMismatchError
from .exactpoly import MAX_EXPONENT, ExactPoly, _n_fields, _pack, exponent_pairs, exponent_vector
from .scalars import GaussianRational

# the largest n for a sum over an alternant's n! terms.  Built whole (`alternant`,
# `d_lambda`, `invariant.psi_map`), n = 9 takes seconds and about 160 MB, and each
# step up multiplies both by n.  psi's coordinates sum over only the terms that
# keep every exponent nonnegative (`invariant.alternant_coordinates`): the CLI's
# default unitarity, diffop and fourier took 0.10-0.14, 0.6-0.9 and 0.14-0.24 s at
# n = 9, and the limit holds for them until it is re-derived from such measurements
MAX_ALTERNANT_N = 9

# the most exponents `schur_exact` may build, n for each of the at most
# C(n+|lambda|-1, |lambda|) monomials: lambda = (3,2,1), n = 18 (1.8 million)
# takes about 0.7 s, and (1,1), n = 300 (13.5 million, 45,150 monomials) 1.5 s
MAX_SCHUR_EXPONENTS = 2_000_000

# the most classes rho that `schur_to_power_sums` may visit: at |lambda| = 32,
# p(32) = 8349 classes, lambda = (6,6,6,6,6,2) takes about 1.5 s and (32) 0.5 s,
# and at 33, p(33) = 10,143, (6,6,6,5,5,5) takes 2 s
MAX_POWER_SUM_CLASSES = 10_000

_SIGNS = GaussianRational(1), GaussianRational(-1)  # the two objects `_signs` shares


class Partition(tuple):
    """Weakly decreasing tuple of positive parts; trailing zeros dropped.

    A tuple of its parts, so it compares and hashes as that plain tuple.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(parts)
        ints = tuple(map(int, parts))
        for prev, p in zip(ints[:1] + ints, ints):
            if p < 0:
                raise ValueError("negative part")
            if p > prev:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        return super().__new__(cls, filter(None, ints))

    parts = property(tuple, doc="The parts as a plain tuple.")

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse `2,1`; the empty partition is written `0`."""
        text = text.strip()
        if text in ("0", ""):
            return cls()
        return cls(int(p) for p in text.split(","))

    def to_text(self) -> str:
        return ",".join(map(str, self)) or "0"

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    def part(self, i: int) -> int:
        return self[i] if i < len(self) else 0

    def plus_staircase(self, n: int) -> tuple:
        """lambda + delta padded to length n; strictly decreasing."""
        if len(self) > n:
            raise DimensionMismatchError(f"partition has {len(self)} parts, more than n={n}")
        return tuple(self.part(i) + (n - 1 - i) for i in range(n))

    def __repr__(self):
        return f"Partition({tuple(self)!r})"

    def __str__(self):
        return self.to_text()


def staircase(n: int) -> tuple:
    """delta = (n-1, n-2, ..., 0)."""
    if n < 1:
        raise ValueError("n must be positive")
    return tuple(range(n - 1, -1, -1))


def vector_factorial(v) -> int:
    """v! = prod_i v_i! for a vector of nonnegative integers."""
    out = 1
    for p in v:
        out *= math.factorial(p)
    return out


def superfactorial(n: int) -> int:
    """prod_{p=1}^{n} p!"""
    out = 1
    for p in range(1, n + 1):
        out *= math.factorial(p)
    return out


def partitions_of_weight(weight: int, max_parts: int):
    """Partitions of exactly `weight` into at most `max_parts` parts, lex-descending."""

    def rec(remaining, cap, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    # rec builds weakly decreasing positive parts: nothing for Partition() to check
    for parts in rec(weight, weight, max_parts):
        yield tuple.__new__(Partition, parts)


def enumerate_partitions(max_weight: int, max_parts: int) -> list:
    """All partitions with weight <= max_weight and <= max_parts parts.

    Order: by weight, then lexicographically descending; deterministic and
    stable under truncation of the weight bound.
    """
    if max_weight < 0 or max_parts < 1:
        raise ValueError("need max_weight >= 0 and max_parts >= 1")
    out = []
    for w in range(max_weight + 1):
        out.extend(partitions_of_weight(w, max_parts))
    return out


def _sort_sign(exps) -> int:
    """The sign of the permutation that sorts `exps` into decreasing order, the parity
    of the pairs i < j with exps[i] < exps[j]; 0 if an exponent repeats."""
    if len(set(exps)) < len(exps):
        return 0
    flips = sum(x < y for i, x in enumerate(exps) for y in exps[i + 1:])
    return -1 if flips & 1 else 1


def require_alternant_n(n: int) -> None:
    """ValueError for n above MAX_ALTERNANT_N, the limit on sums over an alternant's terms."""
    if n > MAX_ALTERNANT_N:
        raise ValueError(
            f"n = {n} is above {MAX_ALTERNANT_N}: an alternant in n variables has n! terms")


@lru_cache(maxsize=None)
def _signs(n: int) -> tuple:
    """sgn p, p over itertools.permutations(range(n)): a_delta's coefficients, in the
    two objects of _SIGNS (at n = 9, 362,880 references, 2.9 MB).  Expanding along the
    first row, the block of the p with p(0) = i is _signs(n - 1) times (-1)^i."""
    if n < 2:
        return _SIGNS[:len(staircase(n))]  # staircase rejects n < 1
    rest = _signs(n - 1)
    flipped = tuple(_SIGNS[c is _SIGNS[0]] for c in rest)  # +1 and -1 swapped
    return (rest + flipped) * (n // 2) + rest * (n & 1)  # n blocks: rest, flipped, rest, ...


def alternant(mu, n: int) -> ExactPoly:
    """a_mu = det[x_i^{mu_j}] = sum_sigma sgn(sigma) prod_i x_i^{mu_{sigma(i)}}."""
    mu = tuple(int(m) for m in mu)
    if len(mu) != n:
        raise DimensionMismatchError(f"exponent vector of length {len(mu)}, expected {n}")
    require_alternant_n(n)
    if any(m < 0 for m in mu):
        raise ValueError("negative exponent in alternant")
    if len(set(mu)) < n:
        raise DegenerateExponentError(f"repeated exponents in {mu}: alternant vanishes")
    _pack(enumerate(mu))  # the MAX_EXPONENT check
    # term p, x^{mu o p}, has a_delta's coefficient sgn p
    pack = struct.Struct(f"<{n}H").pack
    return ExactPoly._raw(n, {int.from_bytes(pack(*e), "little"): c
                              for e, c in zip(itertools.permutations(mu), _signs(n))})


@lru_cache(maxsize=None)
def alternant_delta(n: int) -> ExactPoly:
    return alternant(staircase(n), n)


def _orbits(f: ExactPoly, alternating: bool = False):
    """{e: f's coefficient at x^e} for the decreasing e, one per orbit of f's terms
    under permutations of the variables; None unless f is symmetric, or alternating.

    One pass groups the terms by their sorted exponents.  Each group must be a whole
    orbit, n! / prod_e m_e! terms for m_e exponents equal to e, with one coefficient,
    taken times the sort sign if alternating, when no exponent may repeat.
    """
    if isinstance(f, TracePoly):
        raise TypeError(_NO_WHOLE_SPACE.format("a permutation of the variables"))
    n = f.n_vars
    orbits: dict = {}
    for key, c in f.terms.items():
        exps = exponent_vector(key, n)
        if alternating:
            sign = _sort_sign(exps)
            if not sign:
                return None
            c = c if sign > 0 else -c
        seen = orbits.setdefault(tuple(sorted(exps, reverse=True)), [c, 0])
        if seen[0] != c:
            return None
        seen[1] += 1
    n_fact = math.factorial(n)
    if any(count != n_fact // math.prod(map(math.factorial, Counter(exps).values()))
           for exps, (_, count) in orbits.items()):
        return None
    return {exps: c for exps, (c, _) in orbits.items()}


def is_alternating(f: ExactPoly) -> bool:
    return _orbits(f, alternating=True) is not None


def schur_exact(lam: Partition, n: int) -> ExactPoly:
    """s_lambda in n variables, which is the bialternant a_{lambda+delta} / a_delta.

    By the branching rule (Macdonald I.5.11), s_lambda(x_1..x_m) is the sum of
    s_mu(x_1..x_{m-1}) x_m^{|lambda|-|mu|} over the horizontal strips lambda/mu,
    lambda_1 >= mu_1 >= lambda_2 >= ... >= mu_{m-1} >= lambda_m.  The
    coefficients count tableaux, so they are summed as ints.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if lam.length > n:
        raise DimensionMismatchError(f"partition {lam} needs more than {n} variables")
    w = lam.weight
    bound = math.comb(n + w - 1, w)
    if bound * n > MAX_SCHUR_EXPONENTS:
        raise ValueError(f"s[{lam}] in n = {n} variables may have C({n + w - 1}, {w}) = {bound} "
                         f"monomials of n exponents each, above {MAX_SCHUR_EXPONENTS} exponents")
    if not w:
        return ExactPoly.one(n)
    # before the step for x_m, m = n-1 down to 0: {a partition in x_0..x_m, so of
    # at most m + 1 parts: {the exponents of x_{m+1}.. as (variable, exponent) pairs: count}}
    states = {lam: {(): 1}}
    for m in range(n - 1, -1, -1):
        below = {}
        for parts, suffixes in states.items():
            slots = [range(q, p + 1) for p, q in zip(parts, parts[1:] + (0,))][:m]
            for mu in itertools.product(*slots):
                e = sum(parts) - sum(mu)
                out = below.setdefault(tuple(p for p in mu if p), {})
                for suffix, c in suffixes.items():
                    key = ((m, e),) + suffix if e else suffix
                    out[key] = out.get(key, 0) + c
        states = below
    return ExactPoly(n, {_pack(pairs): c for pairs, c in states[()].items()})


# -- power-sum expansion -------------------------------------------------------------


def zee(rho: Partition) -> int:
    """z_rho = prod_k k^{m_k} m_k! for multiplicities m_k of the parts."""
    return math.prod(k**m * math.factorial(m) for k, m in Counter(rho).items())


@lru_cache(maxsize=None)
def character(shape: tuple, rho: tuple) -> int:
    """Symmetric-group character chi^shape on the class rho, |shape| = |rho|.

    Border-strip recursion on beta-numbers: removing a strip of size r moves
    one bead b to b - r; the sign counts the beads jumped over.
    """
    if not rho:
        return 1 if not shape else 0
    ell = len(shape)
    beads = [shape[i] + (ell - 1 - i) for i in range(ell)]
    bead_set = set(beads)
    r = rho[0]
    rest = rho[1:]
    total = 0
    for b in beads:
        lo = b - r
        if lo < 0 or lo in bead_set:
            continue
        jumped = sum(1 for x in beads if lo < x < b)
        new = sorted((bead_set - {b}) | {lo}, reverse=True)
        sub = tuple(
            p for i, v in enumerate(new) if (p := v - (ell - 1 - i)) > 0
        )
        total += (-1 if jumped & 1 else 1) * character(sub, rest)
    return total


def _generator_key(exps: dict) -> int:
    """The key of prod_k t_k^(e_k), t_k packed as variable k - 1, from {k: e_k}."""
    used = [(k, e) for k, e in exps.items() if e]
    if any(k < 1 for k, _ in used):
        raise ValueError("generator index must be >= 1")
    for k, e in used:
        # p_k and Tr(z^k) hold the exponent k, so k has the exponents' range
        if k > MAX_EXPONENT:
            raise ValueError(f"generator t{k} outside t1..t{MAX_EXPONENT}")
        if not 0 <= e <= MAX_EXPONENT:
            raise ValueError(f"exponent {e} of t{k} outside 0..{MAX_EXPONENT}")
    return _pack((k - 1, e) for k, e in used)


# a TracePoly's space has MAX_EXPONENT variables, t_1..t_32767, and these walk all of them
_NO_WHOLE_SPACE = ("{} is not defined on a TracePoly, whose variables are the generators "
                   "t_k; apply it to invariant.restrict_to_diagonal(f, n) or "
                   "invariant.expand_to_entries(f, n)")


def _partition(key: int) -> tuple:
    """The partition rho of a generator key's monomial p_rho: e parts k for each t_k^e."""
    return tuple(v + 1 for v, e in reversed(exponent_pairs(key)) for _ in range(e))


class TracePoly(ExactPoly):
    """Polynomial in weighted generators t_1, t_2, ... (deg t_k = k).

    One ring, two readings: on matrices t_k = Tr(z^k), on eigenvalues
    t_k = p_k = x_1^k + ... + x_n^k (`expand_to_entries`, `restrict_to_diagonal`).
    An ExactPoly over MAX_EXPONENT variables, variable k-1 standing for t_k,
    so its ring operations are ExactPoly's and return TracePolys.  Build one
    with the class methods below, which take generator indices.
    """

    __slots__ = ()

    @classmethod
    def zero(cls):
        return cls.from_terms([])

    @classmethod
    def const(cls, c):
        return cls.from_terms([({}, c)])

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def gen(cls, k: int):
        """The generator t_k, 1 <= k <= MAX_EXPONENT."""
        return cls.from_terms([({k: 1}, 1)])

    @classmethod
    def from_terms(cls, terms):
        """terms: iterable of (dict generator-index -> exponent, coeff); a Counter(rho) is p_rho."""
        return cls(MAX_EXPONENT, [(_generator_key(exps), c) for exps, c in terms])

    def max_gen(self) -> int:
        """Largest generator index appearing; 0 for constants."""
        return self.min_n_vars()

    def coefficient(self, exps: dict) -> GaussianRational:
        return super().coefficient(_generator_key(exps))

    def eval_complex(self, point):
        raise TypeError(_NO_WHOLE_SPACE.format("eval_complex"))

    def permute_vars(self, sigma):
        raise TypeError(_NO_WHOLE_SPACE.format("permute_vars"))

    def to_text(self, var_symbol: str = "t") -> str:
        """Canonical text form, e.g. `(3/2, 0) t1^2 t3`; `var_symbol="p"` for power sums.

        Terms run by weighted degree, then exponent vector, descending.
        """
        if not self.terms:
            return "0"
        parts = []
        for key, c in sorted(self.terms.items(), reverse=True, key=lambda kv: (
                sum(_partition(kv[0])), exponent_vector(kv[0], _n_fields(kv[0])))):
            mono = " ".join(
                f"{var_symbol}{v + 1}^{e}" if e > 1 else f"{var_symbol}{v + 1}"
                for v, e in exponent_pairs(key)
            )
            parts.append(f"{c.pair_str()} {mono}".rstrip())
        return " + ".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self.to_text()!r})"


@lru_cache(maxsize=None)
def schur_to_power_sums(lam: Partition) -> TracePoly:
    """s_lambda = sum_rho chi^lambda(rho) p_rho / z_rho over classes rho of |lambda|.

    Cached by the parts: a Partition and its plain tuple share one entry.
    """
    w = sum(lam)
    classes = list(itertools.islice(partitions_of_weight(w, w), MAX_POWER_SUM_CLASSES + 1))
    if len(classes) > MAX_POWER_SUM_CLASSES:
        raise ValueError(f"s[{Partition(lam)}] in power sums is a sum over the p({w}) classes "
                         f"of weight {w}, above {MAX_POWER_SUM_CLASSES} classes")
    chis = ((rho, character(lam, rho)) for rho in classes)
    return TracePoly.from_terms((Counter(rho), Fraction(chi, zee(rho))) for rho, chi in chis if chi)


# -- scaled polynomials and normalization constants --------------------------------------


class Scaled:
    """sqrt(scale2) * poly: a polynomial value times the root of a positive rational.

    Every scale here is such a root (c, and the norms of d_lambda and
    e_lambda), and a Gram entry needs only its square, so the root is never
    formed: `scale2` holds the square, an int or a Fraction > 0.
    """

    __slots__ = ("scale2", "poly")

    def __init__(self, scale2, poly):
        if isinstance(scale2, bool) or not isinstance(scale2, (int, Fraction)):
            raise TypeError(f"scale2 must be a positive rational, got {type(scale2).__name__}")
        if scale2 <= 0:
            raise ValueError(f"scale2 must be positive, got {scale2}")
        object.__setattr__(self, "scale2", scale2 if poly else 1)
        object.__setattr__(self, "poly", poly)

    def __setattr__(self, name, value):
        raise AttributeError("Scaled is immutable")

    @classmethod
    def of(cls, x) -> "Scaled":
        if isinstance(x, Scaled):
            return x
        return cls(1, x)

    @property
    def is_zero(self) -> bool:
        return not self.poly

    def map_poly(self, fn) -> "Scaled":
        return Scaled(self.scale2, fn(self.poly))

    def __eq__(self, other):
        if not isinstance(other, Scaled):
            other = Scaled.of(other)
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        # sqrt(q1) P1 == sqrt(q2) P2 with P1, P2 nonzero over Q(i) forces
        # sqrt(q1/q2) = (a coefficient of P2) / (one of P1), a positive
        # element of Q(i), hence rational: q1/q2 must be a square s^2
        ratio = Fraction(self.scale2) / other.scale2
        num, den = math.isqrt(ratio.numerator), math.isqrt(ratio.denominator)
        if num * num != ratio.numerator or den * den != ratio.denominator:
            return False
        return self.poly * Fraction(num, den) == other.poly

    def __hash__(self):
        raise TypeError("Scaled is not hashable")

    def __repr__(self):
        return f"Scaled({self.scale2!r}, {self.poly!r})"

    def __str__(self):
        return f"sqrt({self.scale2}) * ({self.poly})"


def d_lambda(lam: Partition, n: int) -> Scaled:
    """Normalized alternant a_{lambda+delta} / sqrt(n! (lambda+delta)!)."""
    mu = lam.plus_staircase(n)
    return Scaled(Fraction(1, math.factorial(n) * vector_factorial(mu)), alternant(mu, n))


def norm_const_c2(n: int) -> Fraction:
    """c^2 = 1 / prod_{p=1}^n p!, the square of the restriction map's scale c."""
    return Fraction(1, superfactorial(n))
