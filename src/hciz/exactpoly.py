"""Sparse multivariate polynomials over the Gaussian rationals.

A polynomial is a map from multi-indices to GaussianRational coefficients;
zero coefficients are never stored.  Everything here is exact: no floating
point enters until `eval_complex`.  Values are immutable after construction
and all operations are pure, so they are safe to share across threads.

Beyond ring arithmetic the module provides the three operations the exact
verification layer is built on: formal differentiation, the action of a
polynomial as a constant-coefficient differential operator, and the
Bargmann inner product  <F, G> = sum_a conj(f_a) g_a a!  under which the
scaled monomials z^a / sqrt(a!) are orthonormal.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DimensionMismatchError
from .scalars import QQI_ONE, QQI_ZERO, GaussianRational


class MultiIndex:
    """Sparse exponent vector: sorted (variable, exponent) pairs, exponents > 0."""

    __slots__ = ("exps", "_hash")

    def __init__(self, pairs=()):
        items = tuple(sorted((int(v), int(e)) for v, e in pairs if e))
        for v, e in items:
            if e < 0 or v < 0:
                raise ValueError(f"bad exponent pair ({v}, {e})")
        if len({v for v, _ in items}) != len(items):
            raise ValueError("duplicate variable in exponent pairs")
        object.__setattr__(self, "exps", items)
        object.__setattr__(self, "_hash", hash(items))

    def __setattr__(self, name, value):
        raise AttributeError("MultiIndex is immutable")

    @classmethod
    def _raw(cls, items: tuple) -> "MultiIndex":
        """Internal: adopt pairs already sorted by variable, positive and without repeats."""
        self = object.__new__(cls)
        object.__setattr__(self, "exps", items)
        object.__setattr__(self, "_hash", hash(items))
        return self

    @classmethod
    def from_dense(cls, exponents):
        return cls((v, e) for v, e in enumerate(exponents))

    @classmethod
    def single(cls, var: int, exp: int = 1):
        return cls(((var, exp),))

    EMPTY: "MultiIndex"

    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def get(self, var: int) -> int:
        for v, e in self.exps:
            if v == var:
                return e
        return 0

    def max_var(self) -> int:
        """Largest variable id appearing, or -1 for the constant index."""
        return self.exps[-1][0] if self.exps else -1

    def dense(self, n_vars: int):
        out = [0] * n_vars
        for v, e in self.exps:
            out[v] = e
        return tuple(out)

    def factorial(self) -> int:
        """a! = prod_v (exponent of v)!"""
        out = 1
        for _, e in self.exps:
            out *= math.factorial(e)
        return out

    def __mul__(self, other: "MultiIndex") -> "MultiIndex":
        merged = dict(self.exps)
        for v, e in other.exps:
            merged[v] = merged.get(v, 0) + e
        items = tuple(merged.items())
        # new variables were appended after self's, so only then is a sort needed
        return MultiIndex._raw(items if len(items) == len(self.exps) else tuple(sorted(items)))

    def sub(self, other: "MultiIndex"):
        """self - other, or None if any exponent would go negative."""
        merged = dict(self.exps)
        for v, e in other.exps:
            have = merged.get(v, 0)
            if have < e:
                return None
            if have == e:
                del merged[v]
            else:
                merged[v] = have - e
        # deleting or lowering entries keeps self's sorted order
        return MultiIndex._raw(tuple(merged.items()))

    def falling(self, other: "MultiIndex") -> int:
        """prod_v  b_v (b_v-1) ... (b_v-a_v+1)  for b=self, a=other; 0 if a > b anywhere."""
        out = 1
        mine = iter(self.exps)
        # both pair lists are sorted by variable, so one pass over self's suffices
        for v, a in other.exps:
            for w, b in mine:
                if w >= v:
                    break
            else:
                return 0
            if w != v or b < a:
                return 0
            for k in range(a):
                out *= b - k
        return out

    def permute(self, sigma) -> "MultiIndex":
        """Exponent vector nu with nu_j = mu_{sigma(j)} (variable relabeling)."""
        inv = {s: j for j, s in enumerate(sigma)}
        return MultiIndex((inv[v], e) for v, e in self.exps)

    def __eq__(self, other):
        return isinstance(other, MultiIndex) and self.exps == other.exps

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"MultiIndex({self.exps!r})"


MultiIndex.EMPTY = MultiIndex()


def _grlex_key(mi: MultiIndex, n_vars: int):
    # graded lexicographic: total degree first, then exponent vector with
    # earlier variables weighing more
    return (mi.degree(), mi.dense(n_vars))


class ExactPoly:
    """Sparse polynomial in `n_vars` variables with GaussianRational coefficients.

    `terms` maps MultiIndex -> GaussianRational and never holds zeros.  Treat
    instances as immutable; operations return fresh polynomials.
    """

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms=None):
        if n_vars < 0:
            raise ValueError("n_vars must be nonnegative")
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for mi, c in items:
                if not isinstance(mi, MultiIndex):
                    mi = MultiIndex.from_dense(mi) if isinstance(mi, (tuple, list)) else mi
                c = GaussianRational.coerce(c)
                if mi.max_var() >= n_vars:
                    raise DimensionMismatchError(
                        f"variable v{mi.max_var()} out of range for n_vars={n_vars}"
                    )
                if not c.is_zero:
                    prev = clean.get(mi)
                    c = c if prev is None else prev + c
                    if c.is_zero:
                        del clean[mi]
                    else:
                        clean[mi] = c
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ExactPoly is immutable")

    @classmethod
    def _raw(cls, n_vars: int, terms: dict) -> "ExactPoly":
        """Internal: adopt a dict already free of zeros and out-of-range vars."""
        self = object.__new__(cls)
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "terms", terms)
        return self

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int) -> "ExactPoly":
        return cls._raw(n_vars, {})

    @classmethod
    def const(cls, n_vars: int, c) -> "ExactPoly":
        c = GaussianRational.coerce(c)
        return cls._raw(n_vars, {} if c.is_zero else {MultiIndex.EMPTY: c})

    @classmethod
    def one(cls, n_vars: int) -> "ExactPoly":
        return cls.const(n_vars, 1)

    @classmethod
    def variable(cls, n_vars: int, var: int) -> "ExactPoly":
        if not 0 <= var < n_vars:
            raise DimensionMismatchError(f"variable {var} out of range for n_vars={n_vars}")
        return cls._raw(n_vars, {MultiIndex.single(var): QQI_ONE})

    @classmethod
    def monomial(cls, n_vars: int, exponents, coeff=1) -> "ExactPoly":
        return cls(n_vars, {MultiIndex.from_dense(exponents): coeff})

    # -- basic queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(mi.degree() for mi in self.terms)

    def coefficient(self, mi) -> GaussianRational:
        if not isinstance(mi, MultiIndex):
            mi = MultiIndex.from_dense(mi)
        return self.terms.get(mi, QQI_ZERO)

    def items_grlex(self, reverse: bool = True):
        """Terms in canonical order (leading term first by default)."""
        return sorted(
            self.terms.items(), key=lambda kv: _grlex_key(kv[0], self.n_vars), reverse=reverse
        )

    def leading(self):
        """(MultiIndex, coeff) of the graded-lex leading term; None for zero."""
        if not self.terms:
            return None
        mi = max(self.terms, key=lambda m: _grlex_key(m, self.n_vars))
        return mi, self.terms[mi]

    def _want_same_space(self, other: "ExactPoly"):
        if self.n_vars != other.n_vars:
            raise DimensionMismatchError(
                f"operands over {self.n_vars} and {other.n_vars} variables"
            )

    # -- ring operations ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = ExactPoly.const(self.n_vars, other)
        self._want_same_space(other)
        out = dict(self.terms)
        for mi, c in other.terms.items():
            s = out.get(mi)
            s = c if s is None else s + c
            if s.is_zero:
                out.pop(mi, None)
            else:
                out[mi] = s
        return ExactPoly._raw(self.n_vars, out)

    __radd__ = __add__

    def __neg__(self):
        return ExactPoly._raw(self.n_vars, {mi: -c for mi, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = ExactPoly.const(self.n_vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational.coerce(other)
            if c.is_zero:
                return ExactPoly.zero(self.n_vars)
            return ExactPoly._raw(self.n_vars, {mi: a * c for mi, a in self.terms.items()})
        self._want_same_space(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                k = m1 * m2
                s = out.get(k)
                p = c1 * c2
                s = p if s is None else s + p
                if s.is_zero:
                    out.pop(k, None)
                else:
                    out[k] = s
        return ExactPoly._raw(self.n_vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = ExactPoly.one(self.n_vars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = ExactPoly.const(self.n_vars, other)
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self.n_vars == other.n_vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.n_vars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- calculus -------------------------------------------------------------------

    def diff(self, var: int) -> "ExactPoly":
        """Formal partial derivative with respect to variable `var`."""
        if not 0 <= var < self.n_vars:
            raise DimensionMismatchError(f"variable {var} out of range for n_vars={self.n_vars}")
        out = {}
        for mi, c in self.terms.items():
            e = mi.get(var)
            if e:
                low = mi.sub(MultiIndex.single(var))
                out[low] = c * e
        return ExactPoly._raw(self.n_vars, out)

    def apply_diff(self, g: "ExactPoly") -> "ExactPoly":
        """F(d)G: replace each monomial z^a of F=self by the operator d^a, apply to G."""
        self._want_same_space(g)
        out = {}
        # d^a kills z^b outright when |a| > |b|, before any exponent is compared
        g_terms = [(beta, gb, beta.degree()) for beta, gb in g.terms.items()]
        for alpha, fa in self.terms.items():
            deg = alpha.degree()
            for beta, gb, beta_deg in g_terms:
                if beta_deg < deg:
                    continue
                fall = beta.falling(alpha)
                if fall:
                    k = beta.sub(alpha)
                    s = out.get(k)
                    p = fa * gb * fall
                    s = p if s is None else s + p
                    if s.is_zero:
                        out.pop(k, None)
                    else:
                        out[k] = s
        return ExactPoly._raw(self.n_vars, out)

    # -- structural maps ----------------------------------------------------------------

    def with_n_vars(self, n_vars: int) -> "ExactPoly":
        """Same terms viewed over a different variable count (must fit)."""
        if n_vars == self.n_vars:
            return self
        top = max((mi.max_var() for mi in self.terms), default=-1)
        if n_vars <= top:
            raise DimensionMismatchError(f"variable v{top} out of range for n_vars={n_vars}")
        return ExactPoly._raw(n_vars, dict(self.terms))

    def min_n_vars(self) -> int:
        """Smallest variable count that accommodates every term."""
        return max((mi.max_var() for mi in self.terms), default=-1) + 1

    def map_vars(self, images: dict, n_vars_out: int) -> "ExactPoly":
        """Relabel variables by `images[v]`; a None image kills terms using v."""
        out = {}
        for mi, c in self.terms.items():
            merged: dict[int, int] = {}
            dead = False
            for v, e in mi.exps:
                w = images[v]
                if w is None:
                    dead = True
                    break
                merged[w] = merged.get(w, 0) + e
            if dead:
                continue
            k = MultiIndex(merged.items())
            s = out.get(k)
            s = c if s is None else s + c
            if s.is_zero:
                out.pop(k, None)
            else:
                out[k] = s
        return ExactPoly(n_vars_out, out)

    def permute_vars(self, sigma) -> "ExactPoly":
        """Relabel variables: the new exponent at j is the old exponent at sigma[j]."""
        if len(sigma) != self.n_vars or sorted(sigma) != list(range(self.n_vars)):
            raise DimensionMismatchError("sigma is not a permutation of the variables")
        return ExactPoly._raw(
            self.n_vars, {mi.permute(sigma): c for mi, c in self.terms.items()}
        )

    def substitute(self, images: dict, n_vars_out: int) -> "ExactPoly":
        """Substitute every variable v by the polynomial images[v] (over the new space)."""
        pow_cache: dict[tuple[int, int], ExactPoly] = {}

        def power(v, e):
            got = pow_cache.get((v, e))
            if got is None:
                got = images[v] if e == 1 else power(v, e - 1) * images[v]
                pow_cache[(v, e)] = got
            return got

        def image(mi):
            term = ExactPoly.one(n_vars_out)
            for v, e in mi.exps:
                term = term * power(v, e)
            return term

        return linear_combination(
            ((image(mi), c) for mi, c in self.terms.items()), n_vars_out
        )

    def eval_complex(self, point) -> complex:
        """Numeric value at a complex point (coefficients rounded to doubles)."""
        if len(point) != self.n_vars:
            raise DimensionMismatchError(
                f"point of length {len(point)} for n_vars={self.n_vars}"
            )
        pt = [complex(p) for p in point]
        total = 0j
        for mi, c in self.terms.items():
            v = c.to_complex()
            for var, e in mi.exps:
                v *= pt[var] ** e
            total += v
        return total

    # -- serialization --------------------------------------------------------------------

    def to_text(self, var_symbol: str = "v") -> str:
        """Canonical text form: graded-lex order (leading first), exact coefficients."""
        if not self.terms:
            return "0"
        parts = []
        for mi, c in self.items_grlex():
            mono = " ".join(
                f"{var_symbol}{v}^{e}" if e > 1 else f"{var_symbol}{v}" for v, e in mi.exps
            )
            parts.append(f"{c.pair_str()} : {mono or '1'}")
        return " + ".join(parts)

    def __repr__(self):
        return f"ExactPoly({self.n_vars}, {self.to_text()!r})"


def linear_combination(pairs, n_vars: int) -> ExactPoly:
    """sum c * P over (P, c) pairs, each P over `n_vars` variables, summed in one dict."""
    out = {}
    for poly, c in pairs:
        for mi, a in poly.terms.items():
            p = a * c
            s = out.get(mi)
            s = p if s is None else s + p
            if s.is_zero:
                out.pop(mi, None)
            else:
                out[mi] = s
    return ExactPoly._raw(n_vars, out)


def bargmann_inner(f: ExactPoly, g: ExactPoly) -> GaussianRational:
    """Exact Segal-Bargmann inner product of polynomials.

    <F, G> = sum_a conj(f_a) g_a a!, conjugate-linear in the first slot.
    """
    f._want_same_space(g)
    small, big, flip = (f, g, False) if len(f.terms) <= len(g.terms) else (g, f, True)
    re = im = 0
    for mi, cs in small.terms.items():
        cb = big.terms.get(mi)
        if cb is not None:
            a, b = (cs, cb) if not flip else (cb, cs)
            # conj(a) * b * a!, summed componentwise
            w = mi.factorial()
            re += (a.re * b.re + a.im * b.im) * w
            im += (a.re * b.im - a.im * b.re) * w
    return GaussianRational(re, im)
