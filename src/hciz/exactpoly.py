"""Sparse multivariate polynomials over the Gaussian rationals.

A polynomial is a map from monomials to GaussianRational coefficients;
zero coefficients are never stored.  Everything here is exact: no floating
point enters until `eval_complex`.  Values are immutable after construction
and all operations are pure, so they are safe to share across threads.

Monomials are packed exponent vectors (Monagan & Pearce, CASC 2007): the
keys of `ExactPoly.terms` are plain ints in which the exponent of variable
v fills the 16-bit field at bit 16 v.  A key does not depend on the variable
count, and the product of two monomials is the sum of their keys.  The top
bit of each field is a guard, so an exponent runs from 0 to MAX_EXPONENT =
32767; a product, power or relabeling that would pass it raises ValueError
instead of carrying into the next variable.  Callers give exponents as
dense tuples (`ExactPoly(3, {(2, 0, 1): c})`, `monomial`, `coefficient`) and
read them back with `exponent_vector` or `exponent_pairs`.  Builders holding
(variable, exponent) pairs pack them with the private `_pack`, and
`trace_power_entry` sums k <= MAX_EXPONENT one-entry keys per term.
The ring operations (`+`, `-`, `*`, `**`, `apply_diff`) build their result
with `_like`, in the left operand's type and space: `symfn.TracePoly` is an
ExactPoly over MAX_EXPONENT variables, and `degree` reads only the fields
each key uses.

Coefficients are summed by component, not as GaussianRational objects.
Every operation that forms terms feeds one private builder, `_summed_terms`:
the constructor, which sums repeated monomials; `+`, `-`, negation and
scalar multiples through `linear_combination`, which `substitute` also
calls; `*`; `apply_diff` and `apply_diff_mapped` through `_diff_terms`; and
`map_vars`, so `permute_vars`.  It sums the real and imaginary parts of each
output coefficient as plain `int | Fraction` values, builds one
GaussianRational per key that survives, and keeps the order `eval_complex`
sums in.  With every operand real, the usual case, `*`, `apply_diff` and
`linear_combination` form no imaginary product.  `map_vars` and
`apply_diff_mapped` relabel keys by one kernel, `_relabeling`, and adopt
their summed terms after one check of the highest variable; `permute_vars`
is a checked `map_vars`.

Beyond ring arithmetic the module provides the two operations the exact
verification layer is built on: the action of a polynomial as a
constant-coefficient differential operator (`apply_diff`; the partial
derivative d/dz_v is the action of z_v, and `apply_diff_mapped` relabels
or drops variables of the result, forming only the term pairs whose
result survives), and the Bargmann inner product
<F, G> = sum_a conj(f_a) g_a a!  under which the scaled monomials
z^a / sqrt(a!) are orthonormal and d/dz_v is the adjoint of z_v.
`bargmann_inner` returns an exact zero without a pass over the terms when
its operands share no monomial.  `bargmann_gram` gives the Gram matrix
of a list of polynomials: it pairs each unordered pair once, and the
mirror entry <P_j, P_i> is the conjugate of <P_i, P_j>.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import lru_cache

from .errors import DimensionMismatchError
from .scalars import QQI_ONE, QQI_ZERO, GaussianRational

# 16 bits per variable: one unsigned short, so `struct` converts a whole
# exponent vector in one call
_BITS = 16
_FIELD = (1 << _BITS) - 1
MAX_EXPONENT = (1 << (_BITS - 1)) - 1


@lru_cache(maxsize=256)
def _guards(n_vars: int) -> int:
    """The guard bit of each of the first n_vars fields."""
    # (2^(B n) - 1) / (2^B - 1) has a one at the bottom of each field
    return ((1 << (_BITS * n_vars)) - 1) // _FIELD << (_BITS - 1)


def _n_fields(key: int) -> int:
    """Smallest variable count whose fields hold the key."""
    return -(-key.bit_length() // _BITS)


def _pack(pairs) -> int:
    """The key of prod x_v^e over (v, e) pairs with distinct v."""
    key = 0
    for v, e in pairs:
        e = int(e)
        if not 0 <= e <= MAX_EXPONENT:
            raise ValueError(f"exponent {e} of v{v} outside 0..{MAX_EXPONENT}")
        key |= e << (_BITS * v)
    return key


def _as_key(mono) -> int:
    """The key of a dense exponent tuple, or a packed key, checked."""
    if isinstance(mono, int):
        if mono < 0 or mono & _guards(_n_fields(mono)):
            raise ValueError(f"{mono} is not a monomial key")
        return mono
    return _pack(enumerate(mono))


def _in_range(key: int, n_vars: int) -> int:
    """`key`, or DimensionMismatchError if its highest variable is past n_vars."""
    if (fields := _n_fields(key)) > n_vars:
        raise DimensionMismatchError(f"variable v{fields - 1} out of range for n_vars={n_vars}")
    return key


def _check_exponents(terms: dict, n_vars: int) -> dict:
    """`terms` unchanged, or ValueError if a product set some key's guard bit."""
    guards = _guards(n_vars)
    for key in terms:
        if key & guards:
            raise ValueError(f"a product passes the exponent limit {MAX_EXPONENT}")
    return terms


def exponent_vector(key: int, n_vars: int) -> tuple:
    """The exponents of a key from `terms` as a tuple of length n_vars."""
    return struct.unpack(f"<{n_vars}H", key.to_bytes(_BITS // 8 * n_vars, "little"))


def exponent_pairs(key: int) -> tuple:
    """The (variable, exponent) pairs of a key from `terms`, nonzero exponents by variable."""
    return tuple((v, e) for v, e in enumerate(exponent_vector(key, _n_fields(key))) if e)


def _grlex(key: int, n_vars: int):
    # graded lexicographic: total degree first, then exponent vector with
    # earlier variables weighing more
    exps = exponent_vector(key, n_vars)
    return sum(exps), exps


@lru_cache(maxsize=1 << 16)
def _factorial(key: int) -> int:
    """a! = prod_v (exponent of v)!, cached: Gram loops and `apply_diff` meet each key often."""
    out = 1
    while key:
        # skip to the field of the lowest set bit, then take that field's exponent
        key >>= ((key & -key).bit_length() - 1) // _BITS * _BITS
        out *= math.factorial(key & _FIELD)
        key >>= _BITS
    return out


def _summed_terms(products, real: bool = False, denom: int = 1) -> dict:
    """`terms` of the sum of products, each divided by `denom`.

    `products` yields (key, re, im) triples, or (key, re) pairs when `real`;
    each component is an int or a Fraction.  The sums are kept per component
    in plain dicts, and one GaussianRational is built per key that survives.
    A key whose sum cancels to zero leaves the dict, so a later product puts
    it back at the end: the terms come out in the order that adding the
    products one at a time gives, which is the order `eval_complex` sums in.
    """
    re, im = {}, {}
    get, get_im = re.get, im.get
    if real:
        for k, x in products:
            x += get(k, 0)
            if x:
                re[k] = x
            else:
                re.pop(k, None)
    else:
        for k, x, y in products:
            x += get(k, 0)
            y += get_im(k, 0)
            if x or y:
                re[k] = x
                im[k] = y
            else:
                re.pop(k, None)
                im.pop(k, None)
    raw = GaussianRational._raw
    if denom == 1:
        return {k: raw(x, im.get(k, 0)) for k, x in re.items()}
    if real:
        return {k: raw(Fraction(x, denom), 0) for k, x in re.items()}
    return {k: raw(Fraction(x, denom), Fraction(im.get(k, 0), denom)) for k, x in re.items()}


def _relabeling(images: dict):
    """(dead, relabel): the fields of the variables whose image is None, and a
    memoized relabel(key) that moves each exponent of v to images[v], summing those
    that meet."""
    dead = sum(_FIELD << (_BITS * v) for v, w in images.items() if w is None)
    relabeled: dict[int, int] = {}

    def relabel(k: int) -> int:
        key = relabeled.get(k)
        if key is None:
            merged: dict[int, int] = {}
            for v, e in exponent_pairs(k):
                merged[images[v]] = merged.get(images[v], 0) + e
            key = relabeled[k] = _pack(merged.items())
        return key

    return dead, relabel


def _is_real(poly: "ExactPoly") -> bool:
    return not any(c.im for c in poly.terms.values())


class ExactPoly:
    """Sparse polynomial in `n_vars` variables with GaussianRational coefficients.

    `terms` maps packed monomial keys (ints) -> GaussianRational and never
    holds zeros.  Treat instances as immutable; operations return fresh
    polynomials.
    """

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms=None):
        """`terms` maps dense exponent tuples, or packed keys, to coefficients; repeats add up."""
        if n_vars < 0:
            raise ValueError("n_vars must be nonnegative")

        def checked(items):
            for mono, c in items:
                key, c = _as_key(mono), GaussianRational.coerce(c)
                yield _in_range(key, n_vars), c.re, c.im

        items = terms.items() if isinstance(terms, dict) else terms or ()
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "terms", _summed_terms(checked(items)))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _raw(cls, n_vars: int, terms: dict) -> "ExactPoly":
        """Internal: adopt a dict already free of zeros and out-of-range vars."""
        self = object.__new__(cls)
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "terms", terms)
        return self

    def _like(self, terms: dict) -> "ExactPoly":
        """Internal: a polynomial of this one's type and space holding `terms`."""
        return self._raw(self.n_vars, terms)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int) -> "ExactPoly":
        return cls._raw(n_vars, {})

    @classmethod
    def const(cls, n_vars: int, c) -> "ExactPoly":
        return cls(n_vars, [(0, c)])

    @classmethod
    def one(cls, n_vars: int) -> "ExactPoly":
        return cls.const(n_vars, 1)

    @classmethod
    def variable(cls, n_vars: int, var: int) -> "ExactPoly":
        if not 0 <= var < n_vars:
            raise DimensionMismatchError(f"variable {var} out of range for n_vars={n_vars}")
        return cls._raw(n_vars, {1 << (_BITS * var): QQI_ONE})

    @classmethod
    def monomial(cls, n_vars: int, exponents, coeff=1) -> "ExactPoly":
        return cls(n_vars, [(exponents, coeff)])

    # -- basic queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e for _, e in exponent_pairs(key)) for key in self.terms)

    def coefficient(self, exponents) -> GaussianRational:
        """The coefficient of a dense exponent tuple (or of a key from `terms`)."""
        return self.terms.get(_as_key(exponents), QQI_ZERO)

    def items_grlex(self):
        """(key, coeff) terms in canonical order, leading term first."""
        # the fields past the highest variable in use are zero in every key, so
        # they order nothing (a TracePoly has MAX_EXPONENT fields, nearly all unused)
        n = self.min_n_vars()
        return sorted(self.terms.items(), key=lambda kv: _grlex(kv[0], n), reverse=True)

    def _want_same_space(self, other: "ExactPoly"):
        if self.n_vars != other.n_vars:
            raise DimensionMismatchError(
                f"operands over {self.n_vars} and {other.n_vars} variables"
            )

    # -- ring operations ----------------------------------------------------------

    def _plus(self, other, a: int, b: int):
        """a * self + b * other, or NotImplemented for an other that is not exact."""
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = ExactPoly.const(self.n_vars, other)
        elif not isinstance(other, ExactPoly):
            return NotImplemented
        self._want_same_space(other)
        return self._like(linear_combination([(self, a), (other, b)], self.n_vars).terms)

    def __add__(self, other):
        return self._plus(other, 1, 1)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self._plus(other, 1, -1)

    def __rsub__(self, other):
        return self._plus(other, -1, 1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self._like(linear_combination([(self, other)], self.n_vars).terms)
        if not isinstance(other, ExactPoly):
            return NotImplemented
        self._want_same_space(other)
        a = [(k, c.re, c.im) for k, c in self.terms.items()]
        b = [(k, c.re, c.im) for k, c in other.terms.items()]
        real = _is_real(self) and _is_real(other)
        # no exponent of either key passes MAX_EXPONENT, so no field carries
        if real:
            products = ((m1 + m2, r1 * r2) for m1, r1, _ in a for m2, r2, _ in b)
        else:
            products = (
                (m1 + m2, r1 * r2 - i1 * i2, r1 * i2 + i1 * r2)
                for m1, r1, i1 in a
                for m2, r2, i2 in b
            )
        out = _summed_terms(products, real)
        return self._like(_check_exponents(out, self.n_vars))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = self._like({0: QQI_ONE})
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

    def apply_diff(self, g: "ExactPoly") -> "ExactPoly":
        """F(d)G: replace each monomial z^a of F=self by the operator d^a, apply to G."""
        return self._like(self._diff_terms(g))

    def apply_diff_mapped(self, g: "ExactPoly", images: dict, n_vars_out: int) -> "ExactPoly":
        """(F(d)G).map_vars(images, n_vars_out), without forming F(d)G: a term
        z^b / z^a survives only if a and b agree on every variable whose image is
        None, so only those pairs are formed."""
        terms = self._diff_terms(g, *_relabeling(images))
        _in_range(max(terms, default=0), n_vars_out)  # the largest key has the highest variable
        return ExactPoly._raw(n_vars_out, terms)

    def _diff_terms(self, g: "ExactPoly", dead: int = 0, relabel=None) -> dict:
        """`terms` of F(d)G from the term pairs that agree on the fields set in `dead`,
        each key passed through `relabel` if given: G's terms are grouped by those
        fields, in their own order, and each term of F meets only its group."""
        self._want_same_space(g)
        # only the fields of F's variables are subtracted from, so only they need
        # a guard (a TracePoly has MAX_EXPONENT fields, nearly all unused)
        guards = _guards(self.min_n_vars())
        real = _is_real(self) and _is_real(g)
        groups: dict[int, list] = {}
        for beta, gb in g.terms.items():
            groups.setdefault(beta & dead, []).append((beta, _factorial(beta), gb.re, gb.im))

        def products():
            for alpha, fa in self.terms.items():
                fr, fi = fa.re, fa.im
                for beta, beta_fact, gr, gi in groups.get(alpha & dead, ()):
                    # every field of beta | guards stays at or above its guard bit
                    # after the subtraction exactly when alpha <= beta there
                    k = (beta | guards) - alpha
                    if k & guards != guards:
                        continue
                    k ^= guards
                    # the falling factorial beta! / (beta - alpha)!
                    fall = beta_fact // _factorial(k)
                    if relabel is not None:
                        k = relabel(k)
                    if real:
                        yield k, fr * gr * fall
                    else:
                        yield k, (fr * gr - fi * gi) * fall, (fr * gi + fi * gr) * fall

        return _summed_terms(products(), real)

    # -- structural maps ----------------------------------------------------------------

    def min_n_vars(self) -> int:
        """Smallest variable count that accommodates every term."""
        # the largest key has the highest variable in use
        return _n_fields(max(self.terms, default=0))

    def map_vars(self, images: dict, n_vars_out: int) -> "ExactPoly":
        """Relabel variables by `images[v]`; a None image kills terms using v."""
        dead, relabel = _relabeling(images)
        products = ((relabel(k), c.re, c.im) for k, c in self.terms.items() if not k & dead)
        terms = _summed_terms(products)
        _in_range(max(terms, default=0), n_vars_out)  # the largest key has the highest variable
        return ExactPoly._raw(n_vars_out, terms)

    def permute_vars(self, sigma) -> "ExactPoly":
        """Relabel variables: the new exponent at j is the old exponent at sigma[j]."""
        n = self.n_vars
        if sorted(sigma) != list(range(n)):
            raise DimensionMismatchError("sigma is not a permutation of the variables")
        return self.map_vars({s: j for j, s in enumerate(sigma)}, n)

    def substitute(self, images: dict, n_vars_out: int) -> "ExactPoly":
        """Substitute every variable v by the polynomial images[v] (over the new space)."""
        one = ExactPoly.one(n_vars_out)
        return linear_combination(
            ((math.prod((images[v] ** e for v, e in exponent_pairs(key)), start=one), c)
             for key, c in self.terms.items()),
            n_vars_out,
        )

    def eval_complex(self, point) -> complex:
        """Numeric value at a complex point (coefficients rounded to doubles)."""
        if len(point) != self.n_vars:
            raise DimensionMismatchError(
                f"point of length {len(point)} for n_vars={self.n_vars}"
            )
        pt = [complex(p) for p in point]
        total = 0j
        # terms in insertion order, factors by increasing variable
        for key, c in self.terms.items():
            v = c.to_complex()
            for var, e in exponent_pairs(key):
                v *= pt[var] ** e
            total += v
        return total

    # -- serialization --------------------------------------------------------------------

    def to_text(self, var_symbol: str = "v") -> str:
        """Canonical text form: graded-lex order (leading first), exact coefficients."""
        if not self.terms:
            return "0"
        parts = []
        for key, c in self.items_grlex():
            mono = " ".join(
                f"{var_symbol}{v}^{e}" if e > 1 else f"{var_symbol}{v}"
                for v, e in exponent_pairs(key)
            )
            parts.append(f"{c.pair_str()} : {mono or '1'}")
        return " + ".join(parts)

    def __repr__(self):
        return f"ExactPoly({self.n_vars}, {self.to_text()!r})"


def linear_combination(pairs, n_vars: int) -> ExactPoly:
    """sum c * P over (P, c) pairs, each P over `n_vars` variables.

    Every weight is scaled by the lcm D of the weights' denominators, so sums
    over integer polynomials stay ints; each coefficient is divided by D once.
    When every P and every weight is real, no imaginary product is formed.
    """
    pairs = [(poly, GaussianRational.coerce(c)) for poly, c in pairs]
    denom = math.lcm(*(x.denominator for _, c in pairs for x in (c.re, c.im)))

    def scaled(x) -> int:
        # x * D as an int: D is a multiple of x's denominator
        return x.numerator * (denom // x.denominator)

    scaled_pairs = [(poly, scaled(c.re), scaled(c.im)) for poly, c in pairs]
    real = not any(ci for _, _, ci in scaled_pairs) and all(_is_real(p) for p, _, _ in scaled_pairs)
    if real:
        products = (
            (k, a.re * cr)
            for poly, cr, _ in scaled_pairs
            if cr
            for k, a in poly.terms.items()
        )
    else:
        products = (
            (k, a.re * cr - a.im * ci, a.re * ci + a.im * cr)
            for poly, cr, ci in scaled_pairs
            if cr or ci
            for k, a in poly.terms.items()
        )
    return ExactPoly._raw(n_vars, _summed_terms(products, real, denom))


def bargmann_inner(f: ExactPoly, g: ExactPoly) -> GaussianRational:
    """Exact Segal-Bargmann inner product of polynomials.

    <F, G> = sum_a conj(f_a) g_a a!, conjugate-linear in the first slot.
    Operands with no monomial in common pair to zero without a pass over
    their terms.
    """
    f._want_same_space(g)
    small, big, flip = (f, g, False) if len(f.terms) <= len(g.terms) else (g, f, True)
    if small.terms.keys().isdisjoint(big.terms.keys()):
        return QQI_ZERO
    re = im = 0
    for key, cs in small.terms.items():
        cb = big.terms.get(key)
        if cb is not None:
            # conj(cs) * cb * a!, summed componentwise; swapped operands conjugate the sum
            w = _factorial(key)
            re += (cs.re * cb.re + cs.im * cb.im) * w
            im += (cs.re * cb.im - cs.im * cb.re) * w
    return GaussianRational(re, -im if flip else im)


def bargmann_gram(polys) -> dict:
    """{(i, j): <P_i, P_j>} over every ordered pair of `polys`, row-major.

    <P_j, P_i> is the conjugate of <P_i, P_j>, so each unordered pair is
    paired once, by `bargmann_inner`, and its mirror entry is the conjugate.
    """
    polys = list(polys)
    size = len(polys)
    upper = {(i, j): bargmann_inner(polys[i], polys[j])
             for i in range(size) for j in range(i, size)}
    return {
        (i, j): upper[i, j] if i <= j else upper[j, i].conjugate()
        for i in range(size)
        for j in range(size)
    }
