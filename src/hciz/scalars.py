"""Exact scalars: the Gaussian rationals.

All identity checking in this package runs over the Gaussian rationals
Q(i) = {a + b i : a, b rational}, each component an `int | Fraction`:
integral values are held as plain Python ints, the rest as
`fractions.Fraction`, so the integer coefficients that dominate the exact
layer never pay for `Fraction` arithmetic.  The normalization constants
are square roots of positive rationals; `symfn.Scaled` keeps each one as
its square, which is rational, so no radical ever reaches this module.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational


def _as_fraction(x) -> int | Fraction:
    """Canonical component: an int when the value is integral, else a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class GaussianRational:
    """An exact complex rational re + im*i; each component is an int or a Fraction."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    @classmethod
    def _raw(cls, re, im) -> "GaussianRational":
        """Internal: adopt int or Fraction components, turning integral Fractions into ints."""
        if type(re) is not int and re.denominator == 1:
            re = re.numerator
        if type(im) is not int and im.denominator == 1:
            im = im.numerator
        self = object.__new__(cls)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- coercion helpers -------------------------------------------------

    @classmethod
    def coerce(cls, x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        raise TypeError(f"cannot interpret {type(x).__name__} as a Gaussian rational")

    # -- arithmetic --------------------------------------------------------
    # an operand that is not exact gets NotImplemented, so that a polynomial on the
    # right takes the operation through its reflected method

    def __add__(self, other):
        if type(other) is not GaussianRational:
            return self + GaussianRational(other) if isinstance(other, Rational) else NotImplemented
        return GaussianRational._raw(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            return self - GaussianRational(other) if isinstance(other, Rational) else NotImplemented
        return GaussianRational._raw(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __neg__(self):
        return GaussianRational._raw(-self.re, -self.im)

    def __mul__(self, other):
        if type(other) is int:
            return GaussianRational._raw(self.re * other, self.im * other)
        if type(other) is not GaussianRational:
            return self * GaussianRational(other) if isinstance(other, Rational) else NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianRational._raw(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational.coerce(other)
        n2 = o.norm2()
        if n2 == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # Fraction(p, q), never p / q: two int components would divide to a float
        return GaussianRational(
            Fraction(self.re * o.re + self.im * o.im, n2),
            Fraction(self.im * o.re - self.re * o.im, n2),
        )

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._raw(self.re, -self.im)

    def norm2(self) -> int | Fraction:
        """|z|^2, an exact nonnegative rational (an int when integral)."""
        return _as_fraction(self.re * self.re + self.im * self.im)

    # -- predicates / conversion -------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __eq__(self, other):
        try:
            o = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # real values hash like their component, so 3 == GaussianRational(3) hashes alike
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.is_zero:
            return "0"
        if not self.im:
            return str(self.re)
        imag = f"{self.im}i" if abs(self.im) != 1 else ("i" if self.im > 0 else "-i")
        if not self.re:
            return imag
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imag = f"{mag}i" if mag != 1 else "i"
        return f"{self.re}{sign}{imag}"

    def pair_str(self) -> str:
        """Coefficient as the canonical `(re, im)` pair of rationals."""
        return f"({self.re}, {self.im})"


QQI_ZERO = GaussianRational(0)
QQI_ONE = GaussianRational(1)
QQI_I = GaussianRational(0, 1)
