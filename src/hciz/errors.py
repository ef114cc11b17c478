"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands live over different variable spaces, or an index is out of range."""


class DegenerateExponentError(ValueError):
    """Alternant exponent vector has a repeated entry, so the determinant vanishes."""


class DegenerateSpectrumError(ValueError):
    """Spectrum has (nearly) coincident eigenvalues; the determinant formula is 0/0.

    The character-series evaluator is stable at coincident points and is the
    documented fallback.
    """

    def __init__(self, gap, tol):
        self.gap = gap
        self.tol = tol
        super().__init__(
            f"spectral gap {gap:.3e} below tolerance {tol:.3e}; "
            "use the character-series evaluator for coincident spectra"
        )


class NotAlternatingError(ValueError):
    """A polynomial required to be alternating is not: some orbit of its terms under
    permutations of the variables is incomplete, repeats an exponent, or is not
    one coefficient times the sign of each term's sort."""
