"""Independent high-precision reference for the HCIZ integral.

    I(a, b) = prod_{p<n} p! * det[exp(a_i b_j)] / (Vdm(a) Vdm(b)),
    Vdm(v) = prod_{i<j} (v_j - v_i)

evaluated in mpmath, sharing no code with `hciz`.  The working precision
is raised by the number of digits the Vandermonde quotient cancels, so the
result keeps `digits` correct digits however close the points are.

Coincident points make both the determinant and the Vandermonde products
vanish.  The integral is entire in each spectrum, so the benchmark splits
repeated points by multiples of SPLIT (1e-30, far below double resolution):
the split moves I by a relative O(1e-30), and the extra precision absorbs
the cancellation the split creates.
"""

from __future__ import annotations

import math

import mpmath

SPLIT = mpmath.mpf("1e-30")


def _split(values):
    """mpc copies of `values` with exactly repeated points moved apart by SPLIT."""
    out = []
    seen: dict = {}
    for v in values:
        k = seen.get(v, 0)
        seen[v] = k + 1
        out.append(mpmath.mpc(v) + k * SPLIT)
    return out


def _vdm(v):
    out = mpmath.mpc(1)
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            out *= v[j] - v[i]
    return out


def hciz_reference(a, b, digits: int = 60) -> complex:
    """I(a, b) to `digits` significant digits, rounded to a Python complex."""
    a, b = [complex(x) for x in a], [complex(x) for x in b]
    n = len(a)
    if n == 0 or len(b) != n:
        raise ValueError("spectra must be non-empty and of equal length")
    # digits lost: the Vandermonde quotient, plus the largest exponent's size
    with mpmath.workdps(30):
        va, vb = _vdm(_split(a)), _vdm(_split(b))
        scale = max(abs(x) for x in a) * max(abs(y) for y in b)
        lost = -float(mpmath.log10(abs(va * vb))) + n * scale / math.log(10)
    with mpmath.workdps(digits + max(0, int(lost)) + 10):
        sa, sb = _split(a), _split(b)
        mat = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                mat[i, j] = mpmath.exp(sa[i] * sb[j])
        prefactor = math.prod(math.factorial(p) for p in range(1, n))
        value = prefactor * mpmath.det(mat) / (_vdm(sa) * _vdm(sb))
        return complex(value)
