"""Unitary-group exponential integrals, three ways, with exact verification.

The integral of exp(Tr(u A u^-1 B)) over Haar-random unitaries is computed
by a closed-form determinant ratio, by Monte Carlo, and by a truncated
Schur-function expansion; the identities behind the formula (reproducing
kernels, two orthonormal bases, the unitary restriction map, a derivative
operator identity, Gaussian matrix moments, Schur-basis coefficients) are
all checkable in exact rational arithmetic at small dimension.
"""

__version__ = "0.1.0"

import importlib
import sys

from .errors import (
    DegenerateExponentError,
    DegenerateSpectrumError,
    DimensionMismatchError,
    NotAlternatingError,
)

# Every other public name, by the module that defines it.  A name is looked
# up in its module on each access (PEP 562), so `import hciz` loads neither
# numpy nor the exact layer, and a patched module attribute is what
# `hciz.<name>` returns.
_EXPORTS = {
    "exactpoly": ("ExactPoly", "bargmann_inner"),
    "scalars": ("GaussianRational",),
    "symfn": (
        "Partition",
        "Scaled",
        "TracePoly",
        "alternant",
        "d_lambda",
        "enumerate_partitions",
        "norm_const_c2",
        "schur_exact",
        "schur_to_power_sums",
        "staircase",
    ),
    "invariant": (
        "chi_lambda",
        "coherent_reproducing_check",
        "e_lambda",
        "expand_to_entries",
        "fourier_coefficients",
        "invariant_inner",
        "psi_inverse",
        "psi_map",
        "restrict_to_diagonal",
        "verify_diffop_identity",
        "verify_fourier_reconstruction",
        "verify_unitarity",
    ),
    "numeric": (
        "GinibreMomentReport",
        "MCEstimate",
        "SeriesResult",
        "Spectrum",
        "ginibre_moment_suite",
        "hciz_determinant",
        "hciz_mc",
        "kernel_q_mc",
        "kernel_series",
        "sample_ginibre",
        "sample_haar_unitary",
        "schur_numeric",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([
    "__version__",
    "DegenerateExponentError",
    "DegenerateSpectrumError",
    "DimensionMismatchError",
    "NotAlternatingError",
    *_MODULE_OF,
])


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    full = f"{__name__}.{module}"
    # sys.modules first: import_module costs a few microseconds per access
    return getattr(sys.modules.get(full) or importlib.import_module(full), name)


def __dir__():
    return list(__all__)
