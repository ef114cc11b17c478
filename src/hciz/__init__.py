"""Unitary-group exponential integrals, three ways, with exact verification.

The integral of exp(Tr(u A u^-1 B)) over Haar-random unitaries is computed
by a closed-form determinant ratio, by Monte Carlo, and by a truncated
Schur-function expansion; the identities behind the formula (reproducing
kernels, two orthonormal bases, the unitary restriction map, a derivative
operator identity, Gaussian matrix moments, Schur-basis coefficients) are
all checkable in exact rational arithmetic at small dimension.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateExponentError,
    DegenerateSpectrumError,
    DimensionMismatchError,
    ExactDivisionError,
    NotAlternatingError,
    NotInImageError,
)
from .exactpoly import ExactPoly, MultiIndex, bargmann_inner
from .scalars import GaussianRational, RadicalScalar
from .symfn import (
    Partition,
    Scaled,
    alternant,
    alternating_projection,
    d_lambda,
    enumerate_partitions,
    norm_const_c,
    schur_exact,
    schur_numeric,
    schur_to_power_sums,
    staircase,
    vandermonde,
)
from .invariant import (
    TracePoly,
    chi_lambda,
    e_lambda,
    expand_to_entries,
    fourier_coefficients,
    invariant_inner,
    psi_inverse,
    psi_map,
    restrict_to_diagonal,
    verify_diffop_identity,
    verify_fourier_reconstruction,
    verify_unitarity,
)
from .numeric import (
    GinibreMomentReport,
    MCEstimate,
    SeriesResult,
    Spectrum,
    coherent_reproducing_check,
    ginibre_moment_suite,
    hciz_determinant,
    hciz_mc,
    kernel_q_mc,
    kernel_series,
    sample_ginibre,
    sample_haar_unitary,
)

__all__ = [
    "__version__",
    "DegenerateExponentError",
    "DegenerateSpectrumError",
    "DimensionMismatchError",
    "ExactDivisionError",
    "ExactPoly",
    "GaussianRational",
    "GinibreMomentReport",
    "MCEstimate",
    "MultiIndex",
    "NotAlternatingError",
    "NotInImageError",
    "Partition",
    "RadicalScalar",
    "Scaled",
    "SeriesResult",
    "Spectrum",
    "TracePoly",
    "alternant",
    "alternating_projection",
    "bargmann_inner",
    "chi_lambda",
    "coherent_reproducing_check",
    "d_lambda",
    "e_lambda",
    "enumerate_partitions",
    "expand_to_entries",
    "fourier_coefficients",
    "ginibre_moment_suite",
    "hciz_determinant",
    "hciz_mc",
    "invariant_inner",
    "kernel_q_mc",
    "kernel_series",
    "norm_const_c",
    "psi_inverse",
    "psi_map",
    "restrict_to_diagonal",
    "sample_ginibre",
    "sample_haar_unitary",
    "schur_exact",
    "schur_numeric",
    "schur_to_power_sums",
    "staircase",
    "vandermonde",
    "verify_diffop_identity",
    "verify_fourier_reconstruction",
    "verify_unitarity",
]
