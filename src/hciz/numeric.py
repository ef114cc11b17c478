"""Floating-point evaluation of the unitary-group exponential integral

    I(a, b) = integral over the unitary group of exp(Tr(u A u^-1 B)) du

by three independent routes: the closed-form ratio of a determinant of
exponentials to Vandermonde products, Monte Carlo over Haar measure, and
the truncated Schur-function expansion of the reproducing kernel.

Convention split, deliberately kept apart: `hciz_*` functions take both
spectra holomorphically (the integral as usually written), while the
`kernel_*` functions conjugate their second argument (the reproducing
kernel is anti-holomorphic there).  The two agree through

    kernel(x, y) == hciz(x, conj(y)).

Randomness comes from counter-based Philox streams; a worker w draws from
the substream `Philox(seed).jumped(w)`, so results are reproducible for a
fixed (seed, worker count) and independent of scheduling.
"""

from __future__ import annotations

import cmath
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    NotAlternatingError,
)
from .exactpoly import ExactPoly, bargmann_inner
from .symfn import (
    d_lambda,
    enumerate_partitions,
    homogeneous_values,
    is_alternating,
    jacobi_trudi_stacks,
    partitions_of_weight,
    schur_values,
    staircase,
    superfactorial,
    vector_factorial,
)

GAP_TOL_DEFAULT = 1e-8
_BATCH = 32768
_GS_CHUNK = 8192  # matrices per Gram-Schmidt sweep (measured best of 1024..16384)

# rounding model of the MC estimates (derived in `_sample_rounding`)
_U = 2.0**-53  # unit roundoff of float64
_EXP_ROUNDINGS = 5  # exp, cos/sin, and their product
_HAAR_RESIDUAL = 24  # ||u^H u - I||_2 of a `_haar_batch` draw, in units of _U
_LAMBDA = 4.0  # confidence of the probabilistic summation bound


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue list with its regularity gap (min pairwise distance)."""

    eigs: tuple
    gap: float = field(init=False)

    def __post_init__(self):
        eigs = tuple(complex(e) for e in self.eigs)
        if not eigs:
            raise ValueError("empty spectrum")
        if any(not (math.isfinite(e.real) and math.isfinite(e.imag)) for e in eigs):
            raise ValueError("non-finite eigenvalue")
        gap = min(
            (abs(eigs[i] - eigs[j]) for i in range(len(eigs)) for j in range(i + 1, len(eigs))),
            default=math.inf,
        )
        object.__setattr__(self, "eigs", eigs)
        object.__setattr__(self, "gap", gap)

    @property
    def n(self) -> int:
        return len(self.eigs)

    def conj(self) -> "Spectrum":
        return Spectrum(tuple(e.conjugate() for e in self.eigs))


def as_spectrum(x) -> Spectrum:
    return x if isinstance(x, Spectrum) else Spectrum(tuple(x))


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with its two error terms.

    `stderr` is the sampling standard error (combined over re and im);
    `rounding` bounds the floating-point error of `mean`, which averaging
    does not remove: with a constant integrand it is the only error left.
    """

    mean: complex
    stderr: float
    n_samples: int
    seed: int
    rounding: float = 0.0

    def within(self, target: complex, k: float = 4.0) -> bool:
        return abs(self.mean - target) <= k * self.stderr + self.rounding


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    max_weight_used: int
    last_shell_magnitude: float


# -- sampling ---------------------------------------------------------------------


def _substream(seed: int, worker: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed).jumped(worker))


def _ginibre_batch(count: int, n: int, rng: np.random.Generator) -> np.ndarray:
    scale = math.sqrt(0.5)
    return rng.normal(0.0, scale, (count, n, n)) + 1j * rng.normal(0.0, scale, (count, n, n))


def sample_ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    """One n x n matrix with i.i.d. standard complex Gaussian entries."""
    if n < 1:
        raise ValueError("n must be positive")
    return _ginibre_batch(1, n, rng)[0]


def _gram_schmidt(g: np.ndarray) -> tuple:
    """Q of each g = QR with R's diagonal real and positive, by classical
    Gram-Schmidt run twice per column (CGS2: unitary to O(u), Giraud et al.,
    Numer. Math. 101, 2005), and a flag per matrix for a zero pivot.

    The batch is copied once to q[j, i, b] (column j, row i, matrix b), so
    each step is one vectorised operation over a chunk of `_GS_CHUNK`
    matrices, which bounds the size of its temporaries.
    """
    count, n, _ = g.shape
    q = np.ascontiguousarray(g.transpose(2, 1, 0))
    bad = np.zeros(count, dtype=bool)
    for lo in range(0, count, _GS_CHUNK):
        block = q[:, :, lo:lo + _GS_CHUNK]
        for j in range(n):
            v = block[j]
            for _ in range(2 if j else 0):
                # r_k = <q_k, v>, summed as conj(sum q_k conj(v))
                r = np.einsum("kib,ib->kb", block[:j], v.conj()).conj()
                v -= np.einsum("kib,kb->ib", block[:j], r)
            norm = np.sqrt(np.einsum("ib,ib->b", v.real, v.real)
                           + np.einsum("ib,ib->b", v.imag, v.imag))
            zero = norm == 0.0
            if zero.any():
                bad[lo:lo + _GS_CHUNK] |= zero
                norm[zero] = 1.0
            v /= norm
    return q.transpose(2, 1, 0), bad


def _haar_batch(count: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitaries: the Q of a Ginibre draw G = QR whose R has
    a real positive diagonal (Mezzadri, Notices AMS 54, 2007)."""
    q, bad = _gram_schmidt(_ginibre_batch(count, n, rng))
    while bad.any():
        # measure-zero breakdown (a zero pivot): redraw the affected matrices
        rows = np.nonzero(bad)[0]
        q[rows], bad[rows] = _gram_schmidt(_ginibre_batch(len(rows), n, rng))
    return q


def sample_haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-random n x n unitary; u†u = I to machine precision."""
    if n < 1:
        raise ValueError("n must be positive")
    return _haar_batch(1, n, rng)[0]


# -- the generic parallel MC engine ----------------------------------------------------


def _sample_rounding(unitary_gain: float, terms_abs: float, chain: int) -> float:
    """Relative rounding bound of one integrand value exp(t) over a Haar draw u.

    First order in the unit roundoff u = 2**-53, three sources:

    * the draw: u is unitary only to ||u^H u - I||_2 <= 24u (99.9% quantile
      at most 8.4u, maximum 10.2u, over 1.6e6 draws at n = 1..24); with
      u = V H, V unitary and H Hermitian, t(u) - t(V) is at most that
      residual times `unitary_gain`;
    * the exponent: each product term in t passes through `chain`
      roundings (its factors, then the additions of the sum).  Taken as
      independent zero-mean errors (Higham & Mary, SIAM J. Sci. Comput. 41,
      2019, Thm 2.4) a chain's relative error stays below lambda*sqrt(chain)*u
      except with probability 2*exp(-lambda**2/2) < 7e-4 at lambda = 4;
      `terms_abs` bounds the sum of |terms|.  The worst case, chain*u, grows
      as n**2 and is not what a mean of many draws meets;
    * exp itself: exp, cos/sin and their product, 5u.

    An absolute error d in t is a relative error d in exp(t), so the sum of
    the three is relative to the sample's value.
    """
    return _U * (
        _EXP_ROUNDINGS
        + _HAAR_RESIDUAL * unitary_gain
        + _LAMBDA * math.sqrt(chain) * terms_abs
    )


def _sum_depth(count: int) -> int:
    """Most additions one value meets in numpy's pairwise sum of `count` values.

    A leaf of at most 128 doubles sums in 8 interleaved accumulators (15
    additions each, 3 combining levels, up to 7 trailing values); each
    halving above it adds one, and halves overshoot by up to 8 doubles, so
    ceil(log2(count / 56)) halvings cover complex values too; a reduction
    fed in buffers of 8192 adds one more per buffer.
    """
    if count <= 1:
        return 0
    halvings = max(0, math.ceil(math.log2(count / 56)))
    return min(count - 1, 25 + halvings + -(-count // 8192))


def _mc_mean(
    sample_values, n_samples: int, seed: int, threads: int, rel_rounding: float = 0.0
) -> list:
    """Average `sample_values(rng, count)` over deterministic worker substreams.

    The values come as shape (count,) or (k, count); the result is one
    MCEstimate per component, all from the same draws.  `rel_rounding`
    bounds each value's own rounding error relative to its magnitude (see
    `_sample_rounding`); each estimate's `rounding` adds to it the error of
    each batch sum, its division, and every merge.
    """
    if n_samples < 2:
        raise ValueError("need n_samples >= 2")
    threads = max(1, int(threads))
    workers = min(threads, n_samples)
    quota, extra = divmod(n_samples, workers)
    empty = (0, 0j, 0.0, 0.0, 0.0)

    def merge(acc, chunk):
        # Chan's parallel update of (count, mean, sum of squared deviations);
        # no large-term cancellation, so near-constant integrands report
        # their true tiny variance instead of rounding junk.  It runs on
        # Python scalars, one component at a time: numpy's x**2 (a multiply)
        # and np.abs (not hypot) differ from Python's pow and abs by an ulp
        # on some inputs, as does `m2r = m2r + a + b` (grouped differently).
        cnt, mean, m2r, m2i, err = acc
        ccnt, cmean, cm2r, cm2i, cerr = chunk
        tot = cnt + ccnt
        d = cmean - mean
        w = ccnt / tot
        m2r += cm2r + d.real**2 * cnt * ccnt / tot
        m2i += cm2i + d.imag**2 * cnt * ccnt / tot
        merged = mean + d * w
        # the weights carry both error bounds over; d, w, d * w and the sum
        # round once each, and not at all while acc is still empty
        err = (1 - w) * err + w * cerr
        if cnt:
            err += _U * (3 * w * abs(d) + abs(merged))
        return tot, merged, m2r, m2i, err

    def run(worker: int):
        rng = _substream(seed, worker)
        todo = quota + (1 if worker < extra else 0)
        accs = None
        while todo:
            count = min(todo, _BATCH)
            # components on contiguous complex rows, summed as `_sum_depth`
            # bounds (real rows and strided axes are summed differently)
            vals = np.ascontiguousarray(sample_values(rng, count), dtype=complex)
            vals = vals.reshape(-1, count)
            bmean = vals.mean(axis=1)
            bm2r = np.sum((vals.real - bmean.real[:, None]) ** 2, axis=1)
            bm2i = np.sum((vals.imag - bmean.imag[:, None]) ** 2, axis=1)
            abs_mean = np.abs(vals).sum(axis=1) / count
            berr = (rel_rounding + _U * _sum_depth(count)) * abs_mean
            berr += _U * np.hypot(bmean.real, bmean.imag)
            stats = zip(bmean.tolist(), bm2r.tolist(), bm2i.tolist(), berr.tolist())
            accs = [merge(a, (count, *st)) for a, st in zip(accs or [empty] * len(bmean), stats)]
            todo -= count
        return accs

    if workers == 1:
        partials = [run(0)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run, range(workers)))

    out = []
    for parts in zip(*partials):
        _, mean, m2r, m2i, rounding = reduce(merge, parts, empty)
        stderr = math.sqrt((m2r + m2i) / (n_samples - 1) / n_samples)
        out.append(MCEstimate(mean, stderr, n_samples, seed, rounding))
    return out


# -- the three evaluators ---------------------------------------------------------------


def hciz_mc(a, b, n_samples: int, seed: int, threads: int = 1) -> MCEstimate:
    """Monte Carlo mean of exp(Tr(u A u^-1 B)) over Haar samples, A=diag(a), B=diag(b).

    The exponent is t = sum_ij |u_ij|^2 a_j b_i.  Its rounding (see
    `_sample_rounding`): |u|^2 is doubly stochastic for unitary u, so with
    S = min(max|a| sum|b|, max|b| sum|a|) the sum of |terms| is at most S,
    and a residual E = u^H u - I moves t by at most ||E||_2 S; each term
    meets hypot, square, the real-by-complex and complex products (1, 1,
    1, 3 roundings) and the n**2 - 1 additions of the einsum, n**2 + 5 in all.
    """
    a, b = as_spectrum(a), as_spectrum(b)
    if a.n != b.n:
        raise DimensionMismatchError(f"spectra of lengths {a.n} and {b.n}")
    n = a.n
    av = np.array(a.eigs)
    bv = np.array(b.eigs)

    def values(rng, count):
        u = _haar_batch(count, n, rng)
        tr = np.einsum("bij,j,i->b", np.abs(u) ** 2, av, bv)
        return np.exp(tr)

    aa, ab = np.abs(av), np.abs(bv)
    gain = float(min(aa.max() * ab.sum(), ab.max() * aa.sum()))
    rel = _sample_rounding(gain, gain, n * n + 5)
    return _mc_mean(values, n_samples, seed, threads, rel)[0]


def _vdm_product(v: np.ndarray) -> complex:
    out = 1.0 + 0j
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            out *= v[j] - v[i]
    return complex(out)


def hciz_determinant(a, b, gap_tol: float = GAP_TOL_DEFAULT) -> complex:
    """Closed form: prod_{p<n} p! * det[exp(a_i b_j)] / (Vdm(a) Vdm(b)).

    Raises DegenerateSpectrumError when either spectrum has a pairwise gap
    below `gap_tol`; the character series is the stable route there.
    """
    a, b = as_spectrum(a), as_spectrum(b)
    if a.n != b.n:
        raise DimensionMismatchError(f"spectra of lengths {a.n} and {b.n}")
    for s in (a, b):
        if s.gap < gap_tol:
            raise DegenerateSpectrumError(s.gap, gap_tol)
    n = a.n
    if n == 1:
        return cmath.exp(a.eigs[0] * b.eigs[0])
    av = np.array(a.eigs)
    bv = np.array(b.eigs)
    mat = np.exp(np.outer(av, bv))
    vdm = _vdm_product(av) * _vdm_product(bv)
    return superfactorial(n - 1) * complex(np.linalg.det(mat)) / vdm


# one plan per (n, w); the default series at n <= 8 needs 8 * 25 of them
@lru_cache(maxsize=512)
def _shell_plan(n: int, w: int) -> tuple:
    """What the weight-w shell of `kernel_series` needs before any spectrum:
    the coefficients delta!/(lambda+delta)! of its partitions, as floats,
    and their Jacobi-Trudi index stacks grouped by length, as read-only
    arrays.  The partitions themselves are not kept: the stacks' positions
    give their order, and holding them would add a third to the memory."""
    shell = tuple(partitions_of_weight(w, n))
    delta_fact = vector_factorial(staircase(n))
    # int / int rounds correctly, as float(Fraction(...)) does
    coeffs = np.array([delta_fact / vector_factorial(lam.plus_staircase(n)) for lam in shell])
    stacks = jacobi_trudi_stacks(shell)
    for arr in (coeffs, *(a for group in stacks for a in group)):
        arr.flags.writeable = False
    return coeffs, stacks


def kernel_series(x, y, max_weight: int = 24, tol: float = 1e-8) -> SeriesResult:
    """Truncated expansion sum_lambda delta!/(lambda+delta)! s_lambda(x) conj(s_lambda(y)).

    Shells are whole weights; the sum stops early once n consecutive shells
    have absolute mass below 1e-3 * tol, and in any case at `max_weight`.
    A single tiny shell can be an accident of the spectrum (a traceless x
    kills weight 1); n in a row force p_1..p_n ~ 0, hence real convergence.
    Each shell's spectrum-independent part is built once per process
    (`_shell_plan`); a call computes the h-values and the determinants.
    """
    x, y = as_spectrum(x), as_spectrum(y)
    if x.n != y.n:
        raise DimensionMismatchError(f"spectra of lengths {x.n} and {y.n}")
    if max_weight < 0:
        raise ValueError("max_weight must be nonnegative")
    n = x.n
    kmax = max_weight + n - 1
    # x and y share one batch, so each shell gathers from its stacks once
    h = np.stack([
        np.array(homogeneous_values(x.eigs, kmax)),
        np.array(homogeneous_values([e.conjugate() for e in y.eigs], kmax)),
    ])
    total = 0j
    shell_mag = 0.0
    used = 0
    small_run = 0
    for w in range(max_weight + 1):
        coeffs, stacks = _shell_plan(n, w)
        sx, sy = schur_values(stacks, h)
        terms = coeffs * sx * sy
        total += complex(terms.sum())
        shell_mag = float(np.abs(terms).sum())
        used = w
        small_run = small_run + 1 if shell_mag < 1e-3 * tol else 0
        if small_run >= n:
            break
    return SeriesResult(value=total, max_weight_used=used, last_shell_magnitude=shell_mag)


def kernel_q_mc(x, y, n_samples: int, seed: int, threads: int = 1) -> MCEstimate:
    """MC mean of exp(Tr(u^-1 x u y†)) for square matrices x, y.

    The exponent's rounding (see `_sample_rounding`): with F = |x|_F |y|_F,
    a residual E = u^H u - I moves t by at most ||E||_2 F; the terms
    conj(u_ki) x_kl u_lj conj(y_ij) sum in absolute value to at most n F
    (the Frobenius norm of |u| is sqrt(n)); each meets three complex
    products (3 roundings each) and two einsum sums of n**2 terms.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimensionMismatchError(f"x has shape {x.shape}, expected square")
    if y.shape != x.shape:
        raise DimensionMismatchError(f"y has shape {y.shape}, expected {x.shape}")
    n = x.shape[0]
    yc = y.conj()

    def values(rng, count):
        u = _haar_batch(count, n, rng)
        w = np.einsum("bki,kl,blj->bij", u.conj(), x, u)
        tr = np.einsum("bij,ij->b", w, yc)
        return np.exp(tr)

    gain = float(np.linalg.norm(x) * np.linalg.norm(y))
    rel = _sample_rounding(gain, n * gain, 2 * n * n + 7)
    return _mc_mean(values, n_samples, seed, threads, rel)[0]


# -- statistical checks -----------------------------------------------------------------


@dataclass(frozen=True)
class GinibreMomentReport:
    n: int
    trace_estimate: MCEstimate
    det_estimate: MCEstimate
    trace_expected: float
    det_expected: float


def ginibre_moment_suite(
    n: int, n_samples: int, seed: int, threads: int = 1
) -> GinibreMomentReport:
    """Estimates of E|Tr z|^2 and E|det z|^2 against their exact values n and n!.

    Both come from the same draws: one stream, n_samples matrices.
    """
    if not 1 <= n <= 6:
        raise ValueError("n out of the supported range 1..6")

    def moments(rng, count):
        z = _ginibre_batch(count, n, rng)
        return np.abs([np.einsum("bii->b", z), np.linalg.det(z)]) ** 2

    trace_est, det_est = _mc_mean(moments, n_samples, seed, threads)
    return GinibreMomentReport(
        n=n,
        trace_estimate=trace_est,
        det_estimate=det_est,
        trace_expected=float(n),
        det_expected=float(math.factorial(n)),
    )


def coherent_reproducing_check(a, f: ExactPoly, max_weight: int) -> float:
    """|<R_a truncated, F> - F(a)| for alternating F; exact pairing, numeric value.

    The kernel section R_a = sum_lambda d_lambda conj(d_lambda(a)) reproduces
    point evaluation; once max_weight reaches deg F the truncation error is
    exactly zero, so the residual is pure floating rounding.
    """
    a = as_spectrum(a)
    n = a.n
    if f.n_vars != n:
        raise DimensionMismatchError(f"polynomial over {f.n_vars} variables, expected {n}")
    if not is_alternating(f):
        raise NotAlternatingError("the reproducing check needs an alternating polynomial")
    acc = 0j
    for lam in enumerate_partitions(max_weight, n):
        dl = d_lambda(lam, n)
        pairing = bargmann_inner(dl.poly, f)
        if pairing.is_zero:
            continue
        scale2 = complex(dl.scale.squared().to_complex())
        acc += scale2 * dl.poly.eval_complex(a.eigs) * pairing.to_complex()
    return abs(acc - f.eval_complex(a.eigs))


def random_real_spectrum(
    n: int,
    rng: np.random.Generator,
    low: float = -1.0,
    high: float = 1.0,
    min_gap: float = 0.1,
) -> Spectrum:
    """Sorted uniform draw from [low, high]^n, rejected until the gap clears min_gap."""
    if n < 1:
        raise ValueError("n must be positive")
    if n * min_gap >= (high - low):
        raise ValueError("gap constraint cannot be met on this interval")
    while True:
        vals = np.sort(rng.uniform(low, high, n))
        if n == 1 or float(np.diff(vals).min()) >= min_gap:
            return Spectrum(tuple(float(v) for v in vals))
