"""Floating-point evaluation of the unitary-group exponential integral

    I(a, b) = integral over the unitary group of exp(Tr(u A u^-1 B)) du

by three independent routes: the closed-form ratio of a determinant of
exponentials to Vandermonde products, Monte Carlo over Haar measure, and
the truncated Schur-function expansion of the reproducing kernel.

This is the float layer, the h recurrence (`_prefix_table`) and
`schur_numeric` included.  It imports no `hciz` module but `errors`, and
the exact layer (`scalars`, `exactpoly`, `symfn`, `invariant`) imports
neither it nor numpy.

Convention split, deliberately kept apart: `hciz_*` functions take both
spectra holomorphically (the integral as usually written), while the
`kernel_*` functions conjugate their second argument (the reproducing
kernel is anti-holomorphic there).  The two agree through

    kernel(x, y) == hciz(x, conj(y)).

Randomness comes from SFC64 streams: Monte Carlo worker w draws from
`SFC64(SeedSequence(seed, spawn_key=(w,)))` (`_substream`), so results are
reproducible for a fixed (seed, worker count) and independent of
scheduling.  On a shared 2-core Xeon SFC64 gives 64 bits in 3.2 ns, and
counter-based Philox, which the CLI keeps for its `r` spectra alone, in 7.8.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import DegenerateSpectrumError, DimensionMismatchError

GAP_TOL_DEFAULT = 1e-8
_BATCH = 32768  # integrand values per Monte Carlo batch
_BATCH_ENTRIES = 2**17  # complex matrix entries per batch of n x n draws (2 MiB)
MAX_THREADS = 64  # Monte Carlo workers: `threads` outside 1..MAX_THREADS raises

# the most entries of the series' (W + n) x n prefix tables: W = 499,998 at
# n = 2 takes about 0.6 s and 90 MB, W = 9900 at n = 100 about 1.2 s and 80 MB
MAX_SERIES_ENTRIES = 1_000_000

# rounding model of the MC estimates (derived in `_sample_rounding`)
_U = 2.0**-53  # unit roundoff of float64
_EXP_ROUNDINGS = 5  # exp, cos/sin, and their product
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

    @property
    def band(self) -> float:
        """The agreement band: 4 standard errors plus the rounding bound."""
        return 4.0 * self.stderr + self.rounding

    def within(self, target: complex) -> bool:
        return abs(self.mean - target) <= self.band


@dataclass(frozen=True)
class SeriesResult:
    """The character series summed over every lambda with lambda_1 <= W.

    `max_weight_used` is W, so every whole shell of weight <= W is in
    `value`; `last_shell_magnitude` bounds the rest of the series, the
    absolute error of `value` apart from its rounding.
    """

    value: complex
    max_weight_used: int
    last_shell_magnitude: float


# -- sampling ---------------------------------------------------------------------


def _substream(seed: int, worker: int) -> np.random.Generator:
    """The generator of Monte Carlo worker `worker`: SFC64 seeded by
    `SeedSequence(seed, spawn_key=(worker,))`, the state of
    `SeedSequence(seed).spawn(worker + 1)[worker]`."""
    seq = np.random.SeedSequence(seed, spawn_key=(worker,))
    return np.random.Generator(np.random.SFC64(seq))


def _ginibre_batch(count: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """`count` n x n matrices with i.i.d. standard complex Gaussian entries
    (E|z|^2 = 1), from one `standard_normal` call: each entry's real and
    imaginary parts are adjacent in the draw."""
    z = rng.standard_normal((count, n, n, 2)).view(complex)[..., 0]
    z *= math.sqrt(0.5)
    return z


def sample_ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    """One n x n matrix with i.i.d. standard complex Gaussian entries."""
    if n < 1:
        raise ValueError("n must be positive")
    return _ginibre_batch(1, n, rng)[0]


def _haar_batch(
    count: int, n: int, rng: np.random.Generator, columns: int | None = None
) -> np.ndarray:
    """Haar-distributed unitaries, as (matrix, row, column): the Q of a
    Ginibre draw G = QR whose R has a real positive diagonal (Mezzadri,
    Notices AMS 54, 2007), by Householder reflections of fresh sub-columns
    (Stewart, SIAM J. Numer. Anal. 17, 1980).

    Column k draws x_k, n - k complex Gaussians (re and im adjacent), into
    rows k.. and scales it to y_k = x_k/|x_k|: the reflector H_k of
    Householder QR depends on G's column k alone, so it leaves the trailing
    columns i.i.d. Gaussian and independent of it, and their rows k + 1..
    are drawn afresh, sum_(k<n) (n - k) normals in all.  Q[:, k] =
    H_0 ... H_(k-1) [0; y_k], where H_k = I - w w^H/(1 + |y_k0|),
    w = y_k + (y_k0/|y_k0|) e_1, sends y_k to -(y_k0/|y_k0|) e_1.  Applied
    backwards, H_k meets columns whose row k is still 0: it writes
    -r y_k0/|y_k0| there and subtracts r y_k'/(1 + |y_k0|) below, with
    r = y_k'^H z', one vectorised step on q[j, i, b] (column j, row i, matrix b).
    Each scaling multiplies by a real reciprocal (1/|x_k|, -1/|y_k0|,
    1/(1 + |y_k0|)), so no step runs numpy's complex division.

    With `columns` = c < n only an n x c frame is built.  Its column k reads
    only y_0..y_k, first in the stream, so it is the full unitary's first c
    columns (up to a measure-zero redraw), bit for bit in batches of two or
    more, where every numpy loop runs along the batch.
    """
    columns = n if columns is None else columns
    q = np.empty((columns, n, count), dtype=complex)
    bad = np.zeros(count, dtype=bool)
    for k in range(columns):
        x = q[k, k:]
        parts = x.view(float)
        rng.standard_normal(out=parts)
        squares = np.einsum("ib,ib->b", parts, parts)  # re^2 and im^2 sums, adjacent
        norm = np.sqrt(squares[0::2] + squares[1::2])
        zero = norm == 0.0
        bad |= zero
        norm[zero] = 1.0
        x *= 1.0 / norm
    for k in range(columns - 2, -1, -1):
        y0 = q[k, k]
        mag = np.abs(y0)
        zero = mag == 0.0
        bad |= zero
        mag[zero] = 1.0
        y, z = q[k, k + 1:], q[k + 1:, k + 1:]
        r = np.einsum("ib,jib->jb", y.conj(), z)
        np.multiply(r, y0 * (-1.0 / mag), out=q[k + 1:, k])
        r *= 1.0 / (1.0 + mag)
        z -= y * r[:, None]
    if bad.any():
        # measure-zero breakdown (a zero pivot): redraw the affected matrices
        rows = np.nonzero(bad)[0]
        q[:, :, rows] = _haar_batch(len(rows), n, rng, columns).T
    return q.transpose(2, 1, 0)


def sample_haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-random n x n unitary; u†u = I to machine precision."""
    if n < 1:
        raise ValueError("n must be positive")
    return _haar_batch(1, n, rng)[0]


# -- the generic parallel MC engine ----------------------------------------------------


def _matrix_batch(n: int) -> int:
    """Draws per batch of an integrand on n x n matrices: `_BATCH`, cut so
    that one batch's draw holds at most `_BATCH_ENTRIES` complex entries
    (32768 at n <= 2, 14563 at n = 3, 8192 at n = 4, 2048 at n = 8)."""
    return max(1, min(_BATCH, _BATCH_ENTRIES // (n * n)))


def _haar_residual(n: int) -> float:
    """A bound on ||u^H u - I||_2 of an n x n `_haar_batch` draw, in units
    of `_U`: 18 + 1.5 sqrt(n), measured (see `_sample_rounding`)."""
    return 18.0 + 1.5 * math.sqrt(n)


def _sample_rounding(n: int, unitary_gain: float, terms_abs: float, chain: int) -> float:
    """Relative rounding bound of one integrand value exp(t) over an n x n
    Haar draw u.

    First order in the unit roundoff u = 2**-53, three sources:

    * the draw: u is unitary only to ||u^H u - I||_2 <= `_haar_residual(n)` u;
      with u = V H, V unitary and H Hermitian, t(u) - t(V) is at most that
      residual times `unitary_gain`.  The residual grows with n: its 99.9%
      quantile read 8.5u, 13.0u, 16.1u, 17.1u, 20.1u, 24.3u and 31.0u at
      n = 2, 8, 24, 32, 64, 128 and 256 (about 8 + 1.45 sqrt(n) from n = 8),
      its maximum 20.0u over n <= 24 and 21.6u, 25.2u and 31.5u at n = 64,
      128 and 256 (1e5 draws at each n <= 8, 4e4 at n = 9..24, then 16000,
      6000, 2000 and 400), so the bound clears every maximum by 4u or more;
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
        + _haar_residual(n) * unitary_gain
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


def _check_mc_limits(n_samples: int, threads: int) -> None:
    """ValueError unless `_mc_mean` accepts this sample count and worker count."""
    if n_samples < 2:
        raise ValueError("need n_samples >= 2")
    if threads != int(threads) or not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"threads must be an integer in 1..{MAX_THREADS}, got {threads}")


def _mc_mean(
    sample_values, n_samples: int, seed: int, threads: int, rel_rounding: float = 0.0,
    *, batch: int,
) -> list:
    """Average `sample_values(rng, count)` over deterministic worker substreams.

    Each worker asks for its samples in batches of at most `batch`, which
    fixes how its stream is split: integrands on n x n matrices pass
    `_matrix_batch(n)`, so memory does not grow as n**2, and scalar ones
    `_BATCH`.
    The values come as shape (count,) or (k, count); the result is one
    MCEstimate per component, all from the same draws.  `rel_rounding`
    bounds each value's own rounding error relative to its magnitude (see
    `_sample_rounding`); each estimate's `rounding` adds to it the error of
    each batch sum, its division, and every merge.
    """
    _check_mc_limits(n_samples, threads)
    workers = min(int(threads), n_samples)
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
            count = min(todo, batch)
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
            del vals  # not held while the next batch is drawn
        return accs

    if workers == 1:
        partials = [run(0)]
    else:
        # imported here: concurrent.futures costs a one-worker command ~8 ms
        from concurrent.futures import ThreadPoolExecutor

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

    The exponent is t = sum_ij |u_ij|^2 a_j b_i.  The rows of |u|^2 sum to
    1, so shifting A by alpha = a_k moves t by alpha Tr B and takes column k
    out of it:

        t = alpha sum_i b_i + sum_{j != k} (a_j - alpha) sum_i b_i |u_ij|^2.

    So each sample needs only an n x (n - 1) frame of u, `_haar_batch` with
    n - 1 columns; Haar measure is invariant under column permutations, so
    the frame's columns stand for the a_j, j != k, in order.  k is the
    (lowest) index that minimises the gain S below.  Where every a_j - alpha
    is 0 (n = 1, or a coincident a-spectrum) the integrand is the constant
    exp(alpha sum b) and nothing is drawn.  Real spectra are summed in real
    arithmetic.

    Rounding (see `_sample_rounding`): with c_j = a_j - alpha, the frame's
    columns of |u|^2 sum to 1 and its rows to at most 1, so with
    S = min(max|c| sum|b|, max|b| sum|c|) the terms c_j b_i |u_ij|^2 sum in
    absolute value to at most S, and a residual E = u^H u - I (a block of
    the full unitary's) moves t by at most ||E||_2 S.  The re^2 and im^2
    parts of each term meet the subtraction, the product c_j b_i (3
    roundings when complex), the square, the product with it, the
    n(n - 1) - 1 additions of their half of the sum, and the two that add
    the halves and the constant: n(n - 1) + 7 in all.  The constant, alpha
    times a correctly rounded fsum of b, is off by at most 5u |alpha sum b|
    (the fsum, the complex product and its addition).  Draws come in
    batches of `_matrix_batch(n)` frames, a few MiB at any n.
    """
    a, b = as_spectrum(a), as_spectrum(b)
    if a.n != b.n:
        raise DimensionMismatchError(f"spectra of lengths {a.n} and {b.n}")
    n = a.n
    av = np.array(a.eigs)
    bv = np.array(b.eigs)
    ab = np.abs(bv)
    dist = np.abs(av[:, None] - av)  # dist[j, k] = |a_j - a_k|
    gains = np.minimum(dist.max(axis=0) * ab.sum(), ab.max() * dist.sum(axis=0))
    k = int(np.argmin(gains))
    # coef[j, i] = (a_j - alpha) b_i over the frame's columns j, the layout
    # of the (column, row, matrix) draw
    coef = np.outer(np.delete(av, k) - av[k], bv).ravel()
    const = av[k] * complex(math.fsum(bv.real), math.fsum(bv.imag))
    if not (av.imag.any() or bv.imag.any()):
        coef, const = coef.real, const.real

    def values(rng, count):
        if not coef.any():
            return np.full(count, np.exp(const))
        frame = np.ascontiguousarray(_haar_batch(count, n, rng, n - 1).T)
        # each entry's re^2 and im^2, squared in place, weighted apart, then added
        parts = frame.view(float).reshape(len(coef), 2 * count)
        sums = coef @ np.square(parts, out=parts)
        return np.exp(const + (sums[0::2] + sums[1::2]))

    gain = float(gains[k])
    rel = _sample_rounding(n, gain, gain, n * (n - 1) + 7) + 5 * _U * abs(const)
    return _mc_mean(values, n_samples, seed, threads, rel, batch=_matrix_batch(n))[0]


def _vdm_product(v: np.ndarray) -> complex:
    out = 1.0 + 0j
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            out *= v[j] - v[i]
    return complex(out)


def hciz_determinant(a, b, gap_tol: float = GAP_TOL_DEFAULT) -> complex:
    """Closed form: prod_{p<n} p! * det[exp(a_i b_j)] / (Vdm(a) Vdm(b)).

    Raises DegenerateSpectrumError when either spectrum has a pairwise gap
    below `gap_tol`; the character series is the stable route there.  Past
    the double range the value is inf or nan, or an ArithmeticError is
    raised (e^(ab) at n = 1, prod p! from n = 28, a Vandermonde product of 0).
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
    scale = float(math.prod(map(math.factorial, range(n))))
    return scale * complex(np.linalg.det(mat)) / vdm


def _check_series_limits(max_weight: int, tol: float) -> None:
    """ValueError unless `kernel_series` accepts this max_weight and tol."""
    if max_weight < 0:
        raise ValueError("max_weight must be nonnegative")
    # inf would take W = 0 whatever the tail, nan or < 0 would never stop: all rejected
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")


def _exp_remainder(r: float, w: int) -> float:
    """An upper bound on sum_{k>w} r^k/k!, the remainder of e^r after degree w.

    Once w + 2 > r the terms fall by ratios below q = r/(w + 2), so the
    remainder is at most its first term r^(w+1)/(w+1)! over 1 - q; before
    that it is bounded by e^r itself.  inf where the bound passes the
    double range.
    """
    if w + 2 <= r:
        log_bound = r
    elif r:
        log_bound = (w + 1) * math.log(r) - math.lgamma(w + 2) + math.log((w + 2) / (w + 2 - r))
    else:
        return 0.0
    return math.exp(log_bound) if log_bound < 709.0 else math.inf


def schur_numeric(lam, eigs) -> complex:
    """s_lambda at complex points, lambda a `Partition`: the minor on rows
    lambda + delta of the unscaled (lambda_1 + n) x n `_prefix_table` (see
    `kernel_series`); ValueError before it would pass `MAX_SERIES_ENTRIES`.

    In increasing order those rows start with 0..n - ell - 1, a unit
    triangular block with zeros to its right, so only the trailing
    ell x ell block counts.  At ell = 1 that is the entry h_lambda_1(x),
    read as it is: `np.linalg.det` rounds even a 1 x 1 matrix.
    """
    n, ell = len(eigs), lam.length
    if ell > n:
        raise DimensionMismatchError(f"partition {lam} needs more than {n} variables")
    rows = lam.part(0) + n
    if rows * n > MAX_SERIES_ENTRIES:
        raise ValueError(f"s[{lam}] at {n} points needs a {rows} x {n} prefix table, "
                         f"above {MAX_SERIES_ENTRIES} entries")
    table = _prefix_table(eigs, rows, 1.0)
    if ell == 1:
        return complex(table[-1, -1])
    block = table[[lam[ell - 1 - i] + n - ell + i for i in range(ell)], n - ell:]
    return complex(np.linalg.det(block))  # 1 at ell = 0


def _prefix_table(v, rows: int, scale) -> np.ndarray:
    """G[m, i] = h_{m-i}(v_0..v_i) scale[m, i] for m < rows (0 where m < i).

    Column i holds the h-values of the prefix v_0..v_i, the divided
    differences of t^m over those points: one running list takes each
    point as h_k += v_i h_{k-1} (Macdonald I.2), stable at coincident
    points, within (n + k) roundings of h_k(|v|).  No entry is -0.0, so a
    scale of 1.0 changes no finite one.
    """
    table = np.zeros((rows, len(v)), dtype=complex)
    h = [1.0 + 0j] + [0j] * (rows - 1)
    for i, x in enumerate(v):
        x = complex(x)
        for k in range(1, rows):
            h[k] += x * h[k - 1]
        table[i:, i] = h[:rows - i]
    return table * scale


def kernel_series(x, y, max_weight: int = 24, tol: float = 1e-8) -> SeriesResult:
    """Truncated expansion sum_lambda delta!/(lambda+delta)! s_lambda(x) conj(s_lambda(y)).

    The sum runs over every lambda with lambda_1 <= W, which by Cauchy-Binet
    (Andreief) is one n x n determinant.  With z = conj(y), s and t the
    means of x and z, x' = x - s and z' = z - t,

        K(x, y) = e^(n s t) K(x', z'),    K_W(x', z') = det(G_x'^T G_z'),

    where G_v[m, i] = h_{m-i}(v_0..v_i) sqrt(i!/m!) for m < W + n.  By Newton
    interpolation, v_j^m = sum_i h_{m-i}(v_0..v_i) prod_{k<i} (v_j - v_k), so
    the minor of the unscaled table on rows lambda + delta is s_lambda(v);
    the square roots carry delta!/(lambda+delta)!.  The weight-w shell is at
    most r^w / w! in absolute value, r = n max|x'| max|z'|, so the
    truncation error is at most |e^(n s t)| times the remainder of e^r
    after degree W (`_exp_remainder`), returned as `last_shell_magnitude`.
    W is the smallest weight <= `max_weight` that brings it to 1e-3 * tol
    or below, else `max_weight`; `tol` must be finite and >= 0, and 0 takes
    W = `max_weight`; a W whose tables would pass `MAX_SERIES_ENTRIES`
    entries raises ValueError before they are built.  A coincident spectrum
    centers to 0: its value is e^(n s t) exactly.  Where e^(n s t), or n s t
    itself, passes the double range, OverflowError is raised.
    """
    x, y = as_spectrum(x), as_spectrum(y)
    if x.n != y.n:
        raise DimensionMismatchError(f"spectra of lengths {x.n} and {y.n}")
    _check_series_limits(max_weight, tol)
    n = x.n
    z = [e.conjugate() for e in y.eigs]
    s, t = sum(x.eigs) / n, sum(z) / n
    xc = [e - s for e in x.eigs]
    zc = [e - t for e in z]
    nst = n * s * t
    if not cmath.isfinite(nst):  # where cmath.exp would raise ValueError
        raise OverflowError(f"the exponent n s t = {nst} of e^(n s t) is not finite")
    factor = cmath.exp(nst)
    r = n * max(map(abs, xc)) * max(map(abs, zc))

    def tail(w):
        rem = _exp_remainder(r, w)
        return abs(factor) * rem if rem else 0.0

    fits = max(0, MAX_SERIES_ENTRIES // n - n)  # the largest W whose tables fit
    w = max_weight
    if tol:
        w = next((k for k in range(min(max_weight, fits) + 1) if tail(k) <= 1e-3 * tol),
                 max_weight)
    if w > fits:
        raise ValueError(f"the series at n = {n} would sum past weight {fits}, and its "
                         f"(W + n) x n tables would pass {MAX_SERIES_ENTRIES} entries")
    value = factor
    if w:
        rows = w + n
        m = np.arange(rows)[:, None]
        # sqrt(i!/m!) = prod_{i<k<=m} 1/sqrt(k), and 1 where m <= i
        scale = np.cumprod(np.where(m > np.arange(n), 1 / np.sqrt(np.maximum(m, 1)), 1.0), axis=0)
        gram = _prefix_table(xc, rows, scale).T @ _prefix_table(zc, rows, scale)
        value *= complex(np.linalg.det(gram))
    return SeriesResult(value=value, max_weight_used=w, last_shell_magnitude=tail(w))


def kernel_q_mc(x, y, n_samples: int, seed: int, threads: int = 1) -> MCEstimate:
    """MC mean of exp(Tr(u^-1 x u y†)) for square matrices x, y.

    The exponent is t = sum_kj conj(u_kj) (x u y^H)_kj, O(n**3) per draw.
    Its rounding (see `_sample_rounding`): with F = |x|_F |y|_F, a residual
    E = u^H u - I moves t by at most ||E||_2 F; the terms
    conj(u_kj) x_kl u_li conj(y_ji) sum in absolute value to at most n F
    (the Frobenius norm of |u| is sqrt(n)); each meets three complex
    products (3 roundings each), the n - 1 additions of each of the two
    matrix products and the n**2 - 1 of the final sum, n**2 + 2n + 6 in all.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimensionMismatchError(f"x has shape {x.shape}, expected square")
    if y.shape != x.shape:
        raise DimensionMismatchError(f"y has shape {y.shape}, expected {x.shape}")
    n = x.shape[0]
    yh = y.conj().T

    def values(rng, count):
        u = _haar_batch(count, n, rng)
        tr = np.einsum("bkj,bkj->b", u.conj(), x @ u @ yh)
        return np.exp(tr)

    gain = float(np.linalg.norm(x) * np.linalg.norm(y))
    rel = _sample_rounding(n, gain, n * gain, n * n + 2 * n + 6)
    return _mc_mean(values, n_samples, seed, threads, rel, batch=_matrix_batch(n))[0]


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

    trace_est, det_est = _mc_mean(moments, n_samples, seed, threads, batch=_matrix_batch(n))
    return GinibreMomentReport(
        n=n,
        trace_estimate=trace_est,
        det_estimate=det_est,
        trace_expected=float(n),
        det_expected=float(math.factorial(n)),
    )


def random_real_spectrum(n: int, rng: np.random.Generator) -> Spectrum:
    """Uniform draw from the sorted points of [-1, 1]^n whose gaps all clear 0.1.

    Subtracting 0.1 i from the i-th smallest point maps these configurations
    one to one, with unit Jacobian, onto the sorted points of
    [0, 2 - 0.1 (n - 1)]^n, so the draw is n sorted uniforms there, shifted
    back.
    """
    if n < 1:
        raise ValueError("n must be positive")
    gap = 0.1
    if n * gap >= 2.0:
        raise ValueError("gap constraint cannot be met on this interval")
    slack = 2.0 - (n - 1) * gap
    vals = -1.0 + np.sort(rng.uniform(0.0, slack, n)) + gap * np.arange(n)
    return Spectrum(tuple(float(v) for v in vals))
