import cmath
import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from hciz import numeric
from hciz.errors import DegenerateSpectrumError, DimensionMismatchError, NotAlternatingError
from hciz.exactpoly import ExactPoly
from hciz.invariant import coherent_reproducing_check
from hciz.numeric import (
    _BATCH,
    _U,
    _haar_residual,
    _mc_mean,
    GAP_TOL_DEFAULT,
    MAX_THREADS,
    MCEstimate,
    Spectrum,
    as_spectrum,
    ginibre_moment_suite,
    hciz_determinant,
    hciz_mc,
    kernel_q_mc,
    kernel_series,
    random_real_spectrum,
    sample_ginibre,
    sample_haar_unitary,
)
from hciz.symfn import Partition, alternant, staircase, vector_factorial


def det_n2_by_hand(a, b):
    """Direct transcription of the two-point closed form, kept independent of
    the library implementation."""
    num = cmath.exp(a[0] * b[0] + a[1] * b[1]) - cmath.exp(a[0] * b[1] + a[1] * b[0])
    return num / ((a[1] - a[0]) * (b[1] - b[0]))


class TestSpectrum:
    def test_gap_over_all_pairs(self):
        s = Spectrum((0.0, 10.0, 0.5))
        assert s.gap == pytest.approx(0.5)
        assert s.n == 3

    def test_single_point_gap_infinite(self):
        assert Spectrum((2.0,)).gap == math.inf

    def test_conj_and_is_real(self):
        s = Spectrum((1 + 2j, 3.0))
        assert s.conj().eigs == ((1 - 2j), (3 + 0j))
        assert not all(e.imag == 0 for e in s.eigs)
        assert all(e.imag == 0 for e in Spectrum((1.0, 2.0)).eigs)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            Spectrum(())
        with pytest.raises(ValueError):
            Spectrum((float("nan"),))

    def test_as_spectrum_passthrough(self):
        s = Spectrum((1.0,))
        assert as_spectrum(s) is s
        assert as_spectrum([1.0, 2.0]).eigs == ((1 + 0j), (2 + 0j))


class TestSamplers:
    def test_haar_unitary_to_machine_precision(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 5):
            u = sample_haar_unitary(n, rng)
            res = np.abs(u.conj().T @ u - np.eye(n)).max()
            assert res < 1e-13

    def test_haar_residual_within_rounding_model(self):
        # the MC rounding bound takes ||u^H u - I||_2 <= _haar_residual(n) * u
        for n in (1, 2, 4, 8):
            rng = np.random.Generator(np.random.Philox(n))
            us = np.stack([sample_haar_unitary(n, rng) for _ in range(5000)])
            gram = np.einsum("bki,bkj->bij", us.conj(), us) - np.eye(n)
            resid = np.linalg.norm(gram, ord=2, axis=(1, 2))
            assert np.quantile(resid, 0.999) <= _haar_residual(n) * _U

    @pytest.mark.parametrize("n, count", [(2, 4000), (8, 4000), (32, 2000)])
    def test_haar_residual_bounds_every_batched_draw(self, n, count):
        # the bound grows with n; every draw of a batch stays under it
        u = numeric._haar_batch(count, n, numeric._substream(n, 0))
        assert _unitarity_residuals(u).max() <= _haar_residual(n) * _U

    def test_haar_entry_moment(self):
        # E|u_ij|^2 = 1/n for every entry
        rng = np.random.default_rng(1)
        n = 3
        us = np.stack([sample_haar_unitary(n, rng) for _ in range(4000)])
        acc = (np.abs(us) ** 2).mean(axis=0)
        assert np.abs(acc - 1.0 / n).max() < 0.03

    def test_ginibre_moments(self):
        rng = np.random.default_rng(2)
        m = 20000
        zs = np.stack([sample_ginibre(2, rng) for _ in range(m)])
        assert abs(zs[:, 0, 0].mean()) < 0.05
        assert abs((np.abs(zs[:, 0, 0]) ** 2).mean() - 1.0) < 0.05

    def test_ginibre_draws_are_pinned(self):
        # recorded when `sample_ginibre` drew its own matrix, before it and the
        # moment suite shared one batched draw; one draw of four is the same stream
        rng = np.random.Generator(np.random.Philox(4))
        zs = np.stack([sample_ginibre(3, rng) for _ in range(4)])
        text = " ".join(float(x).hex() for x in zs.ravel().view(float))
        assert (hashlib.sha256(text.encode()).hexdigest()
                == "300406b997092b8564a3ebdc8f3493bfbdb35d83941af638f5fd36adcd680c99")
        batch = numeric._ginibre_batch(4, 3, np.random.Generator(np.random.Philox(4)))
        assert batch.shape == (4, 3, 3) and np.array_equal(batch, zs)

    def test_rejects_nonpositive_n(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            sample_haar_unitary(0, rng)
        with pytest.raises(ValueError):
            sample_ginibre(0, rng)


def _ginibre_of_draws(count, n, rng, columns=None):
    """The Ginibre matrices (or their first `columns` columns) whose Q factors
    `_haar_batch` builds, from the same draws, as (matrix, row, column):
    column k is H_0 ... H_(k-1) [c_k; x_k], with x_k column k's draw
    of n - k complex normals, c_k k fresh normals from a second stream, and
    H_k the explicit n x n reflector on rows k.. that sends x_k to a
    multiple of e_k.  Each H_k leaves the columns right of k i.i.d. Gaussian
    (Stewart, SIAM J. Numer. Anal. 17, 1980), so these are Ginibre draws."""
    columns = n if columns is None else columns
    above = np.random.Generator(np.random.Philox(count))
    g = np.empty((count, n, columns), dtype=complex)
    acc = np.broadcast_to(np.eye(n, dtype=complex), (count, n, n))
    for k in range(columns):
        x = rng.standard_normal((n - k, count, 2)).view(complex)[..., 0].T
        v = np.zeros((count, n), dtype=complex)
        v[:, :k] = above.standard_normal((count, k, 2)).view(complex)[..., 0]
        v[:, k:] = x
        g[:, :, k] = np.einsum("bij,bj->bi", acc, v)
        y = x / np.linalg.norm(x, axis=1)[:, None]
        w = np.zeros((count, n), dtype=complex)
        w[:, k:] = y
        w[:, k] += y[:, 0] / np.abs(y[:, 0])
        acc = acc @ (np.eye(n) - w[:, :, None] * w[:, None, :].conj()
                     / (1 + np.abs(y[:, 0]))[:, None, None])
    return g


def _qr_haar_reference(count, n, rng, columns=None):
    """The QR route to the same unitaries (or n x columns frames): Q of the
    thin G = QR, times R's diagonal phases, G from `_ginibre_of_draws`."""
    q, r = np.linalg.qr(_ginibre_of_draws(count, n, rng, columns))
    d = np.einsum("bii->bi", r)
    return q * (d / np.abs(d))[:, None, :]


def _unitarity_residuals(u):
    n = u.shape[-1]
    gram = np.einsum("bki,bkj->bij", u.conj(), u) - np.eye(n)
    return np.linalg.norm(gram, ord=2, axis=(1, 2))


class _RecordingGenerator:
    """A Generator that records the name of each method called on it, and the
    shape of each `standard_normal` draw after `spoil(call, draw)` has
    edited it (call counts the draws before it)."""

    def __init__(self, rng, spoil=None):
        self._rng = rng
        self._spoil = spoil
        self.calls = []
        self.shapes = []

    def standard_normal(self, *args, **kwargs):
        self.calls.append("standard_normal")
        got = self._rng.standard_normal(*args, **kwargs)
        if self._spoil is not None:
            self._spoil(len(self.shapes), got)
        self.shapes.append(got.shape)
        return got

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self._rng, name)


def _recording_substreams(monkeypatch):
    """Patch `_substream` so that each Monte Carlo worker draws from a
    `_RecordingGenerator`; return the list of those generators."""
    gens = []
    real = numeric._substream

    def substream(seed, worker):
        gens.append(_RecordingGenerator(real(seed, worker)))
        return gens[-1]

    monkeypatch.setattr(numeric, "_substream", substream)
    return gens


def _haar_batch_counts(shapes, n, columns):
    """The batch sizes of a run of Haar draws, checking that each batch is
    one draw per column k of n - k complex normals per matrix."""
    counts = [s[1] // 2 for s in shapes[::columns]] if columns else []
    assert shapes == [(n - k, 2 * c) for c in counts for k in range(columns)]
    return counts


_PAST_CHUNK = 8195  # a count across 8192


class TestHaarSampler:
    @pytest.mark.parametrize("n", list(range(1, 14)))
    def test_q_factor_with_positive_diagonal(self, n):
        # U is the Q of the Ginibre draw G = QR it stands for, R upper
        # triangular with diag(R) > 0
        def rng():
            return np.random.Generator(np.random.Philox(40 + n))

        u = numeric._haar_batch(_PAST_CHUNK, n, rng())
        g = _ginibre_of_draws(_PAST_CHUNK, n, rng())
        r = np.einsum("bki,bkj->bij", u.conj(), g)
        tol = 64 * _U * np.linalg.norm(g, axis=(1, 2))
        assert (np.abs(np.tril(r, -1)).max(axis=(1, 2)) <= tol).all()
        diag = np.einsum("bii->bi", r)
        assert (np.abs(diag.imag).max(axis=1) <= tol).all()
        assert (diag.real > 0).all()
        assert (_unitarity_residuals(u) <= _haar_residual(n) * _U).all()

    @pytest.mark.parametrize("n", list(range(2, 14)))
    def test_frame_is_the_leading_columns_bit_for_bit(self, n):
        # column k reads only the first k + 1 draws, which come first in the
        # stream, and every numpy loop runs along the batch
        def rng():
            return np.random.Generator(np.random.Philox(60 + n))

        for count in (_PAST_CHUNK, 2, 3):
            full = numeric._haar_batch(count, n, rng())
            for k in sorted({1, n // 2, n - 1}):
                frame = numeric._haar_batch(count, n, rng(), k)
                assert frame.shape == (count, n, k)
                assert np.array_equal(frame, full[:, :, :k])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_estimators_match_qr_reference(self, n, monkeypatch):
        # the same draws through either route give means within the rounding bound
        rng = np.random.Generator(np.random.Philox(n))
        a = rng.uniform(-1.0, 1.0, n)
        b = rng.uniform(-1.0, 1.0, n)
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        y = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
        for seed in range(5):
            ests = [hciz_mc(a, b, 3000, seed), kernel_q_mc(x, y, 3000, seed)]
            with monkeypatch.context() as m:
                m.setattr(numeric, "_haar_batch", _qr_haar_reference)
                refs = [hciz_mc(a, b, 3000, seed), kernel_q_mc(x, y, 3000, seed)]
            for est, ref in zip(ests, refs):
                assert abs(est.mean - ref.mean) <= est.rounding

    @pytest.mark.parametrize("n", [3, 12])
    @pytest.mark.filterwarnings("error")  # no 0/0 on the way, not even a discarded one
    def test_zero_pivot_is_redrawn(self, n):
        # a zero draw of column k, or of its leading entry y_k0, in one
        # matrix of the first batch, past 8192; for full unitaries and frames
        broken, k = 8193, n // 2 - 1

        def run(columns, rows=None):
            def spoil(call, draw):
                if call == k and rows is not None:
                    draw[rows, 2 * broken:2 * broken + 2] = 0.0

            rng = _RecordingGenerator(np.random.Generator(np.random.Philox(5)), spoil)
            return numeric._haar_batch(_PAST_CHUNK, n, rng, columns), rng

        for columns in (n, n - 1):
            clean, _ = run(columns)
            for rows in (slice(None), 0):
                u, rng = run(columns, rows)
                assert _haar_batch_counts(rng.shapes, n, columns) == [_PAST_CHUNK, 1]
                assert np.isfinite(u).all()
                assert (_unitarity_residuals(u) <= _haar_residual(n) * _U).all()
                # only the broken matrix is replaced, by the unitary of its redraw
                others = np.arange(_PAST_CHUNK) != broken
                assert np.array_equal(u[others], clean[others])
                assert not np.array_equal(u[broken], clean[broken])
                assert np.array_equal(run(columns, rows)[0], u)

    @pytest.mark.parametrize("n, columns", [(1, 1), (4, 4), (4, 3), (8, 7)])
    def test_one_normal_call_per_column(self, n, columns):
        # sum_(k < columns) (n - k) complex normals per matrix, none wasted
        rng = _RecordingGenerator(np.random.Generator(np.random.Philox(7)))
        numeric._haar_batch(_PAST_CHUNK, n, rng, columns)
        assert rng.calls == ["standard_normal"] * columns
        assert _haar_batch_counts(rng.shapes, n, columns) == [_PAST_CHUNK]

    def test_transpose_is_the_contiguous_draw_layout(self):
        # hciz_mc reads a frame as (column, row, matrix) without a copy
        u = numeric._haar_batch(_PAST_CHUNK, 5, np.random.Generator(np.random.Philox(8)), 4)
        assert u.T.flags.c_contiguous and np.shares_memory(np.ascontiguousarray(u.T), u)


def _complete(frame, rng):
    """A frame's n x c columns completed to a unitary by the Q (with R's
    diagonal made positive) of a Gaussian draw projected onto their
    orthogonal complement: Haar exactly when the frame is."""
    count, n, c = frame.shape
    g = rng.normal(size=(count, n, n - c)) + 1j * rng.normal(size=(count, n, n - c))
    g -= frame @ (frame.conj().transpose(0, 2, 1) @ g)
    q, r = np.linalg.qr(g)
    d = np.einsum("bii->bi", r)
    return np.concatenate([frame, q * (d / np.abs(d))[:, None, :]], axis=2)


def _within_k_stderr(values, want, k=4.0):
    """Whether the mean of `values` lies within k standard errors of `want`."""
    se = values.std(ddof=1) / math.sqrt(len(values))
    return abs(values.mean() - want) <= k * se


class TestHaarMoments:
    """Exact moments of Haar measure, each checked at four standard errors:

    E|Tr U^j|^2 = min(j, n) for j >= 1 (Diaconis & Shahshahani, J. Appl.
    Probab. 31A, 1994), which a sampler without the phase fix fails, and
    the degree-2 Weingarten moments E|u_11|^4 = 2/(n(n+1)),
    E|u_11|^2 |u_12|^2 = 1/(n(n+1)), E|u_11|^2 |u_22|^2 = 1/(n^2 - 1), which
    a permutation matrix with random phases fails."""

    COUNT = 20000

    @staticmethod
    def _check(u, n):
        lam = np.linalg.eigvals(u)
        for j in range(1, n + 2):
            assert _within_k_stderr(np.abs((lam**j).sum(axis=1)) ** 2, min(j, n)), j
        p = np.abs(u) ** 2
        for got, want in ((p[:, 0, 0] ** 2, 2 / (n * (n + 1))),
                          (p[:, 0, 0] * p[:, 0, 1], 1 / (n * (n + 1))),
                          (p[:, 0, 0] * p[:, 1, 1], 1 / (n * n - 1))):
            assert _within_k_stderr(got, want), want

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_full_unitaries(self, n):
        u = numeric._haar_batch(self.COUNT, n, np.random.Generator(np.random.Philox(80 + n)))
        self._check(u, n)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_frames(self, n):
        for c in sorted({1, n // 2, n - 1}):
            rng = np.random.Generator(np.random.Philox(90 + n))
            frame = numeric._haar_batch(self.COUNT, n, rng, c)
            self._check(_complete(frame, np.random.default_rng(c)), n)


class TestSubstreams:
    def test_workers_draw_pairwise_different_streams(self):
        draws = [numeric._substream(3, w).standard_normal(64) for w in range(4)]
        for one, other in itertools.combinations(draws, 2):
            assert not np.isin(one, other).any()
        assert np.array_equal(numeric._substream(3, 2).standard_normal(64), draws[2])

    def test_two_workers_reproduce_and_differ_from_one(self):
        a, b = np.linspace(-1.0, 1.0, 3), np.linspace(0.5, -0.3, 3)
        two = hciz_mc(a, b, 5001, 7, threads=2)
        assert _hex(hciz_mc(a, b, 5001, 7, threads=2)) == _hex(two)
        assert hciz_mc(a, b, 5001, 7, threads=1).mean != two.mean

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_r_spectra_are_apart_from_worker_zero(self, seed):
        # `r` spectra come from Philox(seed), Monte Carlo worker 0 from SFC64
        from hciz.cli import spectrum_rng

        got = spectrum_rng(seed).random(64)
        assert not np.isin(got, numeric._substream(seed, 0).random(64)).any()
        assert np.array_equal(got, np.random.Generator(np.random.Philox(seed)).random(64))


class TestMCEngine:
    @staticmethod
    def _cos(rng, count):
        return np.cos(rng.normal(size=count)) * (1 + 0.5j)

    @staticmethod
    def _square(rng, count):
        return rng.normal(size=count) ** 2

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("n_samples", [2, 5000, _BATCH + 1001])
    def test_stacked_components_match_runs_alone(self, threads, n_samples):
        # each component of a (2, count) integrand is the one-integrand run,
        # bit for bit; every run makes the same draws, so the streams line up
        def both(rng, count):
            return np.stack([self._cos(rng, count), self._square(rng, count)])

        def first_half(rng, count):
            out = self._cos(rng, count)
            self._square(rng, count)
            return out

        def second_half(rng, count):
            self._cos(rng, count)
            return self._square(rng, count)

        stacked = _mc_mean(both, n_samples, 11, threads, 1e-16, batch=_BATCH)
        alone = [_mc_mean(f, n_samples, 11, threads, 1e-16, batch=_BATCH)[0]
                 for f in (first_half, second_half)]
        assert len(stacked) == 2
        for got, want in zip(stacked, alone):
            assert got == want
            assert got.stderr > 0 and got.rounding > 0


def _mc_routes(n, n_samples, seed, threads):
    """The four Monte Carlo routes at size n, as no-argument calls that return
    their estimates; the haar suite's estimates are taken from `_mc_mean`."""
    from hciz import suites

    rng = np.random.Generator(np.random.Philox(100 + n))
    a, b = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    y = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)

    def haar():
        got = []
        real = numeric._mc_mean

        def keep(*args, **kwargs):
            got.append(real(*args, **kwargs))
            return got[-1]

        with pytest.MonkeyPatch.context() as m:
            m.setattr(numeric, "_mc_mean", keep)
            suites.suite_haar(n, n_samples, seed)
        return got[0]

    def ginibre():
        rep = ginibre_moment_suite(n, n_samples, seed, threads)
        return [rep.trace_estimate, rep.det_estimate]

    return {
        "hciz_mc": lambda: [hciz_mc(a, b, n_samples, seed, threads)],
        "kernel_q_mc": lambda: [kernel_q_mc(x, y, n_samples, seed, threads)],
        "ginibre": ginibre,
        "haar": haar,
    }


def _hex(est):
    return (est.mean.real.hex(), est.mean.imag.hex(), est.stderr.hex(), est.rounding.hex())


class TestMatrixBatches:
    """Integrands on n x n matrices draw at most `_BATCH_ENTRIES` entries per batch."""

    def test_batch_size_per_n(self):
        sizes = {n: numeric._matrix_batch(n) for n in (1, 2, 3, 4, 8, 16, 362, 363)}
        assert sizes == {1: _BATCH, 2: _BATCH, 3: 14563, 4: 8192, 8: 2048, 16: 512,
                         362: 1, 363: 1}

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [3, 6, 8, 16])
    def test_draw_shapes_stay_within_the_entry_budget(self, n, threads, monkeypatch):
        batch = numeric._matrix_batch(n)
        n_samples = 3 * threads * batch + 5  # several batches in every worker
        gens = _recording_substreams(monkeypatch)
        routes = _mc_routes(n, n_samples, 1, threads)
        if n > 6:
            del routes["ginibre"]  # it supports n = 1..6
        if threads > 1:
            del routes["haar"]  # the haar suite runs one worker
        # Haar draws are one (n - k, 2 count) draw per column k, Ginibre
        # draws (count, n, n, 2)
        columns = {"hciz_mc": n - 1, "kernel_q_mc": n, "haar": n}
        for name, run in routes.items():
            gens.clear()
            ests = run()
            assert all(e.n_samples == n_samples for e in ests), name
            per_worker = [[s[0] for s in g.shapes] if name == "ginibre"
                          else _haar_batch_counts(g.shapes, n, columns[name]) for g in gens]
            counts = sum(per_worker, [])
            assert all(n * n * c <= numeric._BATCH_ENTRIES for c in counts), name
            assert max(counts) == batch, name
            assert sum(counts) == n_samples, name
            if threads == 1:
                assert counts == [batch] * 3 + [5], name

    # recorded when the workers moved from Philox(seed).jumped(w) to SFC64
    # streams seeded by SeedSequence(seed, spawn_key=(w,)), the sampler to
    # real reciprocals in place of complex-by-real divisions, and the draw
    # term of the rounding bound to `_haar_residual(n)`; every bit of these
    # outputs must stay.  hciz_mc at n = 1 draws nothing (its integrand is
    # constant, its draw term 0), so it kept the bits it had before
    PINNED = {
        ("ginibre", 1): [
            ("0x1.00b68af52d22bp+0", "0x0.0p+0",
             "0x1.efd905a5c7b27p-9", "0x1.4d9e14c85ca49p-48"),
            ("0x1.00b68af52d22bp+0", "0x0.0p+0",
             "0x1.efd905a5c7b27p-9", "0x1.4d9e14c85ca49p-48"),
        ],
        ("ginibre", 2): [
            ("0x1.fd6551704eb27p+0", "0x0.0p+0",
             "0x1.eb7e43aafc80dp-8", "0x1.4aeb8ca6bbdacp-47"),
            ("0x1.f9df7a5ebfaa0p+0", "0x0.0p+0",
             "0x1.59be822ca28f9p-7", "0x1.489df3d8fbf4ap-47"),
        ],
        ("haar", 1): [
            ("0x1.0000000000000p+0", "0x0.0p+0",
             "0x1.7c983a0a5fc8cp-61", "0x1.4c6d94c08d9a4p-48"),
        ],
        ("haar", 2): [
            ("0x1.ff404095f5b59p-2", "0x0.0p+0",
             "0x1.1f134d2866872p-10", "0x1.4bffea350089ep-49"),
            ("0x1.005fdfb505254p-1", "0x0.0p+0",
             "0x1.1f134d2866872p-10", "0x1.4cf44a8e6deb0p-49"),
            ("0x1.005fdfb505254p-1", "0x0.0p+0",
             "0x1.1f134d2866872p-10", "0x1.4cf44a8e6deb0p-49"),
            ("0x1.ff404095f5b59p-2", "0x0.0p+0",
             "0x1.1f134d2866872p-10", "0x1.4bffea350089ep-49"),
        ],
        ("hciz_mc", 1): [
            ("0x1.cc2a4119a2eb4p+0", "0x0.0p+0",
             "0x1.f98321ea4b85fp-60", "0x1.63ce13328ec23p-47"),
        ],
        ("hciz_mc", 2): [
            ("0x1.170d16aa0e990p+0", "0x0.0p+0",
             "0x1.10c5897592bacp-9", "0x1.64afabd1a6f69p-47"),
        ],
        ("kernel_q_mc", 1): [
            ("0x1.0dffbff40da4ap+0", "0x1.4043c7144b676p+0",
             "0x1.b452ce1c56f78p-60", "0x1.fedf640426586p-47"),
        ],
        ("kernel_q_mc", 2): [
            ("0x1.ff5a7f743b33bp-1", "0x1.513df70352000p-4",
             "0x1.197b99a645c10p-9", "0x1.9d0e163b44812p-47"),
        ],
    }

    @pytest.mark.parametrize("route, n", sorted(PINNED), ids=str)
    def test_small_n_outputs_are_pinned(self, route, n):
        # 70001 samples: two batches in each of two workers, three in the
        # one-worker haar suite
        ests = _mc_routes(n, 70001, 4, 2)[route]()
        assert [_hex(e) for e in ests] == self.PINNED[route, n]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_runs_of_several_batches_reproduce(self, threads):
        # n = 8, at least 3 batches per worker
        n_samples = 3 * threads * numeric._matrix_batch(8) + 7
        for name, run in _mc_routes(8, n_samples, 9, threads).items():
            if name == "ginibre" or (name == "haar" and threads > 1):
                continue
            first, again = run(), run()
            assert [_hex(e) for e in first] == [_hex(e) for e in again], name

    @pytest.mark.parametrize("threads", [1, 2])
    def test_several_batches_match_qr_reference(self, threads, monkeypatch):
        # the same draws, split into the same batches, through either route
        n_samples = 3 * threads * numeric._matrix_batch(8) + 7
        routes = _mc_routes(8, n_samples, 10, threads)
        for name in ("hciz_mc", "kernel_q_mc"):
            (est,) = routes[name]()
            with monkeypatch.context() as m:
                m.setattr(numeric, "_haar_batch", _qr_haar_reference)
                (ref,) = routes[name]()
            assert abs(est.mean - ref.mean) <= est.rounding, name

    def test_memory_does_not_grow_with_n(self):
        # a batch holds 2 MiB of draw and a few temporaries of that size,
        # whatever n and n_samples
        import tracemalloc

        from hciz.suites import suite_haar

        n = 16
        a, b = np.linspace(-0.5, 0.5, n), np.linspace(-0.3, 0.7, n)
        peaks = []
        tracemalloc.start()
        try:
            for run in (lambda: hciz_mc(a, b, 40000, 1), lambda: suite_haar(12, 20000, 0)):
                tracemalloc.reset_peak()
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) < 16 * 2**20, peaks


def _hciz_integrand(monkeypatch, a, b):
    """The per-sample function `values(rng, count)` that `hciz_mc` hands to `_mc_mean`."""
    got = []

    def capture(values, n_samples, seed, *args, **kwargs):
        got.append(values)
        return [MCEstimate(0j, 0.0, n_samples, seed)]

    with monkeypatch.context() as m:
        m.setattr(numeric, "_mc_mean", capture)
        hciz_mc(a, b, 2, 0)
    return got[0]


def _dropped_index(a, b):
    """The a_k that `hciz_mc` shifts out: the lowest k minimising
    min(max|c| sum|b|, max|b| sum|c|) over c_j = a_j - a_k."""
    def gain(k):
        c = [abs(x - a[k]) for x in a]
        return min(max(c) * sum(map(abs, b)), max(map(abs, b)) * sum(c))

    return min(range(len(a)), key=gain)


class TestMonteCarlo:
    def test_constant_integrand_single_point(self):
        # at n = 1 every sample is exp(ab), so the stderr collapses to the
        # rounding scale
        est = hciz_mc((0.7,), (-1.1,), n_samples=500, seed=0)
        assert abs(est.mean - cmath.exp(0.7 * -1.1)) < 1e-12
        assert est.stderr < 1e-14

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("imag", [0.0, 0.5])
    def test_shifted_exponent_matches_the_full_unitary(self, n, imag, monkeypatch):
        # t on the frame equals sum_ij a_j b_i |u_ij|^2 on the full unitary of
        # the same draw, once its columns are read as the a_j with j != k in
        # order and a_k last; real and complex spectra take different branches
        rng = np.random.Generator(np.random.Philox(70 + n))
        a = rng.uniform(-2.0, 2.0, n) + 1j * imag * rng.uniform(-1.0, 1.0, n)
        b = rng.uniform(-2.0, 2.0, n) + 1j * imag * rng.uniform(-1.0, 1.0, n)
        k = _dropped_index(a, b)
        values = _hciz_integrand(monkeypatch, a, b)
        got = values(np.random.Generator(np.random.Philox(3)), 1000)
        u = numeric._haar_batch(1000, n, np.random.Generator(np.random.Philox(3)))
        order = [j for j in range(n) if j != k] + [k]
        want = np.exp(np.einsum("bij,j,i->b", np.abs(u) ** 2, a[order], b))
        assert np.iscomplexobj(got) == bool(imag)
        scale = np.abs(a).sum() * np.abs(b).sum()
        assert (np.abs(got - want) <= 8 * n * n * _U * scale * np.abs(want)).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_draws_an_n_minus_one_column_frame(self, n, monkeypatch):
        # the Haar draws are (n - 1)-column frames; a constant integrand (n = 1,
        # or a coincident a-spectrum) draws nothing
        gens = _recording_substreams(monkeypatch)
        b = np.linspace(0.5, -0.3, n)
        hciz_mc(np.linspace(-1.0, 1.0, n), b, 5000, 0)
        (g,) = gens
        assert sum(_haar_batch_counts(g.shapes, n, n - 1)) == (0 if n == 1 else 5000)
        gens.clear()
        hciz_mc((0.4,) * n, b, 5000, 0)
        assert [g.calls for g in gens] == [[]]

    def test_agrees_with_closed_form_complex_n3(self):
        a, b = (0.3 + 0.4j, -0.6, 1.0 - 0.2j), (0.9, 0.1 - 0.5j, -0.5 + 0.3j)
        want = hciz_determinant(a, b)
        est = hciz_mc(a, b, n_samples=60000, seed=2)
        # a real-only estimate would miss by more than the band
        assert abs(want.imag) > est.band
        assert est.within(want)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
    def test_rounding_bounds_coincident_spectrum(self, n):
        # at a = (alpha,)*n every draw gives exp(alpha * sum(b)), so rounding
        # is the mean's only error: the bound must hold and stay informative
        mpmath = pytest.importorskip("mpmath")
        b = tuple(float(v) for v in np.linspace(-0.6, 1.2, n))
        for alpha in (-30.0, -3.0, 0.5, 3.0, 10.0, 30.0):
            for seed in range(3):
                est = hciz_mc((alpha,) * n, b, n_samples=5000, seed=seed)
                with mpmath.workdps(40):
                    exact = mpmath.exp(alpha * mpmath.fsum(b))
                    err = float(abs(mpmath.mpc(est.mean) - exact))
                assert err <= est.rounding
                assert est.rounding <= 1e-12 * abs(est.mean)

    def test_agrees_with_closed_form(self):
        a, b = (0.3, -0.6), (0.9, 0.1)
        want = hciz_determinant(a, b)
        est = hciz_mc(a, b, n_samples=40000, seed=1)
        assert est.stderr > 0
        assert est.within(want)

    def test_agrees_with_closed_form_n3(self):
        a, b = (0.3, -0.6, 1.0), (0.9, 0.1, -0.5)
        want = hciz_determinant(a, b)
        est = hciz_mc(a, b, n_samples=60000, seed=2)
        assert est.within(want)

    def test_reproducible(self):
        kw = dict(n_samples=5000, seed=7)
        e1 = hciz_mc((0.3, -0.6), (0.9, 0.1), **kw)
        e2 = hciz_mc((0.3, -0.6), (0.9, 0.1), **kw)
        assert e1.mean == e2.mean and e1.stderr == e2.stderr

    def test_reproducible_threaded(self):
        kw = dict(n_samples=5000, seed=7, threads=2)
        e1 = hciz_mc((0.3, -0.6), (0.9, 0.1), **kw)
        e2 = hciz_mc((0.3, -0.6), (0.9, 0.1), **kw)
        assert e1.mean == e2.mean and e1.stderr == e2.stderr

    def test_threaded_estimate_consistent(self):
        want = hciz_determinant((0.3, -0.6), (0.9, 0.1))
        est = hciz_mc((0.3, -0.6), (0.9, 0.1), n_samples=40000, seed=3, threads=4)
        assert est.within(want)

    def test_stderr_shrinks_with_sample_size(self):
        ratios = []
        for seed in range(10):
            lo = hciz_mc((0.3, -0.6), (0.9, 0.1), n_samples=4000, seed=seed)
            hi = hciz_mc((0.3, -0.6), (0.9, 0.1), n_samples=8000, seed=100 + seed)
            ratios.append(lo.stderr / hi.stderr)
        mean_ratio = sum(ratios) / len(ratios)
        # sqrt(2) up to sampling noise
        assert 1.2 <= mean_ratio <= 1.7

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hciz_mc((1.0, 2.0), (1.0,), n_samples=100, seed=0)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            hciz_mc((1.0,), (1.0,), n_samples=1, seed=0)

    @pytest.mark.parametrize("threads", [10**5, MAX_THREADS + 1, 0, -1, 1.5])
    def test_threads_outside_range_rejected(self, threads):
        # two samples start at most two workers even where the cap is not checked
        with pytest.raises(ValueError, match="threads must be"):
            hciz_mc((1.0,), (1.0,), n_samples=2, seed=0, threads=threads)

    def test_threads_at_the_cap_accepted(self):
        est = hciz_mc((1.0,), (1.0,), n_samples=2, seed=0, threads=MAX_THREADS)
        assert est.n_samples == 2


class TestClosedForm:
    def test_single_point(self):
        assert hciz_determinant((1.5,), (-2.0,)) == pytest.approx(cmath.exp(-3.0))

    def test_two_point_golden(self):
        # a = b = (1, 0): the ratio collapses to e - 1
        got = hciz_determinant((1.0, 0.0), (1.0, 0.0))
        assert got == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_two_point_hand_formula(self):
        for a, b in [
            ((0.4, -0.9), (1.2, 0.3)),
            ((0.5 + 0.2j, -0.1), (0.7, -0.3 - 0.4j)),
        ]:
            got = hciz_determinant(a, b)
            want = det_n2_by_hand(a, b)
            assert got == pytest.approx(want, rel=1e-12)

    def test_swap_arguments(self):
        a, b = (0.4, -0.9, 0.2), (1.2, 0.3, -0.5)
        assert hciz_determinant(a, b) == pytest.approx(hciz_determinant(b, a), rel=1e-12)

    def test_permutation_invariance(self):
        a, b = (0.4, -0.9, 0.2), (1.2, 0.3, -0.5)
        want = hciz_determinant(a, b)
        for pa in [(0.2, 0.4, -0.9), (-0.9, 0.2, 0.4)]:
            for pb in [(0.3, -0.5, 1.2), (-0.5, 1.2, 0.3)]:
                got = hciz_determinant(pa, pb)
                assert abs(got - want) <= 1e-12 * abs(want)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateSpectrumError):
            hciz_determinant((1.0, 1.0 + 1e-9), (0.0, 1.0))
        with pytest.raises(DegenerateSpectrumError):
            hciz_determinant((0.0, 1.0), (2.0, 2.0))

    def test_spectra_of_different_lengths(self):
        with pytest.raises(DimensionMismatchError) as info:
            hciz_determinant((1, 2), (1, 2, 3))
        assert str(info.value) == "spectra of lengths 2 and 3"

    def test_gap_tol_is_adjustable(self):
        # formally still nondegenerate; tightening the tolerance admits it
        v = hciz_determinant((1.0, 1.0 + 1e-9), (0.0, 1.0), gap_tol=1e-12)
        assert math.isfinite(abs(v))
        assert GAP_TOL_DEFAULT == 1e-8


def mp_hciz(a, b, dps=80):
    """I(a, b) by the closed form in `dps` digits, or exp(c * sum(b)) when a is
    one point c repeated; skips the test without mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        sa = [mpmath.mpc(v) for v in a]
        sb = [mpmath.mpc(v) for v in b]
        if len(set(sa)) == 1:
            return complex(mpmath.exp(sa[0] * mpmath.fsum(sb)))
        n = len(sa)
        mat = mpmath.matrix([[mpmath.exp(ai * bj) for bj in sb] for ai in sa])
        vdm = mpmath.fprod(v[j] - v[i] for v in (sa, sb)
                           for i in range(n) for j in range(i + 1, n))
        return complex(math.prod(math.factorial(p) for p in range(n)) * mpmath.det(mat) / vdm)


def jacobi_trudi_schur(lam, eigs):
    """s_lambda(eigs) as det[h_(lambda_i - i + j)], its h-values by
    h_k += x h_(k-1) point by point: a route apart from the prefix table
    that `kernel_series` and `schur_numeric` read."""
    ell = lam.length
    kmax = max(lam.part(0) + ell - 1, 0)
    h = [1.0 + 0j] + [0j] * kmax
    for x in eigs:
        for k in range(1, kmax + 1):
            h[k] += x * h[k - 1]
    if ell <= 1:
        return h[lam.part(0)]
    mat = [[h[k] if k >= 0 else 0j for k in (lam[i] - i + j for j in range(ell))]
           for i in range(ell)]
    return complex(np.linalg.det(np.array(mat, dtype=complex)))


def series_box_reference(x, y, w):
    """kernel_series(x, y, max_weight=w, tol=0) one partition at a time:
    e^(n s t) times the sum over lambda_1 <= w of
    delta!/(lambda+delta)! s_lambda(x - s) s_lambda(z - t), z = conj(y), with
    s and t the means of x and z, each s_lambda from `jacobi_trudi_schur`."""
    n = len(x)
    z = [complex(e).conjugate() for e in y]
    s, t = sum(x) / n, sum(z) / n
    xc, zc = [e - s for e in x], [e - t for e in z]
    delta_fact = vector_factorial(staircase(n))
    total = 0j
    # weakly decreasing n-tuples of parts <= w: the box lambda_1 <= w
    for parts in itertools.combinations_with_replacement(range(w, -1, -1), n):
        lam = Partition(parts)
        coeff = delta_fact / vector_factorial(lam.plus_staircase(n))
        total += coeff * jacobi_trudi_schur(lam, xc) * jacobi_trudi_schur(lam, zc)
    return cmath.exp(n * s * t) * total


def spectrum(rng, n, mag, complex_points):
    """n points of modulus <= mag: real, or uniform on a square."""
    if not complex_points:
        return tuple(complex(v) for v in rng.uniform(-mag, mag, n))
    v = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    return tuple(complex(e) for e in mag * v / math.sqrt(2))


class TestKernelSeries:
    def test_matches_per_partition_reference(self):
        # the one determinant is the sum over the box lambda_1 <= W, term by term
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 4):
            for mag in (0.5, 1.0):
                for coincident in (False, True):
                    x = spectrum(rng, n, mag, True)
                    if coincident:
                        x = (x[0],) * n
                    y = spectrum(rng, n, mag, True)
                    for w in (0, 1, 4, 8):
                        want = series_box_reference(x, y, w)
                        got = kernel_series(x, y, max_weight=w, tol=0.0)
                        assert got.max_weight_used == w
                        assert abs(got.value - want) <= 1e-13 * abs(want), (n, mag, w)

    def test_error_within_its_bound_against_oracle(self):
        # last_shell_magnitude bounds the truncation; rounding adds about
        # 1e-14 of the value here, so the allowance for it is 1e-12.  At
        # W = 2 the truncation error reaches a few percent of the bound.
        rng = np.random.default_rng(29)
        for n in range(1, 7):
            for mag in (0.5, 1.0, 2.0, 4.0):
                for kind in ("real", "complex", "coincident"):
                    for _ in range(4):
                        x = spectrum(rng, n, mag, kind != "real")
                        if kind == "coincident":
                            x = (x[0],) * n
                        y = spectrum(rng, n, mag, kind != "real")
                        want = mp_hciz(x, [e.conjugate() for e in y])
                        for opts in ({}, {"max_weight": 2, "tol": 0.0}):
                            got = kernel_series(x, y, **opts)
                            err = abs(got.value - want)
                            case = (n, mag, kind, opts, err, got.last_shell_magnitude)
                            assert err <= got.last_shell_magnitude + 1e-12 * abs(want), case
                            if mag <= 2.0 and not opts:
                                assert err <= 1e-10 * abs(want), case

    def test_coincident_spectrum_is_its_centering_factor(self):
        # x - mean(x) = 0: every nonempty lambda drops out, W = 0
        got = kernel_series((4.0, 4.0), (-4.0, -4.0))
        assert got.value == cmath.exp(-32.0) == 1.2664165549094176e-14
        assert got.max_weight_used == 0
        assert got.last_shell_magnitude == 0.0

    @pytest.mark.parametrize("x, y", [((3e200 + 1e200j, 1.0), (1e200, 2.0)),
                                      ((1e200, 1e200), (1e200, 1e200)),
                                      ((800.0,), (800.0,))])
    def test_exponent_past_the_double_range_overflows(self, x, y):
        # n s t is inf or nan in the first two, e^(n s t) passes the range in the last
        with pytest.raises(OverflowError):
            kernel_series(x, y)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0])
    def test_rejects_a_tolerance_that_cannot_stop_correctly(self, tol):
        # inf stops after n shells whatever their mass; nan and negative ones never stop
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            kernel_series((1.0, 2.0), (1.0, 2.0), tol=tol)

    def test_weight_zero_is_one(self):
        # only lambda = () has lambda_1 <= 0: the centered sum is exactly 1
        x, y = (0.4 + 0.1j, -0.2), (0.3, 0.1 - 0.5j)
        r = kernel_series(x, y, max_weight=0)
        s, t = sum(x) / 2, sum(e.conjugate() for e in map(complex, y)) / 2
        assert r.value == cmath.exp(2 * s * t)
        assert r.max_weight_used == 0
        r = kernel_series((0.4, -0.4), (0.3, -0.3), max_weight=0)
        assert r.value == 1.0 + 0j

    def test_single_point_exponential(self):
        x, y = 0.4 + 0.1j, -0.3 + 0.2j
        r = kernel_series((x,), (y,))
        assert r.value == pytest.approx(cmath.exp(x * y.conjugate()), abs=1e-12)

    def test_matches_determinant_inside_radius(self):
        pairs = [
            ((0.31, -0.42), (0.05, 0.44)),
            ((0.31 + 0.1j, -0.42), (0.05, 0.44 - 0.2j)),
            ((0.31, -0.42, 0.11), (0.05, 0.44, -0.37)),
        ]
        for x, y in pairs:
            want = hciz_determinant(x, tuple(complex(e).conjugate() for e in y))
            got = kernel_series(x, y)
            assert abs(got.value - want) <= 1e-8

    def test_hermitian_symmetry(self):
        x, y = (0.31 + 0.1j, -0.42), (0.05, 0.44 - 0.2j)
        kxy = kernel_series(x, y).value
        kyx = kernel_series(y, x).value
        assert kxy == pytest.approx(kyx.conjugate(), abs=1e-10)

    def test_adaptive_truncation_stops_early(self):
        r = kernel_series((0.2, -0.1), (0.15, 0.05))
        assert r.max_weight_used < 24
        assert r.last_shell_magnitude < 1e-11

    def test_full_depth_when_tol_zero(self):
        r = kernel_series((0.2, -0.1), (0.15, 0.05), max_weight=16, tol=0.0)
        assert r.max_weight_used == 16
        assert r.last_shell_magnitude < 1e-14

    def test_shell_mass_decays_two_apart(self):
        x, y = (0.31, -0.42), (0.05, 0.44)
        mags = [
            kernel_series(x, y, max_weight=w, tol=0.0).last_shell_magnitude
            for w in range(2, 12)
        ]
        for k in range(len(mags) - 2):
            assert mags[k + 2] < mags[k]

    def test_traceless_spectrum_converges(self):
        # the weight-1 shell vanishes identically here; the truncation must
        # push past it rather than stop on one quiet shell
        x, y = (0.31, -0.42, 0.11), (0.05, 0.44, -0.37)
        want = hciz_determinant(x, y)
        got = kernel_series(x, y)
        assert got.max_weight_used > 2
        assert abs(got.value - want) <= 1e-8

    def test_coincident_points_supported(self):
        # the closed form refuses this spectrum; the series does not care
        r = kernel_series((0.5, 0.5), (0.5, 0.5))
        assert math.isfinite(abs(r.value))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kernel_series((0.1,), (0.1, 0.2))

    def test_a_large_max_weight_costs_only_the_shells_used(self):
        import tracemalloc

        x, y = (1.0, 2.0), (0.5, 0.25)
        want = kernel_series(x, y, max_weight=64)
        assert want.max_weight_used < 64
        tracemalloc.start()
        try:
            got = kernel_series(x, y, max_weight=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array(got.value).tobytes() == np.array(want.value).tobytes()
        assert got.max_weight_used == want.max_weight_used
        assert peak < 4 * 2**20

    def test_full_depth_matches_oracle_to_rounding(self):
        # tol=0 takes W = max_weight; the tail past 25 is below rounding here
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            x = spectrum(rng, n, 0.5, True)
            y = spectrum(rng, n, 0.5, False)
            want = mp_hciz(x, [e.conjugate() for e in y])
            for mw in (25, 40, 57):
                got = kernel_series(x, y, max_weight=mw, tol=0.0)
                assert got.max_weight_used == mw
                assert got.last_shell_magnitude < 1e-30
                assert abs(got.value - want) <= 1e-14 * abs(want), (n, mw)


class TestKernelQMC:
    def test_zero_second_argument(self):
        x = np.array([[0.4, 0.2], [0.1, -0.3]])
        est = kernel_q_mc(x, np.zeros((2, 2)), n_samples=1000, seed=0)
        assert est.mean == 1.0 + 0j
        assert est.stderr == 0.0

    def test_matches_diagonal_monte_carlo(self):
        a, b = (0.3, -0.6), (0.9, 0.1)
        e1 = kernel_q_mc(np.diag(a), np.diag(b), n_samples=40000, seed=4)
        e2 = hciz_mc(a, b, n_samples=40000, seed=5)
        band = 4.0 * math.hypot(e1.stderr, e2.stderr)
        assert abs(e1.mean - e2.mean) <= band

    def test_matches_closed_form(self):
        a, b = (0.3, -0.6), (0.9, 0.1)
        want = hciz_determinant(a, b)
        est = kernel_q_mc(np.diag(a), np.diag(b), n_samples=40000, seed=6)
        assert est.within(want)

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_high_precision_oracle(self, n):
        # kernel_q_mc(diag a, diag b) = I(a, conj b), the closed form in 40 digits
        rng = np.random.default_rng(n)
        a = rng.uniform(-1, 1, n) + 1j * rng.uniform(-0.5, 0.5, n)
        b = rng.uniform(-1, 1, n) + 1j * rng.uniform(-0.5, 0.5, n)
        want = mp_hciz(a, b.conj(), dps=40)
        est = kernel_q_mc(np.diag(a), np.diag(b), n_samples=40000, seed=12)
        assert est.within(want)

    def test_unitary_conjugation_invariance(self):
        rng = np.random.default_rng(7)
        x = np.diag([0.3, -0.6]).astype(complex)
        y = np.diag([0.9, 0.1]).astype(complex)
        v = sample_haar_unitary(2, rng)
        e1 = kernel_q_mc(x, y, n_samples=40000, seed=8)
        e2 = kernel_q_mc(v @ x @ v.conj().T, y, n_samples=40000, seed=9)
        band = 4.0 * math.hypot(e1.stderr, e2.stderr)
        assert abs(e1.mean - e2.mean) <= band

    def test_depends_only_on_eigenvalues(self):
        # non-normal input: the integral sees just the spectrum
        x = np.array([[0.31, 0.8], [0.0, -0.42]])
        y = np.diag([0.05, 0.44]).astype(complex)
        est = kernel_q_mc(x, y, n_samples=60000, seed=10)
        want = kernel_series((0.31, -0.42), (0.05, 0.44)).value
        assert est.within(want)

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            kernel_q_mc(np.zeros((2, 3)), np.zeros((2, 3)), n_samples=10, seed=0)
        with pytest.raises(DimensionMismatchError):
            kernel_q_mc(np.zeros((2, 2)), np.zeros((3, 3)), n_samples=10, seed=0)


class TestGinibreMoments:
    def test_suite_passes(self):
        for n in (1, 2, 3):
            rep = ginibre_moment_suite(n, n_samples=20000, seed=0)
            assert rep.trace_expected == float(n)
            assert rep.det_expected == float(math.factorial(n))
            assert rep.trace_estimate.within(rep.trace_expected)
            assert rep.det_estimate.within(rep.det_expected)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ginibre_moment_suite(0, n_samples=10, seed=0)
        with pytest.raises(ValueError):
            ginibre_moment_suite(7, n_samples=10, seed=0)


class TestCoherentReproducing:
    def test_alternating_polynomial_reproduced(self):
        # F = a_{(3,1)}; weight of the partition part is 2, so depth 4 suffices
        f = alternant((3, 1), 2)
        res = coherent_reproducing_check((0.3, -0.2), f, max_weight=4)
        assert res < 1e-10

    def test_truncation_below_degree_misses(self):
        f = alternant((3, 1), 2)
        res = coherent_reproducing_check((0.3, -0.2), f, max_weight=1)
        assert res > 1e-6

    def test_rejects_nonalternating(self):
        with pytest.raises(NotAlternatingError):
            coherent_reproducing_check((0.3, -0.2), ExactPoly.monomial(2, (1, 1)), 4)

    @pytest.mark.parametrize("a, f, error, message", [
        ((), alternant((1, 0), 2), ValueError, "empty spectrum"),
        ((0.3, float("nan")), alternant((1, 0), 2), ValueError, "non-finite eigenvalue"),
        ((0.3, -0.2), alternant((0,), 1), DimensionMismatchError,
         "polynomial over 1 variables, expected 2"),
    ], ids=["empty", "nan", "one-variable-polynomial"])
    def test_input_errors(self, a, f, error, message):
        with pytest.raises(error) as info:
            coherent_reproducing_check(a, f, 4)
        assert str(info.value) == message


class TestRandomRealSpectrum:
    def test_properties(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 4):
            for _ in range(20):
                s = random_real_spectrum(n, rng)
                assert s.n == n and all(e.imag == 0 for e in s.eigs)
                assert all(-1.0 <= e.real <= 1.0 for e in s.eigs)
                assert s.gap >= 0.1

    def test_reproducible(self):
        s1 = random_real_spectrum(3, np.random.default_rng(12))
        s2 = random_real_spectrum(3, np.random.default_rng(12))
        assert s1.eigs == s2.eigs

    @pytest.mark.parametrize("n", [16, 19])
    def test_tight_gap_takes_one_draw(self, n):
        # gapped spectra are a 2e-10 share of the sorted draws at n = 16: no rejection
        rng = _RecordingGenerator(np.random.default_rng(13))
        s = random_real_spectrum(n, rng)
        assert rng.calls == ["uniform"]
        assert s.n == n and s.gap >= 0.1
        assert all(-1.0 <= e.real <= 1.0 for e in s.eigs)

    def test_infeasible_gap(self):
        with pytest.raises(ValueError):
            random_real_spectrum(30, np.random.default_rng(0))


class TestMCEstimate:
    def test_within(self):
        e = MCEstimate(mean=1.0 + 0j, stderr=0.1, n_samples=10, seed=0)
        assert e.within(1.3)
        assert not e.within(1.5)
        assert e.within(1.39) and not e.within(1.41)  # four standard errors
        # sampling spread far below the target's offset: only rounding admits it
        r = MCEstimate(mean=1.0 + 0j, stderr=1e-17, n_samples=10, seed=0, rounding=1e-15)
        assert r.within(1.0 + 5e-16)
        assert not dataclasses.replace(r, rounding=0.0).within(1.0 + 5e-16)
