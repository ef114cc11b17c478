import cmath
import dataclasses
import math

import numpy as np
import pytest

from hciz import numeric
from hciz.errors import DegenerateSpectrumError, DimensionMismatchError, NotAlternatingError
from hciz.exactpoly import ExactPoly
from hciz.numeric import (
    _BATCH,
    _HAAR_RESIDUAL,
    _U,
    _mc_mean,
    GAP_TOL_DEFAULT,
    MCEstimate,
    Spectrum,
    as_spectrum,
    coherent_reproducing_check,
    ginibre_moment_suite,
    hciz_determinant,
    hciz_mc,
    kernel_q_mc,
    kernel_series,
    random_real_spectrum,
    sample_ginibre,
    sample_haar_unitary,
)
from hciz.symfn import (
    alternant,
    homogeneous_values,
    jacobi_trudi_indices,
    partitions_of_weight,
    staircase,
    vector_factorial,
)


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
        # the MC rounding bound takes ||u^H u - I||_2 <= _HAAR_RESIDUAL * u
        for n in (1, 2, 4, 8):
            rng = np.random.Generator(np.random.Philox(n))
            us = np.stack([sample_haar_unitary(n, rng) for _ in range(5000)])
            gram = np.einsum("bki,bkj->bij", us.conj(), us) - np.eye(n)
            resid = np.linalg.norm(gram, ord=2, axis=(1, 2))
            assert np.quantile(resid, 0.999) <= _HAAR_RESIDUAL * _U

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

    def test_rejects_nonpositive_n(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            sample_haar_unitary(0, rng)
        with pytest.raises(ValueError):
            sample_ginibre(0, rng)


def _qr_haar_reference(count, n, rng):
    """The QR route to the same unitaries: Q of G = QR, times R's diagonal phases."""
    q, r = np.linalg.qr(numeric._ginibre_batch(count, n, rng))
    d = np.einsum("bii->bi", r)
    return q * (d / np.abs(d))[:, None, :]


def _unitarity_residuals(u):
    n = u.shape[-1]
    gram = np.einsum("bki,bkj->bij", u.conj(), u) - np.eye(n)
    return np.linalg.norm(gram, ord=2, axis=(1, 2))


def _recording_draws(monkeypatch, spoil=None):
    """Patch `_ginibre_batch` to keep every draw, after `spoil` has edited it."""
    draws = []
    real = numeric._ginibre_batch

    def draw(count, n, rng):
        g = real(count, n, rng)
        if spoil is not None:
            spoil(g)
        draws.append(g.copy())
        return g

    monkeypatch.setattr(numeric, "_ginibre_batch", draw)
    return draws


_PAST_CHUNK = numeric._GS_CHUNK + 3  # a count across a chunk boundary


class TestHaarSampler:
    @pytest.mark.parametrize("n", list(range(1, 14)))
    def test_q_factor_with_positive_diagonal(self, n, monkeypatch):
        # U is the Q of its draw G = QR with R upper triangular, diag(R) > 0
        draws = _recording_draws(monkeypatch)
        u = numeric._haar_batch(_PAST_CHUNK, n, np.random.Generator(np.random.Philox(40 + n)))
        (g,) = draws
        r = np.einsum("bki,bkj->bij", u.conj(), g)
        tol = 64 * _U * np.linalg.norm(g, axis=(1, 2))
        assert (np.abs(np.tril(r, -1)).max(axis=(1, 2)) <= tol).all()
        diag = np.einsum("bii->bi", r)
        assert (np.abs(diag.imag).max(axis=1) <= tol).all()
        assert (diag.real > 0).all()
        assert (_unitarity_residuals(u) <= _HAAR_RESIDUAL * _U).all()

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
    def test_zero_pivot_is_redrawn(self, n, monkeypatch):
        # a zero column in one matrix of the first draw, past the first chunk
        broken = numeric._GS_CHUNK + 1

        def spoil(g):
            if len(g) == _PAST_CHUNK:
                g[broken, :, n // 2] = 0.0

        def run():
            return numeric._haar_batch(_PAST_CHUNK, n, np.random.Generator(np.random.Philox(5)))

        clean = run()
        draws = _recording_draws(monkeypatch, spoil)
        u = run()
        assert [len(g) for g in draws] == [_PAST_CHUNK, 1]
        assert np.isfinite(u).all()
        assert (_unitarity_residuals(u) <= _HAAR_RESIDUAL * _U).all()
        # only the broken matrix is replaced, by the unitary of its redraw
        others = np.arange(_PAST_CHUNK) != broken
        assert np.array_equal(u[others], clean[others])
        assert not np.array_equal(u[broken], clean[broken])
        assert np.array_equal(run(), u)


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

        stacked = _mc_mean(both, n_samples, 11, threads, 1e-16)
        alone = [_mc_mean(f, n_samples, 11, threads, 1e-16)[0] for f in (first_half, second_half)]
        assert len(stacked) == 2
        for got, want in zip(stacked, alone):
            assert got == want
            assert got.stderr > 0 and got.rounding > 0


class TestMonteCarlo:
    def test_constant_integrand_single_point(self):
        # the integrand is constant up to unitary rounding, so the stderr
        # collapses to the rounding scale
        est = hciz_mc((0.7,), (-1.1,), n_samples=500, seed=0)
        assert abs(est.mean - cmath.exp(0.7 * -1.1)) < 1e-12
        assert est.stderr < 1e-14

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

    def test_gap_tol_is_adjustable(self):
        # formally still nondegenerate; tightening the tolerance admits it
        v = hciz_determinant((1.0, 1.0 + 1e-9), (0.0, 1.0), gap_tol=1e-12)
        assert math.isfinite(abs(v))
        assert GAP_TOL_DEFAULT == 1e-8


def _jt_det(lam, h):
    """s_lambda from one Jacobi-Trudi matrix, built entry by entry."""
    if lam.length == 0:
        return 1.0 + 0j
    m = [[h[k] if k >= 0 else 0j for k in row] for row in jacobi_trudi_indices(lam)]
    return m[0][0] if lam.length == 1 else complex(np.linalg.det(np.array(m)))


def series_reference(x, y, max_weight, tol):
    """kernel_series evaluated one spectrum and one partition at a time."""
    n = len(x)
    delta_fact = vector_factorial(staircase(n))
    kmax = max_weight + n - 1
    hx = homogeneous_values(x, kmax)
    hy = homogeneous_values([complex(e).conjugate() for e in y], kmax)
    total, shell_mag, small_run = 0j, 0.0, 0
    for w in range(max_weight + 1):
        shell = list(partitions_of_weight(w, n))
        coeffs = np.array([delta_fact / vector_factorial(lam.plus_staircase(n)) for lam in shell])
        sx = np.array([_jt_det(lam, hx) for lam in shell])
        sy = np.array([_jt_det(lam, hy) for lam in shell])
        terms = coeffs * sx * sy
        total += complex(terms.sum())
        shell_mag = float(np.abs(terms).sum())
        small_run = small_run + 1 if shell_mag < 1e-3 * tol else 0
        if small_run >= n:
            break
    return total, w, shell_mag


class TestKernelSeries:
    def test_matches_per_spectrum_reference_bitwise(self):
        # x and y share one batched evaluation on cached shell plans; neither
        # a cold nor a warm cache may change a bit of the value, the shells
        # used or the last shell's mass
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 4, 6):
            for mag in (0.5, 1.0, 2.0, 4.0):
                for coincident in (False, True):
                    for tol in (1e-8, 0.0):
                        x = rng.uniform(-mag, mag, n) + 1j * rng.uniform(-mag, mag, n)
                        if coincident:
                            x[:] = x[0]
                        y = rng.uniform(-mag, mag, n) + 1j * rng.uniform(-mag, mag, n)
                        mw = 24 if tol else 10
                        value, used, shell_mag = series_reference(tuple(x), tuple(y), mw, tol)
                        numeric._shell_plan.cache_clear()
                        for _ in range(2):  # a cold cache, then a warm one
                            got = kernel_series(tuple(x), tuple(y), max_weight=mw, tol=tol)
                            assert np.array(got.value).tobytes() == np.array(value).tobytes()
                            assert got.max_weight_used == used
                            assert np.array(got.last_shell_magnitude).tobytes() == (
                                np.array(shell_mag).tobytes()
                            )

    def test_plan_is_built_once_per_shell(self, monkeypatch):
        builds = []
        enumerate_shell = numeric.partitions_of_weight

        def counting(weight, max_parts):
            builds.append((weight, max_parts))
            return enumerate_shell(weight, max_parts)

        monkeypatch.setattr(numeric, "partitions_of_weight", counting)
        numeric._shell_plan.cache_clear()
        # tol=0 never stops early, so both calls need every shell up to 10
        kernel_series((0.1, 0.4, 0.9), (0.2, -0.3, 0.5), max_weight=10, tol=0.0)
        assert builds == [(w, 3) for w in range(11)]
        builds.clear()
        kernel_series((-0.7, 0.2, 1.3), (0.5, 0.1, -0.4), max_weight=10, tol=0.0)
        assert builds == []

    def test_weight_zero_is_one(self):
        r = kernel_series((0.4, -0.2), (0.3, 0.1), max_weight=0)
        assert r.value == 1.0 + 0j
        assert r.max_weight_used == 0

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

    def test_infeasible_gap(self):
        with pytest.raises(ValueError):
            random_real_spectrum(30, np.random.default_rng(0))


class TestMCEstimate:
    def test_within(self):
        e = MCEstimate(mean=1.0 + 0j, stderr=0.1, n_samples=10, seed=0)
        assert e.within(1.3)
        assert not e.within(1.5)
        assert e.within(1.15, k=2.0)
        # sampling spread far below the target's offset: only rounding admits it
        r = MCEstimate(mean=1.0 + 0j, stderr=1e-17, n_samples=10, seed=0, rounding=1e-15)
        assert r.within(1.0 + 5e-16)
        assert not dataclasses.replace(r, rounding=0.0).within(1.0 + 5e-16)
