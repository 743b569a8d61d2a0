"""Spectral estimator suite with synthetic oracles."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg, signal

from cotrap import _kernel
from cotrap.analysis import (
    AnalysisError,
    _butter4_sos,
    _carrier,
    _hann,
    _median,
    _scaled_hann,
    _segmentation,
    _spectra,
    demodulate,
    fit_r_pm,
    mode_temperature,
    project_modes,
    squeezing_db,
    welch_psd,
)
from cotrap.config import parse_config
from cotrap.constants import K_B
from cotrap.report import run_experiment, simulate_pass

FS = 4096.0


def thermal_oscillator(f0, gamma, n, rng, fs=FS, scale=1.0):
    """Damped harmonic oscillator driven by white noise (exact AR(2) poles)."""
    dt = 1.0 / fs
    r = np.exp(-0.5 * gamma * dt)
    a1 = -2.0 * r * np.cos(2 * np.pi * f0 * dt)
    a2 = r * r
    drive = rng.standard_normal(n + 4096)
    x = signal.lfilter([1.0], [1.0, a1, a2], drive)[4096:]
    return scale * x / np.std(x)


class TestWelch:
    def test_sinusoid_power(self):
        n = 2**16
        t = np.arange(n) / FS
        x = np.sin(2 * np.pi * 293.0 * t)
        psd = welch_psd(x, FS, segment_length=4096)
        assert psd.band_power(0.0, np.inf) == pytest.approx(0.5, rel=0.01)
        assert psd.peak_frequency() == pytest.approx(293.0, abs=psd.df)

    def test_white_noise_level(self):
        rng = np.random.default_rng(5)
        x = 3e-3 * rng.standard_normal(2**18)
        psd = welch_psd(x, FS, segment_length=2048)
        expected = np.var(x) / (FS / 2)
        level = np.median(psd.values[1:-1])
        assert level == pytest.approx(expected, rel=0.03)

    def test_parseval(self):
        rng = np.random.default_rng(6)
        x = thermal_oscillator(200.0, 2 * np.pi * 5.0, 2**17, rng)
        psd = welch_psd(x, FS, segment_length=8192)
        assert psd.band_power(0.0, np.inf) == pytest.approx(np.var(x), rel=0.01)

    def test_too_short_trace_rejected(self):
        with pytest.raises(AnalysisError, match="exceeds"):
            welch_psd(np.zeros(100), FS, segment_length=1024)

    def test_averaging_count(self):
        psd = welch_psd(np.random.default_rng(0).standard_normal(8192), FS,
                        segment_length=1024, overlap=0.5)
        assert psd.n_averages == 15


class TestModeTemperature:
    mass = 5.6e-17

    def _trace(self, t_kelvin, f0, gamma, n, seed):
        omega = 2 * np.pi * f0
        sigma = np.sqrt(K_B * t_kelvin / (self.mass * omega**2))
        rng = np.random.default_rng(seed)
        return thermal_oscillator(f0, gamma, n, rng, scale=sigma)

    def test_synthetic_thermal_trace(self):
        f0 = 250.0
        x = self._trace(293.0, f0, 2 * np.pi * 4.0, 2**19, seed=7)
        est = mode_temperature(welch_psd(x, FS, segment_length=2**14), self.mass,
                               2 * np.pi * f0, (150.0, 350.0))
        assert abs(est.kelvin - 293.0) < 3 * est.sigma_kelvin
        assert est.kelvin == pytest.approx(293.0, rel=0.1)

    def test_quadratic_amplitude_scaling(self):
        x = self._trace(100.0, 250.0, 2 * np.pi * 4.0, 2**16, seed=8)
        a = mode_temperature(welch_psd(x, FS, segment_length=2**13), self.mass,
                             2 * np.pi * 250.0, (150.0, 350.0))
        b = mode_temperature(welch_psd(2 * x, FS, segment_length=2**13), self.mass,
                             2 * np.pi * 250.0, (150.0, 350.0))
        assert b.kelvin == pytest.approx(4 * a.kelvin, rel=1e-9)

    def test_band_must_contain_mode(self):
        x = self._trace(100.0, 250.0, 2 * np.pi * 4.0, 2**14, seed=9)
        with pytest.raises(AnalysisError, match="does not contain"):
            mode_temperature(welch_psd(x, FS), self.mass, 2 * np.pi * 250.0,
                             (300.0, 500.0))

    def test_band_must_exclude_other_mode(self):
        x = self._trace(100.0, 250.0, 2 * np.pi * 4.0, 2**14, seed=10)
        with pytest.raises(AnalysisError, match="other mode"):
            mode_temperature(welch_psd(x, FS), self.mass, 2 * np.pi * 250.0,
                             (150.0, 450.0), other_omega=2 * np.pi * 400.0)


class TestProjection:
    def test_equal_charge_combinations(self):
        rng = np.random.default_rng(11)
        s1 = rng.standard_normal(500)
        s2 = rng.standard_normal(500)
        mt = project_modes(s1, s2, 1.0, -1.0)
        assert np.allclose(mt.z_plus, (s1 + s2) / np.sqrt(2), atol=1e-14)
        assert np.allclose(mt.z_minus, (s2 - s1) / np.sqrt(2), atol=1e-14)

    def test_pure_com_input_has_no_stretch(self):
        s = np.sin(np.linspace(0, 20, 300))
        mt = project_modes(s, s, 1.0, -1.0)
        assert np.max(np.abs(mt.z_minus)) < 1e-14

    def test_round_trip(self):
        # particle deviations built from known mode coordinates through
        # s = e_plus z_plus + e_minus z_minus, e = (r, 1) / sqrt(1 + r^2)
        rng = np.random.default_rng(12)
        z_plus = rng.standard_normal(1000)
        z_minus = rng.standard_normal(1000)
        r_plus, r_minus = 0.6275, -1.5936
        e_plus = np.array([r_plus, 1.0]) / np.sqrt(1.0 + r_plus**2)
        e_minus = np.array([r_minus, 1.0]) / np.sqrt(1.0 + r_minus**2)
        s1 = e_plus[0] * z_plus + e_minus[0] * z_minus
        s2 = e_plus[1] * z_plus + e_minus[1] * z_minus
        mt = project_modes(s1, s2, r_plus, r_minus)
        assert np.max(np.abs(mt.z_plus - z_plus)) < 1e-10 * np.max(np.abs(z_plus))
        assert np.max(np.abs(mt.z_minus - z_minus)) < 1e-10 * np.max(np.abs(z_minus))

    def test_degenerate_basis_rejected(self):
        s = np.zeros(10)
        with pytest.raises(AnalysisError, match="degenerate"):
            project_modes(s, s, 0.5, 0.5)


def synth_two_mode(r_plus, r_minus, f_plus, f_minus, n, seed, gamma=2 * np.pi * 3.0):
    """Two independent thermal modes mixed into particle coordinates."""
    rng = np.random.default_rng(seed)
    z_p = thermal_oscillator(f_plus, gamma, n, rng)
    z_m = thermal_oscillator(f_minus, gamma, n, rng, scale=0.8)
    e_p = np.array([r_plus, 1.0]) / np.hypot(r_plus, 1.0)
    e_m = np.array([r_minus, 1.0]) / np.hypot(r_minus, 1.0)
    s1 = e_p[0] * z_p + e_m[0] * z_m
    s2 = e_p[1] * z_p + e_m[1] * z_m
    return s1, s2


class TestFitRPm:
    def test_recovers_reference_ratios(self):
        s1, s2 = synth_two_mode(0.6275, -1.5936, 238.0, 415.5, 2**18, seed=13)
        fit = fit_r_pm(s1, s2, FS, segment_length=2**14)
        assert fit.r_plus == pytest.approx(0.6275, abs=0.05)
        assert fit.r_minus == pytest.approx(-1.5936, abs=0.05)
        assert fit.leakage_db < -30.0

    def test_equal_charge_case(self):
        s1, s2 = synth_two_mode(1.0, -1.0, 238.0, 412.0, 2**18, seed=14)
        fit = fit_r_pm(s1, s2, FS, segment_length=2**14)
        assert fit.r_plus == pytest.approx(1.0, abs=0.02)
        assert fit.r_minus == pytest.approx(-1.0, abs=0.02)

    def test_amplitude_scaling_invariance(self):
        s1, s2 = synth_two_mode(0.6275, -1.5936, 238.0, 415.5, 2**17, seed=15)
        fit_a = fit_r_pm(s1, s2, FS, segment_length=2**13)
        fit_b = fit_r_pm(7.5 * s1, 7.5 * s2, FS, segment_length=2**13)
        assert fit_b.r_plus == pytest.approx(fit_a.r_plus, rel=1e-9)
        assert fit_b.r_minus == pytest.approx(fit_a.r_minus, rel=1e-9)

    def test_ratio_is_the_dense_minimum(self):
        # the band-power ratio of s1 cos(theta) - s2 sin(theta), minimized
        # by brute force over a dense theta grid, against the fitted r
        from cotrap.analysis import _mixing_ratio

        def ratio(theta, num, den):
            v = np.array([np.cos(theta), -np.sin(theta)])
            return np.einsum("i...,ij,j...->...", v, num, v) / np.einsum(
                "i...,ij,j...->...", v, den, v)

        rng = np.random.default_rng(18)
        thetas = np.linspace(-0.5 * np.pi, 0.5 * np.pi, 200001)
        step = thetas[1] - thetas[0]
        for _ in range(8):
            a, b = rng.standard_normal((2, 2, 4))
            num, den = a @ a.T, b @ b.T
            r = _mixing_ratio(num, den)
            vals = ratio(thetas, num, den)
            best = thetas[np.argmin(vals)]
            assert abs(np.arctan(r) - best) <= step
            assert ratio(np.arctan(r), num, den) <= vals.min() * (1 + 1e-12)
        # minimum at theta = +-pi/2: the s1 weight vanishes
        with pytest.raises(AnalysisError, match="scan edge"):
            _mixing_ratio(np.diag([2.0, 1.0]), np.eye(2))
        with pytest.raises(AnalysisError, match="leakage minimization failed"):
            _mixing_ratio(np.eye(2), np.outer([1.0, 2.0], [1.0, 2.0]))
        # the closed form against LAPACK's generalized symmetric eigensolver
        rng = np.random.default_rng(19)
        for _ in range(500):
            a, b = rng.standard_normal((2, 2, 4))
            num, den = a @ a.T, b @ b.T
            v0, v1 = linalg.eigh(num, den)[1][:, 0]
            assert _mixing_ratio(num, den) == pytest.approx(-v1 / v0, rel=1e-12)

    def test_median_is_np_median(self):
        # fit_r_pm's background level, without np.median's numpy.ma import
        rng = np.random.default_rng(20)
        for n in (1, 2, 3, 4, 7, 8, 4097, 4098):
            for trial in range(6):
                a = rng.standard_normal(n)
                if trial == 1:  # ties and zeros of either sign
                    a = np.round(a) * np.where(rng.random(n) < 0.5, 0.0, 1.0) * -1.0
                if trial >= 2:  # NaN anywhere, once or more
                    a[rng.integers(n, size=trial - 1)] = np.nan
                if trial == 5:
                    a[:] = np.nan
                expected = np.median(a)
                got = _median(a)
                assert type(got) is type(expected), (n, trial)
                assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (n, trial)
                assert np.isnan(got) == np.isnan(a).any(), (n, trial)

    def test_unresolved_peaks_rejected(self):
        rng = np.random.default_rng(16)
        s1 = rng.standard_normal(2**14)
        s2 = rng.standard_normal(2**14)
        with pytest.raises(AnalysisError):
            fit_r_pm(s1, s2, FS, segment_length=2**12)


class TestDemodulate:
    def test_coherent_tone(self):
        omega = 2 * np.pi * 300.0
        n = 2**16
        t = np.arange(1, n + 1) / FS
        z = 2.5 * np.cos(omega * t)
        q = demodulate(z, omega, 2 * np.pi * 10.0, FS)
        x, y = q.steady()
        assert np.mean(x) == pytest.approx(2.5, rel=0.01)
        assert abs(np.mean(y)) < 0.02

    def test_quadrature_convention(self):
        # z = X cos + Y sin with constant quadratures
        omega = 2 * np.pi * 300.0
        n = 2**16
        t = np.arange(1, n + 1) / FS
        z = 1.5 * np.cos(omega * t) + 0.75 * np.sin(omega * t)
        q = demodulate(z, omega, 2 * np.pi * 10.0, FS)
        x, y = q.steady()
        assert np.mean(x) == pytest.approx(1.5, rel=0.01)
        assert np.mean(y) == pytest.approx(0.75, rel=0.01)

    def test_thermal_isotropy(self):
        # bandwidth well above the linewidth so the Lorentzian envelope
        # tails are not clipped
        gamma = 2 * np.pi * 5.0
        rng = np.random.default_rng(17)
        z = thermal_oscillator(300.0, gamma, 2**20, rng)
        q = demodulate(z, 2 * np.pi * 300.0, 2 * np.pi * 75.0, FS, gamma0=gamma)
        x, y = q.steady()
        var_z = np.var(z)
        assert np.var(x) == pytest.approx(var_z, rel=0.05)
        assert np.var(y) == pytest.approx(var_z, rel=0.05)
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 0.1

    def test_shared_carrier(self):
        omega = 2 * np.pi * 300.0
        z = np.random.default_rng(22).standard_normal(4096)
        carrier = _carrier(len(z), omega, FS)
        alone = demodulate(z, omega, 2 * np.pi * 10.0, FS)
        shared = demodulate(z, omega, 2 * np.pi * 10.0, FS, carrier=carrier)
        for name in ("t", "x", "y"):
            assert np.array_equal(getattr(shared, name), getattr(alone, name)), name

    def test_bandwidth_preconditions(self):
        z = np.zeros(4096)
        with pytest.raises(AnalysisError, match="separation"):
            demodulate(z, 2 * np.pi * 300.0, 500.0, FS, mode_separation=400.0)
        with pytest.raises(AnalysisError, match="damping"):
            demodulate(z, 2 * np.pi * 300.0, 10.0, FS, gamma0=20.0)


class TestSqueezingDb:
    def _quads(self, var_x, var_y, n, seed, angle=0.0):
        rng = np.random.default_rng(seed)
        x = np.sqrt(var_x) * rng.standard_normal(n)
        y = np.sqrt(var_y) * rng.standard_normal(n)
        c, s = np.cos(angle), np.sin(angle)
        from cotrap.analysis import QuadratureTrace

        return QuadratureTrace(
            xy=np.array([c * x - s * y, s * x + c * y]), omega=2 * np.pi * 300.0,
            bandwidth=100.0, sample_rate=FS, settle_samples=0,
        )

    def test_thermal_state_zero_db(self):
        q = self._quads(1.0, 1.0, 200_000, seed=18)
        res = squeezing_db(q, 1.0, correlation_time=1.0 / FS)
        assert abs(res.db) < 0.05
        assert res.reliable

    def test_known_squeezing_and_angle(self):
        # variance ratio 1/(1+g) at g = 0.5 is -1.76 dB
        q = self._quads(1.0 / 1.5, 1.5, 200_000, seed=19, angle=0.3)
        res = squeezing_db(q, 1.0, correlation_time=1.0 / FS)
        assert res.db == pytest.approx(-10 * np.log10(1.5), abs=0.05)
        assert res.db_amplified == pytest.approx(10 * np.log10(1.5), abs=0.05)
        angle = res.angle_rad % np.pi
        assert angle == pytest.approx(0.3, abs=0.02)

    def test_unreliable_flag(self):
        q = self._quads(1.0, 1.0, 3000, seed=20)
        res = squeezing_db(q, 1.0, correlation_time=1.0)
        assert not res.reliable

    def test_reference_required_positive(self):
        q = self._quads(1.0, 1.0, 5000, seed=21)
        with pytest.raises(AnalysisError):
            squeezing_db(q, 0.0)


class TestScipyParity:
    """The Welch spectrum, window and filter match scipy.signal bit for bit;
    the real cross spectrum matches csd's real part to rounding."""

    @pytest.mark.parametrize("nperseg", [64, 65, 100, 127, 256, 1000, 1001, 4096, 8191,
                                         16384, 32768])
    def test_welch_and_csd(self, nperseg):
        rng = np.random.default_rng(nperseg)
        n = 3 * nperseg + 17
        x = 3e-6 + 1e-7 * rng.standard_normal(n)
        y = rng.standard_normal(n)
        for overlap in (0.0, 0.3, 0.5, 0.75):
            noverlap = int(nperseg * overlap)
            kw = dict(fs=FS, window="hann", nperseg=nperseg, noverlap=noverlap,
                      detrend="constant")
            f_ref, p_ref = signal.welch(x, **kw)
            _, c_ref = signal.csd(x, y, **kw)
            psd = welch_psd(x, FS, nperseg, overlap)
            cross = _spectra([x, y], FS, nperseg, overlap, cross=True)[2].values
            assert np.array_equal(psd.frequencies, f_ref), overlap
            assert np.array_equal(psd.values, p_ref), overlap
            scale = np.max(np.abs(c_ref.real))
            assert np.max(np.abs(cross - c_ref.real)) <= 1e-14 * scale, overlap

    @pytest.mark.parametrize("n", [256, 257])
    def test_single_segment(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        _, p_ref = signal.welch(x, fs=FS, window="hann", nperseg=n, noverlap=n // 2)
        psd = welch_psd(x, FS, n)
        assert psd.n_averages == 1
        assert np.array_equal(psd.values, p_ref)

    def test_hann(self):
        lengths = [*range(1, 600), *(2**k + d for k in range(10, 16) for d in (-1, 0, 1)), 32768]
        for n in lengths:
            assert np.array_equal(_hann(n), signal.get_window("hann", n)), n

    def test_butter(self):
        rng = np.random.default_rng(3)
        wns = np.concatenate([np.geomspace(1e-5, 0.999, 3000), rng.uniform(1e-5, 0.999, 3000)])
        for wn in wns:
            ref = signal.butter(4, wn, output="sos")
            assert np.all(ref[:, 3] == 1.0), wn  # scipy's a0, which the package leaves out
            assert np.array_equal(_butter4_sos(wn), ref[:, [0, 1, 2, 4, 5]]), wn

    def test_sosfilt(self):
        x = np.random.default_rng(4).standard_normal(20000)
        for wn in (1e-3, 0.05, 0.6):
            scipy_sos = signal.butter(4, wn, output="sos")
            assert np.all(scipy_sos[:, 3] == 1.0), wn
            sos = np.ascontiguousarray(scipy_sos[:, [0, 1, 2, 4, 5]])
            ref = signal.sosfilt(scipy_sos, x)
            assert np.array_equal(_kernel.sosfilt(sos, x), ref), wn
            assert np.array_equal(_kernel.sosfilt_python(sos, x), ref), wn


def whole_array_spectra(traces, nperseg, overlap, cross):
    """The spectrum values of _spectra, from every segment's FFT at once."""
    n = len(traces[0])
    seg, nov = _segmentation(n, nperseg, overlap)
    step = seg - nov
    ffts = []
    for x in traces:
        segs = np.lib.stride_tricks.sliding_window_view(x, seg)[::step][:(n - nov) // step]
        d = segs - segs.mean(axis=-1, keepdims=True)
        ffts.append(np.fft.rfft(d * _scaled_hann(seg, FS), axis=-1))
    powers = [f.real**2 + f.imag**2 for f in ffts]
    if cross:
        powers.append(ffts[0].real * ffts[1].real + ffts[0].imag * ffts[1].imag)
    values = []
    for p in powers:
        p = np.ascontiguousarray(p.T)
        p[1:-1 if seg % 2 == 0 else None] *= 2
        values.append(p.mean(axis=-1) if p.shape[-1] > 1 else p[:, 0])
    return values


class TestStreamedSpectra:
    """_spectra transforms the segments a block at a time, gets the bits of
    the whole-array computation, and holds no trace's segment FFTs."""

    # (nperseg, segments): one segment; segment counts that are not a
    # multiple of the rows of a block (32, 8 and 7 rows) and one that is;
    # a segment longer than a block, transformed one row at a time
    @pytest.mark.parametrize("nperseg, nseg", [
        (64, 1), (65, 1), (1001, 1), (1000, 33), (1001, 45), (4096, 13), (4096, 16),
        (4097, 9), (40000, 3),
    ])
    @pytest.mark.parametrize("cross", [False, True])
    def test_matches_whole_array(self, nperseg, nseg, cross):
        rng = np.random.default_rng(nperseg + nseg)
        n = nperseg + (nseg - 1) * (nperseg - nperseg // 2) + 7
        traces = [3e-6 + 1e-7 * rng.standard_normal(n), rng.standard_normal(n)]
        got = _spectra(traces, FS, nperseg, 0.5, cross=cross)
        expected = whole_array_spectra(traces, nperseg, 0.5, cross)
        assert len(got) == len(expected) == 2 + cross
        for psd, values in zip(got, expected):
            assert (psd.segment_length, psd.n_averages) == (nperseg, nseg)
            assert np.array_equal(psd.frequencies, np.fft.rfftfreq(nperseg, 1 / FS))
            assert np.array_equal(psd.values, values)

    def test_peak_memory_is_one_block_over_the_spectra(self):
        x = np.random.default_rng(6).standard_normal(2**20)
        tracemalloc.start()
        try:
            welch_psd(x, FS, 2**16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes + 4 * 2**20


class TestSharedSpectra:
    """analyze_trajectory makes one pass over the particles' segments, for
    their PSDs and the full-length mixing fit, and gets the standalone
    results."""

    def test_analysis_matches_standalone_calls(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "characterised_pair.json"
        raw = json.loads(path.read_text())
        raw["run"]["duration_seconds"] = 3.0
        cfg = parse_config(raw)
        traj = simulate_pass(cfg)
        result, fs = run_experiment(cfg, traj), traj.sample_rate
        i0 = min(int(traj.duration / 10.0 * fs), len(traj.z1) - 2)
        modes = result.report["theory"]
        s1 = traj.z1[i0:] - modes["z1_eq_m"]["value"]
        s2 = traj.z2[i0:] - modes["z2_eq_m"]["value"]
        kw = dict(segment_length=int(result.report["estimator"]["segment_length"]["value"]),
                  overlap=cfg.analysis.overlap)
        for name, trace in (("particle1", s1), ("particle2", s2)):
            got, alone = result.psds[name], welch_psd(trace, fs, **kw)
            assert np.array_equal(got.frequencies, alone.frequencies), name
            assert np.array_equal(got.values, alone.values), name
            assert (got.segment_length, got.n_averages) == (alone.segment_length,
                                                            alone.n_averages), name
        fit = fit_r_pm(s1, s2, fs, **kw)
        fitted = result.report["fitted"]
        assert fitted["r_plus"]["value"] == fit.r_plus
        assert fitted["r_minus"]["value"] == fit.r_minus
        assert fitted["leakage_db"]["value"] == fit.leakage_db
        # the sigmas are the split-half scatter of fit_r_pm's ratios
        half = len(s1) // 2
        seg_half = min(kw["segment_length"], 2 ** int(math.log2(max(half // 4, 64))))
        fit_a = fit_r_pm(s1[:half], s2[:half], fs, seg_half, kw["overlap"])
        fit_b = fit_r_pm(s1[half:], s2[half:], fs, seg_half, kw["overlap"])
        assert fitted["r_plus"]["sigma"] == abs(fit_a.r_plus - fit_b.r_plus) / 2
        assert fitted["r_minus"]["sigma"] == abs(fit_a.r_minus - fit_b.r_minus) / 2

    def test_window_scale_sums_like_the_builtin_sum(self):
        lengths = [*range(1, 700), *(2**k + d for k in range(10, 17) for d in (0, 1))]
        for n in lengths:
            win = _hann(n)
            expected = win * (1 / np.sqrt(sum(win**2) / (1 / FS)))
            assert np.array_equal(_scaled_hann.__wrapped__(n, FS), expected), n

    def test_cached_window_is_read_only(self):
        win = _scaled_hann(256, FS)
        with pytest.raises(ValueError):
            win[0] = 1.0
        assert _scaled_hann(256, FS) is win
