"""Spectral and phase-space estimators for trajectory data.

One-sided PSD convention throughout: integrating a PSD over frequency in
Hz recovers the trace variance.  Estimators report statistical
uncertainties derived from the number of averaged segments where they
can.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .constants import K_B
from .errors import AnalysisError
from .trap import _eig2

__all__ = [
    "Psd",
    "welch_psd",
    "TemperatureEstimate",
    "mode_temperature",
    "auto_band",
    "ModeTraces",
    "project_modes",
    "RPmFit",
    "fit_r_pm",
    "QuadratureTrace",
    "demodulate",
    "SqueezingResult",
    "squeezing_db",
]


@dataclass(frozen=True)
class Psd:
    """One-sided averaged power spectral density with estimator metadata."""

    frequencies: np.ndarray
    values: np.ndarray
    sample_rate: float
    segment_length: int
    overlap: float
    n_averages: int

    @property
    def df(self):
        return self.frequencies[1] - self.frequencies[0]

    def band_power(self, f_lo, f_hi):
        """Integral of the PSD over [f_lo, f_hi] (units of trace^2)."""
        sel = (self.frequencies >= f_lo) & (self.frequencies <= f_hi)
        return float(np.sum(self.values[sel]) * self.df)

    def band_power_sigma(self, f_lo, f_hi):
        """Statistical std of band_power from the segment-averaging count.

        Hann-window leakage and 50% segment overlap correlate neighbouring
        bins, inflating the variance over the independent-bin value; the
        factor 1.5 matches the observed scatter of the Hann-windowed
        estimates, the only window the package uses.
        """
        sel = (self.frequencies >= f_lo) & (self.frequencies <= f_hi)
        return float(
            1.5 * np.sqrt(np.sum(self.values[sel] ** 2) / self.n_averages) * self.df
        )

    def peak_frequency(self, f_lo=None, f_hi=None):
        """Peak location refined by parabolic interpolation on log power."""
        f = self.frequencies
        sel = np.ones(len(f), dtype=bool)
        if f_lo is not None:
            sel &= f >= f_lo
        if f_hi is not None:
            sel &= f <= f_hi
        idx = np.flatnonzero(sel)
        if len(idx) < 3:
            raise AnalysisError("band too narrow to locate a peak")
        k = idx[np.argmax(self.values[idx])]
        if k == 0 or k == len(f) - 1:
            return float(f[k])
        y0, y1, y2 = np.log(self.values[k - 1:k + 2] + 1e-300)
        denom = y0 - 2 * y1 + y2
        shift = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
        shift = min(max(shift, -0.5), 0.5)
        return float(f[k] + shift * self.df)


def _hann(n):
    """The n-point periodic Hann window, as scipy.signal.get_window("hann", n)
    computes it: a cosine sum on n + 1 points with the last one dropped.
    """
    if n == 1:
        return np.ones(1)
    return (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)))[:-1]


def _segmentation(n, segment_length, overlap):
    """(segment_length, samples of overlap) for a trace of n samples."""
    if segment_length is None:
        segment_length = min(n, 2 ** int(np.log2(max(n // 8, 16))))
    segment_length = int(segment_length)
    if segment_length > n:
        raise AnalysisError(f"segment_length {segment_length} exceeds trace length {n}")
    if segment_length < 1:
        raise AnalysisError(f"segment_length must be >= 1, got {segment_length}")
    if not 0 <= overlap < 1:
        raise AnalysisError("overlap must be in [0, 1)")
    return segment_length, int(segment_length * overlap)


def _segment_ffts(x, sample_rate, nperseg, noverlap):
    """One-sided FFTs of the Hann-windowed, mean-removed segments of x, one row
    per segment, scaled so that |X|^2 is a density.

    The arithmetic is scipy.signal.welch's and csd's (ShortTimeFFT with
    scale_to="psd"), so the spectra built from these rows match them bit
    for bit.
    """
    step = nperseg - noverlap
    segs = np.lib.stride_tricks.sliding_window_view(x, nperseg)[::step]
    segs = segs[:(len(x) - noverlap) // step]
    win = _hann(nperseg)
    win = win * (1 / np.sqrt(sum(win**2) / (1 / sample_rate)))
    return np.fft.rfft((segs - segs.mean(axis=-1, keepdims=True)) * win, axis=-1)


def _average(p, nperseg):
    """One-sided spectrum from per-segment rows: every bin but DC (and
    Nyquist, for even nperseg) doubled, then the mean over segments."""
    p = np.ascontiguousarray(p.T)
    p[1:-1 if nperseg % 2 == 0 else None] *= 2
    return p.mean(axis=-1) if p.shape[-1] > 1 else p.reshape(-1)


def welch_psd(trace, sample_rate, segment_length=None, overlap=0.5):
    """Averaged modified-periodogram PSD of a real trace.

    The mean is removed per segment; the Hann window is power-corrected so
    that the integral of the PSD matches the trace variance.
    """
    x = np.asarray(trace, dtype=float)
    segment_length, noverlap = _segmentation(len(x), segment_length, overlap)
    spec = _segment_ffts(x, sample_rate, segment_length, noverlap)
    return Psd(
        frequencies=np.fft.rfftfreq(segment_length, 1 / sample_rate),
        values=_average(spec.real**2 + spec.imag**2, segment_length),
        sample_rate=sample_rate,
        segment_length=segment_length,
        overlap=overlap,
        n_averages=len(spec),
    )


def auto_band(psd, f_center, n_linewidths=5.0, search=0.2):
    """Band around the spectral peak nearest f_center, +- n half-power widths.

    The peak is searched within +-search (fractional) of f_center; the
    linewidth is the measured full width at half maximum, floored at two
    frequency bins so narrow window-limited peaks keep a finite band.
    """
    f = psd.frequencies
    guess = np.argmin(np.abs(f - f_center))
    lo = max(guess - max(int(search * f_center / psd.df), 5), 0)
    hi = min(guess + max(int(search * f_center / psd.df), 5), len(f) - 1)
    k = lo + int(np.argmax(psd.values[lo:hi + 1]))
    half = psd.values[k] / 2.0
    i = k
    while i > 0 and psd.values[i] > half:
        i -= 1
    j = k
    while j < len(f) - 1 and psd.values[j] > half:
        j += 1
    fwhm = max(f[j] - f[i], 2.0 * psd.df)
    return max(f[k] - n_linewidths * fwhm, psd.df), f[k] + n_linewidths * fwhm


@dataclass(frozen=True)
class TemperatureEstimate:
    """Mode temperature with its statistical uncertainty."""

    kelvin: float
    sigma_kelvin: float
    n_averages: int
    band: tuple


def mode_temperature(psd, mass, omega, band=None, *, other_omega=None):
    """Temperature from the band-integrated position PSD: T = m w^2 P / k_B.

    band is (f_lo, f_hi) in Hz and must cover the mode peak while
    excluding the other mode; band=None integrates the full spectrum.
    """
    if band is None:
        band = (0.0, float(psd.frequencies[-1]))
    f_lo, f_hi = band
    f_mode = omega / (2 * math.pi)
    if not f_lo <= f_mode <= f_hi:
        raise AnalysisError(
            f"band ({f_lo:.4g}, {f_hi:.4g}) Hz does not contain the mode at {f_mode:.4g} Hz"
        )
    if other_omega is not None:
        f_other = other_omega / (2 * math.pi)
        if f_lo <= f_other <= f_hi:
            raise AnalysisError(
                f"band ({f_lo:.4g}, {f_hi:.4g}) Hz also contains the other mode at {f_other:.4g} Hz"
            )
    power = psd.band_power(f_lo, f_hi)
    sigma = psd.band_power_sigma(f_lo, f_hi)
    scale = mass * omega**2 / K_B
    return TemperatureEstimate(
        kelvin=scale * power,
        sigma_kelvin=scale * sigma,
        n_averages=psd.n_averages,
        band=(f_lo, f_hi),
    )


@dataclass(frozen=True)
class ModeTraces:
    """Normal-mode coordinates extracted from two particle traces."""

    z_plus: np.ndarray
    z_minus: np.ndarray
    r_plus: float
    r_minus: float


def project_modes(s1, s2, r_plus, r_minus):
    """Mode coordinates from particle deviations, given the mixing ratios.

    Inverts s_i = sum_k e_k[i] z_k with e_k = (r_k, 1)/sqrt(1 + r_k^2).
    Traces must already be relative to the equilibrium positions.
    """
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    if s1.shape != s2.shape:
        raise AnalysisError("s1 and s2 must have equal length")
    if not (np.isfinite(r_plus) and np.isfinite(r_minus)) or r_plus == r_minus:
        raise AnalysisError(f"degenerate mode basis: r_plus = {r_plus}, r_minus = {r_minus}")
    n_p = math.sqrt(1.0 + r_plus**2)
    n_m = math.sqrt(1.0 + r_minus**2)
    emat = np.array([[r_plus / n_p, r_minus / n_m], [1.0 / n_p, 1.0 / n_m]])
    inv = np.linalg.inv(emat)
    z_plus = inv[0, 0] * s1 + inv[0, 1] * s2
    z_minus = inv[1, 0] * s1 + inv[1, 1] * s2
    return ModeTraces(z_plus=z_plus, z_minus=z_minus, r_plus=r_plus, r_minus=r_minus)


@dataclass(frozen=True)
class RPmFit:
    """Mixing ratios fitted by cross-mode leakage minimization."""

    r_plus: float
    r_minus: float
    leakage_db: float


def _band_matrix(p11, p22, p12, freqs, band):
    sel = (freqs >= band[0]) & (freqs <= band[1])
    a11 = float(np.sum(p11[sel]))
    a22 = float(np.sum(p22[sel]))
    a12 = float(np.sum(p12[sel]))
    return np.array([[a11, a12], [a12, a22]])


def _median(a):
    """np.median(a) of a non-empty 1-D float array, bit for bit, NaN included.

    The same partition and mean as np.median, whose NaN check imports
    numpy.ma; here a NaN, which the partition moves to the end, is returned
    as it is.
    """
    half = a.size // 2
    middle = [half] if a.size % 2 else [half - 1, half]
    part = np.partition(a, middle + [-1])
    if np.isnan(part[-1]):
        return part[-1]
    return np.mean(part[middle[0]:half + 1])


def _mixing_ratio(num, den):
    """Mixing ratio r = tan(theta) of the combination v = (cos theta, -sin theta)
    that minimizes the band-power ratio (v num v) / (v den v).

    The minimum of that Rayleigh quotient is the smallest eigenvalue of
    den^-1 num; r follows from its eigenvector.
    """
    try:
        _, (vec, _) = _eig2(np.linalg.solve(den, num))
    except np.linalg.LinAlgError as exc:
        raise AnalysisError(f"leakage minimization failed: {exc}") from None
    v0, v1 = vec
    # |theta| >= pi/2 - 1e-3: s1 carries almost no weight and r diverges
    if abs(v0) <= math.sin(1e-3) * math.hypot(v0, v1):
        raise AnalysisError("leakage minimum at the scan edge; modes not separable")
    return float(-v1 / v0)


def fit_r_pm(s1, s2, sample_rate, segment_length=None, overlap=0.5):
    """Fit the mode mixing ratios by minimizing cross-mode PSD leakage.

    Locates the two mode peaks in the spectra, then finds the particle
    combinations that cancel each mode in the other's band.  Cancelling
    the high mode in the low-mode trace determines r of the high mode and
    vice versa.  Returns the fitted ratios and the worst residual leakage
    (off-mode band power over on-mode band power, in dB).
    """
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    if s1.shape != s2.shape:
        raise AnalysisError("s1 and s2 must have equal length")
    segment_length, noverlap = _segmentation(len(s1), segment_length, overlap)
    x1 = _segment_ffts(s1, sample_rate, segment_length, noverlap)
    x2 = _segment_ffts(s2, sample_rate, segment_length, noverlap)
    freqs = np.fft.rfftfreq(segment_length, 1 / sample_rate)
    p11 = _average(x1.real**2 + x1.imag**2, segment_length)
    p22 = _average(x2.real**2 + x2.imag**2, segment_length)
    p12 = _average(x1.real * x2.real + x1.imag * x2.imag, segment_length)

    combined = p11 + p22
    spectrum = Psd(freqs, combined, sample_rate, segment_length, overlap, len(x1))
    k1 = int(np.argmax(combined[1:])) + 1
    lo1, hi1 = auto_band(spectrum, freqs[k1])
    mask = (freqs < lo1) | (freqs > hi1)
    mask[0] = False
    if not np.any(mask):
        raise AnalysisError("spectrum has no second peak: modes unresolved")
    rest = np.where(mask, combined, 0.0)
    k2 = int(np.argmax(rest))
    if combined[k2] < 10.0 * _median(combined[1:]):
        raise AnalysisError("second mode peak not resolved above the background")
    lo2, hi2 = auto_band(spectrum, freqs[k2])
    band_lo, band_hi = sorted([(lo1, hi1), (lo2, hi2)])
    if band_lo[1] >= band_hi[0]:
        raise AnalysisError("mode bands overlap: peaks not spectrally resolved")

    a_lo = _band_matrix(p11, p22, p12, freqs, band_lo)
    a_hi = _band_matrix(p11, p22, p12, freqs, band_hi)
    # the low-frequency mode carries the "plus" label for a repulsive pair
    r_minus = _mixing_ratio(a_hi, a_lo)
    r_plus = _mixing_ratio(a_lo, a_hi)

    traces = project_modes(s1, s2, r_plus, r_minus)
    psd_p = welch_psd(traces.z_plus, sample_rate, segment_length, overlap)
    psd_m = welch_psd(traces.z_minus, sample_rate, segment_length, overlap)
    leak_p = psd_p.band_power(*band_hi) / psd_p.band_power(*band_lo)
    leak_m = psd_m.band_power(*band_lo) / psd_m.band_power(*band_hi)
    leakage_db = 10.0 * math.log10(max(leak_p, leak_m))
    return RPmFit(r_plus=r_plus, r_minus=r_minus, leakage_db=leakage_db)


@dataclass(frozen=True)
class QuadratureTrace:
    """Slowly varying quadratures of a mode: z(t) ~ X cos(wt) + Y sin(wt)."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    omega: float
    bandwidth: float
    sample_rate: float
    settle_samples: int

    def steady(self):
        """Quadratures with the filter settling transient dropped."""
        return self.x[self.settle_samples:], self.y[self.settle_samples:]


def _butter4_sos(wn):
    """Second-order sections of the 4th-order Butterworth low-pass with
    normalized cutoff 0 < wn < 1, as scipy.signal.butter(4, wn, output="sos")
    computes them: analog poles at the prewarped cutoff, the bilinear map,
    conjugate pairs averaged, the pole nearest the unit circle in the last
    section and the gain in the first.
    """
    warped = float(2 * 2.0 * np.tan(np.pi * np.asarray(wn, dtype=np.float64) / 2.0))
    p = warped * -np.exp(1j * np.pi * np.arange(-3, 4, 2, dtype=np.float64) / (2 * 4))
    gain = warped**4 * np.real(1.0 / np.prod(4.0 - p))
    p = (4.0 + p) / (4.0 - p)
    p = p[np.lexsort((abs(p.imag), p.real))]
    p = (p[p.imag > 0] + p[p.imag < 0].conj()) / 2
    near = np.argmin(np.abs(1 - np.abs(p)))
    sos = np.zeros((2, 5))
    for row, pole in ((0, p[1 - near]), (1, p[near])):
        sos[row, :3] = (1.0, 2.0, 1.0)  # the double zero at z = -1
        sos[row, 3:] = np.poly([pole, pole.conj()])[1:]  # a0 = 1 left out
    sos[0, :3] *= gain
    return sos


def demodulate(trace, omega, lowpass_bandwidth, sample_rate, *,
               mode_separation=None, gamma0=None):
    """Quadratures by mixing with cos/sin at omega and low-pass filtering.

    lowpass_bandwidth (rad/s) must pass the mode's envelope (wider than
    the damping rate) while rejecting the other mode and the 2-omega
    mixing image; violations of the provided bounds raise.
    """
    z = np.asarray(trace, dtype=float)
    if lowpass_bandwidth <= 0:
        raise AnalysisError("lowpass_bandwidth must be > 0")
    if mode_separation is not None and lowpass_bandwidth >= mode_separation:
        raise AnalysisError(
            f"lowpass bandwidth {lowpass_bandwidth:.4g} rad/s >= mode separation "
            f"{mode_separation:.4g} rad/s"
        )
    if gamma0 is not None and lowpass_bandwidth <= gamma0:
        raise AnalysisError(
            f"lowpass bandwidth {lowpass_bandwidth:.4g} rad/s <= damping rate "
            f"{gamma0:.4g} rad/s: envelope would be filtered out"
        )
    if lowpass_bandwidth >= 2.0 * omega:
        raise AnalysisError("lowpass bandwidth must be below the 2-omega mixing image")
    nyq = math.pi * sample_rate
    if not 0 < omega < nyq:
        raise AnalysisError("demodulation frequency outside (0, Nyquist)")
    if lowpass_bandwidth >= nyq:
        raise AnalysisError("lowpass bandwidth must be below the Nyquist frequency")
    t = np.arange(1, len(z) + 1) / sample_rate
    sos = _butter4_sos(lowpass_bandwidth / nyq)
    x = _kernel.sosfilt(sos, 2.0 * z * np.cos(omega * t))
    y = _kernel.sosfilt(sos, 2.0 * z * np.sin(omega * t))
    settle = min(int(10.0 * sample_rate * 2.0 * math.pi / lowpass_bandwidth), len(z))
    return QuadratureTrace(
        t=t, x=x, y=y, omega=omega, bandwidth=lowpass_bandwidth,
        sample_rate=sample_rate, settle_samples=settle,
    )


@dataclass(frozen=True)
class SqueezingResult:
    """Principal-axis variance analysis of a quadrature distribution."""

    db: float
    db_amplified: float
    angle_rad: float
    variance_min: float
    variance_max: float
    n_independent: float
    sigma_db: float
    reliable: bool


def _correlation_time(x, sample_rate):
    """Integral correlation time of a zero-mean series, up to the first zero."""
    x = x - np.mean(x)
    n = len(x)
    var = np.dot(x, x) / n
    if var == 0:
        return np.inf
    tau = 0.5
    for lag in range(1, n // 2):
        c = np.dot(x[:-lag], x[lag:]) / ((n - lag) * var)
        if c <= 0:
            break
        tau += c
    return tau / sample_rate


def _steady(quads):
    """quads.steady(), or AnalysisError when too few samples are left."""
    x, y = quads.steady()
    if len(x) < 16:
        raise AnalysisError("too few quadrature samples after filter settling")
    return x, y


def steady_variance(quads):
    """Mean variance of the steady X and Y quadratures: of a drive-off run,
    the reference_variance of squeezing_db."""
    x, y = _steady(quads)
    return 0.5 * (np.var(x) + np.var(y))


def squeezing_db(quads, reference_variance, correlation_time=None):
    """Squeezing of the least-noisy quadrature relative to a thermal reference.

    Diagonalizes the (X, Y) covariance; db = 10 log10(min eigenvalue /
    reference_variance), negative when squeezed.  reference_variance
    should be the per-quadrature variance of a drive-off run at identical
    parameters.  The estimate is flagged unreliable below 100 independent
    envelope samples.
    """
    if reference_variance <= 0:
        raise AnalysisError("reference_variance must be > 0")
    x, y = _steady(quads)
    cov = np.cov(np.vstack([x, y]))
    evals, evecs = np.linalg.eigh(cov)
    v_min, v_max = float(evals[0]), float(evals[1])
    angle = math.atan2(evecs[1, 0], evecs[0, 0])
    if correlation_time is None:
        correlation_time = max(
            _correlation_time(x, quads.sample_rate),
            _correlation_time(y, quads.sample_rate),
        )
    n_indep = len(x) / quads.sample_rate / correlation_time
    sigma_db = 10.0 / math.log(10.0) * math.sqrt(2.0 / max(n_indep, 1.0))
    return SqueezingResult(
        db=10.0 * math.log10(v_min / reference_variance),
        db_amplified=10.0 * math.log10(v_max / reference_variance),
        angle_rad=angle,
        variance_min=v_min,
        variance_max=v_max,
        n_independent=n_indep,
        sigma_db=sigma_db,
        reliable=n_indep >= 100.0,
    )
