"""Measurement-based feedback acting on particle 1.

A controller samples the particle-1 position (with optional white
detection noise), filters it around one normal mode, and converts it to a
force: either a quarter-period-delayed copy (velocity damping) or the
filtered signal mixed with an oscillator at twice the mode frequency
(parametric squeezing).  The untargeted mode is additionally rejected by
notch sections; without them the mode leakage through the bandpass tail
arrives with an uncontrolled phase and can antidamp the other mode at
high gain.

The discrete loop (filter chain, delay line, one-sample hold latency and
zero-order-hold) is calibrated exactly at the carrier frequency, so the
configured gains keep their physical meaning: gamma_fb adds to the mode's
damping rate in rad/s, and a parametric gain G modulates the mode's
squared frequency by G sin(2 w t).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .errors import ConfigError

__all__ = [
    "DetectionModel",
    "ControllerConfig",
    "Controller",
    "detect",
    "design_controller",
    "parametric_threshold",
    "chain_response",
]

KINDS = ("velocity_damper", "parametric_squeezer")
_NOTCH_COUNT = 2  # identical notch sections per controller


@dataclass(frozen=True)
class DetectionModel:
    """White position-measurement noise floor for the particle-1 detector.

    s_nn is the one-sided position noise PSD in m^2/Hz at the controller
    sample rate; the per-sample noise std is sqrt(s_nn * sample_rate / 2).
    """

    s_nn: float
    sample_rate: float
    seed: int = 0

    def __post_init__(self):
        if self.s_nn < 0:
            raise ConfigError(f"s_nn must be >= 0, got {self.s_nn}")
        if self.sample_rate <= 0:
            raise ConfigError("sample_rate must be > 0")

    def noise_sigma(self):
        return math.sqrt(self.s_nn * self.sample_rate / 2.0)


def detect(z1_true, det):
    """Measured particle-1 positions: truth plus white noise at the floor s_nn.

    Deterministic in det.seed; successive calls reproduce the same noise.
    """
    z = np.asarray(z1_true, dtype=float)
    if det.s_nn == 0.0:
        return z.copy()
    return z + det.noise_sigma() * _kernel.normals(det.seed).standard_normal(z.shape)


@dataclass(frozen=True)
class ControllerConfig:
    """Resolved feedback chain for one controller acting on particle 1.

    gain is gamma_fb in rad/s for a velocity damper and G in s^-2 for a
    parametric squeezer.  mode_projection is the particle-1 component of
    the targeted mode's normalized eigenvector; the force scaling divides
    by its square so the configured gain applies to the mode coordinate.
    delay_samples None picks the quarter-period delay automatically
    (rounded to a sample, latency included, residual phase compensated in
    the gain).  notch, when set, is the frequency of the rejection notch
    placed on the untargeted mode.
    """

    kind: str
    target_mode: str
    center: float
    bandwidth: float
    gain: float
    mass: float
    sample_rate: float
    order: int = 1
    delay_samples: int | None = None
    drive_freq: float | None = None
    drive_phase: float = 0.0
    notch: float | None = None
    notch_bandwidth: float = 0.0
    mode_projection: float = 1.0
    force_limit: float = math.inf

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.target_mode not in ("plus", "minus"):
            raise ConfigError(f"target_mode must be 'plus' or 'minus', got {self.target_mode!r}")
        if self.gain < 0:
            raise ConfigError("gain must be >= 0")
        if self.sample_rate <= 0 or self.center <= 0 or self.bandwidth <= 0:
            raise ConfigError("sample_rate, center and bandwidth must be > 0")
        if self.center >= math.pi * self.sample_rate:
            raise ConfigError("bandpass center is above the Nyquist rate")
        if self.kind == "parametric_squeezer" and self.drive_omega >= math.pi * self.sample_rate:
            raise ConfigError(
                f"parametric drive at {self.drive_omega:.4g} rad/s exceeds the Nyquist rate"
            )
        if self.order < 1:
            raise ConfigError("order must be >= 1")
        if self.mass <= 0:
            raise ConfigError("mass must be > 0")
        if abs(self.mode_projection) < 1e-9:
            raise ConfigError("mode_projection ~ 0: particle 1 does not move in the target mode")
        if self.force_limit <= 0:
            raise ConfigError("force_limit must be > 0")
        if self.notch is not None:
            if not 0 < self.notch < math.pi * self.sample_rate:
                raise ConfigError("notch frequency outside (0, Nyquist)")
            if self.notch_bandwidth <= 0:
                raise ConfigError("notch_bandwidth must be > 0 when a notch is set")

    @property
    def drive_omega(self):
        """Parametric drive frequency: drive_freq, else twice the center."""
        return self.drive_freq if self.drive_freq is not None else 2.0 * self.center


def _alpha(center, bandwidth, fs, key):
    """alpha = sin(w0) bw / (2 center) of a biquad; one so small that 1 - alpha
    rounds to 1 puts the poles on the unit circle and raises ConfigError."""
    alpha = math.sin(center / fs) * bandwidth / (2.0 * center)
    if 1.0 - alpha == 1.0:
        raise ConfigError(f"key '{key}' of {bandwidth:.4g} rad/s rounds the poles of the filter "
                          f"at {center:.4g} rad/s onto the unit circle; its frequencies, and the "
                          f"bandwidths left unset, come from {_MODE_KEYS}")
    return alpha


def _bandpass_section(center, bandwidth, fs):
    """Unity-peak resonant bandpass biquad; zero phase at the center."""
    w0 = center / fs
    alpha = _alpha(center, bandwidth, fs, "bandwidth_rad_per_s")
    a0 = 1.0 + alpha
    return np.array([alpha / a0, 0.0, -alpha / a0, -2.0 * math.cos(w0) / a0, (1.0 - alpha) / a0])


def _notch_section(center, bandwidth, fs):
    """Band-reject biquad with a zero exactly on the notch frequency."""
    w0 = center / fs
    alpha = _alpha(center, bandwidth, fs, "notch_bandwidth_rad_per_s")
    a0 = 1.0 + alpha
    c = -2.0 * math.cos(w0)
    return np.array([1.0 / a0, c / a0, 1.0 / a0, c / a0, (1.0 - alpha) / a0])


def _sections(cfg):
    rows = [_bandpass_section(cfg.center, cfg.bandwidth, cfg.sample_rate)
            for _ in range(cfg.order)]
    if cfg.notch is not None:
        rows += [_notch_section(cfg.notch, cfg.notch_bandwidth, cfg.sample_rate)
                 for _ in range(_NOTCH_COUNT)]
    return np.array(rows)


def chain_response(sections, omega, fs):
    """Complex response of a biquad cascade at angular frequency omega."""
    z1 = np.exp(-1j * np.asarray(omega) / fs)
    z2 = z1 * z1
    h = np.ones_like(z1, dtype=complex)
    for b0, b1, b2, a1, a2 in sections:
        h = h * (b0 + b1 * z1 + b2 * z2) / (1.0 + a1 * z1 + a2 * z2)
    return h


# the configuration keys that set the normal-mode frequencies, for error messages
_MODE_KEYS = ("the 'trap' keys 'u0_volts', 'kappa' and 'z0_meters' and each particle's "
              "'charge_e' and mass ('mass_kg', or 'radius_meters' and 'density_kg_per_m3')")


def _wrap_phase(phi):
    return (phi + math.pi) % (2.0 * math.pi) - math.pi


def _calibration_error(cfg, h_c):
    return ConfigError(
        f"the filter chain passes {abs(h_c):.3g} of the {cfg.target_mode} mode at "
        f"{cfg.center:.4g} rad/s, which cannot calibrate the gain; the mode "
        f"frequencies come from {_MODE_KEYS}"
    )


def _resolve(cfg):
    """Sections, delay and calibrated gain realizing the configured physics.

    The force computed from sample i is held over the following sample
    period, so besides the filter chain the loop carries half a sample of
    zero-order-hold phase lag; it is included when choosing the delay and
    the gain so the carrier-frequency response is exact.
    """
    sections = _sections(cfg)
    fs = cfg.sample_rate
    ts = 1.0 / fs
    with np.errstate(invalid="ignore"):  # 0/0 at a near-zero frequency, rejected below
        h_c = complex(chain_response(sections, cfg.center, fs))
    if not math.isfinite(abs(h_c)):
        raise _calibration_error(cfg, h_c)
    zoh_gain = float(np.sinc(cfg.center * ts / (2.0 * math.pi)))
    # the loop gain at the carrier, which the output gain divides out
    loop_gain = cfg.mode_projection**2 * abs(h_c) * zoh_gain
    info = {
        "kind": cfg.kind,
        "chain_gain": abs(h_c),
        "chain_phase": math.atan2(h_c.imag, h_c.real),
    }
    if cfg.kind == "velocity_damper":
        phi_chain = info["chain_phase"]
        if cfg.delay_samples is None:
            period = 2.0 * math.pi / (cfg.center * ts)
            base = (phi_chain + math.pi / 2.0) / (cfg.center * ts) - 0.5
            while base < -0.5:
                base += period
            delay = max(0, int(round(base)))
        else:
            delay = int(cfg.delay_samples)
        resid = _wrap_phase(phi_chain - cfg.center * ts * (delay + 0.5) + math.pi / 2.0)
        if abs(resid) > 0.6:
            raise ConfigError(
                f"residual loop phase {resid:.3f} rad too large for velocity damping;"
                " increase the sample rate or set delay_samples explicitly"
            )
        loop_gain *= math.cos(resid)
        force = cfg.mass * cfg.gain * cfg.center
        lo_omega = 0.0
        lo_phase = 0.0
        info.update(delay_samples=delay, residual_phase=resid)
    else:
        delay = 0
        lo_omega = cfg.drive_omega
        lo_phase = cfg.drive_phase
        force = -cfg.mass * cfg.gain
        info.update(delay_samples=0, lo_omega=lo_omega, lo_phase=lo_phase)
    gain = force / loop_gain if loop_gain != 0.0 else math.inf
    if not math.isfinite(gain):
        raise _calibration_error(cfg, h_c)
    return sections, delay, gain, lo_omega, lo_phase, info


def _delay_error(i, cfg, delay):
    return (f"section 'controllers[{i}]': the {cfg.target_mode} mode at {cfg.center:.4g} rad/s "
            f"needs a delay line of {delay} samples, more than memory holds; set "
            f"'delay_samples', or raise the mode frequency, which comes from {_MODE_KEYS}")


def build_kernel_set(configs, sample_rate, mass):
    """Kernel arrays for a list of controller configurations, plus one
    resolved-design info dict per controller."""
    n = len(configs)
    all_sections = []
    offsets = [0]
    kinds = np.zeros(n, dtype=np.int64)
    delays = np.zeros(n, dtype=np.int64)
    gains = np.zeros(n)
    lo_w = np.zeros(n)
    lo_p = np.zeros(n)
    limits = np.full(n, np.inf)
    infos = []
    for i, cfg in enumerate(configs):
        if abs(cfg.sample_rate - sample_rate) > 1e-6 * sample_rate:
            raise ConfigError(
                f"controller {i} designed for {cfg.sample_rate} Hz, run uses {sample_rate} Hz"
            )
        if abs(cfg.mass - mass) > 1e-9 * mass:
            raise ConfigError(
                f"controller {i} designed for mass {cfg.mass}, particle 1 has {mass}"
            )
        try:
            sections, delay, gain, w, p, info = _resolve(cfg)
        except ConfigError as exc:
            raise ConfigError(f"section 'controllers[{i}]': {exc}") from None
        if delay >= np.iinfo(np.int64).max:
            raise ConfigError(_delay_error(i, cfg, delay))
        all_sections.append(sections)
        offsets.append(offsets[-1] + len(sections))
        kinds[i] = _kernel.KIND_DAMPER if cfg.kind == "velocity_damper" else _kernel.KIND_SQUEEZER
        delays[i] = delay
        gains[i] = gain
        lo_w[i] = w
        lo_p[i] = p
        limits[i] = cfg.force_limit
        infos.append(info)
    sos = np.vstack(all_sections) if all_sections else np.zeros((0, 5))
    max_len = int(delays.max()) + 1 if n else 1
    try:
        dly_buf = np.zeros((n, max_len))
    except (ValueError, MemoryError):  # numpy's dimension limit, or no memory
        i = int(delays.argmax())
        raise ConfigError(_delay_error(i, configs[i], int(delays[i]))) from None
    for cfg in configs:  # only for a chain that passed every check above
        if cfg.notch is not None and abs(cfg.notch - cfg.center) <= cfg.bandwidth:
            warnings.warn(
                "bandpass overlaps the untargeted mode: "
                f"|{cfg.notch:.4g} - {cfg.center:.4g}| <= bandwidth {cfg.bandwidth:.4g}",
                stacklevel=2,
            )
    return _kernel.KernelControllerSet(
        kind=kinds,
        sos=sos,
        sos_off=np.array(offsets, dtype=np.int64),
        sos_state=np.zeros((sos.shape[0], 2)),
        dly_buf=dly_buf,
        dly_len=delays + 1,
        dly_pos=np.zeros(n, dtype=np.int64),
        gain_n_per_m=gains,
        lo_omega=lo_w,
        lo_phase=lo_p,
        force_limit=limits,
        sat_count=np.zeros(n, dtype=np.int64),
        hold_force=np.zeros(n),
    ), infos


class Controller:
    """Stateful sample-by-sample processor for offline use.

    Wraps one ControllerConfig; process() consumes a measured stream and
    returns the force the actuator would apply after each sample.  State
    evolves only through process(); reset() restores the initial state.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self._set, (self.info,) = build_kernel_set([cfg], cfg.sample_rate, cfg.mass)
        self._t_next = 0.0

    @property
    def saturation_count(self):
        return int(self._set.sat_count[0])

    def reset(self):
        self._set.reset()
        self._t_next = 0.0

    def process(self, measured, t0=None):
        """Force per sample (N) for a block of measurements.

        Successive calls continue the internal clock and filter state, so
        a long stream can be fed in chunks.
        """
        y = np.ascontiguousarray(measured, dtype=float)
        if t0 is None:
            t0 = self._t_next
        ts = 1.0 / self.cfg.sample_rate
        # y[i] is the measurement at t0 + (i + 1) ts
        out = np.array([_kernel.controller_step(v, t0 + (i + 1) * ts, 0, self._set)
                        for i, v in enumerate(y)], dtype=float)
        self._t_next = t0 + len(y) / self.cfg.sample_rate
        return out


def parametric_threshold(gamma0, omega):
    """Parametric gain at the instability threshold, G_th = 2 gamma0 omega."""
    return 2.0 * gamma0 * omega


def design_controller(kind, modes, target_mode, gain, sample_rate, mass, *,
                      bandwidth=None, order=1, delay_samples=None,
                      drive_phase=0.0, drive_freq=None, notch=True,
                      notch_bandwidth=None, force_limit=math.inf):
    """Build a ControllerConfig from the pair's mode structure.

    Fills the bandpass center with the targeted mode frequency, puts the
    rejection notch on the other mode, and records the particle-1
    eigenvector component used to scale gains to the mode coordinate.
    Defaults: bandwidth = mode splitting / 10, notch bandwidth = splitting / 4.
    """
    omega_c = modes.omega(target_mode)
    other = "minus" if target_mode == "plus" else "plus"
    omega_other = modes.omega(other)
    splitting = abs(omega_other - omega_c)
    if splitting == 0:
        raise ConfigError("degenerate modes: cannot target one of them")
    if bandwidth is None:
        bandwidth = splitting / 10.0
    if notch_bandwidth is None:
        notch_bandwidth = splitting / 4.0
    return ControllerConfig(
        kind=kind,
        target_mode=target_mode,
        center=omega_c,
        bandwidth=bandwidth,
        gain=gain,
        mass=mass,
        sample_rate=sample_rate,
        order=order,
        delay_samples=delay_samples,
        drive_freq=drive_freq,
        drive_phase=drive_phase,
        notch=omega_other if notch else None,
        notch_bandwidth=notch_bandwidth if notch else 0.0,
        mode_projection=float(modes.eigenvector(target_mode)[0]),
        force_limit=force_limit,
    )
