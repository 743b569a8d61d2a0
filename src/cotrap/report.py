"""Run orchestration and report assembly.

Turns a parsed ExperimentConfig into simulation output plus a RunReport:
mode-structure theory next to measured frequencies, per-mode and
per-particle temperatures (in-loop and out-of-loop), fitted mixing
ratios, squeezing levels against a drive-off reference run, and
saturation/fault counters.  Every numeric report entry carries either a
statistical sigma or an "exact" marker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import analysis as ana
from .constants import K_B
from .dynamics import simulate
from .errors import AnalysisError
from .feedback import design_controller, parametric_threshold
from .trap import mode_structure

__all__ = ["ExperimentResult", "resolve_controllers", "run_experiment",
           "analyze_trajectory", "report_to_text"]


def entry(value, sigma=None):
    if sigma is None:
        return {"value": float(value), "exact": True}
    return {"value": float(value), "sigma": float(sigma)}


@dataclass
class ExperimentResult:
    trajectory: object
    report: dict
    psds: dict
    quadratures: dict


def resolve_controllers(config, modes):
    """Design ControllerConfigs for the raw controller requests."""
    return [
        design_controller(modes=modes, sample_rate=config.run.sample_rate,
                          mass=config.particles[0].mass, **cs)
        for cs in config.controllers
    ]


def run_experiment(config):
    """Simulate, analyze, and report one configured run.

    When a parametric squeezer is configured, an additional drive-off run
    with identical seeds provides the thermal reference for the squeezing
    figures.
    """
    trap = config.trap
    p1, p2 = config.particles
    modes = mode_structure(trap, p1, p2)
    controllers = resolve_controllers(config, modes)
    run = config.run
    traj = simulate(
        trap, p1, p2, config.noise, controllers,
        duration=run.duration, dt=run.dt, sample_rate=run.sample_rate,
        detection=config.detection, store_every=run.store_every,
        coulomb_coupling=run.coulomb_coupling,
    )
    traj.meta["config"] = config.resolved
    reference = None
    if any(c.kind == "parametric_squeezer" for c in controllers):
        reference = simulate(
            trap, p1, p2, config.noise, [],
            duration=run.duration, dt=run.dt, sample_rate=run.sample_rate,
            detection=config.detection, store_every=run.store_every,
            coulomb_coupling=run.coulomb_coupling,
        )
    report, psds, quads = analyze_trajectory(
        traj, modes, p1, p2, config.analysis, controllers=controllers,
        reference=reference,
    )
    return ExperimentResult(trajectory=traj, report=report, psds=psds, quadratures=quads)


def _mode_effective_mass(modes, which, m1, m2):
    e = modes.eigenvector(which)
    return m1 * e[0] ** 2 + m2 * e[1] ** 2


def _clipped_band(psd, f_center, f_mid, side):
    # tight peak search: the theory frequency is trusted to better than 10%.
    # +-12 linewidths rather than the analysis default of 5: a Lorentzian
    # keeps 6% of its power outside +-5 widths but only 2.6% outside 12,
    # and the midpoint clip still rejects the other mode.
    lo, hi = ana.auto_band(psd, f_center, n_linewidths=12.0, search=0.1)
    if side == "low":
        hi = min(hi, f_mid)
    else:
        lo = max(lo, f_mid)
    # always keep the expected mode inside the band
    lo = min(lo, f_center - 2 * psd.df)
    hi = max(hi, f_center + 2 * psd.df)
    return lo, hi


def _nperseg(n, sample_rate, settings):
    if settings.segment_seconds is not None:
        target = int(settings.segment_seconds * sample_rate)
    else:
        target = n // 16
    target = max(min(target, n), 64)
    return 2 ** int(math.log2(target))


def analyze_trajectory(traj, modes, p1, p2, settings, controllers=(),
                       reference=None):
    """Spectral analysis of a run; returns (report, psds, quadratures)."""
    fs = traj.sample_rate
    burn = settings.burn_in if settings.burn_in is not None else traj.duration / 10.0
    i0 = min(int(burn * fs), len(traj.z1) - 2)
    s1, s2 = traj.deviations(modes.z1_eq, modes.z2_eq)
    s1, s2 = s1[i0:], s2[i0:]
    mt = ana.project_modes(s1, s2, modes.r_plus, modes.r_minus)

    nperseg = _nperseg(len(s1), fs, settings)
    kw = dict(segment_length=nperseg, overlap=settings.overlap)
    psds = {
        "particle1": ana.welch_psd(s1, fs, **kw),
        "particle2": ana.welch_psd(s2, fs, **kw),
        "mode_plus": ana.welch_psd(mt.z_plus, fs, **kw),
        "mode_minus": ana.welch_psd(mt.z_minus, fs, **kw),
    }

    f_plus = modes.omega_plus / (2 * math.pi)
    f_minus = modes.omega_minus / (2 * math.pi)
    f_mid = math.sqrt(f_plus * f_minus)
    band_p = _clipped_band(psds["mode_plus"], f_plus, f_mid, "low")
    band_m = _clipped_band(psds["mode_minus"], f_minus, f_mid, "high")

    m_eff = {
        "plus": _mode_effective_mass(modes, "plus", p1.mass, p2.mass),
        "minus": _mode_effective_mass(modes, "minus", p1.mass, p2.mass),
    }
    t_plus = ana.mode_temperature(psds["mode_plus"], m_eff["plus"], modes.omega_plus,
                                  band_p, other_omega=modes.omega_minus)
    t_minus = ana.mode_temperature(psds["mode_minus"], m_eff["minus"], modes.omega_minus,
                                   band_m, other_omega=modes.omega_plus)

    report = {
        "theory": {
            "z_sep_m": entry(modes.z_sep),
            "z1_eq_m": entry(modes.z1_eq),
            "z2_eq_m": entry(modes.z2_eq),
            "f_plus_hz": entry(f_plus),
            "f_minus_hz": entry(f_minus),
            "r_plus": entry(modes.r_plus),
            "r_minus": entry(modes.r_minus),
            "frac_1_plus": entry(modes.frac_1_plus),
            "frac_2_plus": entry(modes.frac_2_plus),
        },
        "measured": {
            "f_plus_hz": entry(psds["mode_plus"].peak_frequency(*band_p),
                               psds["mode_plus"].df / 2),
            "f_minus_hz": entry(psds["mode_minus"].peak_frequency(*band_m),
                                psds["mode_minus"].df / 2),
            "t_mode_plus_kelvin": entry(t_plus.kelvin, t_plus.sigma_kelvin),
            "t_mode_minus_kelvin": entry(t_minus.kelvin, t_minus.sigma_kelvin),
        },
        "estimator": {
            "segment_length": entry(nperseg),
            "n_averages": entry(psds["mode_plus"].n_averages),
            "burn_in_seconds": entry(burn),
        },
        "counters": {
            "saturation": [int(c) for c in traj.meta.get("saturation_counts", [])],
            "fault": "none",
        },
    }

    # per-particle band temperatures (energy of each particle in each mode band)
    for name, psd, mass in (("particle1", psds["particle1"], p1.mass),
                            ("particle2", psds["particle2"], p2.mass)):
        for mode_name, band, omega in (("plus", band_p, modes.omega_plus),
                                       ("minus", band_m, modes.omega_minus)):
            power = psd.band_power(*band)
            sigma = psd.band_power_sigma(*band)
            scale = mass * omega**2 / K_B
            report["measured"][f"t_{name}_{mode_name}_kelvin"] = entry(
                scale * power, scale * sigma
            )

    if traj.y is not None:
        y_dev = traj.y[i0:] - modes.z1_eq
        psd_y = ana.welch_psd(y_dev, fs, **kw)
        psds["in_loop"] = psd_y
        for mode_name, band, omega in (("plus", band_p, modes.omega_plus),
                                       ("minus", band_m, modes.omega_minus)):
            e0 = modes.eigenvector(mode_name)[0]
            scale = m_eff[mode_name] * omega**2 / (K_B * e0**2)
            report["measured"][f"t_inloop_{mode_name}_kelvin"] = entry(
                scale * psd_y.band_power(*band), scale * psd_y.band_power_sigma(*band)
            )

    if settings.fit_mixing_ratios:
        try:
            fit = ana.fit_r_pm(s1, s2, fs, segment_length=nperseg, overlap=settings.overlap)
            # split-half scatter as the statistical uncertainty of the fit
            half = len(s1) // 2
            seg_half = min(nperseg, 2 ** int(math.log2(max(half // 4, 64))))
            fit_a = ana.fit_r_pm(s1[:half], s2[:half], fs, segment_length=seg_half,
                                 overlap=settings.overlap)
            fit_b = ana.fit_r_pm(s1[half:], s2[half:], fs, segment_length=seg_half,
                                 overlap=settings.overlap)
            report["fitted"] = {
                "r_plus": entry(fit.r_plus, abs(fit_a.r_plus - fit_b.r_plus) / 2),
                "r_minus": entry(fit.r_minus, abs(fit_a.r_minus - fit_b.r_minus) / 2),
                "leakage_db": entry(fit.leakage_db),
            }
        except AnalysisError as exc:
            report["fitted"] = {"skipped": str(exc)}

    ctrl_entries = []
    for cfg, info in zip(controllers, traj.meta.get("controller_info", [])):
        item = {
            "kind": cfg.kind,
            "target_mode": cfg.target_mode,
            "gain": entry(cfg.gain),
            "delay_samples": info.get("delay_samples"),
            "residual_phase_rad": entry(info.get("residual_phase", 0.0)),
        }
        if cfg.kind == "parametric_squeezer":
            g_th = parametric_threshold(p1.gamma0, cfg.center)
            g = cfg.gain / g_th if g_th > 0 else math.inf
            item["g"] = entry(g)
            item["above_threshold"] = bool(g >= 1.0)
        ctrl_entries.append(item)
    if ctrl_entries:
        report["controllers"] = ctrl_entries

    quads = {}
    squeezers = [c for c in controllers if c.kind == "parametric_squeezer"]
    if squeezers and reference is not None:
        which = squeezers[0].target_mode
        omega_t = modes.omega(which)
        split = abs(modes.omega_minus - modes.omega_plus)
        bw = settings.demod_bandwidth if settings.demod_bandwidth is not None else split / 8.0
        gamma0 = max(p1.gamma0, p2.gamma0)
        r1, r2 = reference.deviations(modes.z1_eq, modes.z2_eq)
        r1, r2 = r1[i0:], r2[i0:]
        corr_time = 2.0 / gamma0 if gamma0 > 0 else None
        report["squeezing"] = {"target_mode": which}
        for name, trace_on, trace_off in (("particle1", s1, r1), ("particle2", s2, r2)):
            q_on = ana.demodulate(trace_on, omega_t, bw, fs,
                                  mode_separation=split, gamma0=gamma0)
            q_off = ana.demodulate(trace_off, omega_t, bw, fs,
                                   mode_separation=split, gamma0=gamma0)
            res = ana.squeezing_db(q_on, ana.steady_variance(q_off), correlation_time=corr_time)
            quads[name] = (q_on, q_off)
            report["squeezing"][name] = {
                "db": entry(res.db, res.sigma_db),
                "db_amplified": entry(res.db_amplified, res.sigma_db),
                "angle_rad": entry(res.angle_rad),
                "n_independent": entry(res.n_independent),
                "reliable": bool(res.reliable),
            }
    _require_finite(report)
    return report, psds, quads


def _require_finite(node, name=""):
    """Raise AnalysisError naming the first estimate (an entry with a sigma)
    whose value or sigma is not finite; an exact entry may be infinite."""
    if isinstance(node, dict) and "sigma" in node:
        if not (math.isfinite(node["value"]) and math.isfinite(node["sigma"])):
            raise AnalysisError(f"estimate '{name}' is not finite: value {node['value']}, "
                                f"sigma {node['sigma']}")
    elif isinstance(node, dict):
        for key, child in node.items():
            _require_finite(child, f"{name}.{key}" if name else key)
    elif isinstance(node, list):
        for i, child in enumerate(node):
            _require_finite(child, f"{name}[{i}]")


def _flatten(prefix, obj, lines):
    if isinstance(obj, dict):
        if "value" in obj and ("sigma" in obj or obj.get("exact")):
            val = obj["value"]
            if obj.get("exact"):
                lines.append(f"{prefix} = {val!r} (exact)")
            else:
                lines.append(f"{prefix} = {val!r} +- {obj['sigma']!r}")
            return
        for key in obj:
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], lines)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            _flatten(f"{prefix}[{i}]", item, lines)
    else:
        lines.append(f"{prefix} = {obj!r}")


def report_to_text(report):
    """Flat key = value rendering of a report dict."""
    lines = []
    _flatten("", report, lines)
    return "\n".join(lines) + "\n"
