"""Experiment configuration: strict JSON schema with units in key names.

Unknown keys are rejected and missing required keys are reported by name.
The resolved configuration (all defaults and derived seeds filled in) is
embedded in every run output, and parse(serialize(parse(text))) is the
identity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import get_window

from .dynamics import NoiseModel
from .errors import ConfigError
from .feedback import DetectionModel
from .trap import ParticleSpec, TrapConfig, epstein_gamma

__all__ = ["ExperimentConfig", "parse_config", "load_config", "serialize_config"]

_TRAP_KEYS = {
    "v0_volts": True,
    "u0_volts": True,
    "omega_rf_rad_per_s": True,
    "eta": True,
    "kappa": True,
    "r0_meters": True,
    "z0_meters": True,
}
_PARTICLE_KEYS = {
    "charge_e": True,
    "mass_kg": False,
    "radius_meters": False,
    "density_kg_per_m3": False,
    "gamma0_rad_per_s": False,
    "pressure_mbar": False,
}
_NOISE_KEYS = {
    "t0_kelvin": True,
    "seed": False,
    "force_noise_psd_n2_per_hz": False,
}
_DETECTION_KEYS = {
    "s_nn_m2_per_hz": True,
    "seed": False,
}
_CONTROLLER_KEYS = {
    "kind": True,
    "target_mode": True,
    "gamma_fb_rad_per_s": False,
    "gain_s2": False,
    "bandwidth_rad_per_s": False,
    "order": False,
    "delay_samples": False,
    "drive_phase_rad": False,
    "drive_freq_rad_per_s": False,
    "notch": False,
    "notch_bandwidth_rad_per_s": False,
    "force_limit_newtons": False,
}
_RUN_KEYS = {
    "duration_seconds": True,
    "sample_rate_hz": True,
    "substeps_per_sample": True,
    "seed": True,
    "store_every": False,
    "coulomb_coupling": False,
}
_ANALYSIS_KEYS = {
    "burn_in_seconds": False,
    "segment_seconds": False,
    "overlap": False,
    "window": False,
    "fit_mixing_ratios": False,
    "demod_bandwidth_rad_per_s": False,
}
_SWEEP_KEYS = {
    "parameter": True,
    "values": True,
    "workers": False,
}
_TOP_KEYS = ("trap", "particles", "noise", "detection", "controllers", "run",
             "analysis", "sweep")


def _check_keys(section, data, schema):
    if not isinstance(data, dict):
        raise ConfigError(f"section '{section}' must be a mapping")
    for key in data:
        if key not in schema:
            raise ConfigError(f"unknown key '{key}' in section '{section}'")
    for key, required in schema.items():
        if required and key not in data:
            raise ConfigError(f"missing required key '{key}' in section '{section}'")


def _finite(section, key, val):
    if not isinstance(val, bool) and isinstance(val, (int, float)):
        try:
            out = float(val)
        except OverflowError:  # an integer beyond the float range
            out = math.inf
        if math.isfinite(out):
            return out
    raise ConfigError(f"key '{key}' in section '{section}' must be a finite number")


# range checks applied at parse time, named by the text of the error message
_BOUNDS = {
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "in [0, 1)": lambda v: 0 <= v < 1,
}


def _bounded(section, key, val, bound):
    if bound is not None and not _BOUNDS[bound](val):
        raise ConfigError(f"key '{key}' in section '{section}' must be {bound}")
    return val


def _number(section, data, key, default=None, bound=None):
    if key not in data:
        return default
    return _bounded(section, key, _finite(section, key, data[key]), bound)


def _boolean(section, data, key, default):
    val = data.get(key, default)
    if not isinstance(val, bool):
        raise ConfigError(f"key '{key}' in section '{section}' must be a boolean")
    return val


def _integer(section, data, key, default=None, bound=None):
    if key not in data:
        return default
    val = data[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"key '{key}' in section '{section}' must be an integer")
    return _bounded(section, key, val, bound)


def _window(section, data, key, default):
    val = data.get(key, default)
    if isinstance(val, str):
        try:
            get_window(val, 16)
            return val
        except ValueError:
            pass
    raise ConfigError(
        f"key '{key}' in section '{section}' must name a scipy.signal window "
        f"that takes no parameters, got {val!r}"
    )


@dataclass
class ControllerSettings:
    """Raw controller request; resolved against the mode structure at run time."""

    kind: str
    target_mode: str
    gain: float
    bandwidth: float | None = None
    order: int = 1
    delay_samples: int | None = None
    drive_phase: float = 0.0
    drive_freq: float | None = None
    notch: bool = True
    notch_bandwidth: float | None = None
    force_limit: float = float("inf")


@dataclass
class RunSettings:
    duration: float
    sample_rate: float
    substeps: int
    seed: int
    store_every: int = 1
    coulomb_coupling: bool = True

    @property
    def dt(self):
        return 1.0 / (self.sample_rate * self.substeps)


@dataclass
class AnalysisSettings:
    burn_in: float | None = None
    segment_seconds: float | None = None
    overlap: float = 0.5
    window: str = "hann"
    fit_mixing_ratios: bool = True
    demod_bandwidth: float | None = None


@dataclass
class SweepSettings:
    parameter: str
    values: list
    workers: int = 1


@dataclass
class ExperimentConfig:
    trap: TrapConfig
    particles: tuple
    noise: NoiseModel
    detection: DetectionModel | None
    controllers: list
    run: RunSettings
    analysis: AnalysisSettings
    sweep: SweepSettings | None
    resolved: dict = field(default_factory=dict)


def _parse_particle(idx, data, t0):
    section = f"particles[{idx}]"
    _check_keys(section, data, _PARTICLE_KEYS)
    charge = _integer(section, data, "charge_e")
    if charge is None:
        raise ConfigError(f"key 'charge_e' in section '{section}' must be an integer")
    mass = _number(section, data, "mass_kg", bound="> 0")
    radius = _number(section, data, "radius_meters", bound="> 0")
    density = _number(section, data, "density_kg_per_m3", bound="> 0")
    gamma0 = _number(section, data, "gamma0_rad_per_s", bound=">= 0")
    pressure = _number(section, data, "pressure_mbar", bound=">= 0")
    if mass is None and (radius is None or density is None):
        raise ConfigError(
            f"section '{section}' needs either 'mass_kg' or both "
            "'radius_meters' and 'density_kg_per_m3'"
        )
    if gamma0 is None and pressure is not None and (radius is None or density is None):
        raise ConfigError(
            f"section '{section}': 'pressure_mbar' needs 'radius_meters' "
            "and 'density_kg_per_m3' for the drag model"
        )
    try:
        if mass is None:
            mass = (4.0 / 3.0) * np.pi * radius**3 * density
        if gamma0 is None and pressure is not None:
            gamma0 = epstein_gamma(pressure * 100.0, radius, density, temperature=t0)
    except (OverflowError, ZeroDivisionError):  # radius**3 overflows; r*rho or k_B*T underflow
        mass = math.inf
    if gamma0 is None:
        gamma0 = 0.0
    if not (math.isfinite(mass) and math.isfinite(gamma0)):
        raise ConfigError(f"section '{section}': derived mass or damping rate is out of range")
    return ParticleSpec(charge_e=charge, mass=mass, gamma0=gamma0)


def _parse_controller(idx, data):
    section = f"controllers[{idx}]"
    _check_keys(section, data, _CONTROLLER_KEYS)
    kind = data.get("kind")
    if kind not in ("velocity_damper", "parametric_squeezer"):
        raise ConfigError(
            f"key 'kind' in section '{section}' must be 'velocity_damper' or "
            f"'parametric_squeezer', got {kind!r}"
        )
    target = data.get("target_mode")
    if target not in ("plus", "minus"):
        raise ConfigError(
            f"key 'target_mode' in section '{section}' must be 'plus' or 'minus'"
        )
    if kind == "velocity_damper":
        if "gain_s2" in data:
            raise ConfigError(f"key 'gain_s2' is not valid for a velocity_damper ('{section}')")
        gain = _number(section, data, "gamma_fb_rad_per_s")
        if gain is None:
            raise ConfigError(
                f"missing required key 'gamma_fb_rad_per_s' in section '{section}'"
            )
    else:
        if "gamma_fb_rad_per_s" in data:
            raise ConfigError(
                f"key 'gamma_fb_rad_per_s' is not valid for a parametric_squeezer ('{section}')"
            )
        if "delay_samples" in data:
            raise ConfigError(f"key 'delay_samples' is not valid for a squeezer ('{section}')")
        gain = _number(section, data, "gain_s2")
        if gain is None:
            raise ConfigError(f"missing required key 'gain_s2' in section '{section}'")
    return ControllerSettings(
        kind=kind,
        target_mode=target,
        gain=gain,
        bandwidth=_number(section, data, "bandwidth_rad_per_s"),
        order=_integer(section, data, "order", 1, bound=">= 1"),
        delay_samples=_integer(section, data, "delay_samples", bound=">= 0"),
        drive_phase=_number(section, data, "drive_phase_rad", 0.0),
        drive_freq=_number(section, data, "drive_freq_rad_per_s"),
        notch=_boolean(section, data, "notch", True),
        notch_bandwidth=_number(section, data, "notch_bandwidth_rad_per_s"),
        force_limit=_number(section, data, "force_limit_newtons", float("inf")),
    )


def parse_config(raw, seed_override=None):
    """Validate a configuration mapping and build the domain objects."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    for key in raw:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown key '{key}' at the top level")
    for key in ("trap", "particles", "noise", "run"):
        if key not in raw:
            raise ConfigError(f"missing required section '{key}'")

    t = raw["trap"]
    _check_keys("trap", t, _TRAP_KEYS)
    trap = TrapConfig(
        v0=_number("trap", t, "v0_volts"),
        u0=_number("trap", t, "u0_volts"),
        omega_rf=_number("trap", t, "omega_rf_rad_per_s"),
        eta=_number("trap", t, "eta"),
        kappa=_number("trap", t, "kappa"),
        r0=_number("trap", t, "r0_meters"),
        z0=_number("trap", t, "z0_meters"),
    )

    r = raw["run"]
    _check_keys("run", r, _RUN_KEYS)
    if seed_override is None:
        seed = _integer("run", r, "seed", bound=">= 0")
    else:
        seed = _bounded("run", "seed", seed_override, ">= 0")
    run = RunSettings(
        duration=_number("run", r, "duration_seconds"),
        sample_rate=_number("run", r, "sample_rate_hz"),
        substeps=_integer("run", r, "substeps_per_sample"),
        seed=seed,
        store_every=_integer("run", r, "store_every", 1, bound=">= 1"),
        coulomb_coupling=_boolean("run", r, "coulomb_coupling", True),
    )
    if run.duration <= 0 or run.sample_rate <= 0 or run.substeps < 1:
        raise ConfigError("run settings must be positive (duration, sample rate, substeps)")

    n = raw["noise"]
    _check_keys("noise", n, _NOISE_KEYS)
    noise_seed_child, det_seed_child = (
        int(s) for s in np.random.SeedSequence(run.seed).generate_state(2, np.uint64)
    )
    psd_key = "force_noise_psd_n2_per_hz"
    fnoise = n.get(psd_key, [0.0, 0.0])
    if not isinstance(fnoise, list):
        fnoise = [fnoise, fnoise]
    if len(fnoise) != 2:
        raise ConfigError(f"key '{psd_key}' in section 'noise' must be a number or a pair")
    noise = NoiseModel(
        t0=_number("noise", n, "t0_kelvin"),
        seed=_integer("noise", n, "seed", noise_seed_child, bound=">= 0"),
        force_noise_psd=tuple(_bounded("noise", psd_key, _finite("noise", psd_key, v), ">= 0")
                              for v in fnoise),
    )

    particles_raw = raw["particles"]
    if not isinstance(particles_raw, list) or len(particles_raw) != 2:
        raise ConfigError("section 'particles' must list exactly two particles")
    particles = tuple(
        _parse_particle(i, p, noise.t0) for i, p in enumerate(particles_raw)
    )

    detection = None
    if "detection" in raw and raw["detection"] is not None:
        d = raw["detection"]
        _check_keys("detection", d, _DETECTION_KEYS)
        detection = DetectionModel(
            s_nn=_number("detection", d, "s_nn_m2_per_hz"),
            sample_rate=run.sample_rate,
            seed=_integer("detection", d, "seed", det_seed_child, bound=">= 0"),
        )

    controllers_raw = raw.get("controllers", [])
    if not isinstance(controllers_raw, list):
        raise ConfigError("section 'controllers' must be a list")
    controllers = [_parse_controller(i, c) for i, c in enumerate(controllers_raw)]

    analysis = AnalysisSettings()
    if "analysis" in raw and raw["analysis"] is not None:
        a = raw["analysis"]
        _check_keys("analysis", a, _ANALYSIS_KEYS)
        analysis = AnalysisSettings(
            burn_in=_number("analysis", a, "burn_in_seconds", bound=">= 0"),
            segment_seconds=_number("analysis", a, "segment_seconds", bound="> 0"),
            overlap=_number("analysis", a, "overlap", 0.5, bound="in [0, 1)"),
            window=_window("analysis", a, "window", "hann"),
            fit_mixing_ratios=_boolean("analysis", a, "fit_mixing_ratios", True),
            demod_bandwidth=_number("analysis", a, "demod_bandwidth_rad_per_s", bound="> 0"),
        )

    sweep = None
    if "sweep" in raw and raw["sweep"] is not None:
        s = raw["sweep"]
        _check_keys("sweep", s, _SWEEP_KEYS)
        values = s["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError("key 'values' in section 'sweep' must be a non-empty list")
        if not isinstance(s["parameter"], str):
            raise ConfigError("key 'parameter' in section 'sweep' must be a string")
        sweep = SweepSettings(
            parameter=s["parameter"],
            values=[_finite("sweep", "values", v) for v in values],
            workers=_integer("sweep", s, "workers", 1, bound=">= 1"),
        )

    resolved = _resolve_raw(raw, run, noise, detection)
    return ExperimentConfig(
        trap=trap,
        particles=particles,
        noise=noise,
        detection=detection,
        controllers=controllers,
        run=run,
        analysis=analysis,
        sweep=sweep,
        resolved=resolved,
    )


def _resolve_raw(raw, run, noise, detection):
    """Raw config with derived values (seeds, damping rates) made explicit."""
    out = json.loads(json.dumps(raw))
    out["run"]["seed"] = run.seed
    out["noise"]["seed"] = noise.seed
    if detection is not None:
        out["detection"]["seed"] = detection.seed
    return out


def load_config(path, seed_override=None):
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return parse_config(raw, seed_override=seed_override)


def serialize_config(cfg_or_raw):
    """Canonical JSON text of a configuration (sorted keys, stable floats)."""
    raw = cfg_or_raw.resolved if isinstance(cfg_or_raw, ExperimentConfig) else cfg_or_raw
    return json.dumps(raw, sort_keys=True, indent=2) + "\n"
