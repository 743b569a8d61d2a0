"""Experiment configuration: strict JSON schema with units in key names.

Every key is one row of _SCHEMA: its field, reader, default and bound.
Unknown keys, missing required keys and out-of-range values are rejected
by a ConfigError that names the key.
The resolved configuration (all defaults and derived seeds filled in) is
embedded in every run output, and parse(serialize(parse(text))) is the
identity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .dynamics import NoiseModel
from .errors import ConfigError, UnstableAxisError, UnstableModeError
from .feedback import KINDS, DetectionModel
from .trap import (_FLOAT_RANGE, ParticleSpec, TrapConfig, epstein_gamma, mode_structure,
                   stability_params)

__all__ = ["ExperimentConfig", "parse_config", "load_config", "serialize_config"]


def _number(section, key, val):
    if not isinstance(val, bool) and isinstance(val, (int, float)):
        try:
            out = float(val)
        except OverflowError:  # an integer beyond the float range
            out = math.inf
        if math.isfinite(out):
            return out
    raise ConfigError(f"key '{key}' in section '{section}' must be a finite number")


def _integer(section, key, val):
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"key '{key}' in section '{section}' must be an integer")
    return val


def _boolean(section, key, val):
    if not isinstance(val, bool):
        raise ConfigError(f"key '{key}' in section '{section}' must be a boolean")
    return val


def _string(section, key, val):
    if not isinstance(val, str):
        raise ConfigError(f"key '{key}' in section '{section}' must be a string")
    return val


def _choice(*options):
    def read(section, key, val):
        if val not in options:
            raise ConfigError(f"key '{key}' in section '{section}' must be "
                              f"{' or '.join(map(repr, options))}, got {val!r}")
        return val
    return read


def _number_or_pair(section, key, val):
    pair = val if isinstance(val, list) else [val, val]
    if len(pair) != 2:
        raise ConfigError(f"key '{key}' in section '{section}' must be a number or a pair")
    return tuple(_bounded(section, key, _number(section, key, v), ">= 0") for v in pair)


def _numbers(section, key, val):
    if not isinstance(val, list) or not val:
        raise ConfigError(f"key '{key}' in section '{section}' must be a non-empty list")
    return [_number(section, key, v) for v in val]


# range checks, named by the text of the error message
_BOUNDS = {
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "nonzero": lambda v: v != 0,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
}


def _bounded(section, key, val, bound):
    if bound is not None and not _BOUNDS[bound](val):
        raise ConfigError(f"key '{key}' in section '{section}' must be {bound}")
    return val


_REQUIRED = object()

# Every key of every section: key -> (field, reader, default or _REQUIRED, bound).
# A seed default of None is derived from run.seed by parse_config.
_SCHEMA = {
    "trap": {
        "v0_volts": ("v0", _number, _REQUIRED, ">= 0"),
        "u0_volts": ("u0", _number, _REQUIRED, "> 0"),
        "omega_rf_rad_per_s": ("omega_rf", _number, _REQUIRED, "> 0"),
        "eta": ("eta", _number, _REQUIRED, "in (0, 1]"),
        "kappa": ("kappa", _number, _REQUIRED, "in (0, 1]"),
        "r0_meters": ("r0", _number, _REQUIRED, "> 0"),
        "z0_meters": ("z0", _number, _REQUIRED, "> 0"),
    },
    "particle": {
        "charge_e": ("charge_e", _integer, _REQUIRED, "nonzero"),
        "mass_kg": ("mass", _number, None, "> 0"),
        "radius_meters": ("radius", _number, None, "> 0"),
        "density_kg_per_m3": ("density", _number, None, "> 0"),
        "gamma0_rad_per_s": ("gamma0", _number, None, ">= 0"),
        "pressure_mbar": ("pressure", _number, None, ">= 0"),
    },
    "noise": {
        "t0_kelvin": ("t0", _number, _REQUIRED, ">= 0"),
        "seed": ("seed", _integer, None, ">= 0"),
        "force_noise_psd_n2_per_hz": ("force_noise_psd", _number_or_pair, (0.0, 0.0), None),
    },
    "detection": {
        "s_nn_m2_per_hz": ("s_nn", _number, _REQUIRED, ">= 0"),
        "seed": ("seed", _integer, None, ">= 0"),
    },
    "controller": {
        "kind": ("kind", _choice(*KINDS), _REQUIRED, None),
        "target_mode": ("target_mode", _choice("plus", "minus"), _REQUIRED, None),
        # one gain field; _GAIN_KEYS picks the key each kind takes
        "gamma_fb_rad_per_s": ("gain", _number, None, ">= 0"),
        "gain_s2": ("gain", _number, None, ">= 0"),
        "bandwidth_rad_per_s": ("bandwidth", _number, None, "> 0"),
        "order": ("order", _integer, 1, ">= 1"),
        "delay_samples": ("delay_samples", _integer, None, ">= 0"),
        "drive_phase_rad": ("drive_phase", _number, 0.0, None),
        "drive_freq_rad_per_s": ("drive_freq", _number, None, None),
        "notch": ("notch", _boolean, True, None),
        "notch_bandwidth_rad_per_s": ("notch_bandwidth", _number, None, "> 0"),
        "force_limit_newtons": ("force_limit", _number, math.inf, "> 0"),
    },
    "run": {
        "duration_seconds": ("duration", _number, _REQUIRED, "> 0"),
        "sample_rate_hz": ("sample_rate", _number, _REQUIRED, "> 0"),
        "substeps_per_sample": ("substeps", _integer, _REQUIRED, ">= 1"),
        "seed": ("seed", _integer, _REQUIRED, ">= 0"),
        "store_every": ("store_every", _integer, 1, ">= 1"),
        "coulomb_coupling": ("coulomb_coupling", _boolean, True, None),
    },
    "analysis": {
        "burn_in_seconds": ("burn_in", _number, None, ">= 0"),
        "segment_seconds": ("segment_seconds", _number, None, "> 0"),
        "overlap": ("overlap", _number, 0.5, "in [0, 1)"),
        "fit_mixing_ratios": ("fit_mixing_ratios", _boolean, True, None),
        "demod_bandwidth_rad_per_s": ("demod_bandwidth", _number, None, "> 0"),
    },
    "sweep": {
        "parameter": ("parameter", _string, _REQUIRED, None),
        "values": ("values", _numbers, _REQUIRED, None),
        "workers": ("workers", _integer, 1, ">= 1"),
    },
}

# the gain key of each controller kind, then the keys that kind does not take
_GAIN_KEYS = {
    "velocity_damper": ("gamma_fb_rad_per_s", "gain_s2"),
    "parametric_squeezer": ("gain_s2", "gamma_fb_rad_per_s", "delay_samples"),
}

_TOP_KEYS = ("trap", "particles", "noise", "detection", "controllers", "run",
             "analysis", "sweep")


def _section(section, data, schema):
    """Field values of one section: every key read, bounded or defaulted."""
    if not isinstance(data, dict):
        raise ConfigError(f"section '{section}' must be a mapping")
    for key in data:
        if key not in schema:
            raise ConfigError(f"unknown key '{key}' in section '{section}'")
    out = {}
    for key, (name, read, default, bound) in schema.items():
        if key in data:
            out[name] = _bounded(section, key, read(section, key, data[key]), bound)
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key '{key}' in section '{section}'")
        else:  # two keys may share a field; the one present wins
            out.setdefault(name, default)
    return out


@dataclass
class RunSettings:
    duration: float
    sample_rate: float
    substeps: int
    seed: int
    store_every: int
    coulomb_coupling: bool

    @property
    def dt(self):
        return 1.0 / (self.sample_rate * self.substeps)


@dataclass
class AnalysisSettings:
    burn_in: float | None
    segment_seconds: float | None
    overlap: float
    fit_mixing_ratios: bool
    demod_bandwidth: float | None


@dataclass
class SweepSettings:
    parameter: str
    values: list
    workers: int


@dataclass
class ExperimentConfig:
    trap: TrapConfig
    particles: tuple
    noise: NoiseModel
    detection: DetectionModel | None
    controllers: list  # design_controller keyword arguments, one dict per controller
    run: RunSettings
    analysis: AnalysisSettings
    sweep: SweepSettings | None
    resolved: dict = field(default_factory=dict)


def _mass_keys(data):
    """The keys a particle's mass comes from, quoted for an error message."""
    return "'mass_kg'" if "mass_kg" in data else "'radius_meters' and 'density_kg_per_m3'"


def _parse_particle(idx, data, t0, trap):
    section = f"particles[{idx}]"
    p = _section(section, data, _SCHEMA["particle"])
    mass, radius, density, gamma0 = p["mass"], p["radius"], p["density"], p["gamma0"]
    if mass is None and (radius is None or density is None):
        raise ConfigError(
            f"section '{section}' needs either 'mass_kg' or both "
            "'radius_meters' and 'density_kg_per_m3'"
        )
    if gamma0 is None and p["pressure"] is not None and (radius is None or density is None):
        raise ConfigError(
            f"section '{section}': 'pressure_mbar' needs 'radius_meters' "
            "and 'density_kg_per_m3' for the drag model"
        )
    try:
        if mass is None:
            mass = (4.0 / 3.0) * np.pi * radius**3 * density
        if gamma0 is None and p["pressure"] is not None:
            gamma0 = epstein_gamma(p["pressure"] * 100.0, radius, density, temperature=t0)
    except (OverflowError, ZeroDivisionError):  # radius**3 overflows; r*rho or k_B*T underflow
        mass = math.inf
    if gamma0 is None:
        gamma0 = 0.0
    if not (math.isfinite(mass) and math.isfinite(gamma0)):
        raise ConfigError(f"section '{section}': derived mass or damping rate is out of range")
    particle = ParticleSpec(charge_e=p["charge_e"], mass=mass, gamma0=gamma0)
    try:
        stability_params(trap, particle)
    except UnstableAxisError:
        pass  # a physical outcome, reported where the theory is used
    except ConfigError:
        raise ConfigError(
            f"section '{section}': 'charge_e' over the mass from {_mass_keys(data)} "
            "takes the trap theory out of float range"
        ) from None
    return particle


def _parse_controller(idx, data, sample_rate):
    section = f"controllers[{idx}]"
    c = _section(section, data, _SCHEMA["controller"])
    gain_key, *invalid = _GAIN_KEYS[c["kind"]]
    for key in invalid:
        if key in data:
            raise ConfigError(f"key '{key}' is not valid for a {c['kind']} ('{section}')")
    if gain_key not in data:
        raise ConfigError(f"missing required key '{gain_key}' in section '{section}'")
    if c["drive_freq"] is not None and c["drive_freq"] >= math.pi * sample_rate:
        raise ConfigError(
            f"key 'drive_freq_rad_per_s' in section '{section}' must be below the "
            f"Nyquist rate pi * sample_rate_hz = {math.pi * sample_rate:.6g} rad/s"
        )
    return c


def _derived_seeds(seed):
    """(noise seed, detection seed) derived from run.seed, for the sections
    that give none: the first two 64-bit words of
    numpy.random.SeedSequence(seed).generate_state, from the pure-Python
    _kernel.SeedSequence, so no configuration imports numpy.random or
    builds the kernel."""
    return tuple(int(s) for s in _kernel.SeedSequence(seed).generate_state(2, np.uint64))


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

    trap = TrapConfig(**_section("trap", raw["trap"], _SCHEMA["trap"]))

    r = raw["run"]
    if seed_override is not None and isinstance(r, dict):
        r = dict(r, seed=seed_override)
    run = RunSettings(**_section("run", r, _SCHEMA["run"]))

    n = _section("noise", raw["noise"], _SCHEMA["noise"])
    if n["seed"] is None:
        n["seed"] = _derived_seeds(run.seed)[0]
    noise = NoiseModel(**n)

    particles_raw = raw["particles"]
    if not isinstance(particles_raw, list) or len(particles_raw) != 2:
        raise ConfigError("section 'particles' must list exactly two particles")
    particles = tuple(
        _parse_particle(i, p, noise.t0, trap) for i, p in enumerate(particles_raw)
    )
    try:
        mode_structure(trap, *particles)
    except (UnstableAxisError, UnstableModeError):
        pass  # physical outcomes, reported where the theory is used
    except ConfigError as exc:
        if exc.args != (_FLOAT_RANGE,):
            raise
        raise ConfigError(
            f"sections 'particles[0]' (mass from {_mass_keys(particles_raw[0])}) and "
            f"'particles[1]' (mass from {_mass_keys(particles_raw[1])}): their "
            "'charge_e' over mass takes the pair theory out of float range"
        ) from None

    detection = None
    if raw.get("detection") is not None:
        d = _section("detection", raw["detection"], _SCHEMA["detection"])
        if d["seed"] is None:
            d["seed"] = _derived_seeds(run.seed)[1]
        detection = DetectionModel(sample_rate=run.sample_rate, **d)

    controllers_raw = raw.get("controllers", [])
    if not isinstance(controllers_raw, list):
        raise ConfigError("section 'controllers' must be a list")
    controllers = [_parse_controller(i, c, run.sample_rate)
                   for i, c in enumerate(controllers_raw)]

    a = raw.get("analysis")
    analysis = AnalysisSettings(**_section("analysis", {} if a is None else a,
                                           _SCHEMA["analysis"]))

    sweep = None
    if raw.get("sweep") is not None:
        sweep = SweepSettings(**_section("sweep", raw["sweep"], _SCHEMA["sweep"]))

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
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:  # missing, unreadable, a directory
        raise ConfigError(f"{path}: cannot read configuration ({exc.strerror or exc})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return parse_config(raw, seed_override=seed_override)


def serialize_config(cfg):
    """Canonical JSON text of a configuration (sorted keys, stable floats)."""
    return json.dumps(cfg.resolved, sort_keys=True, indent=2) + "\n"
