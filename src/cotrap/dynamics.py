"""Stochastic time-domain integration of the coupled axial equations of motion.

Each particle obeys m z'' = -u z - m gamma z' + F_thermal + F_coulomb
(+ controller force on particle 1), with the exact 1/d^2 Coulomb force
rather than its quadratic expansion.  Thermal forcing follows the
fluctuation-dissipation relation <F_i(t) F_j(t')> = 2 m_i gamma_i k_B T0
delta(t - t') delta_ij, realized by an exact Ornstein-Uhlenbeck stage
inside a symplectic splitting integrator.  Runs are bit-reproducible for
a fixed configuration and seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernel, feedback
from .constants import EPSILON_0, K_B
from .errors import ConfigError, IntegrationFault
from .trap import axial_stiffness, equilibrium_positions, mode_structure

__all__ = [
    "NoiseModel",
    "Trajectory",
    "ou_coefficients",
    "thermal_equilibrium_state",
    "total_energy",
    "simulate",
]

# the thermal noise of one kernel call: at most this many samples and this
# many bytes, but never less than one sample
_BLOCK_SAMPLES = 65536
_BLOCK_BYTES = 1 << 25
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class NoiseModel:
    """Thermal bath temperature, RNG seed, and optional extra force noise.

    force_noise_psd is a one-sided white force PSD (N^2/Hz) added per
    particle on top of the thermal forcing; it models unattributed heating
    and defaults to zero.
    """

    t0: float
    seed: int
    force_noise_psd: tuple = (0.0, 0.0)

    def __post_init__(self):
        if self.t0 < 0:
            raise ConfigError(f"t0 must be >= 0, got {self.t0}")
        if len(self.force_noise_psd) != 2 or any(s < 0 for s in self.force_noise_psd):
            raise ConfigError("force_noise_psd must be two values >= 0")


def ou_coefficients(particle, t0, dt, extra_force_psd=0.0):
    """Exact damping/noise pair (a, b) for one stochastic stage.

    v -> a v + b xi with a = exp(-gamma dt) and b chosen so the stationary
    velocity variance is k_B T0 / m; an optional white force PSD adds
    S dt / (2 m^2) of kick variance.
    """
    a = np.exp(-particle.gamma0 * dt)
    var = K_B * t0 / particle.mass * (1.0 - a * a)
    var += extra_force_psd * dt / (2.0 * particle.mass**2)
    return a, np.sqrt(var)


def thermal_equilibrium_state(trap, p1, p2, t0, rng, coulomb_coupling=True):
    """Draw (z1, z2, v1, v2) from the linearized thermal distribution.

    Positions are sampled about the equilibrium points with covariance
    k_B T0 K^-1 where K is the potential curvature matrix; velocities are
    independent with variance k_B T0 / m_i.  At t0 = 0 this returns the
    equilibrium state at rest.  rng draws the four normals: a
    _kernel.normals, as simulate passes, or a numpy.random.Generator.
    """
    u1 = axial_stiffness(trap, p1)
    u2 = axial_stiffness(trap, p2)
    if coulomb_coupling:
        z1_eq, z2_eq, _ = equilibrium_positions(trap, p1, p2)
        kc = 2.0 * u1 * u2 / (u1 + u2)
    else:
        z1_eq = z2_eq = 0.0
        kc = 0.0
    kmat = np.array([[u1 + kc, -kc], [-kc, u2 + kc]])
    xi = rng.standard_normal(4)
    if t0 > 0:
        cov = K_B * t0 * np.linalg.inv(kmat)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:  # a t0 so small that cov underflowed
            chol = np.sqrt(K_B * t0) * np.linalg.cholesky(np.linalg.inv(kmat))
        dz = chol @ xi[:2]
        v1 = np.sqrt(K_B * t0 / p1.mass) * xi[2]
        v2 = np.sqrt(K_B * t0 / p2.mass) * xi[3]
    else:
        dz = np.zeros(2)
        v1 = v2 = 0.0
    return z1_eq + dz[0], z2_eq + dz[1], v1, v2


def total_energy(trap, p1, p2, z1, z2, v1, v2):
    """Kinetic + trap + Coulomb energy (J); accepts scalars or arrays."""
    u1 = axial_stiffness(trap, p1)
    u2 = axial_stiffness(trap, p2)
    kq = p1.charge * p2.charge / (4.0 * np.pi * EPSILON_0)
    return (
        0.5 * p1.mass * np.asarray(v1) ** 2
        + 0.5 * p2.mass * np.asarray(v2) ** 2
        + 0.5 * u1 * np.asarray(z1) ** 2
        + 0.5 * u2 * np.asarray(z2) ** 2
        + kq / (np.asarray(z2) - np.asarray(z1))
    )


def write_columns(fh, names, columns):
    """Write equal-length float columns to the binary file fh as
    comma-separated text under a header line of column names.

    %.17g round-trips every float64 exactly through _kernel.read_rows, NaN
    as a NaN.
    """
    fh.write((",".join(names) + "\n").encode())
    _kernel.write_rows(fh, columns)


# the array fields of a Trajectory that from_csv can read
_FIELDS = ("z1", "z2", "v1", "v2", "y", "forces")


@dataclass
class Trajectory:
    """Uniformly sampled output of one run plus everything needed to redo it.

    Columns are sampled at `sample_rate` (the controller rate divided by
    the run's store_every).  `y` is the in-loop detector record and
    `forces` has one row per controller; both are None/empty for
    controller-free runs.  `meta` holds the seeds, integrator name and
    timestep; report.simulate_pass adds the resolved configuration as
    meta["config"].  from_csv can leave v1, v2 and forces None, and such a
    trajectory is not written back by to_csv.
    """

    sample_rate: float
    z1: np.ndarray
    z2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    y: np.ndarray | None
    forces: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def t(self):
        n = len(self.z1)
        return (np.arange(1, n + 1)) / self.sample_rate

    @property
    def duration(self):
        return len(self.z1) / self.sample_rate

    def deviations(self, z1_eq, z2_eq):
        """Positions relative to the given equilibrium points."""
        return self.z1 - z1_eq, self.z2 - z2_eq

    @staticmethod
    def _columns(has_y, n_forces):
        return ["t", "z1", "z2", "v1", "v2"] + ["y"] * has_y + [f"F{i}" for i in range(n_forces)]

    def to_csv(self, path):
        """Write a '#'-headered CSV; float formatting round-trips exactly."""
        unread = [name for name in ("v1", "v2", "forces") if getattr(self, name) is None]
        if unread:
            raise ValueError(f"to_csv: this trajectory was read without its "
                             f"{', '.join(unread)}, so its file would lack them")
        names = self._columns(self.y is not None, self.forces.shape[0])
        cols = [self.t, self.z1, self.z2, self.v1, self.v2] + [self.y] * (self.y is not None)
        header = [
            f"trajectory-format {_FORMAT_VERSION}",
            "meta = " + json.dumps(self.meta, sort_keys=True),
            "sample_rate_hz = " + repr(float(self.sample_rate)),
            "columns = " + ",".join(names),
        ]
        with open(path, "wb") as fh:
            fh.write("".join(f"# {line}\n" for line in header).encode())
            write_columns(fh, names, cols + list(self.forces))

    @classmethod
    def from_csv(cls, path, fields=_FIELDS):
        """Read a file written by to_csv; a damaged file, or one whose first
        line is not the '# trajectory-format N' line of this version's N,
        raises ConfigError.

        fields names the array fields to store, z1, z2 and y always among
        them: by default all of them, which is what to_csv writes back.
        Every column is parsed and checked, but only the columns of these
        fields are kept in memory, and a field left out is None; the t
        column never is kept, as t follows from sample_rate.  A file
        without a y column gives y None, as for a run without it.
        """
        fields = tuple(fields)
        if not {"z1", "z2", "y"} <= set(fields) <= set(_FIELDS):
            raise ValueError(f"from_csv: fields must name z1, z2 and y and only fields of "
                             f"{_FIELDS}, got {fields}")
        meta = {}
        sample_rate = None
        columns = None
        version = f"trajectory-format {_FORMAT_VERSION}"
        try:
            with open(path, "rb") as fh:
                line = fh.readline()
                if line != f"# {version}\n".encode():
                    found = (line[2:].decode(errors="replace").strip()
                             if line.startswith(b"# trajectory-format ")
                             else "no trajectory-format line")
                    raise ConfigError(f"{path}: {found}, where cotrap reads {version}")
                while (line := fh.readline()).startswith(b"#"):
                    body = line[1:].decode().strip()
                    if body.startswith("meta = "):
                        meta = json.loads(body[len("meta = "):])
                        if not isinstance(meta, dict):
                            raise ValueError(f"meta = {meta!r} is not a JSON object")
                    elif body.startswith("sample_rate_hz = "):
                        sample_rate = float(body[len("sample_rate_hz = "):])
                        if not 0.0 < sample_rate < math.inf:
                            raise ValueError(
                                f"sample_rate_hz {sample_rate!r} is not finite and positive")
                    elif body.startswith("columns = "):
                        columns = body[len("columns = "):].split(",")
                if sample_rate is None or columns is None:
                    raise ConfigError(f"{path} is not a trajectory file")
                if line != (",".join(columns) + "\n").encode():
                    raise ConfigError(f"{path}: damaged trajectory file (the row of column "
                                      f"names is not {','.join(columns)})")
                n_forces = sum(1 for name in columns if name.startswith("F"))
                if columns != cls._columns("y" in columns, n_forces):
                    raise ConfigError(f"{path}: damaged trajectory file "
                                      f"(columns {','.join(columns)})")
                field_of = ["forces" if name.startswith("F") else name for name in columns]
                keep = [i for i, name in enumerate(field_of) if name in fields]
                data = dict(zip(columns, _kernel.read_rows(fh, len(columns), keep)))
        except OSError as exc:  # missing, unreadable, a directory
            raise ConfigError(f"{path}: cannot read trajectory file ({exc.strerror or exc})") from None
        except ValueError as exc:  # a bad meta line, number or row
            raise ConfigError(f"{path}: damaged trajectory file ({exc})") from None
        n_rows = data["z1"].shape[0]
        if n_rows == 0:
            raise ConfigError(f"{path}: damaged trajectory file (no data rows)")
        forces = None
        if "forces" in fields:
            forces = np.array([data[f"F{i}"] for i in range(n_forces)]).reshape(n_forces, n_rows)
        return cls(
            sample_rate=sample_rate,
            z1=data["z1"],
            z2=data["z2"],
            v1=data["v1"],
            v2=data["v2"],
            y=data.get("y"),
            forces=forces,
            meta=meta,
        )


def stored_samples(duration, sample_rate, store_every):
    """How many samples simulate stores: rounded, or the float when not finite."""
    n = duration * sample_rate / store_every
    return int(round(n)) if math.isfinite(n) else n


def simulate(trap, p1, p2, noise, controllers=(), *, duration, dt, sample_rate,
             detection=None, initial_state=None, store_every=1,
             coulomb_coupling=True):
    """Integrate the coupled pair and return a decimated Trajectory.

    dt must subdivide the controller sample period exactly and resolve the
    fastest dynamics: dt <= 2 pi / (50 max(omega_minus, filter corners)).
    Controllers (feedback.ControllerConfig) act on particle 1 only and run
    at `sample_rate`; identical inputs and seeds give bit-identical output.
    initial_state is (z1, z2, v1, v2); None draws it from the thermal
    distribution (thermal_equilibrium_state).
    """
    if duration <= 0:
        raise ConfigError("duration must be > 0")
    if dt <= 0 or sample_rate <= 0:
        raise ConfigError("dt and sample_rate must be > 0")
    n_sub_f = 1.0 / (dt * sample_rate)
    n_sub = int(round(n_sub_f))
    if n_sub < 1 or abs(n_sub_f - n_sub) > 1e-6 * n_sub_f:
        raise ConfigError(
            f"dt = {dt} does not subdivide the sample period 1/{sample_rate};"
            " choose dt = 1 / (sample_rate * k) for integer k"
        )
    dt = 1.0 / (sample_rate * n_sub)

    if coulomb_coupling:
        modes = mode_structure(trap, p1, p2)
        omega_fast = modes.omega_minus
        z_eq = max(abs(modes.z1_eq), abs(modes.z2_eq))
    else:
        omega_fast = max(
            np.sqrt(axial_stiffness(trap, p1) / p1.mass),
            np.sqrt(axial_stiffness(trap, p2) / p2.mass),
        )
        z_eq = 0.0
    # a stored sample farther out than this has left the trap (FAULT_ESCAPED)
    z_limit = trap.z0 + z_eq
    for cfg in controllers:
        omega_fast = max(omega_fast, cfg.center + 0.5 * cfg.bandwidth)
        if cfg.notch is not None:
            omega_fast = max(omega_fast, cfg.notch + 0.5 * cfg.notch_bandwidth)
    dt_max = 2.0 * np.pi / (50.0 * omega_fast)
    if dt > dt_max * (1 + 1e-9):
        raise ConfigError(
            f"dt = {dt:.4g} s too large: need dt <= {dt_max:.4g} s "
            "(50 steps per fastest period)"
        )

    if detection is not None and abs(detection.sample_rate - sample_rate) > 1e-6 * sample_rate:
        raise ConfigError(
            "detection.sample_rate must equal the run sample_rate "
            f"({detection.sample_rate} != {sample_rate})"
        )

    n_stored = stored_samples(duration, sample_rate, store_every)
    too_long = (f"duration {duration} s needs "
                f"{8.0 * (5 + len(controllers)) * n_stored:.4g} bytes of output arrays")
    if not math.isfinite(n_stored):
        raise ConfigError(too_long)
    if n_stored < 1:
        raise ConfigError("duration too short for one stored sample")
    n_samples = n_stored * store_every

    u1 = axial_stiffness(trap, p1)
    u2 = axial_stiffness(trap, p2)
    kq = p1.charge * p2.charge / (4.0 * np.pi * EPSILON_0) if coulomb_coupling else 0.0
    ou = []
    for i, (p, psd) in enumerate(zip((p1, p2), noise.force_noise_psd)):
        try:
            ou += ou_coefficients(p, noise.t0, dt, psd)
        except OverflowError:  # mass**2 beyond the float range
            raise ConfigError(
                f"section 'particles[{i}]': mass {p.mass:.4g} kg takes the thermal kick out "
                "of float range; check 'mass_kg', or 'radius_meters' and 'density_kg_per_m3'"
            ) from None
    a1, b1, a2, b2 = ou

    thermal_ss, init_ss = _kernel.SeedSequence(noise.seed).spawn(2)
    thermal_gen = _kernel.normals(thermal_ss)
    if detection is not None:
        det_gen = _kernel.normals(detection.seed)
        det_sigma = detection.noise_sigma()
    else:
        det_gen = None
        det_sigma = 0.0

    if initial_state is None:
        init_gen = _kernel.normals(init_ss)
        initial_state = thermal_equilibrium_state(
            trap, p1, p2, noise.t0, init_gen, coulomb_coupling=coulomb_coupling
        )
    z1, z2, v1, v2 = initial_state
    if coulomb_coupling and z2 <= z1:
        raise ConfigError("initial state must have z2 > z1")

    pos = np.array([z1, z2])
    vel = np.array([v1, v2])
    try:
        out_z1 = np.empty(n_stored)
        out_z2 = np.empty(n_stored)
        out_v1 = np.empty(n_stored)
        out_v2 = np.empty(n_stored)
        out_y = np.empty(n_stored)
        out_force = np.empty((len(controllers), n_stored))
    except (ValueError, MemoryError):  # numpy's dimension limit, or no memory
        raise ConfigError(too_long) from None
    # the generator fills blocks in draw order, so their size leaves the numbers unchanged
    block = max(1, min(_BLOCK_SAMPLES, n_samples, _BLOCK_BYTES // (16 * n_sub)))
    try:  # one thermal noise block, refilled for every kernel call
        thermal_block = np.empty((block, n_sub, 2))
    except (ValueError, MemoryError):
        raise ConfigError(
            f"dt = {dt:.4g} s is {n_sub} substeps per sample ('substeps_per_sample'), and "
            f"a block of {block} samples needs {16.0 * block * n_sub:.4g} bytes of noise"
        ) from None
    # the last check before the loop: a chain it builds is a chain that runs
    ctrl, info = feedback.build_kernel_set(controllers, sample_rate, p1.mass)

    fault = _kernel.FAULT_NONE
    fault_at = -1
    start = 0
    while start < n_samples:
        nb = min(block, n_samples - start)
        thermal = thermal_gen.standard_normal(out=thermal_block[:nb])
        if det_gen is not None:
            det_noise = det_gen.standard_normal(nb)
        else:
            det_noise = np.zeros(nb)
        fault, rel = _kernel.run_block(
            pos, vel, p1.mass, p2.mass, u1, u2, kq, coulomb_coupling,
            a1, b1, a2, b2, dt, n_sub, start, 1.0 / sample_rate,
            thermal, det_sigma, det_noise, ctrl,
            store_every, out_z1, out_z2, out_v1, out_v2, out_y, out_force, z_limit,
        )
        if fault != _kernel.FAULT_NONE:
            fault_at = start + rel
            break
        start += nb

    if fault == _kernel.FAULT_CROSSING:
        raise IntegrationFault("particles crossed (z2 <= z1)", (fault_at + 1) / sample_rate)
    if fault == _kernel.FAULT_NONFINITE:
        raise IntegrationFault("non-finite state", (fault_at + 1) / sample_rate)
    if fault == _kernel.FAULT_ESCAPED:
        raise IntegrationFault(f"a particle left the trap (|z| > {z_limit:.4g} m)",
                               (fault_at + 1) / sample_rate)

    meta = {
        "format": _FORMAT_VERSION,
        "integrator": "baoab",
        "dt": dt,
        "n_substeps": n_sub,
        "controller_rate_hz": sample_rate,
        "store_every": store_every,
        "seed": int(noise.seed),
        "saturation_counts": [int(c) for c in ctrl.sat_count],
        "controller_info": info,
    }
    return Trajectory(
        sample_rate=sample_rate / store_every,
        z1=out_z1,
        z2=out_z2,
        v1=out_v1,
        v2=out_v2,
        y=out_y if (controllers or detection is not None) else None,
        forces=out_force,
        meta=meta,
    )
