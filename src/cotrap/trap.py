"""Linear Paul trap theory for one and two charged nanoparticles.

Covers single-particle stability parameters and secular frequencies, the
equilibrium geometry of two mutually repelling particles on the trap axis,
the axial normal-mode eigensystem, and the calibration inversions used to
characterise particles (charge from radial frequencies, mass from size).

All quantities are SI; angular frequencies are rad/s unless a name says Hz.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .constants import ATOMIC_MASS, ELEMENTARY_CHARGE, EPSILON_0, K_B
from .errors import ConfigError, UnstableAxisError, UnstableModeError

__all__ = [
    "TrapConfig",
    "ParticleSpec",
    "StabilityParams",
    "ModeStructure",
    "stability_params",
    "equilibrium_positions",
    "coupling_matrix",
    "mode_structure",
    "energy_fractions",
    "mathieu_trajectory",
    "charge_from_radial",
    "epstein_gamma",
]


@dataclass(frozen=True)
class TrapConfig:
    """Linear Paul trap drive voltages and geometry coefficients.

    v0 is the RF amplitude at angular frequency omega_rf applied to the rod
    electrodes; u0 is the static endcap voltage. eta and kappa are the
    dimensionless geometric efficiencies of the radial and axial potentials,
    r0 and z0 the corresponding electrode scale lengths in meters.
    """

    v0: float
    u0: float
    omega_rf: float
    eta: float
    kappa: float
    r0: float
    z0: float

    def __post_init__(self):
        if self.v0 < 0:
            raise ConfigError(f"v0 must be >= 0, got {self.v0}")
        if self.u0 <= 0:
            raise ConfigError(f"u0 must be > 0, got {self.u0}")
        if self.omega_rf <= 0:
            raise ConfigError(f"omega_rf must be > 0, got {self.omega_rf}")
        for name in ("r0", "z0"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        for name in ("eta", "kappa"):
            val = getattr(self, name)
            if not 0.0 < val <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {val}")


@dataclass(frozen=True)
class ParticleSpec:
    """One trapped particle: mass, signed charge, and gas damping rate.

    The charge is stored as a signed count of elementary charges so that
    charge ratios stay exact; the Coulomb value is derived on demand.
    """

    charge_e: int
    mass: float
    gamma0: float = 0.0

    def __post_init__(self):
        if self.mass <= 0:
            raise ConfigError(f"mass must be > 0, got {self.mass}")
        if int(self.charge_e) != self.charge_e or self.charge_e == 0:
            raise ConfigError(f"charge_e must be a nonzero integer, got {self.charge_e}")
        if self.gamma0 < 0:
            raise ConfigError(f"gamma0 must be >= 0, got {self.gamma0}")

    @classmethod
    def from_radius(cls, charge_e, radius, density, gamma0=0.0):
        """Build a spec for a uniform sphere of the given radius and density."""
        if radius <= 0 or density <= 0:
            raise ConfigError("radius and density must be > 0")
        mass = (4.0 / 3.0) * np.pi * radius**3 * density
        return cls(charge_e=charge_e, mass=mass, gamma0=gamma0)

    @property
    def charge(self):
        """Signed charge in coulombs."""
        return self.charge_e * ELEMENTARY_CHARGE


@dataclass(frozen=True)
class StabilityParams:
    """Dimensionless drive parameters and secular frequencies per axis.

    secular_valid is False when any |q| exceeds 0.4, i.e. when the
    lowest-order secular approximation should not be trusted.
    """

    q_x: float
    q_y: float
    q_z: float
    a_x: float
    a_y: float
    a_z: float
    omega_x: float
    omega_y: float
    omega_z: float
    secular_valid: bool


@dataclass(frozen=True)
class ModeStructure:
    """Equilibrium geometry and axial normal modes of the coupled pair.

    The mode labelled "plus" is the branch that reduces to the in-phase
    centre-of-mass motion when charges and masses are equal; it is always
    the lower-frequency branch for a repulsive pair.  r_plus and r_minus
    are the particle-1/particle-2 amplitude ratios within each normalized
    eigenvector e = (r, 1)/sqrt(1 + r^2).
    """

    z1_eq: float
    z2_eq: float
    z_sep: float
    omega_plus: float
    omega_minus: float
    r_plus: float
    r_minus: float
    e_plus: np.ndarray
    e_minus: np.ndarray
    frac_1_plus: float
    frac_2_plus: float

    def omega(self, mode):
        if mode not in ("plus", "minus"):
            raise ValueError(f"mode must be 'plus' or 'minus', got {mode!r}")
        return self.omega_plus if mode == "plus" else self.omega_minus

    def eigenvector(self, mode):
        if mode not in ("plus", "minus"):
            raise ValueError(f"mode must be 'plus' or 'minus', got {mode!r}")
        return self.e_plus if mode == "plus" else self.e_minus

    def to_record(self):
        """Flat key/value mapping for text export."""
        return {
            "z1_eq_m": float(self.z1_eq),
            "z2_eq_m": float(self.z2_eq),
            "z_sep_m": float(self.z_sep),
            "omega_plus_rad_per_s": float(self.omega_plus),
            "omega_minus_rad_per_s": float(self.omega_minus),
            "f_plus_hz": float(self.omega_plus / (2 * np.pi)),
            "f_minus_hz": float(self.omega_minus / (2 * np.pi)),
            "r_plus": float(self.r_plus),
            "r_minus": float(self.r_minus),
            "frac_1_plus": float(self.frac_1_plus),
            "frac_2_plus": float(self.frac_2_plus),
        }


_FLOAT_RANGE = "trap and particle parameters take the theory out of float range"


def axial_stiffness(trap, particle):
    """Static axial spring constant u = 2 Q kappa U0 / z0^2 in N/m."""
    return 2.0 * particle.charge * trap.kappa * trap.u0 / trap.z0**2


def _axis_params(trap, particle, axis):
    """(q, a, secular omega) for one axis; raises if that axis is unstable."""
    q_c = particle.charge
    m = particle.mass
    wrf2 = trap.omega_rf**2
    q_x = 2.0 * q_c * trap.v0 * trap.eta / (m * wrf2 * trap.r0**2)
    a_x = -4.0 * q_c * trap.u0 * trap.kappa / (m * wrf2 * trap.z0**2)
    q_n = {"x": q_x, "y": -q_x, "z": 0.0}[axis]
    a_n = {"x": a_x, "y": a_x, "z": -2.0 * a_x}[axis]
    arg = a_n + 0.5 * q_n**2
    if arg <= 0.0:
        raise UnstableAxisError(axis, arg)
    return q_n, a_n, 0.5 * trap.omega_rf * float(np.sqrt(arg))


def stability_params(trap, particle):
    """Single-particle stability parameters and secular frequencies.

    q_x = -q_y = 2QV0 eta / (m w_rf^2 r0^2), q_z = 0, and
    a_x = a_y = -a_z/2 = -4QU0 kappa / (m w_rf^2 z0^2).  The secular
    frequency on axis n is (w_rf/2) sqrt(a_n + q_n^2/2); an axis with
    a_n + q_n^2/2 <= 0 is unstable and raises.
    """
    qs, as_, omegas = {}, {}, {}
    try:
        for axis in ("x", "y", "z"):
            qs[axis], as_[axis], omegas[axis] = _axis_params(trap, particle, axis)
    except (OverflowError, ZeroDivisionError):  # float ** and / at extreme inputs
        raise ConfigError(_FLOAT_RANGE) from None
    if not np.isfinite([*qs.values(), *as_.values(), *omegas.values()]).all():
        raise ConfigError(_FLOAT_RANGE)
    # lowest-order secular theory needs |a|, q^2 << 1; flag past q = 0.4
    # (and the matching a bound 0.4^2)
    valid = abs(qs["x"]) <= 0.4 and max(abs(a) for a in as_.values()) <= 0.16
    return StabilityParams(
        q_x=qs["x"], q_y=qs["y"], q_z=qs["z"],
        a_x=as_["x"], a_y=as_["y"], a_z=as_["z"],
        omega_x=omegas["x"], omega_y=omegas["y"], omega_z=omegas["z"],
        secular_valid=valid,
    )


def equilibrium_positions(trap, p1, p2):
    """Axial equilibrium of two repelling particles in the static trap.

    Returns (z1_eq, z2_eq, z_sep) with z2_eq > z1_eq.  The separation
    satisfies z_sep^3 = k (1/u1 + 1/u2) with k = Q1 Q2 / (4 pi eps0) and
    u_i the axial stiffnesses, so it does not depend on the masses.  The
    individual positions balance each trap force against the shared
    Coulomb force, which puts the charge-weighted centre at the origin:
    u1 z1_eq + u2 z2_eq = 0.
    """
    if p1.charge_e * p2.charge_e < 0:
        raise ConfigError(
            "opposite-sign charges attract; no stable axial separation exists"
        )
    u1 = axial_stiffness(trap, p1)
    u2 = axial_stiffness(trap, p2)
    if u1 <= 0 or u2 <= 0:
        raise UnstableAxisError("z", min(u1, u2))
    k = p1.charge * p2.charge / (4.0 * np.pi * EPSILON_0)
    z_sep = (k * (1.0 / u1 + 1.0 / u2)) ** (1.0 / 3.0)
    f_coul = k / z_sep**2
    z1_eq = -f_coul / u1
    z2_eq = f_coul / u2
    return z1_eq, z2_eq, z_sep


def coupling_matrix(trap, p1, p2):
    """Mass-scaled curvature matrix of the quadratic expansion about equilibrium.

    Row i is (d^2 V / dz_i dz_j) / m_i evaluated at the equilibrium
    separation; its eigenvalues are the squared normal-mode frequencies.
    The Coulomb curvature 2k/z_sep^3 reduces to 2 u1 u2 / (u1 + u2), which
    is used directly to avoid cancellation from the cube root.
    """
    u1 = axial_stiffness(trap, p1)
    u2 = axial_stiffness(trap, p2)
    if p1.charge_e * p2.charge_e < 0 or u1 <= 0:
        # reuse the validation paths (raises with the right message)
        equilibrium_positions(trap, p1, p2)
    kc = 2.0 * u1 * u2 / (u1 + u2)
    return np.array(
        [
            [(u1 + kc) / p1.mass, -kc / p1.mass],
            [-kc / p2.mass, (u2 + kc) / p2.mass],
        ]
    )


def _eig2(mat):
    """Eigenvalues (ascending) and eigenvectors of a real 2x2 matrix.

    Closed form via trace/determinant; the small eigenvalue is recovered
    as det/lambda_max to avoid cancellation.
    """
    m11, m12 = mat[0]
    m21, m22 = mat[1]
    tr = m11 + m22
    det = m11 * m22 - m12 * m21
    disc = np.sqrt(max((m11 - m22) ** 2 + 4.0 * m12 * m21, 0.0))
    lam_hi = 0.5 * (tr + disc)
    lam_lo = det / lam_hi if lam_hi != 0.0 else 0.5 * (tr - disc)
    vecs = []
    for lam in (lam_lo, lam_hi):
        v_a = np.array([m12, lam - m11])
        v_b = np.array([lam - m22, m21])
        v = v_a if np.dot(v_a, v_a) >= np.dot(v_b, v_b) else v_b
        n = np.sqrt(np.dot(v, v))
        if n == 0.0:  # degenerate: fall back to axis vectors
            v = np.array([1.0, 0.0]) if lam == lam_lo else np.array([0.0, 1.0])
            n = 1.0
        v = v / n
        if v[1] < 0:
            v = -v
        vecs.append(v)
    return (lam_lo, lam_hi), vecs


def mode_structure(trap, p1, p2):
    """Axial normal modes of the Coulomb-coupled pair.

    Diagonalizes the curvature matrix exactly rather than using the
    equal-mass closed form, so the eigenpairs are valid for unequal
    masses as well.  The plus label follows the physical character of the
    mode (in-phase / centre-of-mass branch, the lower frequency); see
    ModeStructure.
    """
    try:
        z1_eq, z2_eq, z_sep = equilibrium_positions(trap, p1, p2)
        (lam_lo, lam_hi), (e_lo, e_hi) = _eig2(coupling_matrix(trap, p1, p2))
        r_lo = float(e_lo[0] / e_lo[1])
        r_hi = float(e_hi[0] / e_hi[1])
        # energy_fractions squares the ratios
        values = [z1_eq, z2_eq, z_sep, lam_lo, lam_hi, r_lo**2, r_hi**2]
    except (OverflowError, ZeroDivisionError):  # float ** and / at extreme inputs
        raise ConfigError(_FLOAT_RANGE) from None
    if lam_lo <= 0.0 or lam_hi <= 0.0:
        raise UnstableModeError(lam_lo, lam_hi)
    if not np.isfinite(values).all():
        raise ConfigError(_FLOAT_RANGE)
    frac_1_plus, frac_2_plus = energy_fractions(r_lo, r_hi)
    return ModeStructure(
        z1_eq=float(z1_eq),
        z2_eq=float(z2_eq),
        z_sep=float(z_sep),
        omega_plus=float(np.sqrt(lam_lo)),
        omega_minus=float(np.sqrt(lam_hi)),
        r_plus=r_lo,
        r_minus=r_hi,
        e_plus=e_lo,
        e_minus=e_hi,
        frac_1_plus=frac_1_plus,
        frac_2_plus=frac_2_plus,
    )


def energy_fractions(r_plus, r_minus):
    """Fraction of each particle's motional energy carried by the plus mode.

    For equal masses the eigenvectors are orthonormal and particle i's
    share of mode k is the squared eigenvector component, giving
    frac_1_plus = r+^2/(r+^2 + 1) and frac_2_plus = r-^2/(r-^2 + 1);
    the remaining fraction of each particle sits in the minus mode.
    """
    if not (np.isfinite(r_plus) and np.isfinite(r_minus)):
        raise ValueError("mixing ratios must be finite")
    return r_plus**2 / (r_plus**2 + 1.0), r_minus**2 / (r_minus**2 + 1.0)


def mathieu_trajectory(t_grid, trap, particle, axis, amplitude_coeff):
    """Lowest-order driven trajectory on one axis: secular motion plus micromotion.

    x(t) = A0 cos(w_n t) (1 - (q_n/2) cos(w_rf t)) with A0 the combined
    amplitude prefactor (initial amplitude times the drive-dependent scale,
    which are not separately observable).  Valid for |a|, q^2 << 1; a
    warning is attached outside that regime.
    """
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be one of x, y, z; got {axis!r}")
    q_n, _, w_n = _axis_params(trap, particle, axis)
    if abs(q_n) > 0.4:
        warnings.warn(
            f"secular approximation marginal on axis {axis}: |q| = {abs(q_n):.3f} > 0.4",
            stacklevel=2,
        )
    t = np.asarray(t_grid, dtype=float)
    return amplitude_coeff * np.cos(w_n * t) * (
        1.0 - 0.5 * q_n * np.cos(trap.omega_rf * t)
    )


def charge_from_radial(measurements, mass, trap):
    """Least-squares charge from radial secular frequencies at several drives.

    Each measurement is (v0, omega_rf, u0, omega_radial).  The radial
    secular frequency obeys w_r^2 = c1(settings) * (Q/m) + c2(settings) *
    (Q/m)^2, so the sum of squared residuals in w_r^2 is a quartic in
    beta = Q/m; its stationary points are the roots of a cubic, solved in
    closed form.  Only the geometry fields (eta, kappa, r0, z0) of `trap`
    are used; the drive settings come from the measurements.

    Returns (charge_coulomb, rms_residual) where the residual is the rms
    mismatch of omega_radial in rad/s.
    """
    meas = np.atleast_2d(np.asarray(measurements, dtype=float))
    if meas.ndim != 2 or meas.shape[1] != 4:
        raise ValueError("measurements must be an (n, 4) array of (v0, omega_rf, u0, omega_radial)")
    if meas.shape[0] < 2:
        raise ConfigError("need at least 2 measurements to fit a charge")
    settings = meas[:, :3]
    if np.all(np.all(settings == settings[0], axis=1)):
        raise ConfigError("all drive settings identical: charge fit is underdetermined")
    if mass <= 0:
        raise ConfigError("mass must be > 0")
    v0, wrf, u0, w_meas = meas.T
    c1 = -trap.kappa * u0 / trap.z0**2
    c2 = v0**2 * trap.eta**2 / (2.0 * wrf**2 * trap.r0**4)
    y = w_meas**2
    # d/dbeta sum (y - c1 b - c2 b^2)^2 = 0, a cubic in b
    coeffs = [
        -2.0 * np.sum(c2**2),
        -3.0 * np.sum(c1 * c2),
        np.sum(2.0 * y * c2 - c1**2),
        np.sum(y * c1),
    ]
    if abs(coeffs[0]) < 1e-300:
        roots = np.roots(coeffs[1:])
    else:
        roots = np.roots(coeffs)
    betas = [float(r.real) for r in roots if abs(r.imag) < 1e-9 * (1 + abs(r.real)) and r.real > 0]
    if not betas:
        raise ConfigError("no positive charge-to-mass ratio fits the measurements")

    def sse(b):
        return float(np.sum((y - c1 * b - c2 * b**2) ** 2))

    beta = min(betas, key=sse)
    pred_sq = c1 * beta + c2 * beta**2
    if np.any(pred_sq <= 0):
        raise ConfigError("fitted charge predicts an unstable radial axis for some settings")
    resid = float(np.sqrt(np.mean((np.sqrt(pred_sq) - w_meas) ** 2)))
    return beta * mass, resid


def epstein_gamma(pressure_pa, radius, density, temperature=293.0, gas_mass=28.97 * ATOMIC_MASS):
    """Kinetic-regime (free-molecular) gas damping rate in rad/s.

    Drag on a sphere from a dilute gas with diffuse reflection:
    gamma = (1 + pi/8) * (p / (r rho)) * sqrt(8 m_gas / (pi k_B T)).
    Convenience mapping from residual pressure; the damping rate itself is
    the quantity the rest of the package consumes.
    """
    if pressure_pa < 0 or radius <= 0 or density <= 0 or temperature <= 0:
        raise ConfigError("pressure >= 0 and radius, density, temperature > 0 required")
    mean_speed_factor = np.sqrt(8.0 * gas_mass / (np.pi * K_B * temperature))
    return (1.0 + np.pi / 8.0) * pressure_pa / (radius * density) * mean_speed_factor
