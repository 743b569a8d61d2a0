"""Acceptance suite: one test per acceptance criterion, tolerances pinned.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Statistical checks use fixed seeds, so results are exactly
reproducible.
"""

import json
import time

import numpy as np
import pytest

from cotrap import (
    NoiseModel,
    ParticleSpec,
    TrapConfig,
    demodulate,
    design_controller,
    fit_r_pm,
    mode_structure,
    mode_temperature,
    project_modes,
    simulate,
    squeezing_db,
    welch_psd,
)
from cotrap.cli import main
from cotrap.constants import K_B
from cotrap.feedback import DetectionModel, parametric_threshold
from cotrap.trap import coupling_matrix, epstein_gamma

from conftest import make_pair
from test_analysis import synth_two_mode, thermal_oscillator

T0 = 293.0


def report(line):
    print(f"\n[acceptance] {line}")


# ---------------------------------------------------------------------------
# shared configurations


@pytest.fixture(scope="module")
def hf_trap():
    """Stiffer drive locating the modes near 0.8/1.4 kHz for cooling sweeps."""
    return TrapConfig(v0=700.0, u0=300.0, omega_rf=2 * np.pi * 3e4, eta=0.82,
                      kappa=0.071, r0=1.1e-3, z0=3.5e-3)


@pytest.fixture(scope="module")
def thermal_run(paper_trap):
    """Controller-off run of the characterised pair near 1e-2 mbar."""
    gamma0 = epstein_gamma(1.3, 193.5e-9, 1850.0, temperature=T0)
    pair = make_pair(2135, 906, gamma0=gamma0)
    modes = mode_structure(paper_trap, *pair)
    noise = NoiseModel(t0=T0, seed=2025)
    traj = simulate(paper_trap, *pair, noise, duration=180.0,
                    dt=1.0 / 25000.0, sample_rate=2500.0)
    return traj, modes, pair


def mode_variance_temperature(traj, modes, mass, burn_seconds):
    """Out-of-loop mode temperatures from projected-trace variances."""
    i0 = min(int(burn_seconds * traj.sample_rate), len(traj.z1) - 2)
    s1, s2 = traj.deviations(modes.z1_eq, modes.z2_eq)
    mt = project_modes(s1[i0:], s2[i0:], modes.r_plus, modes.r_minus)
    t_plus = mass * modes.omega_plus**2 * np.var(mt.z_plus) / K_B
    t_minus = mass * modes.omega_minus**2 * np.var(mt.z_minus) / K_B
    return t_plus, t_minus


# ---------------------------------------------------------------------------
# criterion 1: normal-mode theory


def test_criterion_1_normal_mode_theory(paper_trap):
    start = time.perf_counter()
    pair = make_pair(2135, 2135)
    ms = mode_structure(paper_trap, *pair)
    ratio_err = abs(ms.omega_minus / ms.omega_plus - np.sqrt(3.0)) / np.sqrt(3.0)
    assert ratio_err < 1e-10

    rng = np.random.default_rng(20240801)
    worst = 0.0
    for _ in range(1000):
        trap = TrapConfig(
            v0=0.0,
            u0=float(rng.uniform(5, 500)),
            omega_rf=2 * np.pi * 1e4,
            eta=0.5,
            kappa=float(rng.uniform(0.02, 0.3)),
            r0=1.1e-3,
            z0=float(rng.uniform(1e-3, 1e-2)),
        )
        p1 = ParticleSpec(charge_e=int(rng.integers(50, 6000)),
                          mass=float(10 ** rng.uniform(-18, -15)))
        p2 = ParticleSpec(charge_e=int(rng.integers(50, 6000)),
                          mass=float(10 ** rng.uniform(-18, -15)))
        ms = mode_structure(trap, p1, p2)
        mat = coupling_matrix(trap, p1, p2)
        for omega, vec in ((ms.omega_plus, ms.e_plus), (ms.omega_minus, ms.e_minus)):
            resid = np.linalg.norm(mat @ vec - omega**2 * vec) / omega**2
            worst = max(worst, resid)
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 1.0
    report(f"criterion 1 PASS: sqrt(3) ratio to {ratio_err:.1e}, "
           f"worst eigen residual {worst:.1e} over 1000 sets in {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# criterion 2: characterisation reproduction


def test_criterion_2_characterisation(paper_trap, ref_modes):
    # quoted ratios attach to the physically identified modes: the stretch
    # branch is dominated by the more-charged particle 1 (|r| = 1.60), the
    # in-phase branch carries the 0.61 ratio
    assert ref_modes.r_minus == pytest.approx(-1.60, abs=0.03)
    assert ref_modes.r_plus == pytest.approx(0.61, abs=0.04)
    # 72% of particle 1's energy sits in the stretch mode; equivalently
    # frac_2_plus of particle 2 sits in the in-phase mode
    frac_1_minus = 1.0 - ref_modes.frac_1_plus
    assert frac_1_minus == pytest.approx(0.72, abs=0.03)
    assert ref_modes.frac_2_plus == pytest.approx(0.72, abs=0.03)
    assert ref_modes.z_sep == pytest.approx(198e-6, abs=2e-6)
    report(
        "criterion 2 PASS: r(stretch) = "
        f"{ref_modes.r_minus:.3f}, r(in-phase) = {ref_modes.r_plus:.3f}, "
        f"energy fraction {frac_1_minus:.3f}, z_sep = {ref_modes.z_sep * 1e6:.1f} um"
    )


# ---------------------------------------------------------------------------
# criterion 3: thermalization


def test_criterion_3_thermalization(thermal_run, ref_pair):
    traj, modes, pair = thermal_run
    mass = pair[0].mass
    i0 = int(5.0 * traj.sample_rate)
    s1, s2 = traj.deviations(modes.z1_eq, modes.z2_eq)
    mt = project_modes(s1[i0:], s2[i0:], modes.r_plus, modes.r_minus)
    fs = traj.sample_rate
    psd_p = welch_psd(mt.z_plus, fs, segment_length=16384)
    psd_m = welch_psd(mt.z_minus, fs, segment_length=16384)
    assert psd_p.n_averages >= 50
    f_mid = np.sqrt((modes.omega_plus * modes.omega_minus)) / (2 * np.pi)
    est_p = mode_temperature(psd_p, mass, modes.omega_plus, (100.0, f_mid),
                             other_omega=modes.omega_minus)
    est_m = mode_temperature(psd_m, mass, modes.omega_minus, (f_mid, 560.0),
                             other_omega=modes.omega_plus)
    for name, est in (("plus", est_p), ("minus", est_m)):
        assert abs(est.kelvin - T0) < 3.0 * est.sigma_kelvin, (
            f"mode {name}: {est.kelvin:.1f} K vs {T0} K "
            f"(3 sigma = {3 * est.sigma_kelvin:.1f} K)"
        )
    report(
        "criterion 3 PASS: T+ = "
        f"{est_p.kelvin:.1f} +- {est_p.sigma_kelvin:.1f} K, T- = "
        f"{est_m.kelvin:.1f} +- {est_m.sigma_kelvin:.1f} K over "
        f"{psd_p.n_averages} averages"
    )


# ---------------------------------------------------------------------------
# criterion 4: sympathetic cooling


@pytest.mark.filterwarnings("ignore:bandpass overlaps")
def test_criterion_4a_cooling_law(hf_trap):
    points = [
        (20.0, 0.1), (20.0, 0.3), (20.0, 1.0), (20.0, 3.0),
        (0.8, 10.0), (0.8, 30.0), (0.8, 100.0),
    ]
    fs = 10000.0
    results = []
    for i, (gamma0, ratio) in enumerate(points):
        pair = make_pair(4000, 1700, gamma0=gamma0)
        modes = mode_structure(hf_trap, *pair)
        gamma_fb = ratio * gamma0
        total = gamma0 + gamma_fb
        cfg = design_controller("velocity_damper", modes, "plus", gamma_fb,
                                fs, pair[0].mass, bandwidth=6000.0)
        duration = min(max(2600.0 / total, 20.0), 300.0)
        noise = NoiseModel(t0=T0, seed=301 + i)
        traj = simulate(hf_trap, *pair, noise, [cfg], duration=duration,
                        dt=1.0 / (fs * 8), sample_rate=fs, store_every=3)
        burn = max(10.0 / total, 0.5)
        t_plus, _ = mode_variance_temperature(traj, modes, pair[0].mass, burn)
        expected = T0 * gamma0 / total
        results.append((ratio, t_plus, expected))
        assert t_plus == pytest.approx(expected, rel=0.10), (
            f"gamma_fb/gamma0 = {ratio}: T+ = {t_plus:.2f} K, "
            f"expected {expected:.2f} K"
        )
    detail = ", ".join(f"{r:g}: {t / e - 1:+.1%}" for r, t, e in results)
    report(f"criterion 4a PASS: T+ follows gamma0/(gamma0+gamma_fb) within 10% ({detail})")


def test_criterion_4bc_selectivity_and_equal_ratios(hf_trap):
    gamma0, gamma_fb = 2.0, 20.0
    fs = 10000.0
    pair = make_pair(4000, 1700, gamma0=gamma0)
    modes = mode_structure(hf_trap, *pair)
    cfg = design_controller("velocity_damper", modes, "plus", gamma_fb, fs,
                            pair[0].mass, bandwidth=400.0)
    kw = dict(duration=150.0, dt=1.0 / (fs * 8), sample_rate=fs, store_every=3)
    noise = NoiseModel(t0=T0, seed=777)
    on = simulate(hf_trap, *pair, noise, [cfg], **kw)
    off = simulate(hf_trap, *pair, noise, [], **kw)

    # (b) untargeted mode unaffected (equal seeds cancel the common noise)
    burn = 5.0
    _, tm_on = mode_variance_temperature(on, modes, pair[0].mass, burn)
    _, tm_off = mode_variance_temperature(off, modes, pair[0].mass, burn)
    assert abs(tm_on / tm_off - 1.0) < 0.05

    # (c) both particles' plus-mode content cooled by the same ratio
    f_plus = modes.omega_plus / (2 * np.pi)
    band = (f_plus - 25.0, f_plus + 25.0)
    i0 = int(burn * on.sample_rate)
    ratios = []
    for name in ("z1", "z2"):
        eq = modes.z1_eq if name == "z1" else modes.z2_eq
        p_on = welch_psd(getattr(on, name)[i0:] - eq, on.sample_rate,
                         segment_length=2**15).band_power(*band)
        p_off = welch_psd(getattr(off, name)[i0:] - eq, off.sample_rate,
                          segment_length=2**15).band_power(*band)
        ratios.append(p_on / p_off)
    expected = gamma0 / (gamma0 + gamma_fb)
    assert abs(ratios[0] - ratios[1]) < 0.1 * np.mean(ratios)
    assert np.mean(ratios) == pytest.approx(expected, rel=0.25)
    report(
        "criterion 4b/4c PASS: T- shift "
        f"{tm_on / tm_off - 1.0:+.2%}; cooling ratios "
        f"{ratios[0]:.4f} / {ratios[1]:.4f} (expected {expected:.4f})"
    )


def test_criterion_4d_noise_reheating_minimum(paper_trap):
    # with detection noise fed back, the gain-temperature curve must turn
    # around; at the pressure-matched damping the minimum is sub-kelvin
    gamma0 = epstein_gamma(3.2e-5, 193.5e-9, 1850.0, temperature=T0)
    assert gamma0 == pytest.approx(6.85e-4, rel=0.01)
    pair = make_pair(2135, 906, gamma0=gamma0)
    modes = mode_structure(paper_trap, *pair)
    fs = 5000.0
    s_nn = 3e-15
    points = [(0.4, 500.0), (2.886, 120.0), (20.0, 60.0)]
    temps = []
    for i, (gamma_fb, duration) in enumerate(points):
        cfg = design_controller("velocity_damper", modes, "plus", gamma_fb,
                                fs, pair[0].mass)
        noise = NoiseModel(t0=T0, seed=401 + i)
        det = DetectionModel(s_nn=s_nn, sample_rate=fs, seed=901 + i)
        traj = simulate(paper_trap, *pair, noise, [cfg], duration=duration,
                        dt=1.0 / (fs * 5), sample_rate=fs, detection=det,
                        store_every=2)
        burn = min(25.0 / gamma_fb, duration / 3.0)
        t_plus, _ = mode_variance_temperature(traj, modes, pair[0].mass, burn)
        temps.append(t_plus)
    t_lo, t_mid, t_hi = temps
    assert t_mid < 1.0, f"minimum temperature {t_mid:.2f} K is not sub-kelvin"
    assert t_lo > 1.5 * t_mid
    assert t_hi > 1.5 * t_mid
    report(
        "criterion 4d PASS: gain-temperature curve "
        f"{t_lo:.2f} K -> {t_mid:.2f} K -> {t_hi:.2f} K "
        f"(minimum sub-kelvin at matching damping and S_nn)"
    )


# ---------------------------------------------------------------------------
# criterion 5: sympathetic squeezing


@pytest.fixture(scope="module")
def squeezing_runs(paper_trap):
    gamma0 = 28.0
    pair = make_pair(2000, 2000, gamma0=gamma0)
    modes = mode_structure(paper_trap, *pair)
    fs = 5000.0
    kw = dict(duration=240.0, dt=1.0 / (fs * 6), sample_rate=fs)
    noise = NoiseModel(t0=T0, seed=1337)
    runs = {}
    runs["off"] = simulate(paper_trap, *pair, noise, [], **kw)
    g_th = parametric_threshold(gamma0, modes.omega_plus)
    for g in (0.2, 0.479, 0.8):
        cfg = design_controller("parametric_squeezer", modes, "plus",
                                g * g_th, fs, pair[0].mass, bandwidth=200.0)
        runs[g] = simulate(paper_trap, *pair, noise, [cfg], **kw)
    return runs, modes, pair, gamma0


def _quadratures(traj, modes, which, gamma0, bw=150.0):
    s1, s2 = traj.deviations(modes.z1_eq, modes.z2_eq)
    mt = project_modes(s1, s2, modes.r_plus, modes.r_minus)
    trace = {"mode": mt.z_plus, "p1": s1, "p2": s2}[which]
    return demodulate(trace, modes.omega_plus, bw, traj.sample_rate,
                      gamma0=gamma0)


def test_criterion_5ab_squeezing_law_and_bound(squeezing_runs):
    runs, modes, pair, gamma0 = squeezing_runs
    q_off = _quadratures(runs["off"], modes, "mode", gamma0)
    x0, y0 = q_off.steady()
    ref = 0.5 * (np.var(x0) + np.var(y0))
    results = {}
    for g in (0.2, 0.479, 0.8):
        res = squeezing_db(_quadratures(runs[g], modes, "mode", gamma0), ref,
                           correlation_time=2.0 / gamma0)
        results[g] = res
        assert res.variance_min / ref == pytest.approx(1.0 / (1.0 + g), rel=0.10)
        assert res.db >= -3.0         # classical steady-state bound
        assert res.reliable
    assert results[0.2].db > results[0.479].db > results[0.8].db
    detail = ", ".join(
        f"g={g}: {r.db:+.2f} dB (theory {-10 * np.log10(1 + g):+.2f})"
        for g, r in results.items()
    )
    report(f"criterion 5a/5b PASS: deamplified quadrature follows 1/(1+g), {detail}")


def test_criterion_5cd_sympathetic_transfer(squeezing_runs):
    runs, modes, pair, gamma0 = squeezing_runs
    g = 0.479
    dbs = {}
    for which in ("p1", "p2"):
        q_off = _quadratures(runs["off"], modes, which, gamma0)
        x0, y0 = q_off.steady()
        ref = 0.5 * (np.var(x0) + np.var(y0))
        res = squeezing_db(_quadratures(runs[g], modes, which, gamma0), ref,
                           correlation_time=2.0 / gamma0)
        dbs[which] = res
    # (c) both particles show the same squeezing though only particle 1 is
    # actuated; target level ~ -1.7 dB
    joint = np.hypot(dbs["p1"].sigma_db, dbs["p2"].sigma_db)
    assert abs(dbs["p1"].db - dbs["p2"].db) < max(2.0 * joint, 0.25)
    for which in ("p1", "p2"):
        assert dbs[which].db == pytest.approx(-1.7, abs=0.45)

    # (d) the untargeted mode's statistics are unchanged (equal seeds)
    def minus_var(traj):
        s1, s2 = traj.deviations(modes.z1_eq, modes.z2_eq)
        mt = project_modes(s1, s2, modes.r_plus, modes.r_minus)
        n0 = len(mt.z_minus) // 10
        return np.var(mt.z_minus[n0:])

    ratio = minus_var(runs[g]) / minus_var(runs["off"])
    assert abs(ratio - 1.0) < 0.05
    report(
        "criterion 5c/5d PASS: particle squeezing "
        f"{dbs['p1'].db:+.2f} / {dbs['p2'].db:+.2f} dB, "
        f"z- variance ratio {ratio:.4f}"
    )


# ---------------------------------------------------------------------------
# criterion 6: estimator suite


def test_criterion_6_estimators():
    fs = 4096.0
    rng = np.random.default_rng(6)

    # Parseval on a resonant trace
    x = thermal_oscillator(200.0, 2 * np.pi * 5.0, 2**17, rng, fs=fs)
    psd = welch_psd(x, fs, segment_length=8192)
    parseval = psd.band_power(0.0, np.inf) / np.var(x)
    assert parseval == pytest.approx(1.0, rel=0.01)

    # white-noise PSD level
    w = 2e-3 * rng.standard_normal(2**18)
    psd_w = welch_psd(w, fs, segment_length=2048)
    level = np.median(psd_w.values[1:-1]) / (np.var(w) / (fs / 2))
    assert level == pytest.approx(1.0, rel=0.03)

    # sinusoid power
    t = np.arange(2**16) / fs
    s = np.sin(2 * np.pi * 293.0 * t)
    psd_s = welch_psd(s, fs, segment_length=4096)
    assert psd_s.band_power(0.0, np.inf) == pytest.approx(0.5, rel=0.01)

    # thermal quadrature isotropy
    z = thermal_oscillator(300.0, 2 * np.pi * 5.0, 2**20, rng, fs=fs)
    q = demodulate(z, 2 * np.pi * 300.0, 2 * np.pi * 75.0, fs)
    xq, yq = q.steady()
    cov = np.cov(np.vstack([xq, yq]))
    evals = np.linalg.eigvalsh(cov)
    iso = evals[0] / evals[1]
    assert 0.9 <= iso <= 1.1
    report(
        "criterion 6 PASS: Parseval "
        f"{parseval:.4f}, white level {level:.3f}, tone power ok, "
        f"isotropy eigenvalue ratio {iso:.3f}"
    )


# ---------------------------------------------------------------------------
# criterion 7: determinism


def test_criterion_7_determinism(tmp_path):
    cfg = {
        "trap": {"v0_volts": 120.0, "u0_volts": 49.0,
                 "omega_rf_rad_per_s": 2 * np.pi * 1e4, "eta": 0.82,
                 "kappa": 0.071, "r0_meters": 1.1e-3, "z0_meters": 3.5e-3},
        "particles": [
            {"charge_e": 2135, "radius_meters": 1.935e-7,
             "density_kg_per_m3": 1850.0, "gamma0_rad_per_s": 28.0},
            {"charge_e": 906, "radius_meters": 1.935e-7,
             "density_kg_per_m3": 1850.0, "gamma0_rad_per_s": 28.0},
        ],
        "noise": {"t0_kelvin": 293.0},
        "detection": {"s_nn_m2_per_hz": 3e-15},
        "controllers": [{"kind": "velocity_damper", "target_mode": "plus",
                         "gamma_fb_rad_per_s": 100.0,
                         "bandwidth_rad_per_s": 800.0}],
        "run": {"duration_seconds": 10.0, "sample_rate_hz": 2500.0,
                "substeps_per_sample": 10, "seed": 20240809},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(path), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(out_b)]) == 0
    checked = []
    for name in ("trajectory.csv", "report.json", "report.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        checked.append(name)
    report(f"criterion 7 PASS: byte-identical {', '.join(checked)}")


# ---------------------------------------------------------------------------
# criterion 8: mixing-ratio fit round trip


def test_criterion_8_fit_round_trip(thermal_run):
    # synthetic two-mode data with known mixing ratios
    r_plus, r_minus = 0.6275, -1.5936
    s1, s2 = synth_two_mode(r_plus, r_minus, 238.0, 415.5, 2**19, seed=88,
                            gamma=2 * np.pi * 1.5)
    fit = fit_r_pm(s1, s2, 4096.0, segment_length=2**14)
    assert fit.r_plus == pytest.approx(r_plus, abs=0.05)
    assert fit.r_minus == pytest.approx(r_minus, abs=0.05)
    assert fit.leakage_db < -30.0

    # the same fit recovers the theory ratios from the simulated pair
    traj, modes, pair = thermal_run
    s1s, s2s = traj.deviations(modes.z1_eq, modes.z2_eq)
    fit_sim = fit_r_pm(s1s, s2s, traj.sample_rate, segment_length=16384)
    assert fit_sim.r_plus == pytest.approx(modes.r_plus, abs=0.05)
    assert fit_sim.r_minus == pytest.approx(modes.r_minus, abs=0.05)
    report(
        "criterion 8 PASS: synthetic fit "
        f"({fit.r_plus:.3f}, {fit.r_minus:.3f}) with leakage "
        f"{fit.leakage_db:.1f} dB; simulation fit "
        f"({fit_sim.r_plus:.3f}, {fit_sim.r_minus:.3f})"
    )
