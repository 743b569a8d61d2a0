"""Detection, controller chains, and closed-loop feedback behaviour."""

import numpy as np
import pytest

from cotrap import (
    ConfigError,
    Controller,
    ControllerConfig,
    DetectionModel,
    NoiseModel,
    detect,
    design_controller,
    mode_structure,
    parametric_threshold,
    project_modes,
    simulate,
)
from cotrap.constants import K_B
from cotrap.feedback import chain_response, _sections

from conftest import make_pair

FS = 5000.0


@pytest.fixture(scope="module")
def damped_pair():
    return make_pair(2135, 906, gamma0=20.0)


@pytest.fixture(scope="module")
def modes(paper_trap, damped_pair):
    return mode_structure(paper_trap, *damped_pair)


def damper(modes, mass, gain=20.0, **kw):
    return design_controller("velocity_damper", modes, "plus", gain, FS, mass, **kw)


def squeezer(modes, mass, gain, **kw):
    return design_controller("parametric_squeezer", modes, "plus", gain, FS, mass, **kw)


class TestDetect:
    def test_noise_free_passthrough(self):
        det = DetectionModel(s_nn=0.0, sample_rate=FS, seed=1)
        z = np.linspace(-1e-6, 1e-6, 100)
        assert np.array_equal(detect(z, det), z)

    def test_white_floor_level(self):
        s_nn = 3e-15
        det = DetectionModel(s_nn=s_nn, sample_rate=FS, seed=2)
        n = 2**18
        y = detect(np.zeros(n), det)
        assert np.var(y) == pytest.approx(s_nn * FS / 2, rel=0.02)
        from cotrap.analysis import welch_psd

        psd = welch_psd(y, FS, segment_length=4096)
        assert np.median(psd.values) == pytest.approx(s_nn, rel=0.05)

    def test_deterministic_in_seed(self):
        det = DetectionModel(s_nn=1e-15, sample_rate=FS, seed=3)
        z = np.zeros(64)
        assert np.array_equal(detect(z, det), detect(z, det))


class TestChainDesign:
    def test_bandpass_unity_zero_phase_at_center(self, modes, damped_pair):
        cfg = damper(modes, damped_pair[0].mass, notch=False)
        h = chain_response(_sections(cfg), cfg.center, FS)
        assert abs(h) == pytest.approx(1.0, abs=1e-9)
        assert np.angle(h) == pytest.approx(0.0, abs=1e-9)

    def test_notch_kills_other_mode(self, modes, damped_pair):
        cfg = damper(modes, damped_pair[0].mass)
        h = chain_response(_sections(cfg), modes.omega_minus, FS)
        assert abs(h) < 1e-10

    def test_overlap_warning(self, modes, damped_pair):
        # the warning comes when the chain is built to run, once per chain
        cfg = damper(modes, damped_pair[0].mass,
                     bandwidth=2 * abs(modes.omega_minus - modes.omega_plus))
        with pytest.warns(UserWarning, match="overlaps") as caught:
            Controller(cfg).process(np.zeros(16))
        assert len(caught) == 1

    def test_validation(self, modes, damped_pair):
        mass = damped_pair[0].mass
        with pytest.raises(ConfigError, match="gain"):
            damper(modes, mass, gain=-1.0)
        with pytest.raises(ConfigError, match="kind"):
            ControllerConfig(kind="pid", target_mode="plus", center=1500.0,
                             bandwidth=100.0, gain=1.0, mass=mass, sample_rate=FS)
        # rejected when designed, before any integration starts
        with pytest.raises(ConfigError, match="parametric drive .* Nyquist"):
            squeezer(modes, mass, 1e4, drive_freq=np.pi * FS)


class TestVelocityDamperChain:
    def test_tone_maps_to_velocity_force(self, modes, damped_pair):
        # held force on a resonant tone equals -m gamma_fb * d/dt of the
        # mode coordinate inferred from the measurement
        mass = damped_pair[0].mass
        gfb = 25.0
        cfg = damper(modes, mass, gain=gfb, bandwidth=1000.0)
        w = modes.omega_plus
        n = 100_000
        ts = 1.0 / FS
        t = np.arange(1, n + 1) * ts
        force = Controller(cfg).process(np.cos(w * t), 0.0)
        sub = 20
        tf = (np.arange(n * sub) + 0.5) * (ts / sub) + ts
        held = np.repeat(force, sub)
        half = slice(n * sub // 2, None)
        c = 2 * np.mean(held[half] * np.cos(w * tf[half]))
        s = 2 * np.mean(held[half] * np.sin(w * tf[half]))
        target = mass * gfb * w / modes.e_plus[0] ** 2
        assert np.hypot(c, s) == pytest.approx(target, rel=0.01)
        assert np.arctan2(c, s) == pytest.approx(0.0, abs=0.06)

    def test_zero_gain_zero_force(self, modes, damped_pair):
        cfg = damper(modes, damped_pair[0].mass, gain=0.0)
        rng = np.random.default_rng(4)
        force = Controller(cfg).process(1e-6 * rng.standard_normal(5000), 0.0)
        assert np.max(np.abs(force)) == 0.0


class TestControllerState:
    def test_reset_restores_initial_state(self, modes, damped_pair):
        cfg = damper(modes, damped_pair[0].mass)
        ctrl = Controller(cfg)
        rng = np.random.default_rng(5)
        y = 1e-6 * rng.standard_normal(3000)
        a = ctrl.process(y)
        ctrl.reset()
        b = ctrl.process(y)
        assert np.array_equal(a, b)

    def test_chunked_processing_matches_single_pass(self, modes, damped_pair):
        cfg = damper(modes, damped_pair[0].mass)
        rng = np.random.default_rng(6)
        y = 1e-6 * rng.standard_normal(4096)
        whole = Controller(cfg).process(y)
        ctrl = Controller(cfg)
        parts = np.concatenate([ctrl.process(y[:1000]), ctrl.process(y[1000:])])
        assert np.array_equal(whole, parts)

    def test_saturation_counted_and_clipped(self, modes, damped_pair):
        cfg = damper(modes, damped_pair[0].mass, gain=50.0,
                     force_limit=1e-15)
        ctrl = Controller(cfg)
        t = np.arange(1, 20001) / FS
        force = ctrl.process(1e-4 * np.cos(modes.omega_plus * t))
        assert ctrl.saturation_count > 0
        assert np.max(np.abs(force)) <= 1e-15 + 1e-30


class TestParametricChain:
    def test_force_is_filtered_signal_times_lo(self, modes, damped_pair):
        mass = damped_pair[0].mass
        gain = 2.0e5
        cfg = squeezer(modes, mass, gain, bandwidth=400.0)
        w = modes.omega_plus
        n = 60_000
        t = np.arange(1, n + 1) / FS
        amp = 1e-6
        force = Controller(cfg).process(amp * np.cos(w * t), 0.0)
        # the product of the mode tone and the 2w oscillator leaves
        # components at w and 3w with equal weight
        for w_comp in (w, 3 * w):
            a = 2 * abs(np.mean(force[n // 2:] * np.exp(-1j * w_comp * t[n // 2:])))
            expected = mass * gain * amp / (2 * modes.e_plus[0] ** 2)
            assert a == pytest.approx(expected, rel=0.05)

    def test_threshold_value(self):
        assert parametric_threshold(28.0, 1800.0) == pytest.approx(2 * 28 * 1800)


class TestClosedLoop:
    @pytest.mark.filterwarnings("ignore:bandpass overlaps")
    def test_damper_cools_target_mode(self, paper_trap, damped_pair, modes):
        p1, p2 = damped_pair
        gfb = 60.0
        cfg = damper(modes, p1.mass, gain=gfb, bandwidth=2000.0)
        noise = NoiseModel(t0=293.0, seed=7)
        kw = dict(duration=60.0, dt=1.0 / (FS * 5), sample_rate=FS)
        on = simulate(paper_trap, p1, p2, noise, [cfg], **kw)
        off = simulate(paper_trap, p1, p2, noise, [], **kw)
        i0 = int(5 * on.sample_rate)

        def mode_temps(traj):
            s1, s2 = traj.deviations(modes.z1_eq, modes.z2_eq)
            mt = project_modes(s1, s2, modes.r_plus, modes.r_minus)
            tp = p1.mass * modes.omega_plus**2 * np.var(mt.z_plus[i0:]) / K_B
            tm = p1.mass * modes.omega_minus**2 * np.var(mt.z_minus[i0:]) / K_B
            return tp, tm

        tp_on, tm_on = mode_temps(on)
        tp_off, tm_off = mode_temps(off)
        expected = 293.0 * p1.gamma0 / (p1.gamma0 + gfb)
        assert tp_on == pytest.approx(expected, rel=0.15)
        assert tp_off == pytest.approx(293.0, rel=0.15)
        # same seeds: the untargeted mode barely moves
        assert tm_on == pytest.approx(tm_off, rel=0.05)

    def test_zero_gain_leaves_bath_temperature(self, paper_trap, damped_pair, modes):
        p1, p2 = damped_pair
        cfg = damper(modes, p1.mass, gain=0.0)
        noise = NoiseModel(t0=293.0, seed=8)
        traj = simulate(paper_trap, p1, p2, noise, [cfg], duration=40.0,
                        dt=1.0 / (FS * 5), sample_rate=FS)
        s1, s2 = traj.deviations(modes.z1_eq, modes.z2_eq)
        mt = project_modes(s1, s2, modes.r_plus, modes.r_minus)
        tp = p1.mass * modes.omega_plus**2 * np.var(mt.z_plus) / K_B
        assert tp == pytest.approx(293.0, rel=0.15)
        assert np.max(np.abs(traj.forces[0])) == 0.0

    @pytest.mark.filterwarnings("ignore:bandpass overlaps")
    def test_noise_squashing_at_high_gain(self, paper_trap, modes):
        # feeding back detection noise hard makes the detector record look
        # colder than the true motion: the in-loop estimate must undershoot
        from cotrap.analysis import welch_psd
        from cotrap.feedback import DetectionModel

        p1, p2 = make_pair(2135, 906, gamma0=2.0)
        ms = mode_structure(paper_trap, p1, p2)
        cfg = design_controller("velocity_damper", ms, "plus", 800.0, FS,
                                p1.mass, bandwidth=1200.0)
        det = DetectionModel(s_nn=3e-15, sample_rate=FS, seed=5)
        noise = NoiseModel(t0=293.0, seed=55)
        traj = simulate(paper_trap, p1, p2, noise, [cfg], duration=80.0,
                        dt=1.0 / (FS * 5), sample_rate=FS, detection=det)
        i0 = int(5 * FS)
        s1, s2 = traj.deviations(ms.z1_eq, ms.z2_eq)
        mt = project_modes(s1[i0:], s2[i0:], ms.r_plus, ms.r_minus)
        t_out = p1.mass * ms.omega_plus**2 * np.var(mt.z_plus) / K_B
        psd_y = welch_psd(traj.y[i0:] - ms.z1_eq, FS, segment_length=8192)
        f_pk = ms.omega_plus / (2 * np.pi)
        p_in = psd_y.band_power(f_pk - 60.0, f_pk + 60.0)
        t_in = p1.mass * ms.omega_plus**2 * p_in / (K_B * ms.e_plus[0] ** 2)
        assert t_in < 0.5 * t_out

    def test_squeezer_deamplifies_one_quadrature(self, paper_trap, modes):
        p1, p2 = make_pair(2135, 906, gamma0=28.0)
        g = 0.4
        gain = g * parametric_threshold(p1.gamma0, modes.omega_plus)
        cfg = design_controller("parametric_squeezer", modes, "plus", gain,
                                FS, p1.mass, bandwidth=300.0)
        noise = NoiseModel(t0=293.0, seed=9)
        kw = dict(duration=90.0, dt=1.0 / (FS * 6), sample_rate=FS)
        on = simulate(paper_trap, p1, p2, noise, [cfg], **kw)
        off = simulate(paper_trap, p1, p2, noise, [], **kw)
        from cotrap.analysis import demodulate, squeezing_db

        def quads(traj):
            s1, s2 = traj.deviations(modes.z1_eq, modes.z2_eq)
            mt = project_modes(s1, s2, modes.r_plus, modes.r_minus)
            return demodulate(mt.z_plus, modes.omega_plus, 200.0, FS)

        q_off = quads(off)
        x0, y0 = q_off.steady()
        ref = 0.5 * (np.var(x0) + np.var(y0))
        res = squeezing_db(quads(on), ref, correlation_time=2 / p1.gamma0)
        assert res.db == pytest.approx(-10 * np.log10(1 + g), abs=0.35)
        assert res.db_amplified > 0.5
