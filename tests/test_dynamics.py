"""Integrator correctness: determinism, thermal statistics, faults."""

import ctypes
import functools
import io
import os
import random
import shutil
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import numpy as np
import pytest

from cotrap import (
    ConfigError,
    IntegrationFault,
    NoiseModel,
    ParticleSpec,
    mode_structure,
    project_modes,
    simulate,
    welch_psd,
)
from cotrap import _kernel, dynamics
from cotrap.constants import K_B
from cotrap.dynamics import Trajectory, ou_coefficients, total_energy
from cotrap.feedback import Controller, DetectionModel, design_controller, detect

from conftest import make_pair

FS = 2500.0
DT = 1.0 / (FS * 10)


def run(trap, pair, *, t0=293.0, seed=1, duration=10.0, gamma0=None, **kw):
    p1, p2 = pair
    if gamma0 is not None:
        p1 = ParticleSpec(p1.charge_e, p1.mass, gamma0)
        p2 = ParticleSpec(p2.charge_e, p2.mass, gamma0)
    noise = NoiseModel(t0=t0, seed=seed)
    return simulate(trap, p1, p2, noise, kw.pop("controllers", ()),
                    duration=duration, dt=kw.pop("dt", DT),
                    sample_rate=kw.pop("sample_rate", FS), **kw)


class TestKickScale:
    def test_matches_ou_coefficient_at_small_dt(self, ref_pair):
        # the exact kick reduces to the Euler scale sqrt(2 gamma k_B T dt / m)
        p = ParticleSpec(ref_pair[0].charge_e, ref_pair[0].mass, 10.0)
        dt = 1e-7
        _, b = ou_coefficients(p, 293.0, dt)
        assert b == pytest.approx(np.sqrt(2 * p.gamma0 * K_B * 293.0 * dt / p.mass), rel=1e-5)

    def test_free_particle_velocity_variance(self):
        # Ornstein-Uhlenbeck stationary variance as the oracle; a nearly
        # free particle (tiny trap stiffness irrelevant to velocities)
        p = ParticleSpec(charge_e=1, mass=5.6e-17, gamma0=1e4)
        a, b = ou_coefficients(p, 293.0, 1e-5)
        rng = np.random.default_rng(2)
        xi = rng.standard_normal(500_000)
        out = np.empty_like(xi)
        v = 0.0
        for i in range(len(xi)):
            v = a * v + b * xi[i]
            out[i] = v
        assert np.var(out[1000:]) == pytest.approx(K_B * 293.0 / p.mass, rel=0.02)


class TestConservativeLimit:
    def test_energy_conservation(self, paper_trap, ref_pair):
        ms = mode_structure(paper_trap, *ref_pair)
        amp = 2e-6
        ini = (ms.z1_eq + amp * ms.e_plus[0] + 0.4 * amp * ms.e_minus[0],
               ms.z2_eq + amp * ms.e_plus[1] + 0.4 * amp * ms.e_minus[1],
               0.0, 0.0)
        duration = 1e4 * 2 * np.pi / ms.omega_plus
        traj = run(paper_trap, ref_pair, t0=0.0, gamma0=0.0,
                   duration=duration, initial_state=ini)
        p1, p2 = ref_pair
        e = total_energy(paper_trap, p1, p2, traj.z1, traj.z2, traj.v1, traj.v2)
        e_eq = total_energy(paper_trap, p1, p2, ms.z1_eq, ms.z2_eq, 0.0, 0.0)
        e_osc = np.mean(e) - e_eq
        n = len(e)
        drift = abs(np.mean(e[-n // 50:]) - np.mean(e[: n // 50]))
        assert drift / e_osc < 1e-6

    def test_second_order_convergence(self, paper_trap, ref_pair):
        ms = mode_structure(paper_trap, *ref_pair)
        amp = 1e-6
        ini = (ms.z1_eq + amp * ms.e_plus[0], ms.z2_eq + amp * ms.e_plus[1], 0.0, 0.0)
        duration = 10 * 2 * np.pi / ms.omega_plus

        def final_state(n_sub):
            traj = run(paper_trap, ref_pair, t0=0.0, gamma0=0.0,
                       duration=duration, dt=1.0 / (FS * n_sub),
                       initial_state=ini)
            return np.array([traj.z1[-1], traj.z2[-1]])

        ref = final_state(160)
        err_a = np.linalg.norm(final_state(10) - ref)
        err_b = np.linalg.norm(final_state(20) - ref)
        assert err_a / err_b == pytest.approx(4.0, rel=0.2)

    def test_psd_peaks_match_mode_frequencies(self, paper_trap, ref_pair):
        ms = mode_structure(paper_trap, *ref_pair)
        traj = run(paper_trap, ref_pair, gamma0=5.0, duration=60.0, seed=3)
        s1, s2 = traj.deviations(ms.z1_eq, ms.z2_eq)
        mt = project_modes(s1, s2, ms.r_plus, ms.r_minus)
        psd_p = welch_psd(mt.z_plus, FS, segment_length=2**15)
        psd_m = welch_psd(mt.z_minus, FS, segment_length=2**15)
        f_p = psd_p.peak_frequency(200.0, 280.0)
        f_m = psd_m.peak_frequency(370.0, 460.0)
        assert f_p == pytest.approx(ms.omega_plus / (2 * np.pi), rel=1e-3)
        assert f_m == pytest.approx(ms.omega_minus / (2 * np.pi), rel=1e-3)


class TestThermalStatistics:
    def test_mode_equipartition(self, paper_trap, ref_pair):
        ms = mode_structure(paper_trap, *ref_pair)
        traj = run(paper_trap, ref_pair, gamma0=28.0, duration=120.0, seed=4)
        s1, s2 = traj.deviations(ms.z1_eq, ms.z2_eq)
        mt = project_modes(s1, s2, ms.r_plus, ms.r_minus)
        p1 = ref_pair[0]
        t_plus = p1.mass * ms.omega_plus**2 * np.var(mt.z_plus) / K_B
        t_minus = p1.mass * ms.omega_minus**2 * np.var(mt.z_minus) / K_B
        # ~1700 independent samples -> sigma ~ 3.4%; allow 3 sigma
        assert t_plus == pytest.approx(293.0, rel=0.11)
        assert t_minus == pytest.approx(293.0, rel=0.11)

    def test_velocity_equipartition(self, paper_trap, ref_pair):
        traj = run(paper_trap, ref_pair, gamma0=28.0, duration=120.0, seed=5)
        p1, p2 = ref_pair
        assert p1.mass * np.var(traj.v1) / K_B == pytest.approx(293.0, rel=0.08)
        assert p2.mass * np.var(traj.v2) / K_B == pytest.approx(293.0, rel=0.08)

    def test_extra_force_noise_heats(self, paper_trap, ref_pair):
        # the white-force-noise knob adds S/(4 m gamma k_B) of temperature
        p1, p2 = make_pair(2135, 906, gamma0=50.0)
        s_extra = 2.0 * (4 * p1.mass * 50.0 * K_B * 293.0)  # 2x the thermal PSD
        noise = NoiseModel(t0=293.0, seed=21, force_noise_psd=(s_extra, s_extra))
        traj = simulate(paper_trap, p1, p2, noise, duration=80.0, dt=DT,
                        sample_rate=FS)
        t1 = p1.mass * np.var(traj.v1) / K_B
        assert t1 == pytest.approx(3 * 293.0, rel=0.1)

    def test_noise_streams_independent(self, paper_trap, ref_pair):
        # the injected force streams are uncorrelated; at equal damping the
        # velocity cross-correlation reduces to the Coulomb-mediated part,
        # which vanishes when the coupling is off
        traj = run(paper_trap, ref_pair, gamma0=50.0, duration=60.0, seed=6,
                   coulomb_coupling=False)
        c = np.corrcoef(traj.v1, traj.v2)[0, 1]
        assert abs(c) < 4.0 / np.sqrt(len(traj.v1) / 10)


class TestDeterminismAndIO:
    def test_identical_seed_identical_output(self, paper_trap, ref_pair):
        a = run(paper_trap, ref_pair, gamma0=28.0, duration=5.0, seed=7)
        b = run(paper_trap, ref_pair, gamma0=28.0, duration=5.0, seed=7)
        for name in ("z1", "z2", "v1", "v2"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_different_seed_differs(self, paper_trap, ref_pair):
        a = run(paper_trap, ref_pair, gamma0=28.0, duration=2.0, seed=8)
        b = run(paper_trap, ref_pair, gamma0=28.0, duration=2.0, seed=9)
        assert not np.array_equal(a.z1, b.z1)

    def test_csv_round_trip_preserves_bits(self, paper_trap, ref_pair, tmp_path):
        traj = run(paper_trap, ref_pair, gamma0=28.0, duration=2.0, seed=10)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        back = Trajectory.from_csv(path)
        assert back.sample_rate == traj.sample_rate
        for name in ("z1", "z2", "v1", "v2"):
            assert np.array_equal(getattr(back, name), getattr(traj, name))
        assert back.meta == traj.meta

    def test_csv_round_trip_controller_run(self, paper_trap, tmp_path):
        # force and measurement columns and the controller metadata must
        # survive the text format exactly
        p1, p2 = make_pair(2135, 906, gamma0=28.0)
        ms = mode_structure(paper_trap, p1, p2)
        cfg = design_controller("velocity_damper", ms, "plus", 50.0, FS, p1.mass)
        det = DetectionModel(s_nn=1e-15, sample_rate=FS, seed=3)
        traj = simulate(paper_trap, p1, p2, NoiseModel(t0=293.0, seed=9), [cfg],
                        duration=2.0, dt=DT, sample_rate=FS, detection=det)
        path = tmp_path / "ctrl.csv"
        traj.to_csv(path)
        back = Trajectory.from_csv(path)
        assert np.array_equal(back.forces, traj.forces)
        assert np.array_equal(back.y, traj.y)
        assert back.meta == traj.meta

    def test_csv_bytes_reproducible(self, paper_trap, ref_pair, tmp_path):
        pa = tmp_path / "a.csv"
        pb = tmp_path / "b.csv"
        run(paper_trap, ref_pair, gamma0=28.0, duration=2.0, seed=11).to_csv(pa)
        run(paper_trap, ref_pair, gamma0=28.0, duration=2.0, seed=11).to_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_store_every_subsamples(self, paper_trap, ref_pair):
        a = run(paper_trap, ref_pair, gamma0=28.0, duration=4.0, seed=12)
        b = run(paper_trap, ref_pair, gamma0=28.0, duration=4.0, seed=12,
                store_every=5)
        assert b.sample_rate == a.sample_rate / 5
        assert np.array_equal(b.z1, a.z1[4::5])


def controller_sets(trap):
    """Particle 1 of the characterised pair plus named controller lists."""
    p1, p2 = make_pair(2135, 906, gamma0=28.0)
    ms = mode_structure(trap, p1, p2)

    def design(kind, gain, **kw):
        return design_controller(kind, ms, "plus", gain, FS, p1.mass, **kw)

    damper = design("velocity_damper", 50.0, notch=False)
    squeezer = design("parametric_squeezer", 2.4e4, notch=False)
    return {
        "damper": [damper],
        "squeezer": [squeezer],
        "notch": [design("velocity_damper", 50.0)],
        "saturation": [design("velocity_damper", 50.0, force_limit=2e-17)],
        "damper+squeezer": [damper, squeezer],
    }


DETECTION = DetectionModel(s_nn=1e-15, sample_rate=FS, seed=3)


def closed_loop(trap, controllers=(), **kw):
    """1 s of the characterised pair with detection noise on particle 1."""
    p1, p2 = make_pair(2135, 906, gamma0=28.0)
    return simulate(trap, p1, p2, NoiseModel(t0=293.0, seed=9), controllers,
                    duration=1.0, dt=DT, sample_rate=FS, detection=DETECTION, **kw)


def assert_same_run(a, b):
    for name in ("z1", "z2", "v1", "v2", "y", "forces"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.meta == b.meta


class TestKernelParity:
    def test_backend_matches_python_reference(self, paper_trap, monkeypatch):
        ms = mode_structure(paper_trap, *make_pair(2135, 906))
        cases = [(name, dict(controllers=c), None)
                 for name, c in controller_sets(paper_trap).items()]
        cases += [
            ("non-finite fault", dict(initial_state=(ms.z1_eq, ms.z2_eq, 0.0, np.nan)),
             "non-finite"),
            ("crossing fault", dict(initial_state=(ms.z1_eq, ms.z2_eq, 1e3, -1e3)),
             "crossed"),
            # both thrown outward at 5 m/s: past z0 + |z2_eq| by the third sample
            ("escape fault", dict(initial_state=(ms.z1_eq, ms.z2_eq, -5.0, -5.0)),
             r"left the trap \(\|z\| > 0.003639 m\)"),
        ]
        for name, kw, fault in cases:
            runs = []
            for kernel in (_kernel.run_block, _kernel.run_block_python):
                with monkeypatch.context() as m:
                    m.setattr(_kernel, "run_block", kernel)
                    if fault is None:
                        runs.append(closed_loop(paper_trap, **kw))
                        continue
                    with pytest.raises(IntegrationFault, match=fault) as exc:
                        closed_loop(paper_trap, **kw)
                    runs.append(exc.value.time)
            if fault is None:
                assert_same_run(*runs)
            else:
                assert runs[0] == runs[1], name


# builds the kernel into the cache directory argv[1] once argv[2] exists
_RACE_SCRIPT = """
import os, sys, time
from pathlib import Path
from cotrap import _kernel
_kernel._CACHE_DIR = Path(sys.argv[1])
go = Path(sys.argv[2])
(go.parent / f"ready.{os.getpid()}").touch()
while not go.exists():
    time.sleep(0.005)
_kernel._load()
print(_kernel.BACKEND, _kernel.BUILD_ERROR)
"""


def fail_the_build(monkeypatch, tmp_path):
    """Make the next kernel call try a build with a missing compiler."""
    monkeypatch.setattr(_kernel, "_CC", str(tmp_path / "no-such-cc"))
    monkeypatch.setattr(_kernel, "_CACHE_DIR", tmp_path)
    monkeypatch.setattr(_kernel, "BACKEND", None)
    monkeypatch.setattr(_kernel, "BUILD_ERROR", None)
    monkeypatch.setattr(_kernel, "_lib", None)


class TestKernelBuild:
    """The compiled kernel is built on first use, or run_block falls back."""

    def test_compiled_kernel_loads_where_a_compiler_is(self, paper_trap):
        closed_loop(paper_trap)
        expected = "c" if shutil.which(_kernel._CC) else "python"
        assert _kernel.BACKEND == expected, _kernel.BUILD_ERROR

    def test_fallback_without_compiler(self, paper_trap, monkeypatch, tmp_path):
        controllers = controller_sets(paper_trap)["damper+squeezer"]
        compiled = closed_loop(paper_trap, controllers)
        calls = []
        python = _kernel.run_block_python
        monkeypatch.setattr(_kernel, "run_block_python", lambda *a: calls.append(a) or python(*a))
        fail_the_build(monkeypatch, tmp_path)
        fallback = closed_loop(paper_trap, controllers)
        assert _kernel.BACKEND == "python"
        assert "no-such-cc" in _kernel.BUILD_ERROR
        assert calls
        assert_same_run(compiled, fallback)
        assert list(tmp_path.iterdir()) == []  # the temporary output is removed

    def test_bad_arrays_raise_before_the_kernel_runs(self, paper_trap, monkeypatch):
        blocks = []
        run_block = _kernel.run_block
        monkeypatch.setattr(_kernel, "run_block", lambda *a: blocks.append(a) or run_block(*a))
        closed_loop(paper_trap, controller_sets(paper_trap)["damper"])
        args = blocks[0]
        thermal, ctrl, out_force = args[16], args[19], args[26]
        cases = [
            (16, thermal.astype(np.float32), "thermal"),
            (16, np.asfortranarray(thermal), "thermal"),
            (19, ctrl._replace(sos_state=ctrl.sos_state.astype(np.float32)), "ctrl.sos_state"),
            (19, ctrl._replace(hold_force=np.zeros(2)), "ctrl.hold_force"),
            (26, np.zeros((2, out_force.shape[1])), "out_force"),
        ]
        for lib in (_kernel._lib, None):  # the C build, then the Python fallback
            monkeypatch.setattr(_kernel, "_lib", lib)
            for index, value, name in cases:
                bad = list(args)
                bad[index] = value
                bad[0] = pos = np.array([1.0, 2.0])
                with pytest.raises(ValueError, match=name):
                    run_block(*bad)
                assert np.array_equal(pos, [1.0, 2.0]), name  # the loop never ran

    def test_sosfilt_fallback_without_compiler(self, monkeypatch, tmp_path):
        sos = np.array([[1e-4, 2e-4, 1e-4, -1.9, 0.91],
                        [1.0, 2.0, 1.0, -1.95, 0.96]])
        x = np.random.default_rng(2).standard_normal(5000)
        compiled = _kernel.sosfilt(sos, x)
        calls = []
        python = _kernel.sosfilt_python
        monkeypatch.setattr(_kernel, "sosfilt_python", lambda *a: calls.append(a) or python(*a))
        fail_the_build(monkeypatch, tmp_path)
        fallback = _kernel.sosfilt(sos, x)
        assert _kernel.BACKEND == "python"
        assert calls
        assert np.array_equal(compiled, fallback)
        assert np.array_equal(x, np.random.default_rng(2).standard_normal(5000))  # input kept

    @pytest.mark.parametrize("backend", ["c", "python"])
    def test_sosfilt_bad_arrays_raise(self, monkeypatch, backend):
        sos = np.array([[1.0, 2.0, 1.0, -1.9, 0.91]])
        x = np.zeros(64)
        _kernel.sosfilt(sos, x)  # loads the kernel
        if backend == "python":
            monkeypatch.setattr(_kernel, "_lib", None)
        cases = [
            (sos, x.astype(np.float32), "x"),
            (sos, x[::2], "x"),
            (sos, x.reshape(8, 8), "x"),
            (sos[:, :4].copy(), x, "sos"),
            (np.hstack([sos[:, :3], [[1.0]], sos[:, 3:]]), x, "sos"),  # scipy's a0 column
            (np.asfortranarray(np.vstack([sos, sos])), x, "sos"),
            (sos.astype(np.float32), x, "sos"),
        ]
        for bad_sos, bad_x, name in cases:
            with pytest.raises(ValueError, match=f"sosfilt: {name}"):
                _kernel.sosfilt(bad_sos, bad_x)

    def test_cold_cache_race(self, tmp_path):
        if shutil.which(_kernel._CC) is None:
            pytest.skip(f"no C compiler '{_kernel._CC}' on PATH")
        cache = tmp_path / "cache"
        cache.mkdir()
        go = tmp_path / "go"
        env = dict(os.environ, PYTHONPATH=str(Path(_kernel.__file__).parents[1]))
        procs = [subprocess.Popen([sys.executable, "-c", _RACE_SCRIPT, str(cache), str(go)],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, env=env)
                 for _ in range(2)]
        try:
            deadline = time.monotonic() + 60
            while len(list(tmp_path.glob("ready.*"))) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            go.touch()
            outputs = [p.communicate(timeout=60) for p in procs]
        finally:
            for p in procs:
                p.kill()
        for p, (out, err) in zip(procs, outputs):
            assert p.returncode == 0, err
            assert out.split() == ["c", "None"], out
        files = list(cache.iterdir())
        assert len(files) == 1 and files[0].suffix == ".so", files

    # the second build is that of a compiler without unsigned __int128
    @pytest.mark.parametrize("flags", [[], ["-U__SIZEOF_INT128__"]])
    def test_compiles_without_warnings(self, tmp_path, flags):
        if shutil.which(_kernel._CC) is None:
            pytest.skip(f"no C compiler '{_kernel._CC}' on PATH")
        cmd = [_kernel._CC, *_kernel._CFLAGS, "-Wall", "-Wextra", "-Werror", *flags,
               "-o", str(tmp_path / "kernel.so"), str(_kernel._SOURCE), "-lm"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_build_removes_stale_libraries(self, monkeypatch, tmp_path):
        if shutil.which(_kernel._CC) is None:
            pytest.skip(f"no C compiler '{_kernel._CC}' on PATH")
        platform = sysconfig.get_platform()
        stale = [tmp_path / f"_kernel.{platform}.{key}.so" for key in ("0" * 16, "f" * 16)]
        kept = [tmp_path / f"_kernel.other-platform.{'0' * 16}.so", tmp_path / "notes.txt"]
        for path in stale + kept:
            path.write_bytes(b"")
        monkeypatch.setattr(_kernel, "_CACHE_DIR", tmp_path)
        monkeypatch.setattr(_kernel, "BACKEND", None)
        monkeypatch.setattr(_kernel, "BUILD_ERROR", None)
        monkeypatch.setattr(_kernel, "_lib", None)
        _kernel._load()
        assert _kernel.BACKEND == "c", _kernel.BUILD_ERROR
        assert sorted(tmp_path.iterdir()) == sorted(kept + [_kernel._library_path()])


def writer_inputs():
    """Edge values, values at the exact formatter's boundaries, then random
    64-bit patterns, as one float64 vector."""
    fi = np.finfo(np.float64)
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                     0xFFF0000000000001, 0x7FF4000000000000, 0xFFFFFFFFFFFFFFFF],
                    dtype=np.uint64).view(np.float64)  # either sign, with payloads
    around = [np.nextafter(x, toward) for x in (1e-5, 1e-4, 1e16, 1e17)
              for toward in (0.0, np.inf)]
    edges = np.concatenate([[0.0, -0.0, np.inf, -np.inf, fi.max, -fi.max, fi.tiny, -fi.tiny,
                             fi.smallest_subnormal, -fi.smallest_subnormal, 2.5e-320,
                             -1.2345678901234567e-308, 1e16, 1e17, 1e-4, 1e-5, 0.1,
                             2.0**-25,  # 2.98023223876953125e-08: a tie at the 17th digit
                             # exact ties at the 17th digit, which round half to even
                             1000000000000000.25, 1000000000000000.75, 1000000000000001.25,
                             # 17 nines, which parse to the power of ten above them
                             99999999999999999.0, 9.9999999999999999e-5],
                            around, nans])
    # 3 ulp either side of every power of ten, 1e-323 to 1e308; 28 of the
    # values below a power round to 17 digits that carry into it
    ulps = np.arange(-3, 4, dtype=np.int64)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    tens = (tens.view(np.int64)[:, None] + ulps).ravel().view(np.float64)
    tens = tens[tens > 0]  # 1e-323 less 3 ulp
    # the least value and three random ones in every binade, 2^-1074 to 2^1023
    rng = np.random.default_rng(9)
    lead = np.uint64(1) << np.arange(52, dtype=np.uint64)[:, None]  # subnormals
    subnormal = lead | np.concatenate([np.zeros((52, 1), dtype=np.uint64), rng.integers(
        0, lead, (52, 3), dtype=np.uint64)], axis=1)
    exponents = np.arange(1, 2047, dtype=np.uint64)[:, None] << np.uint64(52)
    normal = exponents | np.concatenate([np.zeros((2046, 1), dtype=np.uint64), rng.integers(
        0, 2**52, (2046, 3), dtype=np.uint64)], axis=1)
    binades = np.concatenate([subnormal.ravel(), normal.ravel()]).view(np.float64)
    bits = np.random.default_rng(8).integers(0, 2**64, 30000, dtype=np.uint64, endpoint=False)
    boundaries = np.concatenate([edges, tens, binades])
    return np.concatenate([boundaries, -boundaries, bits.view(np.float64)])


def build_without_int128(monkeypatch, tmp_path):
    """Make the next kernel call build _kernel.c as a compiler without
    unsigned __int128 would, which leaves every value to snprintf."""
    monkeypatch.setattr(_kernel, "_CFLAGS", _kernel._CFLAGS + ("-U__SIZEOF_INT128__",))
    monkeypatch.setattr(_kernel, "_CACHE_DIR", tmp_path)
    monkeypatch.setattr(_kernel, "BACKEND", None)
    monkeypatch.setattr(_kernel, "_lib", None)


@pytest.fixture(scope="session")
def without_int128_cache(tmp_path_factory):
    """The cache directory of the session's one build without __int128."""
    return tmp_path_factory.mktemp("without-int128")


def use_backend(monkeypatch, tmp_path, backend, without_int128_cache):
    """Make the next kernel call load backend: "c", "c-without-int128" or
    "python"; a C backend is skipped where there is no compiler."""
    if backend != "python" and shutil.which(_kernel._CC) is None:
        pytest.skip(f"no C compiler '{_kernel._CC}' on PATH")
    if backend == "python":
        fail_the_build(monkeypatch, tmp_path)
    if backend == "c-without-int128":
        build_without_int128(monkeypatch, without_int128_cache)


def assert_same_text(got, expected):
    """got == expected, failing with the first line that differs rather
    than a diff of the whole text."""
    if got != expected:
        lines = zip(got.splitlines(), expected.splitlines())
        first = next((i for i, (a, b) in enumerate(lines) if a != b), None)
        if first is None:
            pytest.fail(f"{len(got)} characters written, {len(expected)} expected")
        pytest.fail(f"line {first + 1}: {got.splitlines()[first]!r} written, "
                    f"{expected.splitlines()[first]!r} expected")


class TestWriterParity:
    """write_columns writes the bytes of np.savetxt(fmt="%.17g", delimiter=",")."""

    @pytest.mark.parametrize("backend", ["c", "c-without-int128", "python"])
    def test_matches_savetxt(self, monkeypatch, tmp_path, backend, without_int128_cache):
        use_backend(monkeypatch, tmp_path, backend, without_int128_cache)
        values = writer_inputs()
        chunk = _kernel._WRITE_CHUNK_ROWS
        cases = [
            [values, values[::-1], np.roll(values, 11)],  # not C-contiguous: values[::-1]
            [values[:0], values[:0]],
            [values[:1]],
            [values[: 2 * chunk + 7], values[1 : 2 * chunk + 8]],
            [values[:chunk]],
        ]
        for columns in cases:
            names = [f"c{i}" for i in range(len(columns))]
            expected = io.StringIO()
            expected.write(",".join(names) + "\n")
            np.savetxt(expected, np.column_stack(columns), fmt="%.17g", delimiter=",")
            got = io.StringIO()
            dynamics.write_columns(got, names, columns)
            assert_same_text(got.getvalue(), expected.getvalue())
        # real text files, as Trajectory.to_csv and the CLI writers open them
        with open(tmp_path / "savetxt.csv", "w") as fh:
            fh.write("a,b,c\n")
            np.savetxt(fh, np.column_stack(cases[0]), fmt="%.17g", delimiter=",")
        with open(tmp_path / "written.csv", "w") as fh:
            dynamics.write_columns(fh, ["a", "b", "c"], cases[0])
        assert_same_text((tmp_path / "written.csv").read_bytes(),
                         (tmp_path / "savetxt.csv").read_bytes())
        assert _kernel.BACKEND == backend.split("-")[0]

    def test_exact_path_decides_trajectory_values(self):
        if shutil.which(_kernel._CC) is None:
            pytest.skip(f"no C compiler '{_kernel._CC}' on PATH")
        _kernel._load()
        rng = np.random.default_rng(4)
        # times, positions, velocities and forces of a run, and short decimals
        values = np.concatenate([np.arange(1, 2001) / 5000.0, rng.standard_normal(2000) * 1e-7,
                                 rng.standard_normal(2000) * 1e-4,
                                 rng.standard_normal(2000) * 1e-17,
                                 np.round(rng.uniform(-100, 100, 2000), 3)])
        buf = ctypes.create_string_buffer(32)

        def exact(v):
            n = _kernel._lib.cotrap_format_g17(v, _kernel._POW10.ctypes.data, buf)
            return buf.raw[:n].decode()

        for v in values:
            assert exact(v) == "%.17g" % v, v  # the fast path, not snprintf
        # exact ties need round-half-even, which the fast path leaves to snprintf
        for v in (1000000000000000.25, 1000000000000000.75, 2.0**-25):
            assert exact(v) == "", v

    @pytest.mark.parametrize("backend", ["c", "python"])
    def test_bad_columns_raise(self, monkeypatch, tmp_path, backend):
        if backend == "python":
            fail_the_build(monkeypatch, tmp_path)
        for columns in ([], [np.zeros(3), np.zeros(4)], [np.zeros((3, 2))]):
            with pytest.raises(ValueError, match="write_rows: columns"):
                _kernel.write_rows(io.StringIO(), columns)


def assert_same_values(got, expected):
    """Equal shapes and bits, any NaN matching any NaN."""
    assert got.dtype == np.float64 and got.shape == expected.shape, (got.shape, expected.shape)
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), expected[~nan].view(np.uint64))


def read_on_both_backends(monkeypatch, read):
    """read() on the C parser, then on the fallback: its value, or the
    message of the ValueError or ConfigError it raised."""
    if shutil.which(_kernel._CC) is None:
        pytest.skip(f"no C compiler '{_kernel._CC}' on PATH")
    _kernel._load()
    outcomes = []
    for lib in (_kernel._lib, None):
        with monkeypatch.context() as m:
            m.setattr(_kernel, "_lib", lib)
            try:
                outcomes.append(read())
            except (ValueError, ConfigError) as exc:
                outcomes.append(str(exc))
    return outcomes


# a data row of the characterised pair's trajectory.csv, t,z1,z2,v1,v2
_ROW = ["0.0004", "-5.8855231499830785e-05", "0.00013869306760721712", "-0.01", "0.02"]


def _row(v1="-0.01", sep=",", end="\n"):
    return sep.join(_ROW[:3] + [v1] + _ROW[4:]) + end


# data rows after the names row, and the v1 read from the first row, or
# None where the file is damaged
READER_CASES = [
    (_row("0x1p3"), None),  # a hex float, which strtod reads
    (_row("0x10"), None),
    (_row("nan(1)"), None),  # which strtod reads too
    (_row("nan()"), None),
    (_row("infinity"), np.inf),
    (_row("-Infinity"), -np.inf),
    (_row("INF"), np.inf),
    (_row("NaN"), np.nan),
    (_row("-nan"), np.nan),
    (_row("+1.5"), 1.5),
    (_row(".5"), 0.5),
    (_row("5."), 5.0),
    (_row("007"), 7.0),
    (_row("1E5"), 1e5),
    (_row("1e999"), np.inf),
    (_row("-1e-400"), -0.0),
    (_row("2.4703282292062328e-324"), 5e-324),  # rounds up to the smallest subnormal
    (_row(" 1.5"), None),
    (_row("1.5 "), None),
    (_row("\t1.5"), None),
    (_row("1.5\t"), None),
    (_row("1e"), None),
    (_row("e5"), None),
    (_row("."), None),
    (_row("-"), None),
    (_row("1.5.2"), None),
    (_row("1_000"), None),
    (_row("inf inity"), None),
    (_row("\u0661"), None),  # an Arabic-Indic digit one
    (_row(""), None),  # 1,,2
    (_row("1,,2"), None),
    (_row(end=",\n"), None),  # a trailing comma
    (_row() + "\n" + _row(), None),  # a blank line
    (_row(end="\r\n"), None),
    (_row() + "# a comment\n" + _row(), None),
    (_row(sep=", "), None),
    (",".join(_ROW[:4]) + "\n", None),  # a short row
    (",".join(_ROW + ["1.0"]) + "\n", None),  # a long row
    (_row() + _row(end=""), None),  # the last row cut short
    ("", None),  # no data rows
]


@functools.cache
def loadtxt_cases():
    """The writer test's values in rows of one to five columns: the column
    count, the text np.savetxt writes and the array np.loadtxt reads from it."""
    values = writer_inputs()
    cases = []
    for columns in ([values, values[::-1], np.roll(values, 11)], [values[:0], values[:0]],
                    [values[:1]], [values[i : i + 3000] for i in range(5)]):
        text = io.StringIO()
        np.savetxt(text, np.column_stack(columns), fmt="%.17g", delimiter=",")
        data = text.getvalue().encode()
        expected = (np.loadtxt(io.StringIO(text.getvalue()), delimiter=",", ndmin=2)
                    if data else np.empty((0, len(columns))))
        cases.append((len(columns), data, expected))
    return cases


@functools.cache
def reader_corpus():
    """Numbers as text at the exact reader's boundaries, in rows of five,
    and the array np.loadtxt reads from them."""
    tokens = []
    rng = random.Random(10)
    for n in (19, 20, 25):  # mantissas with a point anywhere, at any exponent
        for _ in range(1000):
            digits = str(rng.randrange(10**(n - 1), 10**n))
            point = rng.randrange(n + 1)
            tokens.append(f"{digits[:point]}.{digits[point:]}e{rng.randrange(-345, 330)}")
    tokens += ["00001.5000", "0.000000000000000000000000000001234", "-000.000", "0e0", "-0",
               "0.0e-99999", "000000000000000000000000001", "1.0000000000000000000000000",
               "100000000000000000000", "1234567890123456789000e-3", ".5", "5.", "-5.e3",
               "0.00000000000000000000012345678901234567890", "1e0000000000000000000000005"]
    for q in (-293, -292, -291, 341, 342, 343):  # the ends of the table of 10^q
        for w in ("1", "5", "1234567890123456789", "9999999999999999999"):
            tokens += [f"{w}e{q}", f"{w[0]}.{w[1:]}e{q + len(w) - 1}"]
    # subnormals, the least normal and the largest values, and overflow
    tokens += ["4.9e-324", "5e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",
               "1e-400", "2.2250738585072011e-308", "2.2250738585072014e-308",
               "2.225073858507201e-308", "1.7976931348623157e308", "1.7976931348623158e308",
               "1.7976931348623159e308", "1e400", "1e1000", "1e99999", "1e100001",
               "1e-1000", "1e-99999", "1e-100001", "1e-2147483649",
               f"1e{2**64 + 5}",  # an exponent that wraps to 5 in 64 bits
               # an exponent of 1.3e6 that 130001 digits after the point cannot offset
               "0." + "0" * 130000 + "1e1300000"]
    # exact binary ties: q = 0, q < 0, and k * 5^q of 54 bits times 2^q for q in [1, 23]
    tokens += ["9007199254740993", "9007199254740995", "4503599627370496.5",
               "4503599627370497.5"]
    tokens += [f"{(2**53 // 5**q + 1) | 1}e{q}" for q in range(1, 24)]
    tokens += ["-" + t for t in tokens if not t.startswith("-")]
    values = writer_inputs()  # either sign already
    tokens += [repr(float(v)) for v in values]
    tokens += ["%.*g" % (digits, v) for digits in range(1, 20) for v in values]
    tokens += ["0"] * (-len(tokens) % 5)
    text = "".join(",".join(tokens[i : i + 5]) + "\n" for i in range(0, len(tokens), 5))
    return text, np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)


class TestReaderParity:
    """_kernel.read_rows reads what np.loadtxt reads from the writer's text,
    and both backends accept and reject the same rows with the same error."""

    @pytest.mark.parametrize("backend", ["c", "c-without-int128", "python"])
    def test_matches_loadtxt(self, monkeypatch, tmp_path, backend, without_int128_cache):
        use_backend(monkeypatch, tmp_path, backend, without_int128_cache)
        for n_cols, data, expected in loadtxt_cases():
            # 126 bytes hold the longest 5-value row, 125 bytes and a newline;
            # small buffers split rows and numbers at every offset
            for buffer_bytes in (_kernel._READ_BUFFER_BYTES, 126, 127, 1009):
                monkeypatch.setattr(_kernel, "_READ_BUFFER_BYTES", buffer_bytes)
                got = _kernel.read_rows(io.BytesIO(data), n_cols)
                assert_same_values(got, expected)
                path = tmp_path / "rows.csv"
                path.write_bytes(b"a,b\n" + data)
                with open(path, "rb") as fh:
                    fh.readline()
                    assert_same_values(_kernel.read_rows(fh, n_cols), expected)
        assert _kernel.BACKEND == backend.split("-")[0]

    @pytest.mark.parametrize("backend", ["c", "c-without-int128", "python"])
    def test_token_corpus_matches_loadtxt(self, monkeypatch, tmp_path, backend,
                                          without_int128_cache):
        use_backend(monkeypatch, tmp_path, backend, without_int128_cache)
        text, expected = reader_corpus()
        assert_same_values(_kernel.read_rows(io.BytesIO(text.encode()), 5), expected)
        assert _kernel.BACKEND == backend.split("-")[0]

    def test_fast_path_decides_trajectory_tokens(self, paper_trap, ref_pair):
        if shutil.which(_kernel._CC) is None:
            pytest.skip(f"no C compiler '{_kernel._CC}' on PATH")
        _kernel._load()
        traj = run(paper_trap, ref_pair, gamma0=28.0, duration=2.0, seed=10)
        text = io.StringIO()
        dynamics.write_columns(text, ["t", "z1", "z2", "v1", "v2"],
                               [traj.t, traj.z1, traj.z2, traj.v1, traj.v2])
        rng = np.random.default_rng(4)
        forces = rng.standard_normal(2000) * 1e-17
        tokens = text.getvalue().replace("\n", ",").split(",")[5:-1]
        tokens += ["%.17g" % v for v in forces] + ["00001.5000", ".5", "5.", "-0"]
        value = ctypes.c_double()

        def fast(token):
            """The fast path's value for token, or None when it leaves it to strtod."""
            n = _kernel._lib.cotrap_parse_decimal(token.encode(), _kernel._POW10.ctypes.data,
                                                  ctypes.byref(value))
            assert n in (0, len(token)), token
            return value.value if n else None

        for token in tokens:
            got = fast(token)
            assert got is not None, token  # decided without strtod
            assert_same_values(np.array([got]), np.array([float(token)]))
        # an exact tie with 10^q exact, q in [0, 55], rounds half to even
        assert fast("9007199254740993") == 9007199254740992.0
        assert fast("360287970189641e2") == 36028797018964096.0  # 9007199254741025 * 4
        # an exact tie with q < 0 and a subnormal are left to strtod
        for token in ("4503599627370496.5", "4.9e-324", "2.2250738585072011e-308"):
            assert fast(token) is None, token
        # and so are tokens it does not read whole, too many digits and q off the table
        for token in ("1.5.2", "1e", "1e+", "inf", "-nan", ".", "-", "12345678901234567890",
                      "1e-293", "1e343", "1e309"):
            assert fast(token) is None, token

    def test_tokens_and_layouts(self, monkeypatch, tmp_path):
        n = 1
        traj = Trajectory(sample_rate=2500.0, z1=np.zeros(n), z2=np.ones(n), v1=np.zeros(n),
                          v2=np.zeros(n), y=None, forces=np.zeros((0, n)), meta={"seed": 1})
        traj.to_csv(tmp_path / "good.csv")
        lines = (tmp_path / "good.csv").read_bytes().splitlines(keepends=True)
        head = b"".join(lines[:-1])  # the # lines and the names row
        for i, (rows, v1) in enumerate(READER_CASES):
            path = tmp_path / f"case{i}.csv"
            path.write_bytes(head + rows.encode())
            c, python = read_on_both_backends(monkeypatch, lambda: Trajectory.from_csv(path))
            if v1 is None:
                assert isinstance(c, str) and "damaged trajectory file" in c, (rows, c)
                assert python == c, rows
                continue
            assert isinstance(c, Trajectory), (rows, c)
            expected = np.array([float(x) for x in _ROW[1:]])
            expected[2] = v1
            for back in (c, python):
                assert_same_values(np.array([back.z1[0], back.z2[0], back.v1[0], back.v2[0]]),
                                   expected)

    def test_bad_column_count_raises(self, monkeypatch):
        for n_cols in (0, -1):
            c, python = read_on_both_backends(
                monkeypatch, lambda: _kernel.read_rows(io.BytesIO(b"1.5\n"), n_cols))
            assert c == python == f"read_rows: n_cols must be at least 1, got {n_cols}"

    def test_row_longer_than_the_buffer(self, monkeypatch):
        # a row fits when it is at most _READ_BUFFER_BYTES with its newline;
        # leading zeros pad one to any length
        monkeypatch.setattr(_kernel, "_READ_BUFFER_BYTES", 64)
        good = "1.5,2.5,3.5\n"

        def row(length, end="\n"):
            return "0" * (length - 11) + "1.5,2.5,3.5" + end

        cases = [
            (good + row(63) + good, 3),
            (good + row(64) + good, "data row 2 does not fit in 64 bytes"),
            (good + row(200), "data row 2 does not fit in 64 bytes"),
            (good + row(63, end=""), "data row 2 has no newline: the file is cut short"),
            (good + row(64, end=""), "data row 2 does not fit in 64 bytes"),
            (row(10000) + "x", "data row 1 does not fit in 64 bytes"),
            ("1.5,2.5\n" + row(200), "data row 1 is not 3 comma-separated numbers"),
        ]
        for text, outcome in cases:
            c, python = read_on_both_backends(
                monkeypatch, lambda: _kernel.read_rows(io.BytesIO(text.encode()), 3))
            if isinstance(outcome, str):
                assert c == python == outcome, text
            else:
                assert c.shape == (outcome, 3)
                assert_same_values(python, c)
                assert np.all(c == [1.5, 2.5, 3.5])


class TestOfflineControllerPath:
    """Controller.process and detect() replay what the kernel ran in the loop."""

    @pytest.mark.parametrize("name", ["damper", "saturation", "squeezer", "damper+squeezer"])
    def test_process_replays_the_loop_forces(self, paper_trap, name):
        controllers = controller_sets(paper_trap)[name]
        traj = closed_loop(paper_trap, controllers)
        for c, cfg in enumerate(controllers):
            ctrl = Controller(cfg)
            # the force computed from sample n is held over sample n + 1
            assert np.array_equal(ctrl.process(traj.y)[:-1], traj.forces[c, 1:])
            assert traj.forces[c, 0] == 0.0
            assert ctrl.saturation_count == traj.meta["saturation_counts"][c]
        if name == "saturation":
            assert traj.meta["saturation_counts"][0] > 0

    def test_detect_reproduces_the_in_loop_record(self, paper_trap):
        traj = closed_loop(paper_trap, controller_sets(paper_trap)["damper"])
        assert np.array_equal(detect(traj.z1, DETECTION), traj.y)

    def test_block_boundaries_leave_the_run_unchanged(self, paper_trap, monkeypatch):
        controllers = controller_sets(paper_trap)["damper+squeezer"]
        for store_every in (1, 2):
            whole = closed_loop(paper_trap, controllers, store_every=store_every)
            with monkeypatch.context() as m:
                m.setattr(dynamics, "_BLOCK_SAMPLES", 333)
                split = closed_loop(paper_trap, controllers, store_every=store_every)
            assert_same_run(whole, split)

    def test_noise_byte_budget_splits_the_blocks_only(self, paper_trap, monkeypatch):
        controllers = controller_sets(paper_trap)["damper+squeezer"]
        whole = closed_loop(paper_trap, controllers, store_every=2)
        n_samples, n_sub = 2 * whole.z1.shape[0], whole.meta["n_substeps"]
        run_block = _kernel.run_block
        # a budget short of 333 samples, and one short of a single sample
        for budget, samples in ((16 * n_sub * 333 + 15, 333), (1, 1)):
            blocks = []
            with monkeypatch.context() as m:
                m.setattr(dynamics, "_BLOCK_BYTES", budget)
                m.setattr(_kernel, "run_block",
                          lambda *a: blocks.append(a[16].shape[0]) or run_block(*a))
                split = closed_loop(paper_trap, controllers, store_every=2)
            assert max(blocks) == samples and sum(blocks) == n_samples
            assert_same_run(whole, split)


class TestFaultsAndValidation:
    def test_crossing_fault(self, paper_trap):
        # fire the particles at each other hard enough to cross
        p1, p2 = make_pair(200, 200)
        ms = mode_structure(paper_trap, p1, p2)
        v = 0.5 * ms.z_sep * ms.omega_minus
        noise = NoiseModel(t0=0.0, seed=13)
        with pytest.raises(IntegrationFault, match="crossed") as exc:
            simulate(paper_trap, p1, p2, noise, duration=5.0, dt=DT,
                     sample_rate=FS,
                     initial_state=(ms.z1_eq, ms.z2_eq, 40 * v, -40 * v))
        assert exc.value.time > 0

    def test_dt_too_large_rejected(self, paper_trap, ref_pair):
        with pytest.raises(ConfigError, match="dt"):
            run(paper_trap, ref_pair, dt=1.0 / (FS * 2), sample_rate=FS)

    def test_dt_must_subdivide_sample_period(self, paper_trap, ref_pair):
        with pytest.raises(ConfigError, match="subdivide"):
            run(paper_trap, ref_pair, dt=3.07e-5)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ConfigError):
            NoiseModel(t0=-1.0, seed=0)

    def test_initial_crossing_rejected(self, paper_trap, ref_pair):
        with pytest.raises(ConfigError, match="z2 > z1"):
            run(paper_trap, ref_pair, initial_state=(1e-4, -1e-4, 0.0, 0.0))

    def test_detection_rate_must_match(self, paper_trap, ref_pair):
        det = DetectionModel(s_nn=1e-15, sample_rate=2 * FS, seed=0)
        with pytest.raises(ConfigError, match="sample_rate"):
            run(paper_trap, ref_pair, duration=1.0, detection=det)


class TestControllerLocality:
    def test_particle2_untouched_without_coupling(self, paper_trap):
        # with the Coulomb term disabled, a controller acting on particle 1
        # must leave particle 2's trajectory exactly unchanged
        p1, p2 = make_pair(2135, 906, gamma0=28.0)
        ms = mode_structure(paper_trap, p1, p2)
        cfg = design_controller("velocity_damper", ms, "plus", 100.0, FS, p1.mass)
        noise = NoiseModel(t0=293.0, seed=14)
        kw = dict(duration=5.0, dt=DT, sample_rate=FS, coulomb_coupling=False)
        off = simulate(paper_trap, p1, p2, noise, [], **kw)
        on = simulate(paper_trap, p1, p2, noise, [cfg], **kw)
        assert np.array_equal(on.z2, off.z2)
        assert np.array_equal(on.v2, off.v2)
        assert not np.array_equal(on.z1, off.z1)
