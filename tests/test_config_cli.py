"""Configuration validation, CLI subcommands, exit codes, reproducibility."""

import concurrent.futures
import csv
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cotrap import _kernel, cli
from cotrap import report as report_module
from cotrap.cli import main
from cotrap.config import parse_config, serialize_config
from cotrap.dynamics import Trajectory
from cotrap.errors import AnalysisError, ConfigError, IntegrationFault
from cotrap.report import _require_finite

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def base_config(**overrides):
    cfg = {
        "trap": {
            "v0_volts": 120.0,
            "u0_volts": 49.0,
            "omega_rf_rad_per_s": 2 * np.pi * 1e4,
            "eta": 0.82,
            "kappa": 0.071,
            "r0_meters": 1.1e-3,
            "z0_meters": 3.5e-3,
        },
        "particles": [
            {"charge_e": 2135, "radius_meters": 1.935e-7,
             "density_kg_per_m3": 1850.0, "gamma0_rad_per_s": 28.0},
            {"charge_e": 906, "radius_meters": 1.935e-7,
             "density_kg_per_m3": 1850.0, "gamma0_rad_per_s": 28.0},
        ],
        "noise": {"t0_kelvin": 293.0},
        "run": {"duration_seconds": 8.0, "sample_rate_hz": 2500.0,
                "substeps_per_sample": 10, "seed": 4242},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestParsing:
    def test_unknown_key_rejected(self):
        cfg = base_config()
        cfg["trap"]["voltage"] = 3.0
        with pytest.raises(ConfigError, match="unknown key 'voltage'"):
            parse_config(cfg)

    def test_missing_key_named(self):
        cfg = base_config()
        del cfg["trap"]["u0_volts"]
        with pytest.raises(ConfigError, match="'u0_volts'"):
            parse_config(cfg)

    def test_missing_section_named(self):
        cfg = base_config()
        del cfg["noise"]
        with pytest.raises(ConfigError, match="'noise'"):
            parse_config(cfg)

    def test_round_trip_identity(self):
        cfg = parse_config(base_config())
        text = serialize_config(cfg)
        again = parse_config(json.loads(text))
        assert serialize_config(again) == text

    def test_round_trip_identity_full_config(self):
        raw = base_config()
        raw["detection"] = {"s_nn_m2_per_hz": 3e-15}
        raw["noise"]["force_noise_psd_n2_per_hz"] = [1e-40, 2e-40]
        raw["controllers"] = [
            {"kind": "velocity_damper", "target_mode": "plus",
             "gamma_fb_rad_per_s": 10.0, "order": 2, "delay_samples": 4},
            {"kind": "parametric_squeezer", "target_mode": "minus",
             "gain_s2": 1e4, "drive_phase_rad": 0.4, "notch": False},
        ]
        raw["analysis"] = {"segment_seconds": 4.0, "overlap": 0.25}
        raw["sweep"] = {"parameter": "noise.t0_kelvin", "values": [10.0, 20.0]}
        cfg = parse_config(raw)
        text = serialize_config(cfg)
        again = parse_config(json.loads(text))
        assert serialize_config(again) == text
        assert cfg.noise.force_noise_psd == (1e-40, 2e-40)
        assert cfg.controllers[1]["notch"] is False

    def test_mass_from_radius_density(self):
        cfg = parse_config(base_config())
        assert cfg.particles[0].mass == pytest.approx(5.614e-17, rel=1e-3)

    def test_pressure_maps_to_gamma(self):
        raw = base_config()
        del raw["particles"][0]["gamma0_rad_per_s"]
        raw["particles"][0]["pressure_mbar"] = 1.3e-2
        cfg = parse_config(raw)
        assert cfg.particles[0].gamma0 == pytest.approx(27.8, rel=0.01)

    def test_seed_override_and_derived_seeds(self):
        cfg_a = parse_config(base_config(), seed_override=77)
        cfg_b = parse_config(base_config(), seed_override=77)
        assert cfg_a.run.seed == 77
        assert cfg_a.noise.seed == cfg_b.noise.seed

    def test_controller_gain_key_by_kind(self):
        raw = base_config()
        raw["controllers"] = [{"kind": "velocity_damper", "target_mode": "plus",
                               "gain_s2": 1.0}]
        with pytest.raises(ConfigError, match="gain_s2"):
            parse_config(raw)
        raw["controllers"] = [{"kind": "parametric_squeezer", "target_mode": "plus",
                               "gain_s2": 1.0}]
        parse_config(raw)

    def test_two_particles_required(self):
        raw = base_config()
        raw["particles"] = raw["particles"][:1]
        with pytest.raises(ConfigError, match="exactly two"):
            parse_config(raw)

    def test_shipped_example_configs_are_valid(self):
        paths = sorted(CONFIG_DIR.glob("*.json"))
        assert len(paths) >= 3
        for path in paths:
            cfg = parse_config(json.loads(path.read_text()))
            assert len(cfg.particles) == 2


class TestCliModes:
    def test_modes_reports_sqrt3_for_equal_charges(self, tmp_path, capsys):
        raw = base_config()
        raw["particles"][1]["charge_e"] = 2135
        path = write_config(tmp_path, raw)
        assert main(["modes", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        record = dict(line.split(" = ") for line in out.strip().splitlines())
        ratio = float(record["f_minus_hz"]) / float(record["f_plus_hz"])
        assert ratio == pytest.approx(np.sqrt(3.0), rel=1e-9)

    def test_modes_reference_separation(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["modes", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        record = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(record["z_sep_m"]) == pytest.approx(198e-6, abs=2e-6)

    def test_config_error_exit_code(self, tmp_path, capsys):
        # (section, None for the top level; key; value; the names the error
        # must quote, when it is not the key alone)
        sweep = {"parameter": "noise.t0_kelvin", "values": [1.0, 2.0]}
        particles = base_config()["particles"]
        damper = {"kind": "velocity_damper", "target_mode": "plus", "gamma_fb_rad_per_s": 1.0}
        squeezer = {"kind": "parametric_squeezer", "target_mode": "plus", "gain_s2": 1.0}
        cases = [
            ("trap", "bogus_key", 1.0),
            ("run", "duration_seconds", float("nan")),
            ("noise", "t0_kelvin", float("inf")),
            ("trap", "u0_volts", float("-inf")),
            ("run", "coulomb_coupling", "false"),
            ("analysis", "fit_mixing_ratios", 0),
            ("analysis", "window", "hann"),  # an unknown key: Hann is the only window
            ("noise", "force_noise_psd_n2_per_hz", ["abc", 0]),
            ("noise", "force_noise_psd_n2_per_hz", [float("nan"), 0]),
            (None, "trap", 5),
            (None, "controllers", 5),
            (None, "analysis", 0),
            ("particles", 0, 3, "particles[0]"),
            ("run", "seed", -1),
            ("run", "store_every", 0),
            ("analysis", "overlap", 1.5),
            ("analysis", "segment_seconds", -1),
            (None, "sweep", dict(sweep, values=[1.0, float("nan")]), "values"),
            (None, "sweep", dict(sweep, values=[float("inf")]), "values"),
            (None, "sweep", dict(sweep, values=[float("-inf")]), "values"),
            # out of range, checked by the key's bound before any domain object
            ("trap", "u0_volts", -1),
            ("trap", "eta", 2),
            ("trap", "r0_meters", 0),
            ("noise", "t0_kelvin", -1),
            ("detection", "s_nn_m2_per_hz", -1),
            ("run", "substeps_per_sample", 0),
            ("run", "sample_rate_hz", -1),
            (None, "particles", [dict(particles[0], charge_e=0), particles[1]], "charge_e"),
            # each particle is in float range, the pair theory is not
            (None, "particles", [dict(particles[0], radius_meters=1e-57), particles[1]],
             "particles[0]", "particles[1]", "radius_meters"),
            (None, "controllers", [dict(damper, gamma_fb_rad_per_s=-1)], "gamma_fb_rad_per_s"),
            (None, "controllers", [dict(damper, bandwidth_rad_per_s=-3)], "bandwidth_rad_per_s"),
            (None, "controllers", [dict(damper, force_limit_newtons=0)], "force_limit_newtons"),
            (None, "controllers", [dict(damper, notch_bandwidth_rad_per_s=-1)],
             "notch_bandwidth_rad_per_s", "controllers[0]"),
            (None, "controllers", [dict(damper, notch=False, notch_bandwidth_rad_per_s=-1)],
             "notch_bandwidth_rad_per_s", "controllers[0]"),
            # a damper has no parametric drive
            (None, "controllers", [dict(damper, drive_phase_rad=0.4)],
             "drive_phase_rad", "controllers[0]"),
            (None, "controllers", [dict(damper, drive_freq_rad_per_s=100.0)],
             "drive_freq_rad_per_s", "controllers[0]"),
            # above the Nyquist rate pi * 2500 Hz
            (None, "controllers", [dict(squeezer, drive_freq_rad_per_s=1e9)],
             "drive_freq_rad_per_s", "controllers[0]"),
        ]
        for section, key, value, *names in cases:
            raw = base_config()
            (raw if section is None else raw.setdefault(section, {}))[key] = value
            # json.dumps writes NaN and Infinity, which json.load reads back
            path = write_config(tmp_path, raw)
            assert main(["modes", "--config", str(path)]) == 2, (key, value)
            err = capsys.readouterr().err
            for quoted in names or [key]:
                assert f"'{quoted}'" in err, (key, value)
        for path in (tmp_path / "nonexistent.json", tmp_path):
            assert main(["modes", "--config", str(path)]) == 2, path
            assert f"{path}: cannot read configuration" in capsys.readouterr().err

    def test_particle_out_of_float_range(self, tmp_path, capsys):
        raw = json.loads((CONFIG_DIR / "characterised_pair.json").read_text())
        raw["particles"][0]["radius_meters"] = 1e-100
        path = write_config(tmp_path, raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            assert main(["modes", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'particles[0]'" in err and "'radius_meters'" in err, err

    def test_instability_exit_code(self, tmp_path, capsys):
        raw = base_config()
        raw["particles"][0]["charge_e"] = -2135
        raw["particles"][1]["charge_e"] = -906
        path = write_config(tmp_path, raw)
        assert main(["modes", "--config", str(path)]) == 3


def simulate_capturing(monkeypatch, path, out):
    """Run `cotrap simulate` and return the in-memory ExperimentResult."""
    captured = []
    write = cli._write_result

    def capture(outdir, result):
        captured.append(result)
        write(outdir, result)

    monkeypatch.setattr(cli, "_write_result", capture)
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    return captured[0]


def assert_numeric_csvs_exact(out, result):
    """Every PSD and quadrature CSV loads back bit for bit."""
    for name, psd in result.psds.items():
        f, v = np.loadtxt(out / f"psd_{name}.csv", delimiter=",", skiprows=1, unpack=True)
        assert np.array_equal(f, psd.frequencies) and np.array_equal(v, psd.values), name
    for name, quads in result.quadratures.items():
        for suffix, quad in zip(("", "_reference"), quads):
            t, x, y = np.loadtxt(out / f"quadratures_{name}{suffix}.csv", delimiter=",",
                                 skiprows=1, unpack=True)
            assert np.array_equal(t, quad.t), name + suffix
            assert np.array_equal(x, quad.x) and np.array_equal(y, quad.y), name + suffix


# argv: a compiler command to build the kernel with and a cache directory
# ("-" for both: the usual ones), then the CLI arguments
_BACKEND_SCRIPT = """
import sys
from pathlib import Path
from cotrap import _kernel
from cotrap.cli import main
if sys.argv[1] != "-":
    _kernel._CC, _kernel._CACHE_DIR = sys.argv[1], Path(sys.argv[2])
sys.exit(main(sys.argv[3:]))
"""


def run_cli(*args, cc="-", cache="-"):
    env = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src"))
    return subprocess.run([sys.executable, "-c", _BACKEND_SCRIPT, cc, str(cache), *args],
                          env=env, capture_output=True, text=True)


class TestCliSimulate:
    def test_python_fallback_says_so_on_stderr(self, tmp_path):
        # the squeezer runs the kernel, the filters and the writers; only
        # stderr tells the Python fallback from the C build
        if shutil.which(_kernel._CC) is None:
            pytest.skip(f"no C compiler '{_kernel._CC}' on PATH")
        raw = json.loads((CONFIG_DIR / "squeezing.json").read_text())
        raw["run"]["duration_seconds"] = 2.0
        path = write_config(tmp_path, raw)
        missing = str(tmp_path / "no-such-cc")
        outs = {"c": tmp_path / "c", "python": tmp_path / "python"}
        built = run_cli("simulate", "--config", str(path), "--out", str(outs["c"]))
        fallback = run_cli("simulate", "--config", str(path), "--out", str(outs["python"]),
                           cc=missing, cache=tmp_path / "cache")
        assert built.returncode == 0 and fallback.returncode == 0, fallback.stderr
        assert built.stderr == ""
        lines = fallback.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("note: the C kernel did not load")
        assert missing in lines[0]
        assert fallback.stdout.replace(str(outs["python"]), str(outs["c"])) == built.stdout
        names = sorted(p.name for p in outs["c"].iterdir())
        assert names == sorted(p.name for p in outs["python"].iterdir())
        assert "quadratures_particle1.csv" in names
        for name in names:
            assert (outs["c"] / name).read_bytes() == (outs["python"] / name).read_bytes(), name

    def test_outputs_and_reproducibility(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["simulate", "--config", str(path), "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", str(path), "--out", str(out_b)]) == 0
        for name in ("trajectory.csv", "report.json", "report.txt",
                     "resolved_config.json"):
            assert (out_a / name).exists()
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        report = json.loads((out_a / "report.json").read_text())
        t_plus = report["measured"]["t_mode_plus_kelvin"]
        assert abs(t_plus["value"] - 293.0) < 5 * t_plus["sigma"]

    def test_seed_override_changes_output(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["simulate", "--config", str(path), "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", str(path), "--out", str(out_b),
                     "--seed", "999"]) == 0
        assert (out_a / "trajectory.csv").read_bytes() != (out_b / "trajectory.csv").read_bytes()

    def test_damper_run_report(self, tmp_path, monkeypatch):
        raw = base_config()
        raw["run"]["duration_seconds"] = 30.0
        raw["controllers"] = [{
            "kind": "velocity_damper", "target_mode": "plus",
            "gamma_fb_rad_per_s": 140.0, "bandwidth_rad_per_s": 1000.0,
        }]
        path = write_config(tmp_path, raw)
        out = tmp_path / "run"
        result = simulate_capturing(monkeypatch, path, out)
        report = json.loads((out / "report.json").read_text())
        t_plus = report["measured"]["t_mode_plus_kelvin"]["value"]
        t_minus = report["measured"]["t_mode_minus_kelvin"]["value"]
        assert t_plus < 100.0
        assert t_minus == pytest.approx(293.0, rel=0.25)
        assert report["controllers"][0]["kind"] == "velocity_damper"
        assert report["counters"]["saturation"] == [0]
        assert (out / "psd_in_loop.csv").exists()
        assert_numeric_csvs_exact(out, result)

    def test_squeezer_run_reports_threshold_flag(self, tmp_path, monkeypatch):
        raw = base_config()
        raw["run"]["duration_seconds"] = 20.0
        raw["run"]["substeps_per_sample"] = 12
        raw["controllers"] = [{
            "kind": "parametric_squeezer", "target_mode": "plus",
            "gain_s2": 2.4e5,
        }]
        path = write_config(tmp_path, raw)
        out = tmp_path / "run"
        result = simulate_capturing(monkeypatch, path, out)
        report = json.loads((out / "report.json").read_text())
        ctrl = report["controllers"][0]
        # gain over threshold 2*gamma0*omega_plus = 2*28*1495.5 = 8.37e4
        assert ctrl["above_threshold"] is True
        assert ctrl["g"]["value"] == pytest.approx(2.4e5 / (2 * 28.0 * 1495.53), rel=1e-3)
        assert "squeezing" in report
        assert (out / "quadratures_particle1.csv").exists()
        assert set(result.quadratures) == {"particle1", "particle2"}
        assert_numeric_csvs_exact(out, result)

    def test_fault_exit_code(self, tmp_path, capsys):
        raw = base_config()
        # an enormous squeezer gain far above threshold blows the mode up
        raw["run"]["duration_seconds"] = 60.0
        raw["run"]["substeps_per_sample"] = 12
        raw["controllers"] = [{
            "kind": "parametric_squeezer", "target_mode": "plus",
            "gain_s2": 6.0e6,
        }]
        path = write_config(tmp_path, raw)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 3
        assert "fault" in capsys.readouterr().err

    def test_runaway_estimate_exit_code(self, tmp_path, capsys):
        # the loop antidamps: the kernel stops the run at the first stored
        # sample beyond the trap scale z0 + |z2_eq|, before any overflow, so
        # no numpy warning is printed and no report is written
        raw = json.loads((CONFIG_DIR / "cooling_sweep.json").read_text())
        del raw["sweep"]
        raw["controllers"][0]["gamma_fb_rad_per_s"] = 20000.0
        raw["run"]["duration_seconds"] = 0.3
        path = write_config(tmp_path, raw)
        out = tmp_path / "x"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == ("runtime fault: integration fault at t = 0.0036 s: "
                                           "a particle left the trap (|z| > 0.003639 m)\n")
        assert [str(w.message) for w in caught] == []
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("seconds", [0.4, 0.4236])
    def test_too_short_to_settle_exit_code(self, tmp_path, capsys, seconds):
        # the demodulation filter leaves no steady quadrature sample of the
        # 0.4 s run and one of the 0.4236 s run, whose variance is 0; the
        # run's own files are written before that analysis, and analyze of
        # the trajectory fails the same way
        raw = json.loads((CONFIG_DIR / "squeezing.json").read_text())
        raw["run"]["duration_seconds"] = seconds
        path = write_config(tmp_path, raw)
        out, an_out = tmp_path / "x", tmp_path / "an"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert main(["analyze", str(out / "trajectory.csv"), "--out", str(an_out)]) == 3
        assert err == "runtime fault: too few quadrature samples after filter settling\n"
        assert capsys.readouterr().err == err
        assert [str(w.message) for w in caught] == []
        assert {p.name for p in out.iterdir()} == _SIMULATE_ONLY
        assert list(an_out.iterdir()) == []

    def test_only_estimates_must_be_finite(self):
        # an exact entry may be infinite: g = G / G_th is inf when gamma0 = 0
        _require_finite({"controllers": [{"g": {"value": math.inf, "exact": True}}]})
        with pytest.raises(AnalysisError, match=r"'controllers\[0\]\.t' is not finite"):
            _require_finite({"controllers": [{"t": {"value": 1.0, "sigma": math.nan}}]})

    def test_huge_duration_exit_code(self, tmp_path, capsys):
        # the sample count is checked before the output arrays are allocated;
        # 1e306 s makes it infinite, 1e300 s exceeds numpy's dimension limit
        for duration, needed in ((1e306, "inf"), (1e300, "1e+305")):
            raw = base_config()
            raw["run"]["duration_seconds"] = duration
            path = write_config(tmp_path, raw)
            assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
            assert f"duration {duration!r} s needs {needed} bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("name, key, value, seconds, quoted", [
        # the thermal noise block: 50 samples x 1e12 substeps
        ("squeezing.json", ("run", "substeps_per_sample"), 10**12, 0.01,
         ["substeps_per_sample"]),
        # a near-zero mode frequency asks for a delay line of 3.8e18 samples
        ("cooling_sweep.json", ("particles", 0, "radius_meters"), 193500, 0.3,
         ["controllers[0]", "delay_samples", "radius_meters"]),
        # a finite mass whose square is beyond the float range
        ("squeezing.json", ("particles", 0, "density_kg_per_m3"), 1.85e303, 0.3,
         ["particles[0]", "density_kg_per_m3"]),
        ("characterised_pair.json", ("particles", 0, "density_kg_per_m3"), 1.85e303, 0.3,
         ["particles[0]", "density_kg_per_m3"]),
        # nHz modes: the filter chain passes nothing at the carrier
        ("squeezing.json", ("trap", "z0_meters"), 3.5e9, 0.3, ["controllers[0]", "z0_meters"]),
        ("cooling_sweep.json", ("trap", "z0_meters"), 3.5e9, 0.3, ["controllers[0]", "z0_meters"]),
        # 1e-45 rad/s modes: the chain's response is 0/0, once a raw ValueError
        ("cooling_sweep.json", ("trap", "kappa"), 1.5e-96, 0.3, ["controllers[0]", "kappa"]),
        # a section so narrow that its poles round onto the unit circle; the
        # bandpass once divided by 0 in numpy and blamed the mode keys
        ("squeezing.json", ("controllers", 0, "bandwidth_rad_per_s"), 1e-300, 2.0,
         ["controllers[0]", "bandwidth_rad_per_s"]),
        ("squeezing.json", ("controllers", 0, "notch_bandwidth_rad_per_s"), 1e-300, 2.0,
         ["controllers[0]", "notch_bandwidth_rad_per_s"]),
    ])
    def test_out_of_range_at_run_time_exit_code(self, tmp_path, capsys, name, key, value,
                                                 seconds, quoted):
        # each value parses, and fails only when the run is set up
        raw = json.loads((CONFIG_DIR / name).read_text())
        raw["run"]["duration_seconds"] = seconds
        node = raw
        for part in key[:-1]:
            node = node[part]
        node[key[-1]] = value
        path = write_config(tmp_path, raw)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 2
        # nHz modes overlap the bandpass, but a rejected chain does not warn,
        # and numpy does not warn of the 0/0 either
        assert not [str(w.message) for w in caught]
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err
        for key_name in quoted:
            assert f"'{key_name}'" in err, key_name


class TestCliSweep:
    def test_sweep_aggregation(self, tmp_path):
        raw = base_config()
        raw["run"]["duration_seconds"] = 6.0
        raw["controllers"] = [{
            "kind": "velocity_damper", "target_mode": "plus",
            "gamma_fb_rad_per_s": 0.0, "bandwidth_rad_per_s": 500.0,
        }]
        raw["detection"] = {"s_nn_m2_per_hz": 1e-20}
        raw["sweep"] = {"parameter": "controllers.0.gamma_fb_rad_per_s",
                        "values": [0.0, 56.0, 280.0]}
        path = write_config(tmp_path, raw)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        temps = [float(r["t_mode_plus_kelvin"]) for r in rows]
        assert temps[0] > temps[1] > temps[2]
        assert all(r["status"] == "'ok'" for r in rows)
        assert (out / "run_000" / "report.json").exists()
        # common random numbers: every point runs on the same seeds
        cfg = parse_config(raw)
        for i in range(3):
            resolved = json.loads((out / f"run_{i:03d}" / "resolved_config.json").read_text())
            assert [resolved[s]["seed"] for s in ("run", "noise", "detection")] == [
                4242, cfg.noise.seed, cfg.detection.seed]

    def test_partial_failure_exit_code(self, tmp_path):
        raw = base_config()
        raw["run"]["duration_seconds"] = 4.0
        raw["controllers"] = [{
            "kind": "velocity_damper", "target_mode": "plus",
            "gamma_fb_rad_per_s": 1.0,
        }]
        # a negative gain fails config validation inside that one run
        raw["sweep"] = {"parameter": "controllers.0.gamma_fb_rad_per_s",
                        "values": [10.0, -5.0]}
        path = write_config(tmp_path, raw)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 4
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert "'failed'" in lines[2]

    def test_failed_row_reads_back_as_csv(self, tmp_path):
        # an error message holding commas stays one quoted cell
        raw = base_config()
        raw["run"]["duration_seconds"] = 1.0
        raw["sweep"] = {"parameter": "trap.eta", "values": [0.82, 2.0]}
        path = write_config(tmp_path, raw)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 4
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert None not in rows[1]
        assert rows[1]["status"] == "'failed'"
        assert rows[1]["error"] == repr(
            "ConfigError: key 'eta' in section 'trap' must be in (0, 1]")

    def test_bad_parameter_path(self, tmp_path, capsys):
        # a path that leads nowhere is one configuration error naming
        # sweep.parameter and the bad step, before any point runs
        for parameter, step in (("trap.nonexistent", "'nonexistent', which 'trap'"),
                                ("controllers.3.gamma_fb_rad_per_s", "'3', but 'controllers'"),
                                ("particles.5.charge_e", "'5', but 'particles'"),
                                ("particles.x.charge_e", "'x', but 'particles'"),
                                ("trap.v0_volts.x", "'x', which 'trap.v0_volts'"),
                                ("nosection.x", "'nosection', which 'the top level'"),
                                ("particles.0", "'particles.0' is not a number"),
                                ("controllers.0.kind", "'controllers.0.kind' is not a number")):
            raw = base_config()
            raw["controllers"] = [{"kind": "velocity_damper", "target_mode": "plus",
                                   "gamma_fb_rad_per_s": 1.0}]
            raw["sweep"] = {"parameter": parameter, "values": [1.0, 2.0]}
            path = write_config(tmp_path, raw)
            out = tmp_path / "out"
            assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2, parameter
            err = capsys.readouterr().err
            assert err.startswith("configuration error: key 'parameter' in section 'sweep'")
            assert step in err and err.count("\n") == 1, err
            assert not out.exists()

    def test_parameter_path_into_a_list(self, tmp_path):
        # an index step, from the end too, reaches a particle's density
        raw = base_config()
        raw["run"]["duration_seconds"] = 1.0
        raw["sweep"] = {"parameter": "particles.-1.density_kg_per_m3", "values": [1900.0]}
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        resolved = json.loads((out / "run_000" / "resolved_config.json").read_text())
        assert resolved["particles"][1]["density_kg_per_m3"] == 1900.0


    def test_faulting_point_same_for_any_worker_count(self, tmp_path):
        # the gain of 20000 rad/s antidamps until a particle leaves the trap
        # at t = 0.0036 s; that point's error crosses back from its worker
        # process, and the other points' rows are kept
        raw = json.loads((CONFIG_DIR / "cooling_sweep.json").read_text())
        raw["run"]["duration_seconds"] = 1.0
        raw["sweep"]["values"] = [20.0, 20000.0, 60.0]
        path = write_config(tmp_path, raw)
        outs = [tmp_path / f"workers{w}" for w in (1, 2)]
        for w, out in zip((1, 2), outs):
            assert main(["sweep", "--config", str(path), "--seed", "7", "--workers", str(w),
                         "--out", str(out)]) == 4
        with open(outs[0] / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["'ok'", "'failed'", "'ok'"]
        assert rows[1]["error"] == ("'IntegrationFault: integration fault at t = 0.0036 s: "
                                    "a particle left the trap (|z| > 0.003639 m)'")
        files = [sorted(p.relative_to(out) for p in out.rglob("*")) for out in outs]
        assert files[0] == files[1] and len(files[0]) > 1
        for name in files[0]:
            if (outs[0] / name).is_file():
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_crashed_point_keeps_its_traceback(self, tmp_path, monkeypatch, capsys):
        # a bug in one point, an exception that is not a CotrapError: its
        # traceback, the worker's frames included, goes to that point's
        # directory and to stderr, and the other points run as before.
        # Forked workers inherit the patched run_experiment.
        run_experiment = cli.run_experiment

        def buggy_at_2_kelvin(cfg, traj):
            if cfg.noise.t0 == 2.0:
                raise RuntimeError("a bug at 2 K")
            return run_experiment(cfg, traj)

        pool = concurrent.futures.ProcessPoolExecutor
        fork = multiprocessing.get_context("fork")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda max_workers: pool(max_workers, mp_context=fork))
        monkeypatch.setattr(cli, "run_experiment", buggy_at_2_kelvin)
        raw = base_config()
        raw["run"]["duration_seconds"] = 1.0
        raw["sweep"] = {"parameter": "noise.t0_kelvin", "values": [1.0, 2.0, 3.0]}
        path = write_config(tmp_path, raw)
        outs = [tmp_path / f"workers{w}" for w in (1, 2)]
        for w, out in zip((1, 2), outs):
            assert main(["sweep", "--config", str(path), "--workers", str(w),
                         "--out", str(out)]) == 4
            with open(out / "sweep.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert [r["status"] for r in rows] == ["'ok'", "'failed'", "'ok'"]
            assert rows[1]["error"] == "'RuntimeError: a bug at 2 K'"
            text = (out / "run_001" / "traceback.txt").read_text()
            assert "in buggy_at_2_kelvin" in text and text.endswith("RuntimeError: a bug at 2 K\n")
            assert text in capsys.readouterr().err
            # the run's own files are written before its analysis
            assert sorted(p.name for p in (out / "run_001").iterdir()) == sorted(
                _SIMULATE_ONLY | {"traceback.txt"})
            for ok in ("run_000", "run_002"):
                assert (out / ok / "report.json").exists()
                assert not (out / ok / "traceback.txt").exists()
        # the parent's frames of a traceback depend on when the point ended
        files = [sorted(p.relative_to(out) for p in out.rglob("*")) for out in outs]
        assert files[0] == files[1]
        for name in files[0]:
            if (outs[0] / name).is_file() and name.name != "traceback.txt":
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_interrupted_sweep_keeps_finished_rows(self, tmp_path, monkeypatch):
        # sweep.csv is rewritten after every point, so an interrupt while
        # the third row is collected leaves the first two
        sweep_point = cli._sweep_point
        calls = []

        def interrupted_at_third(*args):
            calls.append(args)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return sweep_point(*args)

        monkeypatch.setattr(cli, "_sweep_point", interrupted_at_third)
        raw = base_config()
        raw["run"]["duration_seconds"] = 1.0
        raw["sweep"] = {"parameter": "noise.t0_kelvin", "values": [1.0, 2.0, 3.0, 4.0]}
        path = write_config(tmp_path, raw)
        out = tmp_path / "sweep"
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--config", str(path), "--workers", "2", "--out", str(out)])
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["value"], r["status"]) for r in rows] == [("1.0", "'ok'"), ("2.0", "'ok'")]
        assert sorted(p.name for p in out.iterdir() if p.is_file()) == ["sweep.csv"]

    def test_workers_below_one_rejected(self, tmp_path, capsys):
        raw = base_config()
        raw["run"]["duration_seconds"] = 1.0
        raw["sweep"] = {"parameter": "noise.t0_kelvin", "values": [1.0, 2.0]}
        path = write_config(tmp_path, raw)
        for workers in ("0", "-3"):
            out = tmp_path / f"workers{workers}"
            assert main(["sweep", "--config", str(path), "--workers", workers,
                         "--out", str(out)]) == 2
            assert "'--workers'" in capsys.readouterr().err
            assert not out.exists()

    def test_pool_no_larger_than_the_sweep(self, tmp_path, monkeypatch):
        # the pool starts every worker at once, so 500 workers for three
        # points would start 500 interpreters; record the size asked for
        # and run the points on two threads instead
        sizes = []

        def recording_pool(max_workers):
            sizes.append(max_workers)
            return concurrent.futures.ThreadPoolExecutor(max_workers=2)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
        raw = base_config()
        raw["run"]["duration_seconds"] = 1.0
        raw["sweep"] = {"parameter": "noise.t0_kelvin", "values": [1.0, 2.0, 3.0],
                        "workers": 500}
        path = write_config(tmp_path, raw)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        assert sizes == [3]
        assert len((out / "sweep.csv").read_text().splitlines()) == 4


def short_run_config(name, seconds):
    """A configs/ file cut to the given duration, without its sweep section."""
    raw = json.loads((CONFIG_DIR / name).read_text())
    raw.pop("sweep", None)
    raw["run"]["duration_seconds"] = seconds
    return raw


def embedded_config(trajectory):
    """The configuration a trajectory.csv carries in its meta line."""
    line = next(line for line in trajectory.read_text().splitlines()
                if line.startswith("# meta = "))
    return json.loads(line[len("# meta = "):])["config"]


def replace_embedded_config(trajectory, raw):
    lines = trajectory.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("# meta = "))
    meta = json.loads(lines[i][len("# meta = "):])
    meta["config"] = raw
    lines[i] = "# meta = " + json.dumps(meta, sort_keys=True) + "\n"
    trajectory.write_text("".join(lines))


def counting_simulate(monkeypatch):
    """Count the passes report.simulate runs from now on."""
    calls = []
    simulate = report_module.simulate

    def counted(*args, **kwargs):
        calls.append(args[4])  # the controllers of the pass
        return simulate(*args, **kwargs)

    monkeypatch.setattr(report_module, "simulate", counted)
    return calls


# files of simulate that analyze does not write: the run's own
_SIMULATE_ONLY = {"trajectory.csv", "resolved_config.json", "plot_results.py"}


class TestCliAnalyze:
    @pytest.mark.parametrize("name, raw, passes", [
        ("controller_free", base_config(), 0),
        ("damper", short_run_config("cooling_sweep.json", 3.0), 0),
        # the drive-off reference is simulated again
        ("squeezer", short_run_config("squeezing.json", 2.0), 1),
    ], ids=["controller_free", "damper", "squeezer"])
    def test_analyze_round_trip(self, tmp_path, capsys, monkeypatch, name, raw, passes):
        # analyze writes simulate's report and numeric files byte for byte
        path = write_config(tmp_path, raw)
        run_out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--out", str(run_out)]) == 0
        capsys.readouterr()
        calls = counting_simulate(monkeypatch)
        an_out = tmp_path / "analysis"
        assert main(["analyze", str(run_out / "trajectory.csv"),
                     "--out", str(an_out)]) == 0
        assert calls == [[]] * passes
        written = sorted(p.name for p in an_out.iterdir())
        assert written == sorted(p.name for p in run_out.iterdir() if p.name not in _SIMULATE_ONLY)
        assert (an_out / "report.json").read_text() == (run_out / "report.json").read_text()
        for file in written:
            assert (an_out / file).read_bytes() == (run_out / file).read_bytes(), file
        assert capsys.readouterr().out == (run_out / "report.txt").read_text()
        report = json.loads((an_out / "report.json").read_text())
        if name == "controller_free":
            assert report["theory"]["f_plus_hz"]["value"] == pytest.approx(238.02, rel=1e-4)
        else:
            assert report["controllers"][0]["kind"] == raw["controllers"][0]["kind"]
        assert ("squeezing" in report) == (name == "squeezer")
        assert ("quadratures_particle1_reference.csv" in written) == (name == "squeezer")

    def test_controllers_not_redesigned_exit_code(self, tmp_path, capsys):
        # a snapshot whose sample rate puts the squeezer's mode above the
        # Nyquist rate: analyze and simulate reject it with the same error
        run_out = tmp_path / "run"
        path = write_config(tmp_path, short_run_config("squeezing.json", 2.0))
        assert main(["simulate", "--config", str(path), "--out", str(run_out)]) == 0
        trajectory = run_out / "trajectory.csv"
        raw = embedded_config(trajectory)
        raw["run"]["sample_rate_hz"] = 400.0
        replace_embedded_config(trajectory, raw)
        capsys.readouterr()
        assert main(["analyze", str(trajectory), "--out", str(tmp_path / "an")]) == 2
        analyzed = capsys.readouterr()
        assert analyzed.out == ""
        assert "'controllers[0]'" in analyzed.err and "'sample_rate_hz'" in analyzed.err
        assert not (tmp_path / "an" / "report.json").exists()
        path = write_config(tmp_path, raw, name="edited.json")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")]) == 2
        assert capsys.readouterr().err == analyzed.err

    def test_reference_pass_fault_exit_code(self, tmp_path, capsys, monkeypatch):
        run_out = tmp_path / "run"
        path = write_config(tmp_path, short_run_config("squeezing.json", 2.0))
        assert main(["simulate", "--config", str(path), "--out", str(run_out)]) == 0
        capsys.readouterr()

        def faulting(*args, **kwargs):
            assert args[4] == []  # analyze simulates the drive-off reference only
            raise IntegrationFault("non-finite state", 0.5)

        monkeypatch.setattr(report_module, "simulate", faulting)
        an_out = tmp_path / "an"
        assert main(["analyze", str(run_out / "trajectory.csv"), "--out", str(an_out)]) == 3
        assert capsys.readouterr().err == ("runtime fault: integration fault at t = 0.5 s: "
                                           "non-finite state\n")
        assert list(an_out.iterdir()) == []

    @pytest.mark.parametrize("raw", [
        base_config(),
        short_run_config("cooling_sweep.json", 3.0),
        short_run_config("squeezing.json", 2.0),
    ], ids=["controller_free", "damper", "squeezer"])
    def test_trajectory_cut_at_a_row_exit_code(self, tmp_path, capsys, monkeypatch, raw):
        # a file cut at a row boundary reads as a shorter run; its
        # configuration stores more samples, which is checked before any
        # reference pass
        run_out = tmp_path / "run"
        path = write_config(tmp_path, raw)
        assert main(["simulate", "--config", str(path), "--out", str(run_out)]) == 0
        lines = (run_out / "trajectory.csv").read_text().splitlines(keepends=True)
        cut = tmp_path / "cut.csv"
        cut.write_text("".join(lines[:-100]))
        n = sum(not line.startswith("#") for line in lines) - 1  # the rows after the names
        capsys.readouterr()
        calls = counting_simulate(monkeypatch)
        assert main(["analyze", str(cut), "--out", str(tmp_path / "an")]) == 2
        assert calls == []
        assert capsys.readouterr().err == (f"configuration error: the trajectory has {n - 100} "
                                           f"samples, where its configuration stores {n}\n")

    @pytest.mark.parametrize("edit, found", [
        (lambda lines: ["# trajectory-format 2\n"] + lines[1:], "trajectory-format 2"),
        (lambda lines: lines[1:], "no trajectory-format line"),
    ], ids=["other_number", "line_missing"])
    def test_trajectory_format_checked(self, tmp_path, capsys, edit, found):
        raw = base_config()
        raw["run"]["duration_seconds"] = 1.0
        path = write_config(tmp_path, raw)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
        lines = (tmp_path / "run" / "trajectory.csv").read_text().splitlines(keepends=True)
        assert lines[0] == "# trajectory-format 1\n"
        edited = tmp_path / "edited.csv"
        edited.write_text("".join(edit(lines)))
        capsys.readouterr()
        assert main(["analyze", str(edited), "--out", str(tmp_path / "an")]) == 2
        assert capsys.readouterr().err == (f"configuration error: {edited}: {found}, "
                                           "where cotrap reads trajectory-format 1\n")
        assert not (tmp_path / "an" / "report.json").exists()

    def test_damaged_trajectory_exit_code(self, tmp_path, capsys):
        n = 8
        traj = Trajectory(sample_rate=100.0, z1=np.arange(n) - 1e-5, z2=np.arange(n) + 1e-5,
                          v1=np.zeros(n), v2=np.full(n, 1.2345678901234568e-05), y=None,
                          forces=np.zeros((0, n)), meta={"seed": 1})
        traj.to_csv(tmp_path / "good.csv")
        lines = (tmp_path / "good.csv").read_text().splitlines(keepends=True)
        n_header = sum(line.startswith("#") for line in lines) + 1  # plus the names row
        meta = next(i for i, line in enumerate(lines) if line.startswith("# meta = "))
        rate = next(i for i, line in enumerate(lines) if line.startswith("# sample_rate_hz = "))
        bad_rates = {f"rate_{i}.csv": lines[:rate] + [f"# sample_rate_hz = {value}\n"]
                     + lines[rate + 1:]
                     for i, value in enumerate(["0.0", "nan", "inf", "-2500.0"])}
        bad_metas = {f"meta_{i}.csv": lines[:meta] + [f"# meta = {value}\n"] + lines[meta + 1:]
                     for i, value in enumerate(["5", "[1]", '"x"'])}
        damaged = {
            **bad_rates,
            **bad_metas,
            "header_only.csv": lines[:n_header],
            # what a simulate killed while writing leaves behind: a row that
            # lost fields, and one that keeps them but whose last value,
            # 1.2345678901234568e-05, is cut to 1.2345 with no newline
            "cut_row.csv": lines[:-1] + [lines[-1][:len(lines[-1]) // 2]],
            "cut_value.csv": lines[:-1] + [lines[-1][:lines[-1].rindex(",") + 7]],
            "bad_meta.csv": lines[:meta] + ["# meta = {\"seed\": \n"] + lines[meta + 1:],
            "renamed_column.csv": [line.replace("z1", "q1") for line in lines],
            # no row of column names: skipping it unread would drop a data row
            "no_names_row.csv": lines[:n_header - 1] + lines[n_header:],
        }
        for name, text in damaged.items():
            (tmp_path / name).write_text("".join(text))
            assert main(["analyze", str(tmp_path / name), "--out", str(tmp_path / "an")]) == 2
            assert f"{name}: damaged trajectory file" in capsys.readouterr().err, name
        for path in (tmp_path / "nonexistent.csv", tmp_path):
            assert main(["analyze", str(path), "--out", str(tmp_path / "an")]) == 2, path
            assert f"{path}: cannot read trajectory file" in capsys.readouterr().err


class TestCliOut:
    def test_out_that_is_a_file_exit_code(self, tmp_path):
        raw = base_config()
        raw["run"]["duration_seconds"] = 2.0
        raw["sweep"] = {"parameter": "noise.t0_kelvin", "values": [293.0]}
        path = write_config(tmp_path, raw)
        run_out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--out", str(run_out)]) == 0
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        commands = [["modes", "--config", str(path)], ["simulate", "--config", str(path)],
                    ["sweep", "--config", str(path)], ["analyze", str(run_out / "trajectory.csv")]]
        cases = [(args, blocker) for args in commands] + [(commands[0], blocker / "sub")]
        for args, out in cases:
            proc = run_cli(*args, "--out", str(out))
            assert proc.returncode == 2, (args, out, proc.stderr)
            assert "Traceback" not in proc.stderr, (args, out)
            assert f"option '--out': cannot create directory {out}: " in proc.stderr, (args, out)
        assert blocker.read_text() == "kept"

    def test_modes_bad_out_prints_nothing(self, tmp_path, capsys):
        # --out is made before the report is printed
        path = write_config(tmp_path, base_config())
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        assert main(["modes", "--config", str(path), "--out", str(blocker)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"option '--out': cannot create directory {blocker}: " in captured.err

    def test_analyze_bad_out_reads_no_trajectory(self, tmp_path, capsys, monkeypatch):
        # --out is made before a row of the trajectory is read
        path = write_config(tmp_path, base_config())
        run_out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--out", str(run_out)]) == 0
        capsys.readouterr()
        reads = []
        read = Trajectory.from_csv.__func__

        def counted(cls, *args, **kwargs):
            reads.append(args)
            return read(cls, *args, **kwargs)

        monkeypatch.setattr(Trajectory, "from_csv", classmethod(counted))
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        assert main(["analyze", str(run_out / "trajectory.csv"), "--out", str(blocker)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and reads == []
        assert f"option '--out': cannot create directory {blocker}: " in captured.err
