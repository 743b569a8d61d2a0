"""Configuration validation, CLI subcommands, exit codes, reproducibility."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from cotrap import cli
from cotrap.cli import main
from cotrap.config import parse_config, serialize_config
from cotrap.errors import ConfigError

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
        assert cfg.controllers[1].notch is False

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
        # (section, None for the top level; key; value; the name the error
        # must quote, when it is not the key)
        sweep = {"parameter": "noise.t0_kelvin", "values": [1.0, 2.0]}
        particles = base_config()["particles"]
        damper = {"kind": "velocity_damper", "target_mode": "plus", "gamma_fb_rad_per_s": 1.0}
        cases = [
            ("trap", "bogus_key", 1.0),
            ("run", "duration_seconds", float("nan")),
            ("noise", "t0_kelvin", float("inf")),
            ("trap", "u0_volts", float("-inf")),
            ("run", "coulomb_coupling", "false"),
            ("analysis", "fit_mixing_ratios", 0),
            ("analysis", "window", "nosuch"),
            ("analysis", "window", "kaiser"),
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
            (None, "controllers", [dict(damper, gamma_fb_rad_per_s=-1)], "gamma_fb_rad_per_s"),
            (None, "controllers", [dict(damper, bandwidth_rad_per_s=-3)], "bandwidth_rad_per_s"),
            (None, "controllers", [dict(damper, force_limit_newtons=0)], "force_limit_newtons"),
        ]
        for section, key, value, *name in cases:
            raw = base_config()
            (raw if section is None else raw.setdefault(section, {}))[key] = value
            # json.dumps writes NaN and Infinity, which json.load reads back
            path = write_config(tmp_path, raw)
            assert main(["modes", "--config", str(path)]) == 2, (key, value)
            quoted = name[0] if name else key
            assert f"'{quoted}'" in capsys.readouterr().err, (key, value)

    def test_instability_exit_code(self, tmp_path, capsys):
        raw = base_config()
        raw["particles"][0]["charge_e"] = -2135
        raw["particles"][1]["charge_e"] = -906
        path = write_config(tmp_path, raw)
        assert main(["modes", "--config", str(path)]) == 3


def simulate_capturing(monkeypatch, path, out):
    """Run `cotrap simulate` and return the in-memory ExperimentResult."""
    captured = []
    write = cli._write_run_outputs

    def capture(outdir, cfg, result):
        captured.append(result)
        write(outdir, cfg, result)

    monkeypatch.setattr(cli, "_write_run_outputs", capture)
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


class TestCliSimulate:
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

    def test_huge_duration_exit_code(self, tmp_path, capsys):
        # the sample count is checked before the output arrays are allocated;
        # 1e306 s makes it infinite, 1e300 s exceeds numpy's dimension limit
        for duration, needed in ((1e306, "inf"), (1e300, "1e+305")):
            raw = base_config()
            raw["run"]["duration_seconds"] = duration
            path = write_config(tmp_path, raw)
            assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
            assert f"duration {duration!r} s needs {needed} bytes" in capsys.readouterr().err


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

    def test_bad_parameter_path(self, tmp_path):
        # a path error of any exception type becomes a failed row
        for parameter, error in (("trap.nonexistent", "ConfigError"),
                                 ("controllers.3.gamma_fb_rad_per_s", "IndexError")):
            raw = base_config()
            raw["controllers"] = [{"kind": "velocity_damper", "target_mode": "plus",
                                   "gamma_fb_rad_per_s": 1.0}]
            raw["sweep"] = {"parameter": parameter, "values": [1.0]}
            path = write_config(tmp_path, raw)
            out = tmp_path / error
            assert main(["sweep", "--config", str(path), "--out", str(out)]) == 4
            lines = (out / "sweep.csv").read_text().strip().splitlines()
            assert len(lines) == 2
            assert "'failed'" in lines[1] and error in lines[1]


class TestCliAnalyze:
    def test_analyze_round_trip(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        run_out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--out", str(run_out)]) == 0
        an_out = tmp_path / "analysis"
        assert main(["analyze", str(run_out / "trajectory.csv"),
                     "--out", str(an_out)]) == 0
        report = json.loads((an_out / "report.json").read_text())
        assert report["theory"]["f_plus_hz"]["value"] == pytest.approx(238.02, rel=1e-4)
        direct = json.loads((run_out / "report.json").read_text())
        assert report["measured"]["t_mode_plus_kelvin"]["value"] == pytest.approx(
            direct["measured"]["t_mode_plus_kelvin"]["value"], rel=1e-9
        )
