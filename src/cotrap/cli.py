"""Batch command-line front end.

Subcommands: modes (closed-form theory tables), simulate (one run plus
analysis outputs), sweep (one run per parameter value, aggregated CSV),
analyze (re-run the analysis pipeline on a stored trajectory).

Exit codes: 0 success, 2 configuration error, 3 runtime fault,
4 partial sweep failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from .config import load_config, parse_config, serialize_config
from .dynamics import Trajectory, write_columns
from .errors import ConfigError, CotrapError
from .report import analyze_trajectory, report_to_text, run_experiment
from .trap import mode_structure, stability_params

_PLOT_STUB = """\
#!/usr/bin/env python3
# Quick-look plots for the data files in this directory.
import glob
import numpy as np
import matplotlib.pyplot as plt

for path in sorted(glob.glob("psd_*.csv")):
    f, s = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    plt.loglog(f[1:], s[1:], label=path)
plt.xlabel("frequency (Hz)")
plt.ylabel("PSD (m$^2$/Hz)")
plt.legend()
plt.savefig("psds.png", dpi=150)
plt.close()

for path in sorted(glob.glob("quadratures_*.csv")):
    t, x, y = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    plt.figure(figsize=(4, 4))
    plt.plot(x, y, ",", alpha=0.5)
    plt.xlabel("X (m)")
    plt.ylabel("Y (m)")
    plt.axis("equal")
    plt.savefig(path.replace(".csv", ".png"), dpi=150)
    plt.close()
print("wrote plots")
"""


def _write_psd_csv(path, psd):
    with open(path, "w") as fh:
        write_columns(fh, ("frequency_hz", "psd_m2_per_hz"), (psd.frequencies, psd.values))


def _write_quadrature_csv(path, quad):
    with open(path, "w") as fh:
        write_columns(fh, ("t_s", "x_m", "y_m"), (quad.t, quad.x, quad.y))


def _write_report(outdir, report):
    with open(outdir / "report.json", "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(outdir / "report.txt", "w") as fh:
        fh.write(report_to_text(report))


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_modes(args):
    cfg = load_config(args.config, seed_override=args.seed)
    trap = cfg.trap
    p1, p2 = cfg.particles
    modes = mode_structure(trap, p1, p2)
    record = modes.to_record()
    for i, p in enumerate((p1, p2), start=1):
        sp = stability_params(trap, p)
        record[f"particle{i}_q_x"] = sp.q_x
        record[f"particle{i}_a_x"] = sp.a_x
        record[f"particle{i}_a_z"] = sp.a_z
        record[f"particle{i}_f_x_hz"] = sp.omega_x / (2 * np.pi)
        record[f"particle{i}_f_z_hz"] = sp.omega_z / (2 * np.pi)
        record[f"particle{i}_secular_valid"] = sp.secular_valid
    text = report_to_text(record)
    print(text, end="")
    if args.out is not None:
        (_outdir(args) / "modes.txt").write_text(text)
    return 0


def _write_run_outputs(outdir, cfg, result):
    result.trajectory.to_csv(outdir / "trajectory.csv")
    for name, psd in result.psds.items():
        _write_psd_csv(outdir / f"psd_{name}.csv", psd)
    for name, (q_on, q_off) in result.quadratures.items():
        _write_quadrature_csv(outdir / f"quadratures_{name}.csv", q_on)
        _write_quadrature_csv(outdir / f"quadratures_{name}_reference.csv", q_off)
    _write_report(outdir, result.report)
    with open(outdir / "resolved_config.json", "w") as fh:
        fh.write(serialize_config(cfg))
    with open(outdir / "plot_results.py", "w") as fh:
        fh.write(_PLOT_STUB)


def cmd_simulate(args):
    cfg = load_config(args.config, seed_override=args.seed)
    out = _outdir(args)
    result = run_experiment(cfg)
    _write_run_outputs(out, cfg, result)
    print(report_to_text(result.report), end="")
    print(f"outputs written to {out}")
    return 0


def _set_by_path(raw, path, value):
    keys = path.split(".")
    node = raw
    for key in keys[:-1]:
        if isinstance(node, list):
            node = node[int(key)]
        elif key in node:
            node = node[key]
        else:
            raise ConfigError(f"sweep parameter path '{path}': no section '{key}'")
    last = keys[-1]
    if isinstance(node, list):
        node[int(last)] = value
    else:
        if last not in node:
            raise ConfigError(f"sweep parameter path '{path}': no key '{last}'")
        if not isinstance(node[last], (int, float)) or isinstance(node[last], bool):
            raise ConfigError(f"sweep parameter '{path}' is not numeric")
        node[last] = value


def _sweep_one(raw, path, value, rundir):
    raw_i = json.loads(json.dumps(raw))
    _set_by_path(raw_i, path, value)
    cfg = parse_config(raw_i)
    rundir.mkdir(parents=True, exist_ok=True)
    result = run_experiment(cfg)
    _write_run_outputs(rundir, cfg, result)
    return result.report


_SWEEP_COLUMNS = (
    ("t_mode_plus_kelvin", "measured"),
    ("t_mode_minus_kelvin", "measured"),
    ("t_inloop_plus_kelvin", "measured"),
    ("f_plus_hz", "measured"),
    ("f_minus_hz", "measured"),
)


def _sweep_row(value, report, error=None):
    row = {"value": value, "status": "ok" if error is None else "failed"}
    if error is not None:
        row["error"] = f"{type(error).__name__}: {error}"
        return row
    for key, section in _SWEEP_COLUMNS:
        item = report.get(section, {}).get(key)
        if item is not None:
            row[key] = item["value"]
            if "sigma" in item:
                row[f"{key}_sigma"] = item["sigma"]
    sq = report.get("squeezing")
    if sq is not None:
        for pname in ("particle1", "particle2"):
            if pname in sq:
                row[f"squeezing_db_{pname}"] = sq[pname]["db"]["value"]
    return row


def _sweep_point(value, rundir, future):
    """sweep.csv row of one point from its finished future.

    An exception that is not a CotrapError is a bug: its traceback, the
    worker's frames included, goes to stderr and to rundir/traceback.txt.
    """
    try:
        return _sweep_row(value, future.result())
    except Exception as exc:  # a failed point must not lose the finished rows
        if not isinstance(exc, CotrapError):
            text = "".join(traceback.format_exception(exc))
            sys.stderr.write(text)
            try:
                rundir.mkdir(parents=True, exist_ok=True)
                (rundir / "traceback.txt").write_text(text)
            except OSError as err:
                print(f"cannot keep the traceback in {rundir}: {err}", file=sys.stderr)
        return _sweep_row(value, None, error=exc)


def cmd_sweep(args):
    cfg = load_config(args.config, seed_override=args.seed)
    if cfg.sweep is None:
        raise ConfigError("configuration has no 'sweep' section")
    workers = args.workers if args.workers is not None else cfg.sweep.workers
    if workers < 1:
        raise ConfigError(f"option '--workers' must be >= 1, got {workers}")
    out = _outdir(args)
    # every point reuses the resolved noise and detection seeds: common
    # random numbers, so differences between points come from the parameter
    values = cfg.sweep.values
    jobs = [(cfg.resolved, cfg.sweep.parameter, value, out / f"run_{i:03d}")
            for i, value in enumerate(values)]
    # every point runs in a worker process whatever the worker count, so
    # the rows do not depend on it; a process pool starts all of its
    # workers at the first submit
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        futures = [pool.submit(_sweep_one, *job) for job in jobs]
        rows = [_sweep_point(value, rundir, fut)
                for (_, _, value, rundir), fut in zip(jobs, futures)]
    failures = sum(row["status"] != "ok" for row in rows)
    columns = ["value", "status"]
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    # repr() of every cell; csv quotes the cells that hold a comma
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([repr(row[c]) if c in row else "" for c in columns] for row in rows)
    print(f"sweep of {cfg.sweep.parameter}: {len(rows) - failures}/{len(rows)} runs ok")
    print(f"aggregated table: {out / 'sweep.csv'}")
    return 4 if failures else 0


def cmd_analyze(args):
    traj = Trajectory.from_csv(args.trajectory)
    snap = traj.meta.get("config")
    if snap is None:
        raise ConfigError(f"{args.trajectory} carries no embedded configuration")
    cfg = parse_config(snap)
    modes = mode_structure(cfg.trap, *cfg.particles)
    report, psds, _ = analyze_trajectory(traj, modes, *cfg.particles, cfg.analysis)
    out = _outdir(args)
    for name, psd in psds.items():
        _write_psd_csv(out / f"psd_{name}.csv", psd)
    _write_report(out, report)
    print(report_to_text(report), end="")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cotrap",
        description="Coupled-nanoparticle Paul trap simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON experiment configuration")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        p.add_argument("--out", default="out", help="output directory")

    p_modes = sub.add_parser("modes", help="closed-form mode structure and stability")
    add_common(p_modes)
    p_modes.set_defaults(func=cmd_modes, out=None)

    p_sim = sub.add_parser("simulate", help="run one experiment and analyze it")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="one run per sweep value, aggregated CSV")
    add_common(p_sweep)
    p_sweep.add_argument("--workers", type=int, default=None, help="parallel run count")
    p_sweep.set_defaults(func=cmd_sweep)

    p_an = sub.add_parser("analyze", help="re-analyze a stored trajectory")
    p_an.add_argument("trajectory", help="trajectory.csv produced by simulate")
    p_an.add_argument("--out", default="out")
    p_an.set_defaults(func=cmd_analyze)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CotrapError as exc:
        print(f"runtime fault: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
