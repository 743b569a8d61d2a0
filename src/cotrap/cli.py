"""Batch command-line front end.

Subcommands: modes (closed-form theory tables), simulate (one run plus
analysis outputs), sweep (one run per parameter value, aggregated CSV),
analyze (the report and numeric files of simulate, from a stored trajectory).

Exit codes: 0 success, 2 configuration error, 3 runtime fault,
4 partial sweep failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import _kernel
from .config import load_config, parse_config, serialize_config
from .dynamics import Trajectory, write_columns
from .errors import ConfigError, CotrapError
# cotrap_bench/tracer.py wraps analyze_trajectory here too; report calls it
from .report import analyze_trajectory, report_to_text, run_experiment, simulate_pass  # noqa: F401
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


def _csv_table(result):
    """(file name, header, columns) of each numeric CSV of a result."""
    for name, psd in result.psds.items():
        yield f"psd_{name}.csv", ("frequency_hz", "psd_m2_per_hz"), (psd.frequencies, psd.values)
    for name, pair in result.quadratures.items():
        for suffix, quad in zip(("", "_reference"), pair):
            yield f"quadratures_{name}{suffix}.csv", ("t_s", "x_m", "y_m"), (quad.t, quad.x, quad.y)


def _write_csv(path, header, columns):
    with open(path, "wb") as fh:
        write_columns(fh, header, columns)


# one writer under the two names cotrap_bench/tracer.py times apart
_write_psd_csv = _write_quadrature_csv = _write_csv


def _write_report(outdir, report):
    with open(outdir / "report.json", "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(outdir / "report.txt", "w") as fh:
        fh.write(report_to_text(report))


def _write_result(outdir, result):
    """Write what `analyze` writes: every file of _csv_table and the report."""
    for name, header, columns in _csv_table(result):
        write = _write_psd_csv if name.startswith("psd_") else _write_quadrature_csv
        write(outdir / name, header, columns)
    _write_report(outdir, result.report)


def _outdir(args):
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a regular file there, no permission, a read-only disk
        raise ConfigError(f"option '--out': cannot create directory {out}: "
                          f"{exc.strerror or exc}") from None
    return out


def cmd_modes(args):
    cfg = load_config(args.config, seed_override=args.seed)
    out = _outdir(args) if args.out is not None else None
    record = mode_structure(cfg.trap, *cfg.particles).to_record()
    for i, p in enumerate(cfg.particles, start=1):
        sp = stability_params(cfg.trap, p)
        record[f"particle{i}_q_x"] = sp.q_x
        record[f"particle{i}_a_x"] = sp.a_x
        record[f"particle{i}_a_z"] = sp.a_z
        record[f"particle{i}_f_x_hz"] = sp.omega_x / (2 * np.pi)
        record[f"particle{i}_f_z_hz"] = sp.omega_z / (2 * np.pi)
        record[f"particle{i}_secular_valid"] = sp.secular_valid
    text = report_to_text(record)
    print(text, end="")
    if out is not None:
        (out / "modes.txt").write_text(text)
    return 0


def _write_run_outputs(outdir, cfg, trajectory):
    """Write the files of `simulate` that `analyze` does not: the run's own."""
    trajectory.to_csv(outdir / "trajectory.csv")
    with open(outdir / "resolved_config.json", "w") as fh:
        fh.write(serialize_config(cfg))
    with open(outdir / "plot_results.py", "w") as fh:
        fh.write(_PLOT_STUB)


def _simulate_into(outdir, cfg):
    """The drive-on pass and the run's own files, then analyze's path."""
    trajectory = simulate_pass(cfg)
    _write_run_outputs(outdir, cfg, trajectory)
    trajectory.v1 = trajectory.v2 = trajectory.forces = None  # written, never read again
    result = run_experiment(cfg, trajectory)
    _write_result(outdir, result)
    return result


def cmd_simulate(args):
    cfg = load_config(args.config, seed_override=args.seed)
    out = _outdir(args)
    result = _simulate_into(out, cfg)
    print(report_to_text(result.report), end="")
    print(f"outputs written to {out}")
    return 0


def _set_by_path(raw, path, value):
    """Set the number at path in raw to value. path is dot-separated keys,
    with an index for a step into a list; a step that leads nowhere, or a
    target that is not a number, is a ConfigError naming the step."""
    keys = path.split(".")
    node = raw
    for i, key in enumerate(keys):
        where = ".".join(keys[:i]) or "the top level"
        if isinstance(node, list):
            try:
                key = range(len(node))[int(key)]
            except (ValueError, IndexError):
                raise ConfigError(f"key 'parameter' in section 'sweep': '{path}' steps "
                                  f"to '{key}', but '{where}' is a list of {len(node)}") from None
        elif not (isinstance(node, dict) and key in node):
            raise ConfigError(f"key 'parameter' in section 'sweep': '{path}' steps "
                              f"to '{key}', which '{where}' does not have")
        if i < len(keys) - 1:
            node = node[key]
    if not isinstance(node[key], (int, float)) or isinstance(node[key], bool):
        raise ConfigError(f"key 'parameter' in section 'sweep': '{path}' is not a number")
    node[key] = value


def _swept(raw, path, value):
    """A copy of raw with the number at path set to value."""
    raw = json.loads(json.dumps(raw))
    _set_by_path(raw, path, value)
    return raw


def _sweep_one(raw, path, value, rundir):
    cfg = parse_config(_swept(raw, path, value))
    rundir.mkdir(parents=True, exist_ok=True)
    return _simulate_into(rundir, cfg).report


# the report's "measured" entries that sweep.csv tabulates
_SWEEP_COLUMNS = ("t_mode_plus_kelvin", "t_mode_minus_kelvin", "t_inloop_plus_kelvin",
                  "f_plus_hz", "f_minus_hz")


def _sweep_row(value, report, error=None):
    row = {"value": value, "status": "ok" if error is None else "failed"}
    if error is not None:
        row["error"] = f"{type(error).__name__}: {error}"
        return row
    for key in _SWEEP_COLUMNS:
        item = report["measured"].get(key)
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
    import traceback

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


def _write_sweep_csv(out, rows):
    """Write out/sweep.csv through a file that then replaces it whole, so a
    kill never leaves half a table."""
    import csv

    # every row starts with value and status; the rest in first-seen order
    columns = list(dict.fromkeys(key for row in rows for key in row))
    part = out / "sweep.csv.part"
    # repr() of every cell; csv quotes the cells that hold a comma
    with open(part, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([repr(row[c]) if c in row else "" for c in columns] for row in rows)
    part.replace(out / "sweep.csv")


def cmd_sweep(args):
    import concurrent.futures

    cfg = load_config(args.config, seed_override=args.seed)
    if cfg.sweep is None:
        raise ConfigError("configuration has no 'sweep' section")
    workers = args.workers if args.workers is not None else cfg.sweep.workers
    if workers < 1:
        raise ConfigError(f"option '--workers' must be >= 1, got {workers}")
    # every point reuses the resolved noise and detection seeds: common
    # random numbers, so differences between points come from the parameter
    values = cfg.sweep.values
    _swept(cfg.resolved, cfg.sweep.parameter, values[0])  # a bad path fails here, once
    out = _outdir(args)
    jobs = [(cfg.resolved, cfg.sweep.parameter, value, out / f"run_{i:03d}")
            for i, value in enumerate(values)]
    # forked workers inherit the kernel, so a cold cache compiles it once
    _kernel._c_library()
    # every point runs in a worker process whatever the worker count, so
    # the rows do not depend on it; a process pool starts all of its
    # workers at the first submit
    rows = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        futures = [pool.submit(_sweep_one, *job) for job in jobs]
        # rewritten after every point, so an interrupt keeps the finished rows
        for (_, _, value, rundir), fut in zip(jobs, futures):
            rows.append(_sweep_point(value, rundir, fut))
            _write_sweep_csv(out, rows)
    failures = sum(row["status"] != "ok" for row in rows)
    print(f"sweep of {cfg.sweep.parameter}: {len(rows) - failures}/{len(rows)} runs ok")
    print(f"aggregated table: {out / 'sweep.csv'}")
    return 4 if failures else 0


def cmd_analyze(args):
    out = _outdir(args)
    # the columns analyze_trajectory reads; y only where the run recorded it
    traj = Trajectory.from_csv(args.trajectory, fields=("z1", "z2", "y"))
    snap = traj.meta.get("config")
    if snap is None:
        raise ConfigError(f"{args.trajectory} carries no embedded configuration")
    result = run_experiment(parse_config(snap), traj)
    _write_result(out, result)
    print(report_to_text(result.report), end="")
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
    finally:
        if _kernel.BACKEND == "python":
            error = " ".join(_kernel.BUILD_ERROR.split())
            print(f"note: the C kernel did not load, so the Python fallback ran: {error}",
                  file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
