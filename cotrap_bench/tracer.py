"""Run the cotrap CLI with spans recorded at its layer boundaries.

Child side (one traced CLI run):

    COTRAP_BENCH_SPANS=<prefix> python -X importtime tracer.py <cotrap args>

wraps the module-level functions that cotrap looks up at call time, so
nothing under src/ changes. Each process keeps its spans in memory and
writes them to <prefix>.<pid>.json: the main process when the command
returns, a sweep worker after each sweep point (a forked pool worker
inherits the wrappers). `python -X importtime` reports the import layer.

Parent side: `layer_metrics` turns those files and the import-time log
into the benchmark's per-layer metrics.
"""

import functools
import itertools
import json
import os
import re
import sys
import time
from pathlib import Path

SPANS_ENV = "COTRAP_BENCH_SPANS"

# (module, attribute, span name). A span name is "<layer>.<what>".
TARGETS = (
    ("cotrap.cli", "cmd_simulate", "cli.cmd_simulate"),
    ("cotrap.cli", "cmd_sweep", "cli.cmd_sweep"),
    ("cotrap.cli", "cmd_analyze", "cli.cmd_analyze"),
    ("cotrap.cli", "_sweep_one", "cli.sweep_one"),
    ("cotrap.cli", "_write_run_outputs", "cli.write_outputs"),
    ("cotrap.cli", "_write_psd_csv", "cli.write_psd_csv"),
    ("cotrap.cli", "_write_quadrature_csv", "cli.write_quadrature_csv"),
    ("cotrap.cli", "_write_report", "cli.write_report"),
    ("cotrap.cli", "load_config", "config.load_config"),
    ("cotrap.cli", "parse_config", "config.parse_config"),
    ("cotrap.cli", "run_experiment", "report.run_experiment"),
    ("cotrap.cli", "analyze_trajectory", "report.analyze_trajectory"),
    ("cotrap.report", "analyze_trajectory", "report.analyze_trajectory"),
    ("cotrap.report", "simulate", "dynamics.simulate"),
    ("cotrap._kernel", "run_block", "kernel.run_block"),
    ("cotrap.analysis", "welch_psd", "analysis.welch_psd"),
    ("cotrap.analysis", "fit_r_pm", "analysis.fit_r_pm"),
    ("cotrap.analysis", "demodulate", "analysis.demodulate"),
    ("cotrap.analysis", "squeezing_db", "analysis.squeezing_db"),
)
LAYERS = ("config", "dynamics", "kernel", "analysis", "report", "cli")

_spans = []  # [id, parent, name, start, end, substeps]
_stack = []
_ids = itertools.count()


def _substeps(args):
    # run_block(..., n_sub at 13, ..., thermal (samples, n_sub, 2) at 16, ...)
    return int(args[16].shape[0] * args[13])


def _wrap(fn, name, flush=False):
    count = _substeps if name == "kernel.run_block" else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = f"{os.getpid()}:{next(_ids)}"
        parent = _stack[-1] if _stack else None
        _stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _stack.pop()
            _spans.append([sid, parent, name, start, end,
                           count(args) if count else 0])
            if flush:
                _flush()

    return traced


def _flush():
    pid = os.getpid()
    own = [s for s in _spans if s[0].startswith(f"{pid}:")]
    with open(f"{os.environ[SPANS_ENV]}.{pid}.json", "w") as fh:
        json.dump(own, fh)


def install():
    """Replace every target with a span-recording wrapper."""
    # cotrap is importable only in the traced child, not in run.py
    import importlib

    from cotrap.dynamics import Trajectory

    for module, attr, name in TARGETS:
        mod = importlib.import_module(module)
        setattr(mod, attr, _wrap(getattr(mod, attr), name,
                                 flush=name == "cli.sweep_one"))
    Trajectory.to_csv = _wrap(Trajectory.to_csv, "dynamics.to_csv")
    Trajectory.from_csv = classmethod(
        _wrap(Trajectory.from_csv.__func__, "dynamics.from_csv"))


def main(argv):
    import cotrap.cli

    install()
    try:
        code = _wrap(cotrap.cli.main, "cli.main")(argv)
    finally:
        _flush()
    return code


# ---------------------------------------------------------------- parent side

_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)\s*$")


def import_seconds(stderr_text, package):
    """Cumulative import time of `package` from a `-X importtime` log.

    A package imported through importlib (scipy's lazy submodules) gets no
    line of its own, so this sums the outermost lines of the package and
    its submodules.
    """
    lines = []
    for line in stderr_text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m and (m.group(3) == package or m.group(3).startswith(package + ".")):
            lines.append((len(m.group(2)), int(m.group(1))))
    if not lines:
        return 0.0
    top = min(depth for depth, _ in lines)
    return sum(us for depth, us in lines if depth == top) * 1e-6


def load_spans(prefix):
    spans = []
    for path in sorted(Path(prefix).parent.glob(Path(prefix).name + ".*.json")):
        with open(path) as fh:
            spans.extend(json.load(fh))
    return spans


def layer_metrics(spans, stderr_text, workers):
    """Per-layer metrics of one traced run.

    A span's self time is its duration minus the part of it that its
    direct children cover, sweep workers' spans included, so the main
    process's sweep span keeps only the time no worker ran a point. Times
    of parallel workers add up: a layer's time is time busy, not wall time.
    """
    dur = {s[0]: s[4] - s[3] for s in spans}
    children = {}
    for sid, parent, _, start, end, _ in spans:
        children.setdefault(parent, []).append((start, end))

    def covered(sid):
        total, reach = 0.0, float("-inf")
        for start, end in sorted(children.get(sid, ())):
            if end > reach:
                total += end - max(start, reach)
                reach = end
        return total

    self_s = {s[0]: dur[s[0]] - covered(s[0]) for s in spans}

    def total(name):
        return sum(dur[s[0]] for s in spans if s[2] == name)

    def calls(name):
        return sum(1 for s in spans if s[2] == name)

    def self_time(prefix):
        return sum(self_s[s[0]] for s in spans if s[2].startswith(prefix))

    substeps = sum(s[5] for s in spans if s[2] == "kernel.run_block")
    kernel_s = total("kernel.run_block")
    sweep_wall = total("cli.cmd_sweep")
    m = {
        "import.cotrap_s": (import_seconds(stderr_text, "cotrap"), "s"),
        "import.scipy_signal_s": (import_seconds(stderr_text, "scipy.signal"), "s"),
        "config.load_config_s": (total("config.load_config"), "s"),
        "kernel.run_block_s": (kernel_s, "s"),
        "kernel.substeps_per_s": (substeps / kernel_s if kernel_s > 0 else 0.0, "1/s"),
        "kernel.substeps": (substeps, "count"),
        "kernel.blocks": (calls("kernel.run_block"), "count"),
        "dynamics.simulate_s": (total("dynamics.simulate"), "s"),
        "dynamics.simulate_self_s": (self_time("dynamics.simulate"), "s"),
        "dynamics.simulate_calls": (calls("dynamics.simulate"), "count"),
        "dynamics.to_csv_s": (total("dynamics.to_csv"), "s"),
        "dynamics.from_csv_s": (total("dynamics.from_csv"), "s"),
        "analysis.welch_psd_s": (total("analysis.welch_psd"), "s"),
        "analysis.welch_psd_calls": (calls("analysis.welch_psd"), "count"),
        "analysis.fit_r_pm_s": (total("analysis.fit_r_pm"), "s"),
        "analysis.fit_r_pm_calls": (calls("analysis.fit_r_pm"), "count"),
        "analysis.demodulate_s": (total("analysis.demodulate"), "s"),
        "analysis.squeezing_db_s": (total("analysis.squeezing_db"), "s"),
        "report.run_experiment_s": (total("report.run_experiment"), "s"),
        "report.analyze_trajectory_s": (total("report.analyze_trajectory"), "s"),
        "cli.write_outputs_s": (total("cli.write_outputs"), "s"),
        "cli.write_psd_csv_s": (total("cli.write_psd_csv"), "s"),
        "cli.write_quadrature_csv_s": (total("cli.write_quadrature_csv"), "s"),
        "cli.sweep_busy_ratio": (
            total("cli.sweep_one") / (workers * sweep_wall) if sweep_wall > 0 else 0.0,
            "ratio"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_time(layer + "."), "s")
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
