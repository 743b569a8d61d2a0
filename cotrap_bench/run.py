#!/usr/bin/env python3
"""Benchmark of the cotrap command line, end to end and layer by layer.

Run from the repository root:

    python3 cotrap_bench/run.py --workload squeeze --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): squeeze, cooling-sweep, reanalyze. The seed
only fills run.seed of the workload's config; the program receives the
config. Each round runs one cotrap CLI command in a child process, closed
loop: the next round starts when the previous one has ended. Rounds repeat
until --seconds have passed, and every round's outputs must be
byte-identical to the first round's.

--trace 0 prints the end-to-end metrics, medians over the rounds:
  wall_s       wall time of the CLI command
  cpu_s        user + system CPU of it and its child processes
  peak_rss_mb  largest resident set of any of those processes
  setup_s      a fresh interpreter's `import cotrap` plus `load_config`
               of the workload's config, median of several interpreters
--trace 1 alternates untraced and traced rounds (tracer.py) and prints the
per-layer metrics, medians over the traced rounds, the tracing overhead
and the pure-Python kernel rate on the workload's parameters.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Children see src/ on PYTHONPATH,
so nothing needs installing; without src/cotrap the benchmark exits 2.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import tracer
import workloads

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
RUNS = BENCH / ".runs"
SETUP_RUNS = 3
KERNEL_SECONDS = 2.0  # simulated seconds per backend in kernel_backends.py
CHILD_TIMEOUT = 150.0

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import cotrap
from cotrap.config import load_config
load_config(sys.argv[1])
t1 = time.perf_counter()
print(t1 - t0, bool(cotrap.NUMBA_ENABLED))
"""


def print_environment(numba_enabled):
    """Record what ran, so figures from different set-ups are not compared."""
    print(json.dumps({"environment": {
        "backend": "numba" if numba_enabled else "python",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }}))


class ChildResult:
    def __init__(self, code, wall, rusage, stdout, stderr):
        self.code = code
        self.wall = wall
        self.cpu = rusage.ru_utime + rusage.ru_stime
        # ru_maxrss (KiB) of a reaped child covers its reaped descendants
        self.rss_mb = rusage.ru_maxrss * 1024 / 1e6
        self.stdout = stdout
        self.stderr = stderr
        self.spans = None          # span file prefix of a traced round
        self.bytes_written = None  # size of a round's outputs


def run_child(argv, env, log_stem):
    """Run argv to completion; wall time and the rusage of its process tree.

    The child leads its own process group, which is killed when it
    overruns CHILD_TIMEOUT.
    """
    out_path = Path(f"{log_stem}.out")
    err_path = Path(f"{log_stem}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, rusage,
                       out_path.read_text(errors="replace"),
                       err_path.read_text(errors="replace"))


def output_hashes(out):
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def output_bytes(out):
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


class Bench:
    def __init__(self, workload, seed, seconds, trace):
        self.workload = workloads.WORKLOADS[workload]
        self.seconds = seconds
        src = ROOT / "src"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
        self.work = RUNS / f"{workload}-seed{seed}-trace{trace}-pid{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "logs").mkdir(parents=True)
        self.raw = workloads.make_config(self.workload, seed)
        self.cfg_path = self.work / "config.json"
        with open(self.cfg_path, "w") as fh:
            json.dump(self.raw, fh, indent=2)
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.reference = None  # output hashes of the first successful round
        self.checked = False
        self.rounds = 0

    def cli(self, args, tag, traced=False):
        if traced:
            spans = self.work / "spans" / tag
            spans.parent.mkdir(exist_ok=True)
            env = dict(self.env, **{tracer.SPANS_ENV: str(spans)})
            argv = [sys.executable, "-X", "importtime", str(BENCH / "tracer.py"), *args]
        else:
            env = self.env
            argv = [sys.executable, "-m", "cotrap.cli", *args]
        res = run_child(argv, env, self.work / "logs" / tag)
        if traced:
            res.spans = spans
        return res

    def setup(self):
        """Median set-up time of fresh interpreters, and whether numba ran."""
        times = []
        for i in range(SETUP_RUNS):
            res = run_child([sys.executable, "-c", SETUP_CODE, str(self.cfg_path)],
                            self.env, self.work / "logs" / f"setup{i}")
            if res.code != 0:
                raise RuntimeError(f"set-up interpreter failed:\n{res.stderr[-2000:]}")
            seconds, numba_enabled = res.stdout.split()
            times.append(float(seconds))
        return statistics.median(times), numba_enabled == "True"

    def round(self, traced=False):
        """One timed CLI command; its outputs are checked, then deleted."""
        tag = f"round{self.rounds:03d}" + ("-traced" if traced else "")
        self.rounds += 1
        out = self.work / tag
        res = self.cli(self.workload.command(self.cfg_path, out, self.work), tag, traced)
        self.attempted += 1
        if res.code != 0:
            self.failed += 1
            print(f"{tag}: exit {res.code}\n{res.stderr[-2000:]}", file=sys.stderr)
            return None
        hashes = output_hashes(out)
        if self.reference is None:
            self.reference = hashes
        elif hashes != self.reference:
            diff = sorted(k for k in hashes.keys() | self.reference.keys()
                          if hashes.get(k) != self.reference.get(k))
            self.problems.append(f"{tag}: outputs differ from the first round: {diff[:8]}")
        if not self.checked:
            checks = self.workload.check(self.raw, out, self.work)
            for name, ok, detail in checks.results:
                print(f"check {self.workload.name}.{name}: {'ok' if ok else 'FAILED'} ({detail})")
            self.problems.extend(checks.failures())
            self.checked = True
        res.bytes_written = output_bytes(out)
        shutil.rmtree(out)
        return res

    def prepare(self):
        prepare = getattr(self.workload, "prepare", None)
        if prepare is None:
            return

        def run_cli(args):
            res = self.cli(args, "prepare")
            if res.code != 0:
                raise RuntimeError(f"input generation failed:\n{res.stderr[-2000:]}")

        prepare(self.cfg_path, self.work, run_cli)

    def measure(self):
        setup_s, numba_enabled = self.setup()
        print_environment(numba_enabled)
        self.prepare()
        walls, cpus, rss = [], [], []
        end = time.perf_counter() + self.seconds
        while True:
            res = self.round()
            if res is not None:
                walls.append(res.wall)
                cpus.append(res.cpu)
                rss.append(res.rss_mb)
            if time.perf_counter() >= end:
                break
        if not walls:
            return {}
        return {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
            "setup_s": (setup_s, "s"),
        }

    def measure_traced(self):
        self.prepare()
        plain, traced, layers = [], [], []
        workers = getattr(self.workload, "workers", 1)
        end = time.perf_counter() + self.seconds
        while True:
            res = self.round()
            if res is not None:
                plain.append(res.wall)
            res = self.round(traced=True)
            if res is not None:
                traced.append(res.wall)
                m = tracer.layer_metrics(tracer.load_spans(res.spans), res.stderr, workers)
                m["cli.bytes_written"] = (res.bytes_written, "bytes")
                layers.append(m)
            if time.perf_counter() >= end:
                break
        if not layers:
            return {}

        counts = [{k: v for k, (v, unit) in m.items() if unit in ("count", "bytes")}
                  for m in layers]
        if any(c != counts[0] for c in counts):
            self.problems.append(f"traced counts differ between rounds: {counts}")
        want = workloads.expected_substeps(self.raw, self.workload.passes(self.raw))
        got = layers[0]["kernel.substeps"][0]
        if got != want:
            self.problems.append(f"kernel.substeps {got} != {want} from the config")
        print(f"check {self.workload.name}.kernel_substeps: "
              f"{'ok' if got == want else 'FAILED'} ({got} traced, {want} from the config)")

        metrics = {k: (statistics.median(m[k][0] for m in layers), unit)
                   for k, (_, unit) in layers[0].items()}
        overhead = statistics.median(traced) - statistics.median(plain) if plain else 0.0
        metrics["trace.overhead_s"] = (overhead, "s")

        res = run_child([sys.executable, str(BENCH / "kernel_backends.py"),
                         str(self.cfg_path), str(KERNEL_SECONDS)],
                        self.env, self.work / "logs" / "kernel_backends")
        if res.code != 0:
            raise RuntimeError(f"kernel_backends failed:\n{res.stderr[-2000:]}")
        backends = json.loads(res.stdout.splitlines()[-1])
        print_environment(backends["numba_enabled"])
        print(json.dumps({"kernel_backends": backends}))
        if backends["parity"] == "DIFFERENT":
            self.problems.append("kernel backends disagree on identical noise")
        metrics["kernel.python_substeps_per_s"] = (
            backends["backends"]["python"]["substeps_per_s"], "1/s")
        return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cotrap" / "__init__.py").is_file():
        print(f"cotrap_bench: no src/cotrap under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, args.trace)
    try:
        metrics = bench.measure_traced() if args.trace else bench.measure()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    for problem in bench.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.problems and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
