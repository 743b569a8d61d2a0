#!/usr/bin/env python3
"""Print the wall time and peak RSS of each cotrap run at paper scale.

    python3 tools/paper_scale.py [--root CHECKOUT]

The runs, all with --seed 7: `cotrap simulate` of each configs/ file at its
full duration, then `cotrap analyze` of the configs/squeezing.json
trajectory (which simulates the drive-off reference again).  Each run is a
child process started with posix_spawn and reaped with os.wait4, whose
ru_maxrss is the child's peak RSS.  On Linux a child started this way is
credited at exec with the high-water RSS of the process that started it, so
this launcher imports only the standard library: its own peak, printed
first, is the floor under every reading.  --root runs another checkout's
src/ on the same inputs, such as a `git archive` of a parent commit.  A
first untimed child builds or loads the C kernel, so no run pays its
compilation.  No number is pinned: times and sizes depend on the host.
"""

import argparse
import os
import resource
import sys
import tempfile
import time
from pathlib import Path


def runs(root, out):
    """(label, CLI arguments) of every run, the squeezer's simulate before its analyze."""
    for path in sorted((root / "configs").glob("*.json")):
        yield (f"simulate configs/{path.name}",
               ["simulate", "--config", str(path), "--seed", "7", "--out", str(out / path.stem)])
    yield ("analyze squeezing/trajectory.csv",
           ["analyze", str(out / "squeezing" / "trajectory.csv"), "--out", str(out / "analyze")])


def spawn(args, env, log):
    """Run python with args, stdout discarded and stderr to log; return
    (exit code, wall seconds, peak RSS in MB)."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
               (os.POSIX_SPAWN_OPEN, 2, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="the checkout whose src/ runs (default: this one)")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory(prefix="cotrap-paper-scale-") as tmp:
        log = Path(tmp) / "stderr.txt"
        code, _, _ = spawn(["-c", "from cotrap import _kernel; _kernel._c_library()"], env, log)
        if code != 0:
            sys.exit(f"cotrap does not import from {root / 'src'}:\n{log.read_text()[-2000:]}")
        floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"launcher peak RSS {floor:.1f} MB (the floor under each reading)")
        for label, cli_args in runs(root, Path(tmp) / "out"):
            code, wall, rss = spawn(["-m", "cotrap.cli", *cli_args], env, log)
            if code != 0:
                sys.exit(f"cotrap {' '.join(cli_args)} exited with {code}:\n"
                         f"{log.read_text()[-2000:]}")
            print(f"{label:<42} wall {wall:6.2f} s  peak RSS {rss:6.1f} MB", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
