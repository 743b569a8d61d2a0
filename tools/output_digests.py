#!/usr/bin/env python3
"""Print the SHA-256 of every file a fixed set of cotrap runs writes.

    python3 tools/output_digests.py BACKEND [--root CHECKOUT] > manifest.txt

BACKEND is the kernel build the runs use, each built afresh in a private
cache: c (the C kernel linked with numpy's normal fill), python (the
Python fallback, the compiler made missing), c-without-int128 (built as a
compiler without unsigned __int128 would build it) or c-without-npyrandom
(numpy's archive made missing); in the last two numpy.random draws the
noise.  The runs, all with --seed 7 at full duration: `cotrap simulate`
of every configs/ and cotrap_bench/inputs/ file, `cotrap sweep --workers
2` of configs/cooling_sweep.json, and `cotrap analyze` of the trajectories
of configs/characterised_pair.json, configs/squeezing.json (which
simulates the drive-off reference again), cotrap_bench/inputs/reanalyze.json
and the sweep's run_002.  --root runs another checkout's src/ on the same
inputs, such as a `git archive` of a parent commit.

The manifest has one line per file, sorted by path: the digest, two
spaces, the path under the run's output directory.  Diff two manifests to
show that a change, or another backend, writes the same bytes.

Each run is a child started with posix_spawn and reaped with os.wait4,
whose ru_maxrss is the child's peak RSS.  On Linux such a child is
credited at exec with the high-water RSS of the process that started it,
so this launcher imports only the standard library and hashes only after
the last run: its own peak, the first line on stderr, is the floor under
every reading.  A first untimed child builds or loads the kernel, so no
run pays its compilation; then stderr has each run's wall time and peak
RSS.  Nothing is pinned: numpy's SIMD sin and cos, the C library's libm
and the host's speed differ between hosts.
"""

import argparse
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

BACKENDS = ("c", "python", "c-without-int128", "c-without-npyrandom")

# argv: backend, private cache directory, then the CLI arguments, none to
# build or load the kernel only.  Fails when the kernel that ran is not the
# one asked for; a build without __int128 has no normal fill, so it runs as
# c-without-npyrandom.
_BOOT = """
import sys
from pathlib import Path
from cotrap import _kernel, cli
backend, cache, args = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
_kernel._CACHE_DIR = cache / backend
if backend == "python":
    _kernel._CC = str(cache / "no-such-compiler")
elif backend == "c-without-int128":
    _kernel._CFLAGS += ("-U__SIZEOF_INT128__",)
elif backend == "c-without-npyrandom":
    _kernel._NPYRANDOM = cache / "no-such-archive.a"
if not args:  # build or load the kernel only
    _kernel._c_library()
code = cli.main(args) if args else 0
if _kernel.BACKEND is not None:  # None in a sweep's parent, whose workers ran the kernel
    ran = _kernel.BACKEND
    if ran == "c" and hasattr(_kernel, "normals"):
        ran += "" if hasattr(_kernel._lib, "cotrap_normal_fill") else "-without-npyrandom"
    if ran != backend.replace("-without-int128", "-without-npyrandom"):
        sys.exit(f"asked for the {backend} backend, {ran} ran")
sys.exit(code)
"""


def runs(root, out):
    """(output directory, CLI arguments) of every run, in an order where a
    trajectory is written before it is analyzed."""
    for inputs in (root / "configs", root / "cotrap_bench" / "inputs"):
        for path in sorted(inputs.glob("*.json")):
            run = out / "simulate" / f"{inputs.name}-{path.stem}"
            yield run, ["simulate", "--config", str(path), "--seed", "7", "--out", str(run)]
    run = out / "sweep"
    yield run, ["sweep", "--config", str(root / "configs" / "cooling_sweep.json"),
                "--seed", "7", "--workers", "2", "--out", str(run)]
    trajectories = {name: out / "simulate" / name for name in
                    ("configs-characterised_pair", "configs-squeezing", "inputs-reanalyze")}
    trajectories["sweep-run_002"] = out / "sweep" / "run_002"
    for name, written in trajectories.items():
        run = out / "analyze" / name
        yield run, ["analyze", str(written / "trajectory.csv"), "--out", str(run)]


def spawn(boot, cli_args, env, log):
    """Run python with boot and cli_args, stdout discarded and stderr to
    log; return (wall seconds, peak RSS in MB), or exit with the log's tail."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
               (os.POSIX_SPAWN_OPEN, 2, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *boot, *cli_args], env,
                         file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    if (code := os.waitstatus_to_exitcode(status)) != 0:
        sys.exit(f"cotrap {' '.join(cli_args) or '(kernel build)'} exited with {code}:\n"
                 f"{log.read_text()[-2000:]}")
    return wall, usage.ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("backend", choices=BACKENDS)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="the checkout whose src/ runs (default: this one)")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory(prefix="cotrap-digests-") as tmp:
        tmp = Path(tmp)
        out, log = tmp / "out", tmp / "stderr.txt"
        boot = ["-c", _BOOT, args.backend, str(tmp / "cache")]
        spawn(boot, [], env, log)
        floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"launcher peak RSS {floor:.1f} MB (the floor under each reading)", file=sys.stderr)
        for run, cli_args in runs(root, out):
            wall, rss = spawn(boot, cli_args, env, log)
            print(f"{str(run.relative_to(out)):<36} wall {wall:6.2f} s  peak RSS {rss:6.1f} MB",
                  file=sys.stderr, flush=True)
        import hashlib  # after the runs: OpenSSL would raise the floor by about 4 MB

        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
