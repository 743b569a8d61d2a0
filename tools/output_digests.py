#!/usr/bin/env python3
"""Print the SHA-256 of every file a fixed set of cotrap runs writes.

    python3 tools/output_digests.py BACKEND [--root CHECKOUT] > manifest.txt

BACKEND is the kernel build the runs use, each built afresh in a private
cache:

  c                     the C kernel linked with numpy's normal fill
  python                the Python fallback (the compiler made missing)
  c-without-int128      the C kernel built as a compiler without unsigned
                        __int128 would build it, so numpy.random draws the
                        noise
  c-without-npyrandom   the C kernel with numpy's archive made missing, so
                        numpy.random draws the noise

The runs, all with --seed 7: `cotrap simulate` of the three configs/ files
and the three cotrap_bench/inputs/ files, `cotrap sweep --workers 2` of
configs/cooling_sweep.json, and `cotrap analyze` of the trajectories of
configs/characterised_pair.json, configs/squeezing.json (which simulates
the drive-off reference again), cotrap_bench/inputs/reanalyze.json and the
sweep's run_002.
--root runs another checkout's src/ on the same inputs, such as a
`git archive` of a parent commit.  The manifest has one line per file,
sorted by path: the digest, two spaces, the path under the run's output
directory.  Diff two manifests to show that a change, or another backend,
writes the same bytes.  No digest is pinned: numpy's SIMD sin and cos and
the C library's libm differ between hosts.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BACKENDS = ("c", "python", "c-without-int128", "c-without-npyrandom")

# argv: backend, private cache directory, then the CLI arguments.  Fails
# when the kernel that ran is not the one asked for; a build without
# __int128 has no normal fill, so it runs as c-without-npyrandom.
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
code = cli.main(args)
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
    inputs = [root / "configs" / name
              for name in ("characterised_pair.json", "cooling_sweep.json", "squeezing.json")]
    inputs += [root / "cotrap_bench" / "inputs" / name
               for name in ("cooling_sweep.json", "reanalyze.json", "squeeze.json")]
    for path in inputs:
        run = out / "simulate" / f"{path.parent.name}-{path.stem}"
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
        out = tmp / "out"
        for run, cli_args in runs(root, out):
            proc = subprocess.run([sys.executable, "-c", _BOOT, args.backend, str(tmp / "cache"),
                                   *cli_args], cwd=root, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"cotrap {' '.join(cli_args)} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
            print(f"ran {run.relative_to(out)}", file=sys.stderr)
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
