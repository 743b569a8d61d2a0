"""Time cotrap's integration kernel per backend on one workload's parameters.

    python kernel_backends.py <config.json> <duration_seconds>

Runs cotrap.dynamics.simulate on the config, with the run duration
replaced, once per backend: the pure-Python reference
`_kernel.run_block_python` always, and the numba-jitted `_kernel.run_block`
when numba is importable. simulate draws the noise blocks from the
config's seeds before each kernel call, so every backend integrates
identical noise, and their trajectories must agree bit for bit. Only the
kernel calls are timed. Prints one JSON object.
"""

import json
import sys
import time

import numpy as np

from cotrap import _kernel
from cotrap.config import parse_config
from cotrap.dynamics import simulate
from cotrap.report import resolve_controllers
from cotrap.trap import mode_structure


def _trajectory(cfg, kernel_fn, duration):
    """simulate() as run_experiment calls it, with run_block set to kernel_fn."""
    timing = {"seconds": 0.0, "substeps": 0}

    def timed(*args):
        start = time.perf_counter()
        try:
            return kernel_fn(*args)
        finally:
            timing["seconds"] += time.perf_counter() - start
            timing["substeps"] += int(args[16].shape[0] * args[13])

    p1, p2 = cfg.particles
    controllers = resolve_controllers(cfg, mode_structure(cfg.trap, p1, p2))
    saved = _kernel.run_block
    _kernel.run_block = timed
    try:
        traj = simulate(
            cfg.trap, p1, p2, cfg.noise, controllers,
            duration=duration, dt=cfg.run.dt, sample_rate=cfg.run.sample_rate,
            detection=cfg.detection, store_every=cfg.run.store_every,
            coulomb_coupling=cfg.run.coulomb_coupling,
        )
    finally:
        _kernel.run_block = saved
    return traj, timing


def main(argv):
    with open(argv[0]) as fh:
        cfg = parse_config(json.load(fh))
    duration = float(argv[1])
    backends = {"python": _kernel.run_block_python}
    if _kernel.NUMBA_ENABLED:
        backends["numba"] = _kernel.run_block
        _trajectory(cfg, _kernel.run_block, 10.0 / cfg.run.sample_rate)  # compile

    result = {"numba_enabled": bool(_kernel.NUMBA_ENABLED), "backends": {}}
    trajectories = {}
    for name, fn in backends.items():
        traj, timing = _trajectory(cfg, fn, duration)
        trajectories[name] = traj
        timing["substeps_per_s"] = timing["substeps"] / timing["seconds"]
        result["backends"][name] = timing
    if "numba" in trajectories:
        a, b = trajectories["python"], trajectories["numba"]
        same = all(np.array_equal(getattr(a, k), getattr(b, k))
                   for k in ("z1", "z2", "v1", "v2", "y", "forces"))
        result["parity"] = "bit-identical" if same else "DIFFERENT"
    else:
        result["parity"] = "not run: numba is not importable"
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
