"""The names and the kernel argument layout that cotrap_bench/ reads.

The benchmark lives outside the package and is changed only on purpose,
so renaming or deleting one of these would break it without a failing
test of its own.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import cotrap
from cotrap import _kernel
from cotrap.dynamics import Trajectory

BENCH = Path(__file__).resolve().parent.parent / "cotrap_bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"cotrap_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_names_the_benchmark_reads_resolve():
    tracer = load("tracer")
    for module, attr, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    assert callable(Trajectory.to_csv) and callable(Trajectory.from_csv)
    load("kernel_backends")  # its module-level imports from cotrap
    assert isinstance(cotrap.NUMBA_ENABLED, bool)
    assert callable(_kernel.run_block_python)
    params = list(inspect.signature(_kernel.run_block).parameters)
    assert params[13] == "n_sub" and params[16] == "thermal"
