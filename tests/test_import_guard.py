"""What a fresh interpreter loads: numpy is the only runtime dependency, so
neither `import cotrap` with a config nor a run loads any scipy module, and a
run with scipy made unimportable still fits the mixing ratios.  Nor does a
run load numpy.ma, which np.median would import.  `import cotrap` and
`load_config` load nothing that only a kernel build or a sweep needs, and
neither numpy.random nor OpenSSL's _hashlib, even when they derive seeds.
On the C kernel linked with numpy's normal fill, `cotrap simulate` draws
its noise without numpy.random, and no command loads _hashlib."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cotrap import _kernel

ROOT = Path(__file__).resolve().parent.parent

# argv: the file to write the loaded module names to, then the CLI
# arguments, or "numpy" to import numpy alone, or "load_config" and a config
# file to import cotrap and load that file
_SCRIPT = """
import json, sys
out, args = sys.argv[1], sys.argv[2:]
code = 0
if args == ["numpy"]:
    import numpy
elif args[0] == "load_config":
    import cotrap
    from cotrap.config import load_config
    load_config(args[1])
else:
    from cotrap.cli import main
    code = main(args)
with open(out, "w") as fh:
    json.dump(sorted(sys.modules), fh)
sys.exit(code)
"""

# a None entry makes every `import scipy...` raise ImportError
_BLOCK_SCIPY = 'import sys\nsys.modules["scipy"] = None\n'


def loaded_modules(tmp_path, *args, block_scipy=False):
    out = tmp_path / "modules.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = _BLOCK_SCIPY + _SCRIPT if block_scipy else _SCRIPT
    proc = subprocess.run([sys.executable, "-c", script, str(out), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def scipy_modules(modules):
    return [m for m in modules if m.split(".")[0] == "scipy"]


def short_config(tmp_path, name, seconds):
    raw = json.loads((ROOT / "configs" / name).read_text())
    raw["run"]["duration_seconds"] = seconds
    cfg = tmp_path / name
    cfg.write_text(json.dumps(raw))
    return cfg


def test_import_and_config_load_no_scipy(tmp_path):
    modules = loaded_modules(tmp_path, "load_config", "configs/squeezing.json")
    assert scipy_modules(modules) == []


# what only loading or building the kernel (subprocess) or a sweep (the
# rest) needs, and what would load OpenSSL
_BUILD_AND_SWEEP_ONLY = ("subprocess", "hashlib", "_hashlib", "concurrent.futures", "logging",
                         "csv")


def test_import_and_config_load_skip_build_and_sweep_modules(tmp_path):
    # a configuration without noise and detection seeds, which are derived
    baseline = set(loaded_modules(tmp_path, "numpy"))
    added = set(loaded_modules(tmp_path, "load_config", "configs/squeezing.json")) - baseline
    assert [m for m in _BUILD_AND_SWEEP_ONLY if m in added] == []
    assert "numpy.random" not in added


def test_simulate_draws_noise_without_numpy_random(tmp_path):
    if shutil.which(_kernel._CC) is None:
        pytest.skip(f"no C compiler '{_kernel._CC}' on PATH")
    _kernel._load()  # the library the run loads, built here if need be
    if not hasattr(_kernel._lib, "cotrap_normal_fill"):
        pytest.skip(f"numpy's archive {_kernel._NPYRANDOM} is missing or does not link")
    cfg = short_config(tmp_path, "squeezing.json", 2.0)
    run = tmp_path / "run"
    modules = loaded_modules(tmp_path, "simulate", "--config", str(cfg), "--out", str(run))
    assert (run / "quadratures_particle1.csv").exists()
    assert [m for m in ("numpy.random", "hashlib", "_hashlib") if m in modules] == []


def test_analyze_skips_random_pool_and_build_modules(tmp_path):
    # the trajectory's embedded configuration is resolved, and the library
    # is built by the simulate that wrote it
    cfg = short_config(tmp_path, "characterised_pair.json", 3.0)
    run = tmp_path / "run"
    loaded_modules(tmp_path, "simulate", "--config", str(cfg), "--out", str(run))
    baseline = set(loaded_modules(tmp_path, "numpy"))
    added = set(loaded_modules(tmp_path, "analyze", str(run / "trajectory.csv"),
                               "--out", str(tmp_path / "analyzed"))) - baseline
    assert (tmp_path / "analyzed" / "report.json").exists()
    assert [m for m in ("numpy.random", "concurrent.futures", "subprocess", "logging", "csv",
                        "hashlib", "_hashlib") if m in added] == []


def test_simulate_and_analyze_load_no_scipy(tmp_path):
    # 2 s of squeezing runs the demodulation but skips the mixing fit;
    # 3 s of the characterised pair resolves both modes, so the fit runs
    for name, seconds, made in (("squeezing.json", 2.0, "quadratures_particle1.csv"),
                                ("characterised_pair.json", 3.0, "report.json")):
        cfg = short_config(tmp_path, name, seconds)
        run = tmp_path / Path(name).stem / "run"
        modules = loaded_modules(tmp_path, "simulate", "--config", str(cfg), "--out", str(run))
        assert (run / made).exists(), name
        assert scipy_modules(modules) == [], name
        assert "numpy.ma" not in modules, name
        analyzed = tmp_path / Path(name).stem / "analyzed"
        modules = loaded_modules(tmp_path, "analyze", str(run / "trajectory.csv"),
                                 "--out", str(analyzed))
        assert (analyzed / "psd_particle1.csv").exists(), name
        assert scipy_modules(modules) == [], name
        assert "numpy.ma" not in modules, name


def test_mixing_fit_runs_with_scipy_blocked(tmp_path):
    cfg = short_config(tmp_path, "characterised_pair.json", 3.0)
    run = tmp_path / "run"
    loaded_modules(tmp_path, "simulate", "--config", str(cfg), "--out", str(run),
                   block_scipy=True)
    loaded_modules(tmp_path, "analyze", str(run / "trajectory.csv"),
                   "--out", str(tmp_path / "analyzed"), block_scipy=True)
    for out in (run, tmp_path / "analyzed"):
        fitted = json.loads((out / "report.json").read_text())["fitted"]
        assert "skipped" not in fitted and "r_plus" in fitted, fitted
