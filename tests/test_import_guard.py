"""What a fresh interpreter loads: no scipy for `import cotrap` and a config,
and no scipy.signal for a run, whose spectra and filters are computed here."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# argv: the file to write the loaded module names to, then the CLI arguments
# (none: import cotrap and load configs/squeezing.json instead)
_SCRIPT = """
import json, sys
out, args = sys.argv[1], sys.argv[2:]
if args:
    from cotrap.cli import main
    code = main(args)
else:
    import cotrap
    from cotrap.config import load_config
    load_config("configs/squeezing.json")
    code = 0
with open(out, "w") as fh:
    json.dump(sorted(sys.modules), fh)
sys.exit(code)
"""


def loaded_modules(tmp_path, *args):
    out = tmp_path / "modules.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(out), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def test_import_and_config_load_no_scipy(tmp_path):
    assert [m for m in loaded_modules(tmp_path) if m.split(".")[0] == "scipy"] == []


def test_simulate_and_analyze_load_no_scipy_signal(tmp_path):
    raw = json.loads((ROOT / "configs" / "squeezing.json").read_text())
    raw["run"]["duration_seconds"] = 2.0
    cfg = tmp_path / "squeezing_short.json"
    cfg.write_text(json.dumps(raw))
    run = tmp_path / "run"
    modules = loaded_modules(tmp_path, "simulate", "--config", str(cfg), "--out", str(run))
    assert (run / "quadratures_particle1.csv").exists()  # the demodulation ran
    assert "scipy.signal" not in modules
    modules = loaded_modules(tmp_path, "analyze", str(run / "trajectory.csv"),
                             "--out", str(tmp_path / "analyzed"))
    assert (tmp_path / "analyzed" / "psd_particle1.csv").exists()
    assert "scipy.signal" not in modules
