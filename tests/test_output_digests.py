"""The run list of tools/output_digests.py, the byte-identity and timing
check of the full-length runs: every configs/ file is simulated, and a
trajectory is analyzed only after the run that writes it."""

import importlib.util
import shutil
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digests",
                                                  REPO / "tools" / "output_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runs_cover_every_config_and_analyze_after_writing(tmp_path):
    root = tmp_path / "root"
    for inputs in ("configs", "cotrap_bench/inputs"):
        shutil.copytree(REPO / inputs, root / inputs)
    shutil.copy(REPO / "configs" / "squeezing.json", root / "configs" / "extra.json")
    out = tmp_path / "out"
    runs = list(load_tool().runs(root, out))
    simulated = {Path(args[args.index("--config") + 1])
                 for _, args in runs if args[0] == "simulate"}
    assert set((root / "configs").glob("*.json")) <= simulated
    assert root / "configs" / "extra.json" in simulated
    written = []
    for run, args in runs:
        if args[0] == "analyze":
            trajectory = Path(args[1])
            assert trajectory.name == "trajectory.csv", args
            assert any(trajectory.is_relative_to(earlier) for earlier in written), args
        written.append(run)
    assert [args[0] for _, args in runs].count("analyze") == 4
