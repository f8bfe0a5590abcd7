import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(tmp_path, name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "scripts" / name), *args]
    result = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_characterize_football_runs(tmp_path):
    _run_script(tmp_path, "characterize_football.py", str(tmp_path / "out"))
    assert (tmp_path / "out" / "summary.csv").exists()


def test_detection_parameter_sweep_runs(tmp_path):
    _run_script(tmp_path, "detection_parameter_sweep.py")
