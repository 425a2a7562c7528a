"""The scripts under scripts/ start and import what they use from src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("name", ["run_desk_pipeline.py", "run_lambda_ablation.py"])
def test_help_exits_cleanly(name):
    done = run_script(name, "--help")
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def test_equilibrium_runs_to_the_end():
    done = run_script(
        "run_equilibrium.py", "--points", "16", "--steps", "5", "--draws", "2",
        "--record-every", "1",
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len([ln for ln in lines if ln.strip()[:1].isdigit()]) == 6  # steps 0-4 and 5
    assert lines[-1].startswith("gap")
