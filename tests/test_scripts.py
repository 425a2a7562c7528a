"""The scripts under scripts/ start and import what they use from src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd=ROOT):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("name", ["run_desk_pipeline.py", "run_lambda_ablation.py"])
def test_help_exits_cleanly(name, tmp_path):
    # Started outside the repo: a script finds what it reads from its own path.
    done = run_script(name, "--help", cwd=tmp_path)
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


def test_src_lines_counts_every_module():
    done = run_script("src_lines.py")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    modules = sorted(p.name for p in (ROOT / "src" / "cel").glob("*.py"))
    assert [r[0] for r in rows] == [*modules, "total"]
    totals = [sum(int(r[i]) for r in rows[:-1]) for i in (1, 2)]
    assert [int(v) for v in rows[-1][1:]] == totals
    assert 0 < totals[1] < totals[0]


def test_src_lines_leaves_out_docstrings_comments_and_blanks(tmp_path):
    (tmp_path / "m.py").write_text(
        '"""Module\n\ndocstring."""\n\n# comment\n'
        'def f(x):  # trailing comment\n    """Doc."""\n    s = """not a\n    docstring"""\n'
        '    return x\n'
    )
    done = run_script("src_lines.py", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].split() == ["total", "10", "4"]
