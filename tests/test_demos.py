"""Each narrative script under ``demos/`` runs to completion against the
library as imported here, from a scratch working directory (demo 03 writes
its CSVs relative to it), and so does README's Python quick start."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gasflow

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    src = str(Path(gasflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()


def test_readme_quick_start_runs(tmp_path):
    section = (ROOT / "README.md").read_text().split("## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "solve_chance_constrained" in block
    proc = run_python(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
