"""Smoke test: every script in demos/ runs clean against src/."""
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_clean(script):
    # conftest.py puts src/ on the PYTHONPATH the child inherits
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "nan" not in proc.stdout.lower()
