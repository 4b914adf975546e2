"""The scripts under scripts/ import from src/ and tests/; each must still run."""
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.mark.parametrize("script", ["wdvv_crosscheck.py", "reproduce_plane_tables.py"])
def test_script_exits_0(script):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
