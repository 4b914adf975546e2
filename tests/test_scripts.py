"""The scripts under scripts/ import from src/ and tests/; each must still run."""
import os
import runpy
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.mark.parametrize("script", ["wdvv_crosscheck.py", "reproduce_plane_tables.py"])
def test_script_exits_0(script):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_plane_tables_read_a_stored_table():
    fixture = os.path.join(ROOT, "tests", "fixtures", "plane_cubic_tangency.oracle")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "reproduce_plane_tables.py"),
         fixture], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    grid = proc.stdout.split("degree 3:\n", 1)[1].split("\n\n", 1)[0]
    header, *rows = [line.split() for line in grid.splitlines()]
    # the fixture supplies every input of the one-tangency cubic with a free cusp
    row = next(cells for cells in rows if cells[0] == "1")
    assert row[header.index("C")] == "60"


def test_tangency_fixture_matches_its_generator():
    script = runpy.run_path(os.path.join(ROOT, "scripts", "make_tangency_fixture.py"))
    path = os.path.join(ROOT, "tests", "fixtures", "plane_cubic_tangency.oracle")
    with open(path, encoding="utf-8") as fh:
        assert script["fixture_text"]() == fh.read()
