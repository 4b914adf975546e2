"""The scripts under scripts/ import from src/ and tests/; each must still run,
and the fixture table one of them writes must still fill its grid cell.
perfbench's tracer must still install over the package and run each kind of
operation a traced benchmark run makes."""
import os
import runpy
import subprocess
import sys

import pytest

from cuspcount.cli import main

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.mark.parametrize("script", ["wdvv_crosscheck.py"])
def test_script_exits_0(script):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_plane_tables_read_a_stored_table(capsys):
    fixture = os.path.join(ROOT, "tests", "fixtures", "plane_cubic_tangency.oracle")
    code = main(["--family", "S", "--r", "2", "--d", "3", "--table", "--oracle", fixture])
    assert code == 0
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    # the fixture supplies every input of the one-tangency cubic with a free
    # cusp, whose expansion plans its joins once both marked-node terms pass
    row = next(cells for cells in rows if cells[0] == "1")
    assert row[header.index("C")] == "60"


def test_tangency_fixture_matches_its_generator():
    script = runpy.run_path(os.path.join(ROOT, "scripts", "make_tangency_fixture.py"))
    path = os.path.join(ROOT, "tests", "fixtures", "plane_cubic_tangency.oracle")
    with open(path, encoding="utf-8") as fh:
        assert script["fixture_text"]() == fh.read()


TRACED_RUN = """
import sys
root, fixture = sys.argv[1:3]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import cuspcount.cli
from tracing import Tracer
tracer = Tracer()
tracer.install()
from cuspcount import cli, cusp
from cuspcount.constraints import Constraint
from cuspcount.tables import TableSpec, build_table
engine = cusp.CuspEngine()
assert engine.count(2, 3, Constraint.build(0, {2: 7})) == 24
terms = engine.expansion(2, 3, Constraint.build(0, {2: 7}))
assert tracer.counters["cusp.expansion_terms"] == len(terms) > 0
build_table(engine, TableSpec(2, 4))
sys.exit(cli.main(["--family", "S", "--r", "2", "--d", "3", "--table",
                   "--oracle", fixture]))
"""


def test_traced_run_exits_0():
    # installing the tracer rewires the package's module globals, so the
    # traced run gets a process of its own
    fixture = os.path.join(ROOT, "tests", "fixtures", "plane_cubic_tangency.oracle")
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, ROOT, fixture],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
