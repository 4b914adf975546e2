"""Byte-for-byte snapshots of outputs that performance work must not move.

The fixtures were rendered by the unoptimised recursion: the full degree-6
plane grid, and the sorted key list of an exit-3 tangency query.
"""

import os

from cuspcount.cli import main
from cuspcount.cusp import CuspEngine
from cuspcount.tables import TableSpec, build_table, render

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def read_fixture(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return fh.read()


def test_plane_grid_d6_json_unchanged():
    rendered = render(build_table(CuspEngine(), TableSpec(2, 6)), "json")
    assert rendered + "\n" == read_fixture("grid_r2_d6.json")


def test_missing_key_list_unchanged(capsys):
    code = main(["--family", "S", "--r", "2", "--d", "4", "--tangent", "1",
                 "--inc", "2:9"])
    err = capsys.readouterr().err.splitlines()
    assert code == 3
    want = read_fixture("missing_s_r2_d4_t1.keys").splitlines()
    assert err[0] == "missing stored counts for %d key(s):" % len(want)
    assert [line[2:] for line in err[1:]] == want
