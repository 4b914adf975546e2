"""Byte-for-byte snapshots of outputs that performance work must not move.

The fixtures were rendered by the unoptimised recursion: the full degree-6
plane grid, the sorted key list of an exit-3 tangency query, and the key
lists of three exit-3 direct eliminations in P^4 (one with the p + q term,
one with p != q and no such term, one with the cusp on a plane).
"""

import os

import pytest

from cuspcount.cli import main
from cuspcount.constraints import Constraint
from cuspcount.cusp import CuspEngine
from cuspcount.errors import OracleDataMissingError
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


@pytest.mark.parametrize("incidences, special, name", [
    ({2: 8}, 0, "c2x8_s0"),
    ({2: 1, 3: 2, 4: 1}, 0, "c2_c3x2_c4_s0"),
    ({2: 6}, 2, "c2x6_s2"),
])
def test_incidence_key_list_unchanged(incidences, special, name):
    delta = Constraint.build(0, incidences, special=special)
    with pytest.raises(OracleDataMissingError) as err:
        CuspEngine().count_incidence(4, 2, delta)
    want = read_fixture("missing_incidence_r4_d2_%s.keys" % name).splitlines()
    assert err.value.keys == want
