"""Byte-for-byte snapshots of outputs that performance work must not move.

The fixtures were rendered by the unoptimised recursion: the full degree-6
plane grid, the sorted key list of an exit-3 tangency query, and the key
lists of three exit-3 direct eliminations in P^4 (one with the p + q term,
one with p != q and no such term, one with the cusp on a plane).  The cubic
key lists in P^3 and P^4, for both routes, and the probe digest of
``parity.py`` were rendered before the leaf layer stopped calling the kernel
with codimension-0 insertions; the cubic lists carry one-point joins reported
by the splitting fallback. ``stored_keys.py`` renders how each key of a
corpus of stored-table keys is read; its fixture was rendered before the key
reader became one round-trip rule, which changed only lines now rejected: R
and S records, negative numbers, inputs that used to raise ValueError, and
keys the engine never looks up. Rejecting the keys the leaves' own gates
skip (a marked point beyond P^r, off-dimension conditions, tangency-free
plane keys) again changed only accepted lines into rejects.
"""

import os

import pytest

from cuspcount.cli import main
from cuspcount.constraints import Constraint
from cuspcount.cusp import CuspEngine
from cuspcount.errors import OracleDataMissingError
from cuspcount.nodal import OracleTable
from cuspcount.tables import TableSpec, build_table, render

from parity import parity_lines
from stored_keys import grid_keys, stored_key_lines

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


@pytest.mark.parametrize("route", ["count", "count_incidence"])
@pytest.mark.parametrize("r, points", [(3, 10), (4, 13)])
def test_cubic_key_list_unchanged(route, r, points):
    delta = Constraint.build(0, {2: points}, special=0)
    with pytest.raises(OracleDataMissingError) as err:
        getattr(CuspEngine(), route)(r, 3, delta)
    name = "missing_%s_r%d_d3_c2x%d_s0.keys" % (
        "count" if route == "count" else "incidence", r, points)
    assert err.value.keys == read_fixture(name).splitlines()


def test_parity_digest_unchanged():
    want = read_fixture("parity_r2_r5.txt").splitlines()
    got = list(parity_lines())
    assert len(got) == len(want)
    assert [pair for pair in zip(got, want) if pair[0] != pair[1]] == []


def test_stored_key_outcomes_unchanged():
    want = read_fixture("stored_keys.txt").splitlines()
    got = list(stored_key_lines())
    assert len(got) == len(want)
    assert [pair for pair in zip(got, want) if pair[0] != pair[1]] == []


def test_reported_keys_load_back(tmp_path):
    # every key an exit-3 report lists is one a stored table may hold
    keys = list(grid_keys())
    for name in sorted(os.listdir(FIXTURES)):
        if name.endswith(".keys"):
            keys += read_fixture(name).splitlines()
    path = tmp_path / "reported.oracle"
    path.write_text("".join("%s = 0\n" % key for key in keys))
    table = OracleTable()
    table.load(str(path))
    assert len(table) == len(set(keys))
