"""Byte-for-byte snapshots of outputs that performance work must not move.

The fixtures pin: the full degree-6 plane grid, and a digest of the plane
grids of degrees 3 to 10; the sorted key list of an
exit-3 plane tangency query; the P^3 and P^4 cubic key lists of both cusp
routes, which carry one-point joins reported by the splitting fallback; the
probe digest of ``parity.py``; and how each key of the corpus in
``stored_keys.py`` is read, with the message of each rejected one. Key lists hold only keys a table may store, so
none names a count that is empty by theorem. Three P^4 conic queries (one
with the p + q term, one with p != q and no such term, one with the cusp on
a plane) are such counts and must print 0.
"""

import hashlib
import os

import pytest

from cuspcount.cli import main
from cuspcount.constraints import Constraint
from cuspcount.cusp import CuspEngine
from cuspcount.errors import OracleDataMissingError
from cuspcount.nodal import OracleTable
from cuspcount.tables import TableSpec, build_table, render

from parity import parity_lines
from stored_keys import reject_message_lines, stored_key_lines

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def read_fixture(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return fh.read()


def test_plane_grid_d6_json_unchanged():
    rendered = render(build_table(CuspEngine(), TableSpec(2, 6)), "json")
    assert rendered + "\n" == read_fixture("grid_r2_d6.json")


def test_plane_grids_d3_to_d10_digest_unchanged():
    rendered = "".join(render(build_table(CuspEngine(), TableSpec(2, d)), "json")
                       for d in range(3, 11))
    assert hashlib.sha256(rendered.encode()).hexdigest() == (
        "193b79c9f9e50e672a5683155c2bc0c4dd15da95f4278f83a3f6f6febf02a580")


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
    # a conic has no cusp, so the key list is empty and both routes print 0
    delta = Constraint.build(0, incidences, special=special)
    assert CuspEngine().count_incidence(4, 2, delta) == 0, name
    assert CuspEngine().count(4, 2, delta) == 0, name


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


def test_stored_key_reject_messages_unchanged():
    want = read_fixture("stored_key_messages.txt").splitlines()
    got = list(reject_message_lines())
    assert len(got) == len(want)
    assert [pair for pair in zip(got, want) if pair[0] != pair[1]] == []


def grid_keys():
    """Sorted keys the P^3 and P^4 cubic cusp grids lack on an empty table."""
    keys = set()
    for r in (3, 4):
        engine = CuspEngine()
        spec = TableSpec(r, 3)
        for t in range(4 * r + 4):
            for k in range(r + 1):
                delta = spec.cell_constraint(t, k)
                if delta is None:
                    continue
                try:
                    engine.count(r, 3, delta)
                except OracleDataMissingError as exc:
                    keys.update(exc.keys)
    return sorted(keys)


def test_reported_keys_load_back(tmp_path):
    # every key an exit-3 report lists is one a stored table may hold
    keys = grid_keys()
    for name in sorted(os.listdir(FIXTURES)):
        if name.endswith(".keys"):
            keys += read_fixture(name).splitlines()
    path = tmp_path / "reported.oracle"
    path.write_text("".join("%s = 0\n" % key for key in keys))
    table = OracleTable()
    table.load(str(path))
    assert len(table) == len(set(keys))
