import json

import pytest

from cuspcount import plane
from cuspcount.constraints import Constraint
from cuspcount.errors import (ConsistencyError, OracleDataMissingError,
                              ValidationError)
from cuspcount.nodal import NodalOracle, OracleTable


def pts(n, **kw):
    return Constraint.build(0, {2: n}, **kw)


@pytest.fixture
def oracle():
    return NodalOracle()


# -- table loading -------------------------------------------------------------


def test_text_loading(tmp_path):
    path = tmp_path / "counts.oracle"
    path.write_text(
        "# a comment line\n"
        "\n"
        "N;r=3;d=2;t=1;h=0;c2=6;s=0 = 42   # measured elsewhere\n"
        "N;r=3;d=2;t=1;h=0;c2=6;s=0 = 42\n")
    table = OracleTable()
    table.load(str(path))
    assert len(table) == 1
    key = "N;r=3;d=2;t=1;h=0;c2=6;s=0"
    assert table.get(key) == 42


def test_text_conflict(tmp_path):
    path = tmp_path / "counts.oracle"
    path.write_text("N;r=3;d=2;t=1;h=0;c2=6;s=0 = 42\n"
                    "N;r=3;d=2;t=1;h=0;c2=6;s=0 = 41\n")
    with pytest.raises(ConsistencyError):
        OracleTable().load(str(path))


def test_cross_file_conflict(tmp_path):
    a = tmp_path / "a.oracle"
    b = tmp_path / "b.oracle"
    a.write_text("N;r=3;d=2;t=1;h=0;c2=6;s=0 = 42\n")
    b.write_text("N;r=3;d=2;t=1;h=0;c2=6;s=0 = 41\n")
    table = OracleTable()
    table.load(str(a))
    with pytest.raises(ConsistencyError):
        table.load(str(b))


@pytest.mark.parametrize("line", [
    "N;r=3;d=2;t=1;h=0;c2=5;s=0",                 # no value
    "N;r=3;d=2;t=1;h=0;c2=5;s=0 = many",          # not an integer
    "N;r=3;d=2;t=1;h=1;c2=5;s=0 = 6",             # hyperplane incidences stored
    "R;r=3;d=2;t=0;h=0;c2=9;s=0 = 6",             # marked point on a plain family
    "NR;r=2;d1=1;d2=2;G1=[t=0;h=0;c2=1;s=0];G2=[t=1;h=0;c2=5;s=0];c=0 = 1",
    "RR2;r=2;d1=1;d2=2;G1=[t=0;h=0;c2=1;s=0];G2=[t=1;h=0;c2=5;s=none];k=0;l=0 = 1",
    "S;r=2;d=3;c2=6;t=1;h=0;s=0 = 60",            # non-canonical order
    # two-point join with its components in the non-canonical order
    "RR2;r=3;d1=2;d2=1;G1=[t=0;h=0;c2=1;s=none];G2=[t=0;h=0;c2=1;s=none];k=0;l=0 = 5",
    "N;r=3;d=2;t=none;h=0;c2=5;s=0 = 7",          # a count that is no number
    "NR;r=3;d1=2;d2=1;G1=[t=0;h=0;c2=6;s=0];G2=[t=0;h=none;c2=3;s=none];c=1 = 7",
    "S;r=2;d=3;t=1;h=0;c2=6;s=0 = 60",            # cusp counts are computed
    "R;r=3;d=2;t=0;h=0;c2=11;s=none = 1",         # so are rational counts
    "NR;r=3;d1=-2;d2=1;G1=[t=0;h=0;c2=6;s=0];G2=[t=0;h=0;c2=3;s=none];c=1 = 7",
    "N;r=3;d=02;t=0;h=0;c2=7;s=0 = 7",            # leading zero
    # keys the engine can never look up
    "N;r=1;d=0;t=0;h=0;c7=5;s=9 = 7",
    "N;r=1;d=2;t=0;h=0;s=0 = 7",                  # r below 2
    "N;r=3;d=0;t=0;h=0;c2=1;s=0 = 7",             # degree below 1
    "RR2;r=3;d1=0;d2=2;G1=[t=0;h=0;s=none];G2=[t=0;h=0;c2=5;s=none];k=1;l=0 = 7",
    "N;r=3;d=2;t=0;h=0;c4=2;s=0 = 7",             # codimension above r
    "NR;r=3;d1=2;d2=1;G1=[t=0;h=0;c2=5;s=0];G2=[t=0;h=0;c4=1;s=none];c=1 = 7",
    "N;r=3;d=2;t=0;h=0;c2=7;s=9 = 7",             # marked point beyond P^3
    "N;r=3;d=2;t=0;h=0;c2=3;s=0 = 5",             # off the family dimension
    "RR2;r=3;d1=1;d2=1;G1=[t=0;h=0;c2=1;s=none];G2=[t=0;h=0;c2=1;s=none];k=1;l=0 = 3",
    "N;r=2;d=3;t=0;h=0;c2=8;s=0 = 5",             # plane closed form
    "NR;r=2;d1=2;d2=1;G1=[t=0;h=0;c2=5;s=0];G2=[t=0;h=0;c2=2;s=none];c=0 = 1",
])
def test_text_rejects(tmp_path, line):
    path = tmp_path / "bad.oracle"
    path.write_text(line + "\n")
    with pytest.raises(ValidationError):
        OracleTable().load(str(path))


def test_special_none_normalizes_for_marked_families(tmp_path):
    path = tmp_path / "counts.oracle"
    path.write_text("N;r=3;d=2;t=1;h=0;c2=6;s=none = 7\n")
    table = OracleTable()
    table.load(str(path))
    assert table.get("N;r=3;d=2;t=1;h=0;c2=6;s=0") == 7


def test_special_none_normalizes_for_join_keys(tmp_path):
    path = tmp_path / "counts.oracle"
    path.write_text(
        "NR;r=3;d1=2;d2=1;G1=[t=0;h=0;c2=6;s=none];G2=[t=0;h=0;c2=3;s=none];c=1 = 7\n"
        "NR;r=3;d1=2;d2=1;G1=[t=0;h=0;c2=5;s=1];G2=[t=0;h=0;c2=3;s=none];c=1 = 8\n")
    table = OracleTable()
    table.load(str(path))
    assert len(table) == 2
    assert table.get(
        "NR;r=3;d1=2;d2=1;G1=[t=0;h=0;c2=6;s=0];G2=[t=0;h=0;c2=3;s=none];c=1") == 7
    assert table.get(
        "NR;r=3;d1=2;d2=1;G1=[t=0;h=0;c2=5;s=1];G2=[t=0;h=0;c2=3;s=none];c=1") == 8


def test_json_shape_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"family": "N"}))
    with pytest.raises(ValidationError):
        OracleTable().load(str(path))
    path.write_text(json.dumps([{"family": "N", "r": 3, "degrees": 2,
                                 "constraint": "t=0;h=0;c2=7;s=0",
                                 "joint": None, "value": 1, "extra": 2}]))
    with pytest.raises(ValidationError):
        OracleTable().load(str(path))


# -- marked-node counts -----------------------------------------------------------


def test_plane_node_family(oracle):
    for d in range(1, 6):
        assert oracle.n_count(2, d, pts(3 * d - 1)) == 2 * plane.marked_node(d)
        assert oracle.n_count(2, d, pts(3 * d - 2, special=1)) == 2 * plane.node_on_line(d)
        assert oracle.n_count(2, d, pts(3 * d - 3, special=2)) == 2 * plane.node_at_point(d)


def test_node_family_gates(oracle):
    assert oracle.n_count(2, 3, pts(7)) == 0          # off dimension
    assert oracle.n_count(2, 3, pts(5, special=3)) == 0  # marked point off the space


def test_node_family_hyperplane_scaling(oracle):
    base = oracle.n_count(2, 3, pts(8))
    assert oracle.n_count(2, 3, pts(8, hyperplanes=2)) == 9 * base


def test_node_family_needs_table_outside_plane(oracle):
    with pytest.raises(OracleDataMissingError) as err:
        oracle.n_count(3, 2, Constraint.build(0, {2: 7}, special=0))
    assert err.value.keys == ["N;r=3;d=2;t=0;h=0;c2=7;s=0"]


def test_node_family_table_hit(tmp_path):
    path = tmp_path / "counts.oracle"
    path.write_text("N;r=3;d=2;t=0;h=0;c2=7;s=0 = 11\n")
    table = OracleTable()
    table.load(str(path))
    oracle = NodalOracle(table=table)
    delta = Constraint.build(0, {2: 7}, special=0)
    assert oracle.n_count(3, 2, delta) == 11
    assert oracle.n_count(3, 2, delta.with_hyperplanes(1)) == 22


def test_plane_computed_wins_over_table(tmp_path):
    # the leaves compute this count in closed form, so a record of it is
    # never read and the load refuses it
    path = tmp_path / "counts.oracle"
    path.write_text("N;r=2;d=3;t=0;h=0;c2=8;s=0 = 999\n")
    with pytest.raises(ValidationError, match="counts.oracle:1: "):
        OracleTable().load(str(path))
    assert NodalOracle().n_count(2, 3, pts(8)) == 24


def test_tangency_node_family_is_table_only(oracle):
    delta = Constraint.build(1, {2: 7}, special=0)
    with pytest.raises(OracleDataMissingError) as err:
        oracle.n_count(2, 3, delta)
    assert err.value.keys == ["N;r=2;d=3;t=1;h=0;c2=7;s=0"]


# -- one-point joins ------------------------------------------------------------------


def test_join_worked_example(oracle):
    # nodal cubic through 8 points attached to a line through 2 points
    assert oracle.nr_count(2, 3, pts(8, special=0), 1, pts(2), 0) == 72
    # with the line through only 1 point the total falls off the dimension
    assert oracle.nr_count(2, 3, pts(8, special=0), 1, pts(1), 0) == 0


def test_join_factorizes_when_both_sides_are_fixed(oracle):
    for i, j in [(3, 1), (3, 2), (4, 1), (1, 3), (2, 3)]:
        got = oracle.nr_count(2, i, pts(3 * i - 1, special=0), j, pts(3 * j - 1), 0)
        assert got == 2 * i * j * plane.marked_node(i) * plane.rational(j)


def test_join_node_codim_gate(oracle):
    assert oracle.nr_count(2, 3, pts(8, special=3), 1, pts(2), 0) == 0


def test_join_with_tangency_needs_table(oracle):
    g1 = Constraint.build(1, {2: 7}, special=0)
    with pytest.raises(OracleDataMissingError) as err:
        oracle.nr_count(2, 3, g1, 1, pts(2), 0)
    assert err.value.keys == [
        "NR;r=2;d1=3;d2=1;G1=[t=1;h=0;c2=7;s=0];G2=[t=0;h=0;c2=2;s=none];c=0"]


def test_join_table_hit_outside_plane(tmp_path):
    key = "NR;r=3;d1=2;d2=1;G1=[t=0;h=0;c2=6;s=0];G2=[t=0;h=0;c2=3;s=none];c=1"
    path = tmp_path / "counts.oracle"
    path.write_text(key + " = 17\n")
    table = OracleTable()
    table.load(str(path))
    oracle = NodalOracle(table=table)
    got = oracle.nr_count(3, 2, Constraint.build(0, {2: 6}, special=0),
                          1, Constraint.build(0, {2: 3}), 1)
    assert got == 17


def test_join_fallback_lists_both_routes(oracle):
    g1 = Constraint.build(0, {2: 6}, special=0)
    g2 = Constraint.build(0, {2: 3})
    with pytest.raises(OracleDataMissingError) as err:
        oracle.nr_count(3, 2, g1, 1, g2, 1)
    keys = err.value.keys
    assert "NR;r=3;d1=2;d2=1;G1=[t=0;h=0;c2=6;s=0];G2=[t=0;h=0;c2=3;s=none];c=1" in keys
    assert any(k.startswith("N;r=3;d=2;") for k in keys)


def test_join_fallback_reports_the_codim0_node_side(oracle):
    # only the share e = r of the attachment diagonal meets the node side's
    # dimension, and it leaves codimension 0 on the line; the product is 0,
    # but the node side is still asked for, so both keys are reported
    with pytest.raises(OracleDataMissingError) as err:
        oracle.nr_count(3, 2, pts(5, special=0), 1, pts(5), 0)
    assert err.value.keys == [
        "N;r=3;d=2;t=0;h=0;c2=5;c3=1;s=0",
        "NR;r=3;d1=2;d2=1;G1=[t=0;h=0;c2=5;s=0];G2=[t=0;h=0;c2=5;s=none];c=0"]


# -- two-point joins --------------------------------------------------------------------


def test_double_join_worked_example(oracle):
    # a fixed line and a fixed conic meet in two points; the two attachment
    # labels can be assigned in two ways
    assert oracle.rr2_count(2, 1, pts(2), 2, pts(5), 0, 0) == 2
    assert oracle.rr2_count(2, 2, pts(5), 1, pts(2), 0, 0) == 2
    # two fixed lines meet only once, never twice
    assert oracle.rr2_count(2, 1, pts(2), 1, pts(2), 0, 0) == 0
    # lines through 1 point meeting a fixed conic, second meeting on a line
    assert oracle.rr2_count(2, 1, pts(1), 2, pts(5), 1, 0) == 2


def test_double_join_factorizes_when_both_sides_are_fixed(oracle):
    for i, j in [(1, 2), (2, 2), (1, 3), (3, 1)]:
        got = oracle.rr2_count(2, i, pts(3 * i - 1), j, pts(3 * j - 1), 0, 0)
        assert got == i * j * (i * j - 1) * plane.rational(i) * plane.rational(j)


def test_double_join_of_two_lines_is_always_empty(oracle):
    from itertools import product
    hits = 0
    for n1, n2, k, l in product(range(3), range(3), range(3), range(3)):
        if n1 + n2 + k + l != 4:
            continue
        hits += 1
        assert oracle.rr2_count(2, 1, pts(n1), 1, pts(n2), k, l) == 0
    assert hits == 19


def test_double_join_symmetric_in_joint_labels(oracle):
    a = oracle.rr2_count(2, 1, pts(2), 2, pts(4), 1, 0)
    b = oracle.rr2_count(2, 1, pts(2), 2, pts(4), 0, 1)
    assert a == b


def test_double_join_outside_plane_needs_flag(tmp_path):
    g = Constraint.build(0, {2: 1, 3: 1})
    # the plane's diagonal formula overcounts here (2, although two distinct
    # lines in space meet at most once), so only stored data can answer
    with pytest.raises(OracleDataMissingError):
        NodalOracle().rr2_count(3, 1, g, 1, g, 0, 0)


def test_double_join_table_wins_outside_plane(tmp_path):
    g = Constraint.build(0, {2: 1, 3: 1})
    key = ("RR2;r=3;d1=1;d2=1;G1=[t=0;h=0;c2=1;c3=1;s=none];"
           "G2=[t=0;h=0;c2=1;c3=1;s=none];k=0;l=0")
    path = tmp_path / "counts.oracle"
    path.write_text(key + " = 23\n")
    table = OracleTable()
    table.load(str(path))
    oracle = NodalOracle(table=table)
    assert oracle.rr2_count(3, 1, g, 1, g, 0, 0) == 23


# -- distributing one set over a join ------------------------------------------------


def test_split_count_matches_manual_sum(oracle):
    from cuspcount.constraints import enumerate_splits
    delta = pts(7)
    manual = sum(mult * oracle.nr_count(2, 2, g1.with_special(0), 1, g2, 0)
                 for g1, g2, mult in enumerate_splits(delta))
    assert oracle.nr_split_count(2, 2, 1, delta, 0, 0) == manual
    manual2 = sum(mult * oracle.rr2_count(2, 2, g1, 1, g2, 0, 0)
                  for g1, g2, mult in enumerate_splits(delta))
    assert oracle.rr2_split_count(2, 2, 1, delta, 0, 0) == manual2


def test_split_count_hyperplane_scaling(oracle):
    base = oracle.nr_split_count(2, 2, 1, pts(7), 0, 0)
    withh = oracle.nr_split_count(2, 2, 1, pts(7, hyperplanes=1), 0, 0)
    assert withh == 3 * base


@pytest.mark.parametrize("count", ["nr_split_count", "rr2_split_count"])
def test_split_count_rejects_a_marked_point(oracle, count):
    # the node of a one-point join is located by its own argument
    with pytest.raises(ValidationError, match="marked point"):
        getattr(oracle, count)(2, 2, 1, pts(7, special=0), 0, 0)


def test_split_count_aggregates_missing_keys(oracle):
    delta = Constraint.build(1, {2: 6})
    with pytest.raises(OracleDataMissingError) as err:
        oracle.nr_split_count(2, 1, 2, delta, 0, 0)
    assert len(err.value.keys) == 14
    assert all(k.startswith("NR;r=2;d1=1;d2=2;") for k in err.value.keys)


@pytest.mark.parametrize("call", [
    lambda o: o.n_count(2, 3, Constraint.build(0, {2: 6, 3: 1})),
    lambda o: o.n_count(3, 2, Constraint.build(0, {2: 1, 4: 1}, special=1)),
    lambda o: o.nr_count(2, 2, pts(5, special=0), 1, Constraint.build(0, {3: 1}), 0),
    lambda o: o.rr2_count(2, 1, Constraint.build(0, {2: 1, 3: 1}), 2, pts(5), 0, 0),
    lambda o: o.nr_split_count(2, 2, 1, Constraint.build(0, {2: 5, 3: 1}), 0, 0),
    lambda o: o.rr2_split_count(2, 1, 2, Constraint.build(0, {2: 6, 3: 1}), 0, 0),
], ids=["n_count", "n_count_r3", "nr_count", "rr2_count", "nr_split_count",
        "rr2_split_count"])
def test_incidence_codimension_above_r_rejected(oracle, call):
    # a codimension-3 subspace of P^2 is empty, so no count is a number
    with pytest.raises(ValidationError, match="incidence codimension [34] "
                                              "exceeds the ambient dimension"):
        call(oracle)


@pytest.mark.parametrize("r, d, message", [
    (1, 3, "ambient dimension must be at least 2"),
    (3, 0, "degree must be positive"),
], ids=["r1", "degree0"])
@pytest.mark.parametrize("call", [
    lambda o, r, d: o.gw_count(r, d, pts(2)),
    lambda o, r, d: o.n_count(r, d, Constraint.build(4, {}, special=1)),
    lambda o, r, d: o.nr_count(r, d, pts(5, special=0), 1, pts(3), 0),
    lambda o, r, d: o.rr2_count(r, 1, pts(2), d, pts(5), 0, 0),
    lambda o, r, d: o.nr_split_count(r, d, 1, pts(8), 0, 0),
    lambda o, r, d: o.rr2_split_count(r, 1, d, pts(8), 0, 0),
], ids=["gw_count", "n_count", "nr_count", "rr2_count", "nr_split_count",
        "rr2_split_count"])
def test_query_outside_every_family_rejected(oracle, call, r, d, message):
    # no table can hold such a key, and P^1 or degree 0 has no such count
    with pytest.raises(ValidationError, match=message):
        call(oracle, r, d)
