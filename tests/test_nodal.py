import json
from collections import Counter
from itertools import product

import pytest
from hypothesis import assume, example, given, strategies as st

from cuspcount import plane
from cuspcount.cli import main
from cuspcount.constraints import (Constraint, Family, enumerate_splits,
                                   finite_conditions, join_order, parse_key,
                                   render_key)
from cuspcount.cusp import CuspEngine
from cuspcount.errors import (ConsistencyError, FinitenessError,
                              OracleDataMissingError, ValidationError)
from cuspcount.gw import GWEngine
from cuspcount.nodal import (NodalOracle, OracleTable, _check_stored_key,
                             _never_stored)
from cuspcount.tables import TableSpec, build_table

from parity import parity_lines
from stored_keys import corpus


def pts(n, **kw):
    return Constraint.build(0, {2: n}, **kw)


@pytest.fixture
def oracle():
    return NodalOracle()


# stored keys of counts empty by theorem, each with the theorem it meets
THEOREM_KEYS = [
    ("N;r=4;d=3;t=0;h=0;c2=9;s=5", "marked point codimension 5 exceeds"),
    ("N;r=3;d=1;t=0;h=0;c2=3;s=0", "degree 1 has no node and no cusp"),
    ("NR;r=5;d1=2;d2=1;G1=[t=0;h=0;c2=10;s=0];G2=[t=0;h=0;c2=5;s=none];c=1",
     "degree 2 has no node and no cusp"),
    ("NR;r=4;d1=2;d2=3;G1=[t=2;h=0;c2=7;s=1];G2=[t=1;h=0;c2=10;s=none];c=2",
     "degree 2 has no node and no cusp"),
    ("RR2;r=4;d1=1;d2=1;G1=[t=0;h=0;c2=1;c4=1;s=none];"
     "G2=[t=0;h=0;c2=1;c4=1;s=none];k=0;l=0", "two distinct lines meet at most once"),
    ("RR2;r=5;d1=1;d2=1;G1=[t=1;h=0;c3=1;s=none];G2=[t=1;h=0;c4=1;s=none];k=2;l=1",
     "two distinct lines meet at most once"),
]


# -- table loading -------------------------------------------------------------


def test_text_loading(tmp_path):
    path = tmp_path / "counts.oracle"
    path.write_text(
        "# a comment line\n"
        "\n"
        "N;r=3;d=3;t=1;h=0;c2=10;s=0 = 42   # measured elsewhere\n"
        "N;r=3;d=3;t=1;h=0;c2=10;s=0 = 42\n")
    table = OracleTable()
    table.load(str(path))
    assert len(table) == 1
    delta = Constraint.build(1, {2: 10}, special=0)
    # the record is stored under its structured key, which the leaf builds
    assert table.get((Family.N, 3, 3, delta)) == 42
    assert NodalOracle(table=table)._n_count(3, 3, delta) == 42


def test_two_point_join_found_from_either_order(tmp_path):
    # the text key orders the blocks as text, c2=10 before c2=9; the
    # structured key orders them by structure, c2=9 first
    path = tmp_path / "counts.oracle"
    path.write_text("RR2;r=3;d1=3;d2=3;G1=[t=0;h=0;c2=10;s=none];"
                    "G2=[t=0;h=0;c2=9;s=none];k=2;l=1 = 7\n")
    table = OracleTable()
    table.load(str(path))
    oracle = NodalOracle(table=table)
    assert table.get((Family.RR2, 3, 3, pts(9), 3, pts(10), 2, 1)) == 7
    assert oracle._rr2_count(3, 3, pts(10), 3, pts(9), 2, 1) == 7
    assert oracle._rr2_count(3, 3, pts(9), 3, pts(10), 2, 1) == 7
    assert oracle.rr2_count(3, 3, pts(9), 3, pts(10), 2, 1) == 7


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_line_ends_number_lines(tmp_path, newline):
    path = tmp_path / "counts.oracle"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(newline.join(["# two records", "N;r=3;d=3;t=1;h=0;c2=10;s=0 = 42", "",
                               "N;r=3;d=3;t=2;h=0;c2=9;s=0 = 7", ""]))
    table = OracleTable()
    table.load(str(path))
    assert sorted(table.where[str(path)].values()) == [2, 4]
    assert sorted(table.values()) == [7, 42]


@pytest.mark.parametrize("char", ["\f", "\v", "\u2028"])
def test_other_line_breaks_do_not_end_a_line(tmp_path, capsys, char):
    # only \n, \r\n and \r end a line: a record holding another break is
    # one malformed line, and a comment holding one stays a comment
    key = "N;r=3;d=3;t=0;h=0;c2=11;s=0"
    path = tmp_path / "counts.oracle"
    path.write_text("# was %s%s = 5\n%s = 42\n" % (char, key, key), encoding="utf-8")
    table = OracleTable()
    table.load(str(path))
    assert table == {(Family.N, 3, 3, pts(11, special=0)): 42}
    path.write_text("# one line\n%s = 42%s%s = 42\n" % (key, char, key), encoding="utf-8")
    code = main(["--family", "N", "--r", "3", "--d", "3", "--inc", "2:11",
                 "--oracle", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: %s:2: " % path)


def test_undecodable_byte_is_counted_from_the_file_start(tmp_path):
    # the file decodes a buffer at a time, and the message counts from its start
    path = tmp_path / "counts.oracle"
    path.write_bytes(b"# padding\n" * 2000 + b"\xff\n")
    with pytest.raises(ValidationError, match="position 20000: invalid start byte"):
        OracleTable().load(str(path))


def test_text_conflict(tmp_path):
    path = tmp_path / "counts.oracle"
    path.write_text("N;r=3;d=3;t=1;h=0;c2=10;s=0 = 42\n"
                    "N;r=3;d=3;t=1;h=0;c2=10;s=0 = 41\n")
    with pytest.raises(ConsistencyError):
        OracleTable().load(str(path))


def test_cross_file_conflict(tmp_path):
    a = tmp_path / "a.oracle"
    b = tmp_path / "b.oracle"
    a.write_text("N;r=3;d=3;t=1;h=0;c2=10;s=0 = 42\n")
    b.write_text("N;r=3;d=3;t=1;h=0;c2=10;s=0 = 41\n")
    table = OracleTable()
    table.load(str(a))
    with pytest.raises(ConsistencyError):
        table.load(str(b))


def test_conflict_names_the_first_record(tmp_path):
    key = "N;r=3;d=3;t=1;h=0;c2=10;s=0"
    for name, value in (("a", 42), ("b", 42), ("c", 41)):
        (tmp_path / name).write_text("# %s\n%s = %d\n" % (name, key, value))
    table = OracleTable()
    table.load(str(tmp_path / "a"))
    table.load(str(tmp_path / "b"))
    with pytest.raises(ConsistencyError) as err:
        table.load(str(tmp_path / "c"))
    assert str(err.value) == "conflicting values for %s: 42 (%s:2) vs 41 (%s:2)" % (
        key, tmp_path / "a", tmp_path / "c")


@st.composite
def stored_keys(draw):
    """A structured key the reader accepts: the first component's points
    fill what the drawn conditions leave of the family dimension."""
    family = draw(st.sampled_from([Family.N, Family.NR, Family.RR2]))
    r = draw(st.integers(2, 5))
    degrees = (draw(st.integers(3, 6)),) if family is Family.N else (
        draw(st.integers(3 if family is Family.NR else 1, 4)), draw(st.integers(1, 4)))
    assume(degrees != (1, 1))
    parts = [Constraint.build(draw(st.integers(0, 3)), draw(st.dictionaries(
        st.integers(2, r), st.integers(1, 2), max_size=2))) for _ in degrees]
    joint = (draw(st.integers(0, r)) if family is Family.NR else None if family is Family.N
             else (draw(st.integers(0, r)), draw(st.integers(0, r))))
    if family is not Family.RR2:
        parts[0] = parts[0].with_special(draw(st.integers(0, r)))
    have = sum(g.cond() for g in parts) + (sum(joint) if family is Family.RR2 else joint or 0)
    room = finite_conditions(family, r, sum(degrees)) - have
    assume(room >= 0)
    points = dict(parts[0].incidences)
    points[2] = points.get(2, 0) + room
    parts[0] = Constraint.build(parts[0].tangency, points, special=parts[0].special)
    assume(r > 2 or any(g.tangency for g in parts))
    if family is Family.N:
        return family, r, degrees[0], parts[0]
    if family is Family.NR:
        return family, r, degrees[0], parts[0], degrees[1], parts[1], joint
    return (family, r, *join_order(degrees[0], parts[0], degrees[1], parts[1]), *joint)


@given(stored_keys())
# equal degrees whose text order (c2=10 before c2=4) is not join_order's
@example((Family.RR2, 3, 2, pts(4), 2, pts(10), 0, 0))
def test_stored_key_text_reads_back_as_its_key(key):
    assert _check_stored_key(render_key(key)) == key
    assert parse_key(render_key(key)) == key


def leaf(oracle, key):
    """The leaf a structured key names, called with the key's fields."""
    family, r, *fields = key
    count = {Family.N: oracle._n_count, Family.NR: oracle._nr_count,
             Family.RR2: oracle._rr2_count}[family]
    return count(r, *fields)


class NoGets(OracleTable):
    def get(self, *args):
        raise AssertionError("the leaf read the table")


def test_reader_and_leaves_agree_on_the_corpus(tmp_path):
    # every key the reader accepts is one its leaf reads, and every key the
    # one rule turns away is one its leaf settles without the table
    path = tmp_path / "one.oracle"
    read = ruled = 0
    for text in corpus():
        try:
            key = _check_stored_key(text)
        except ValidationError as exc:
            try:
                key = parse_key(text)
            except ValidationError:
                continue
            if key[0] not in (Family.N, Family.NR, Family.RR2):
                continue
            single = len(key) == 4
            degrees = (key[2],) if single else (key[2], key[4])
            why = _never_stored(key[0], key[1], degrees, key[3], key[3 if single else 5])
            if str(exc) != "%s (%s)" % (why, text):
                continue  # rejected before the rule was asked
            assert isinstance(leaf(NodalOracle(table=NoGets()), key), int), text
            ruled += 1
            continue
        path.write_text("%s = 7\n" % text)
        table = OracleTable()
        table.load(str(path))
        assert leaf(NodalOracle(table=table), key) == 7, text
        read += 1
    assert (read, ruled) == (232, 387)


@pytest.mark.parametrize("line", [
    "N;r=3;d=2;t=1;h=0;c2=5;s=0",                 # no value
    "N;r=3;d=2;t=1;h=0;c2=5;s=0 = many",          # not an integer
    # values follow the key rule: plain decimal, as str(int) prints it
    "N;r=3;d=3;t=0;h=0;c2=11;s=0 = \u0663",       # an Arabic-Indic digit
    "N;r=3;d=3;t=0;h=0;c2=11;s=0 = 1_000",        # digit separator
    "N;r=3;d=3;t=0;h=0;c2=11;s=0 = +7",           # explicit sign
    "N;r=3;d=3;t=0;h=0;c2=11;s=0 = 07",           # leading zero
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
    "NR;r=2;d1=3;d2=1;G1=[t=0;h=0;c2=8;s=0];G2=[t=0;h=0;c2=2;s=none];c=0 = 1",
    # counts empty by theorem in every P^r
    *(key + " = 0" for key, _ in THEOREM_KEYS),
])
def test_text_rejects(tmp_path, line):
    path = tmp_path / "bad.oracle"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        OracleTable().load(str(path))


@pytest.mark.parametrize("value", ["\u0663", "1_000", "+7", "-0"])
def test_non_canonical_value_exits_2_with_its_line(tmp_path, capsys, value):
    path = tmp_path / "counts.oracle"
    path.write_text("# one record\nN;r=3;d=3;t=0;h=0;c2=11;s=0 = %s\n" % value,
                    encoding="utf-8")
    code = main(["--family", "N", "--r", "3", "--d", "3", "--inc", "2:11",
                 "--oracle", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: %s:2: " % path)
    assert "plain decimal" in captured.err


def test_negative_value_exits_2_with_its_line(tmp_path, capsys):
    # every stored key counts configurations of curves, so no count is negative
    path = tmp_path / "counts.oracle"
    path.write_text("# one record\nN;r=3;d=3;t=0;h=0;c2=11;s=0 = -5\n")
    code = main(["--family", "N", "--r", "3", "--d", "3", "--inc", "2:11",
                 "--oracle", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: %s:2: value -5 is negative, and a count of" \
        " curves cannot be\n" % path


@pytest.mark.parametrize("key, theorem", THEOREM_KEYS)
def test_theorem_key_exits_2_naming_its_theorem(tmp_path, capsys, key, theorem):
    path = tmp_path / "counts.oracle"
    path.write_text("# a count the leaves decide without a table\n%s = 0\n" % key)
    code = main(["--family", "S", "--r", "3", "--d", "3", "--inc", "2:10",
                 "--oracle", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: %s:2: " % path)
    assert theorem in captured.err and key in captured.err


def test_special_none_rejected_for_marked_families(tmp_path, capsys):
    # the engine looks a marked node up by its number, never by s=none, and
    # s=none counts 0 conditions, so the key would pass the dimension check
    path = tmp_path / "counts.oracle"
    path.write_text("N;r=3;d=3;t=1;h=0;c2=10;s=0 = 6\n"
                    "N;r=3;d=3;t=1;h=0;c2=10;s=none = 7\n")
    with pytest.raises(ValidationError, match=":2: the marked-node component"):
        OracleTable().load(str(path))
    code = main(["--family", "S", "--r", "3", "--d", "3", "--inc", "2:10",
                 "--oracle", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: %s:2: " % path)
    assert "s=<n>, not s=none" in captured.err


def test_special_none_rejected_for_join_keys(tmp_path):
    path = tmp_path / "counts.oracle"
    path.write_text(
        "NR;r=3;d1=3;d2=1;G1=[t=0;h=0;c2=9;s=1];G2=[t=0;h=0;c2=3;s=none];c=1 = 8\n"
        "NR;r=3;d1=3;d2=1;G1=[t=0;h=0;c2=10;s=none];G2=[t=0;h=0;c2=3;s=none];c=1 = 7\n")
    with pytest.raises(ValidationError, match=":2: the marked-node component"):
        OracleTable().load(str(path))


# the one message of the rule that only the first component of N, S and NR
# carries a marked point
PLACEMENT = ("only the first component of N, S and NR carries a marked point;"
             " use s=none elsewhere")


@pytest.mark.parametrize("call", [
    lambda o: o.gw_count(2, 3, pts(8, special=0)),
    lambda o: o.nr_count(2, 3, pts(8, special=0), 1, pts(2, special=0), 0),
    lambda o: o.rr2_count(2, 1, pts(2, special=0), 2, pts(5), 0, 0),
    lambda o: o.rr2_count(2, 1, pts(2), 2, pts(5, special=1), 0, 0),
    lambda o: o.rr2_split_count(2, 2, 1, pts(7, special=0), 0, 0),
], ids=["gw_count", "nr_count", "rr2_count_first", "rr2_count_second",
        "rr2_split_count"])
def test_misplaced_marked_point_rejected_with_one_message(oracle, call):
    with pytest.raises(ValidationError) as err:
        call(oracle)
    assert str(err.value) == PLACEMENT


def test_stored_key_with_a_misplaced_marked_point_rejected(tmp_path):
    key = "NR;r=3;d1=3;d2=1;G1=[t=0;h=0;c2=9;s=1];G2=[t=0;h=0;c2=3;s=0];c=1"
    path = tmp_path / "counts.oracle"
    path.write_text("%s = 8\n" % key)
    with pytest.raises(ValidationError) as err:
        OracleTable().load(str(path))
    assert str(err.value) == "%s:1: %s (%s)" % (path, PLACEMENT, key)


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
    with pytest.raises(FinitenessError):
        oracle.n_count(2, 3, pts(7))                  # off dimension
    assert oracle.n_count(2, 3, pts(5, special=3)) == 0  # marked point off the space


def test_node_family_hyperplane_scaling(oracle):
    base = oracle.n_count(2, 3, pts(8))
    assert oracle.n_count(2, 3, pts(8, hyperplanes=2)) == 9 * base


def test_node_family_needs_table_outside_plane(oracle):
    with pytest.raises(OracleDataMissingError) as err:
        oracle.n_count(3, 3, Constraint.build(0, {2: 11}, special=0))
    assert err.value.keys == ["N;r=3;d=3;t=0;h=0;c2=11;s=0"]


def test_node_family_table_hit(tmp_path):
    path = tmp_path / "counts.oracle"
    path.write_text("N;r=3;d=3;t=0;h=0;c2=11;s=0 = 11\n")
    table = OracleTable()
    table.load(str(path))
    oracle = NodalOracle(table=table)
    delta = Constraint.build(0, {2: 11}, special=0)
    assert oracle.n_count(3, 3, delta) == 11
    assert oracle.n_count(3, 3, delta.with_hyperplanes(1)) == 33


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
    with pytest.raises(FinitenessError):
        oracle.nr_count(2, 3, pts(8, special=0), 1, pts(1), 0)


def test_join_factorizes_when_both_sides_are_fixed(oracle):
    for i, j in [(3, 1), (3, 2), (4, 1), (1, 3), (2, 3)]:
        got = oracle.nr_count(2, i, pts(3 * i - 1, special=0), j, pts(3 * j - 1), 0)
        assert got == 2 * i * j * plane.marked_node(i) * plane.rational(j)


def test_join_node_codim_gate(oracle):
    assert oracle.nr_count(2, 3, pts(5, special=3), 1, pts(2), 0) == 0


def test_join_hyperplanes_scale_by_their_own_degree(oracle):
    # each hyperplane multiplies by the degree of the component it meets;
    # unequal degrees catch swapped factors
    assert oracle.nr_count(2, 3, pts(8, special=0), 2, pts(5), 0) == 144
    assert oracle.nr_count(2, 3, pts(8, special=0, hyperplanes=1),
                           2, pts(5, hyperplanes=2), 0) == 3 * 2**2 * 144 == 1728
    assert oracle.rr2_count(2, 2, pts(5), 3, pts(8), 0, 0) == 360
    assert oracle.rr2_count(2, 2, pts(5, hyperplanes=1),
                            3, pts(8, hyperplanes=2), 0, 0) == 2 * 3**2 * 360 == 6480


def test_join_with_tangency_needs_table(oracle):
    g1 = Constraint.build(1, {2: 7}, special=0)
    with pytest.raises(OracleDataMissingError) as err:
        oracle.nr_count(2, 3, g1, 1, pts(2), 0)
    assert err.value.keys == [
        "NR;r=2;d1=3;d2=1;G1=[t=1;h=0;c2=7;s=0];G2=[t=0;h=0;c2=2;s=none];c=0"]


def test_join_table_hit_outside_plane(tmp_path):
    key = "NR;r=3;d1=3;d2=1;G1=[t=0;h=0;c2=10;s=0];G2=[t=0;h=0;c2=3;s=none];c=1"
    path = tmp_path / "counts.oracle"
    path.write_text(key + " = 17\n")
    table = OracleTable()
    table.load(str(path))
    oracle = NodalOracle(table=table)
    got = oracle.nr_count(3, 3, Constraint.build(0, {2: 10}, special=0),
                          1, Constraint.build(0, {2: 3}), 1)
    assert got == 17


def test_join_fallback_lists_both_routes(oracle):
    g1 = Constraint.build(0, {2: 10}, special=0)
    g2 = Constraint.build(0, {2: 3})
    with pytest.raises(OracleDataMissingError) as err:
        oracle.nr_count(3, 3, g1, 1, g2, 1)
    keys = err.value.keys
    assert "NR;r=3;d1=3;d2=1;G1=[t=0;h=0;c2=10;s=0];G2=[t=0;h=0;c2=3;s=none];c=1" in keys
    assert any(k.startswith("N;r=3;d=3;") for k in keys)


def test_join_fallback_reports_the_codim0_node_side(oracle):
    # only the share e = r of the attachment diagonal meets the node side's
    # dimension, and it leaves codimension 0 on the line; the product is 0,
    # but the node side is still asked for, so both keys are reported
    with pytest.raises(OracleDataMissingError) as err:
        oracle.nr_count(3, 3, pts(9, special=0), 1, pts(5), 0)
    assert err.value.keys == [
        "N;r=3;d=3;t=0;h=0;c2=9;c3=1;s=0",
        "NR;r=3;d1=3;d2=1;G1=[t=0;h=0;c2=9;s=0];G2=[t=0;h=0;c2=5;s=none];c=0"]


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
    # the plane's diagonal formula overcounts here (2), but two distinct
    # lines in space meet at most once, so the count is 0 by theorem
    assert NodalOracle().rr2_count(3, 1, g, 1, g, 0, 0) == 0


def test_double_join_table_wins_outside_plane(tmp_path):
    line = Constraint.build(0, {2: 1, 3: 1})
    conic = Constraint.build(0, {2: 5, 3: 1})
    key = ("RR2;r=3;d1=1;d2=2;G1=[t=0;h=0;c2=1;c3=1;s=none];"
           "G2=[t=0;h=0;c2=5;c3=1;s=none];k=0;l=0")
    path = tmp_path / "counts.oracle"
    path.write_text(key + " = 23\n")
    table = OracleTable()
    table.load(str(path))
    oracle = NodalOracle(table=table)
    assert oracle.rr2_count(3, 1, line, 2, conic, 0, 0) == 23
    assert oracle.rr2_count(3, 2, conic, 1, line, 0, 0) == 23


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
    with pytest.raises(ValidationError) as err:
        getattr(oracle, count)(2, 2, 1, pts(7, special=0), 0, 0)
    assert str(err.value) == ("only the first component of N, S and NR carries"
                              " a marked point; use s=none elsewhere")


def test_split_count_aggregates_missing_keys(oracle):
    delta = Constraint.build(1, {2: 9})
    with pytest.raises(OracleDataMissingError) as err:
        oracle.nr_split_count(2, 3, 1, delta, 0, 0)
    assert len(err.value.keys) == 20
    assert all(k.startswith("NR;r=2;d1=3;d2=1;") for k in err.value.keys)


def test_split_count_stops_at_its_first_missing_leaf(oracle, monkeypatch):
    calls = Counter()
    for name in LEAF_FAMILIES:
        original = getattr(NodalOracle, name)

        def counted(self, *args, _original=original):
            calls["leaves"] += 1
            return _original(self, *args)

        monkeypatch.setattr(NodalOracle, name, counted)
    delta = Constraint.build(1, {2: 13})
    with pytest.raises(OracleDataMissingError) as err:
        oracle.nr_split_count(3, 3, 1, delta, 0, 0)
    # a join with a tangency is table-only, so the first split ends the sum
    assert calls["leaves"] == 1
    keys = err.value.keys
    # reading the keys evaluates the other 27 splits
    assert calls["leaves"] == 28
    # and reports every split's keys, as a sum that runs every term would
    want = set()
    for g1, g2, _ in enumerate_splits(delta):
        want.update(map(render_key, oracle._nr_count(3, 3, g1.with_special(0), 1, g2, 0)))
    assert keys == sorted(want)


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


# -- one dimension check at the entries, trusted by the leaves -------------------------


@pytest.mark.parametrize("extra", [-1, 1], ids=["too_few", "too_many"])
@pytest.mark.parametrize("call", [
    lambda e, n: e.count(2, 3, pts(7 + n)),
    lambda e, n: e.count_incidence(2, 3, pts(7 + n)),
    lambda e, n: e.oracle.n_count(2, 3, pts(8 + n)),
    lambda e, n: e.oracle.nr_count(2, 3, pts(8, special=0), 1, pts(2 + n), 0),
    lambda e, n: e.oracle.rr2_count(2, 1, pts(2), 2, pts(5 + n), 0, 0),
    lambda e, n: e.oracle.nr_split_count(2, 3, 1, pts(10 + n), 0, 0),
    lambda e, n: e.oracle.rr2_split_count(2, 1, 2, pts(7 + n), 0, 0),
    lambda e, n: e.oracle.gw_count(2, 3, pts(8 + n)),
], ids=["count", "count_incidence", "n_count", "nr_count", "rr2_count",
        "nr_split_count", "rr2_split_count", "gw_count"])
def test_off_dimension_query_rejected(call, extra):
    with pytest.raises(FinitenessError,
                       match=r"^query imposes \d+ conditions on a \d+-dimensional family$"):
        call(CuspEngine(), extra)


@pytest.mark.parametrize("extra", [0, -1, 1], ids=["on", "too_few", "too_many"])
@pytest.mark.parametrize("call", [
    lambda e, n: e.count(3, 3, Constraint.build(1, {2: 5 + n}, special=4)),
    lambda e, n: e.count_incidence(3, 3, pts(6 + n, special=4)),
    lambda e, n: e.oracle.n_count(2, 3, pts(5 + n, special=3)),
    lambda e, n: e.oracle.nr_count(
        3, 3, Constraint.build(1, {2: 7}, special=4), 1, pts(2 + n), 0),
    lambda e, n: e.oracle.nr_split_count(3, 3, 1, Constraint.build(1, {2: 9 + n}), 4, 0),
], ids=["count", "count_incidence", "n_count", "nr_count", "nr_split_count"])
def test_marked_point_beyond_the_space_is_empty(call, extra):
    # a point on a subspace of codimension above r lies nowhere: on the family
    # dimension the count is 0 and no stored key is asked for; off it the
    # query is rejected like any other
    if extra:
        with pytest.raises(FinitenessError, match=r"^query imposes \d+ conditions"):
            call(CuspEngine(), extra)
    else:
        assert call(CuspEngine(), extra) == 0


LEAF_FAMILIES = {"_n_count": Family.N, "_nr_count": Family.NR,
                 "_rr2_count": Family.RR2}


def test_leaves_get_a_marked_point_and_the_family_dimension(monkeypatch):
    # the entries check the family dimension once and trade hyperplanes for
    # degree factors, so every leaf call the recursions and joins make must
    # already match the dimension and carry no hyperplane
    calls, wrong = Counter(), Counter()
    for name, family in LEAF_FAMILIES.items():
        original = getattr(NodalOracle, name)

        def checked(self, r, *args, _original=original, _name=name, _family=family):
            # (d, delta) or (d1, g1, d2, g2, *joint conditions)
            degrees, constraints, joint = args[0::2][:2], args[1::2][:2], args[4:]
            calls[_name] += 1
            weight = sum(joint) + sum(g.cond() for g in constraints)
            marked = _family is Family.RR2 or constraints[0].special is not None
            if (not marked or any(g.hyperplanes for g in constraints)
                    or weight != finite_conditions(_family, r, sum(degrees))):
                wrong[_name] += 1
            return _original(self, r, *args)

        monkeypatch.setattr(NodalOracle, name, checked)
    for _ in parity_lines():
        pass
    build_table(CuspEngine(), TableSpec(2, 6))
    engine = CuspEngine()
    oracle = engine.oracle
    engine.count(2, 3, pts(7, hyperplanes=2))
    engine.count_incidence(2, 3, pts(7, hyperplanes=1))
    oracle.n_count(2, 3, pts(8, hyperplanes=2))
    oracle.nr_count(2, 3, pts(8, special=0, hyperplanes=1), 2, pts(5, hyperplanes=2), 0)
    oracle.rr2_count(2, 2, pts(5, hyperplanes=1), 3, pts(8, hyperplanes=2), 0, 0)
    oracle.nr_split_count(2, 2, 1, pts(7, hyperplanes=1), 0, 0)
    oracle.rr2_split_count(2, 2, 1, pts(7, hyperplanes=1), 0, 0)
    assert all(calls[name] for name in LEAF_FAMILIES)
    assert wrong == Counter()


def test_plane_leaves_ask_the_kernel_only_inside_its_gate(monkeypatch):
    # a kernel number off its dimension gate is 0 by the kernel's own check,
    # so the joins solve their shares from the gate instead of asking for one
    calls = Counter()
    original = GWEngine.gw_counts

    def recorded(self, r, d, incidences):
        incidences = tuple(incidences)
        weight = sum((a - 1) * n for a, n in incidences)
        calls[weight == (r + 1) * d + r - 3] += 1
        return original(self, r, d, incidences)

    monkeypatch.setattr(GWEngine, "gw_counts", recorded)
    engine = CuspEngine()
    for d in range(3, 9):
        for k in range(3):
            engine.count(2, d, pts(3 * d - 2 - k, special=k))
            engine.count_incidence(2, d, pts(3 * d - 2 - k, special=k))
    oracle = NodalOracle()
    for d1, d2 in product(range(1, 5), repeat=2):
        for j in range(3):
            delta = pts(finite_conditions(Family.RR2, 2, d1 + d2) - j)
            for k in range(j + 1):
                oracle.rr2_split_count(2, d1, d2, delta, k, j - k)
            oracle.nr_split_count(2, d1, d2, delta, 0, j)
    assert calls[True] and not calls[False]
