import os

import pytest
from hypothesis import given, settings, strategies as st

from cuspcount.constraints import (Constraint, Family, enumerate_splits,
                                   normalize_hyperplanes, parse_key, render_key)
from cuspcount.errors import ValidationError

import crosscheck

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "stored_keys.txt")
with open(FIXTURE, encoding="utf-8") as fh:
    ACCEPTED = [line.partition("\t")[0] for line in fh.read().splitlines()
                if not line.endswith("\treject")]


def constraint_strategy(max_codim=5, with_special=True):
    specials = st.none() | st.integers(0, 4) if with_special else st.none()
    return st.builds(
        Constraint.build,
        st.integers(0, 4),
        st.dictionaries(st.integers(2, max_codim), st.integers(1, 5), max_size=3),
        st.integers(0, 3),
        specials,
    )


# -- text form ----------------------------------------------------------------


@given(constraint_strategy())
def test_render_parse_round_trip(c):
    assert Constraint.parse(c.render()) == c


def test_render_omits_zero_counts():
    c = Constraint.build(0, {2: 0, 4: 1})
    assert c.render() == "t=0;h=0;c4=1;s=none"


@pytest.mark.parametrize("text", [
    "t=0;h=0",                    # no s field
    "t=0;s=none",                 # no h field
    "h=0;s=none",                 # no t field
    "t=0;t=1;h=0;s=none",         # duplicate
    "t=0;h=0;c2=3;c2=4;s=none",   # duplicate c-field
    "t=-1;h=0;s=none",            # negative
    "t=0;h=0;c2=-2;s=none",
    "t=0;h=0;c2=none;s=none",
    "t=0;h=0;x3=1;s=none",        # unknown field
    "t=0;h=0;c0=1;s=none",        # codim 0 incidence
])
def test_parse_rejects(text):
    with pytest.raises(ValidationError):
        Constraint.parse(text)


# -- value semantics ------------------------------------------------------------


def test_constraint_rejects_attribute_assignment():
    c = Constraint.build(1, {2: 3}, special=0)
    with pytest.raises(AttributeError):
        c.tangency = 2
    with pytest.raises(AttributeError):
        c.extra = 1
    assert c == Constraint.build(1, {2: 3}, special=0)


def test_constraint_equal_and_hashed_alike_however_built():
    built = Constraint.build(1, {2: 3, 4: 1}, special=0)
    parsed = Constraint.parse("t=1;h=0;c2=3;c4=1;s=0")
    round_trip = built.add_incidence(3).remove_incidence(3)
    assert built == parsed == round_trip
    assert hash(built) == hash(parsed) == hash(round_trip)
    assert len({built, parsed, round_trip}) == 1


@pytest.mark.parametrize("fields, message", [
    ({"tangency": -1}, "negative condition count"),
    ({"hyperplanes": -1}, "negative condition count"),
    ({"special": -1}, "negative special codimension"),
    ({"incidences": ((1, 2),)}, "incidence codims must be distinct, ascending, >= 2"),
    ({"incidences": ((3, 1), (2, 1))}, "incidence codims must be distinct, ascending, >= 2"),
    ({"incidences": ((2, 1), (2, 1))}, "incidence codims must be distinct, ascending, >= 2"),
    ({"incidences": ((2, 0),)}, "incidence counts must be positive"),
])
def test_constraint_validated_on_construction(fields, message):
    with pytest.raises(ValidationError, match=message):
        Constraint(**fields)


def test_constraint_repr_names_its_fields():
    assert repr(Constraint.build(0, {2: 3})) == (
        "Constraint(tangency=0, hyperplanes=0, incidences=((2, 3),), special=None)")
    assert str(Constraint.build(0, {2: 3})) == "t=0;h=0;c2=3;s=none"


def test_build_folds_hyperplane_incidences():
    c = Constraint.build(0, {1: 2, 3: 1}, hyperplanes=1)
    assert c.hyperplanes == 3
    assert c.incidences == ((3, 1),)


# -- weights ------------------------------------------------------------------


def test_condition_weights():
    c = Constraint.build(2, {2: 3, 4: 1}, hyperplanes=5, special=2)
    # tangency 2, points 3*(2-1), codim-4 one at weight 3, special 2
    assert c.cond() == 2 + 3 + 3 + 2


# -- keys ---------------------------------------------------------------------


def test_documented_key_parses():
    key = parse_key("N;r=3;d=4;t=0;h=0;c2=13;s=1")
    assert key == (Family.N, 3, 4, Constraint.build(0, {2: 13}, special=1))
    assert key[0] is Family.N


def test_single_key_round_trip():
    delta = Constraint.build(1, {2: 6}, special=0)
    key = render_key((Family.S, 2, 3, delta))
    assert key == "S;r=2;d=3;t=1;h=0;c2=6;s=0"
    assert parse_key(key) == (Family.S, 2, 3, delta)


def test_two_component_keys():
    g1 = Constraint.build(0, {2: 1}, special=0)
    g2 = Constraint.build(1, {2: 5})
    key = render_key((Family.NR, 2, 1, g1, 2, g2, 0))
    assert key == "NR;r=2;d1=1;d2=2;G1=[t=0;h=0;c2=1;s=0];G2=[t=1;h=0;c2=5;s=none];c=0"
    assert parse_key(key) == (Family.NR, 2, 1, g1, 2, g2, 0)


def test_rr2_key_sorts_components():
    g1 = Constraint.build(1, {2: 5})
    g2 = Constraint.build(0, {2: 1})
    a = render_key((Family.RR2, 2, 2, g1, 1, g2, 0, 1))
    b = render_key((Family.RR2, 2, 1, g2, 2, g1, 0, 1))
    assert a == b
    assert a.startswith("RR2;r=2;d1=1;")
    assert parse_key(a) == (Family.RR2, 2, 1, g2, 2, g1, 0, 1)


@pytest.mark.parametrize("key", [
    "Q;r=2;d=3;t=0;h=0;s=0",                          # unknown family
    "S;r=2;d=3;t=0;c2=1;h=0;s=0",                     # fields out of canonical order
    "S;r=2;d=3;t=0;h=0;c2=0;s=0",                     # zero count spelled out
    "S;d=3;r=2;t=0;h=0;s=0",                          # r and d swapped
    "NR;r=2;d1=1;d2=2;G1=[t=0;h=0;s=0];c=0",          # missing G2
    "RR2;r=2;d1=2;d2=1;G1=[t=1;h=0;s=none];G2=[t=0;h=0;s=none];k=0;l=0",  # unsorted
])
def test_parse_key_rejects_non_canonical(key):
    with pytest.raises(ValidationError):
        parse_key(key)


def outcome(parse, key):
    try:
        return parse(key)
    except ValidationError as exc:
        return "reject: %s" % exc


@settings(max_examples=400)
@given(st.sampled_from(ACCEPTED).flatmap(lambda key: st.tuples(
           st.just(key), st.integers(0, len(key)))),
       st.sampled_from("sdi"), st.sampled_from("[[]];=Gcdklrst0129 \n"))
def test_parse_key_reads_the_reference_grammar(key_at, edit, char):
    # one character substituted, deleted or inserted into a stored key
    key, at = key_at
    key = {"s": key[:at] + char + key[at + 1:], "d": key[:at] + key[at + 1:],
           "i": key[:at] + char + key[at:]}[edit]
    assert outcome(parse_key, key) == outcome(crosscheck.parse_key, key)


# -- splits --------------------------------------------------------------------


@given(constraint_strategy(with_special=False).map(lambda c: c.with_hyperplanes(0)))
def test_split_multiplicities_sum(c):
    splits = list(enumerate_splits(c))
    entries = c.tangency + sum(n for _, n in c.incidences)
    assert sum(m for _, _, m in splits) == 2 ** entries
    # every split conserves the conditions
    for g1, g2, _ in splits:
        assert g1.tangency + g2.tangency == c.tangency
        assert g1.cond() + g2.cond() == c.cond()


@given(constraint_strategy(with_special=False).map(lambda c: c.with_hyperplanes(0)))
def test_splits_are_mirror_symmetric(c):
    splits = list(enumerate_splits(c))
    bag = {}
    for g1, g2, m in splits:
        bag[(g1, g2)] = bag.get((g1, g2), 0) + m
    for (g1, g2), m in bag.items():
        assert bag[(g2, g1)] == m


@given(constraint_strategy(with_special=False).map(lambda c: c.with_hyperplanes(0)))
def test_splits_are_built_sets(c):
    splits = list(enumerate_splits(c))
    assert splits == list(crosscheck.split_reference(c))
    assert all(type(g) is Constraint for g1, g2, _ in splits for g in (g1, g2))


def test_split_requires_bare_set():
    with pytest.raises(ValidationError):
        list(enumerate_splits(Constraint.build(0, {2: 1}, special=0)))
    with pytest.raises(ValidationError):
        list(enumerate_splits(Constraint.build(0, {2: 1}, hyperplanes=1)))


def test_normalize_hyperplanes():
    scale, bare = normalize_hyperplanes(3, Constraint.build(1, {2: 2}, hyperplanes=2))
    assert scale == 9
    assert bare == Constraint.build(1, {2: 2})
