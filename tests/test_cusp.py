import gc
import os
from collections import Counter
from itertools import product
from math import comb, prod

import pytest

from cuspcount import cusp, plane
from cuspcount.cli import main
from cuspcount.constraints import Constraint, Family, empty_by_theorem
from cuspcount.cusp import CuspEngine, ExpansionTerm
from cuspcount.errors import (ConsistencyError, FinitenessError,
                              OracleDataMissingError, PendingFailure,
                              ValidationError)
from cuspcount.gw import GWEngine
from cuspcount.nodal import NodalOracle, OracleTable
from cuspcount.tables import NEEDS_ORACLE, TableSpec, build_table

from linear_form import linear_form

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

CUSP_ROW = {3: 24, 4: 2304, 5: 435168, 6: 156153600,
            12: 4188208817193400886066380800}
CUSP_ON_LINE_ROW = {3: 12, 4: 864, 5: 130896, 6: 39223584}
CUSP_AT_POINT_ROW = {3: 2, 4: 102, 5: 12024, 6: 2953656}

TANGENT_QUERY = Constraint.build(1, {2: 6}, special=0)


def pts(n, **kw):
    return Constraint.build(0, {2: n}, **kw)


@pytest.fixture
def engine():
    return CuspEngine()


@pytest.fixture
def expansions(monkeypatch):
    """Counts calls of ``CuspEngine.expansion`` per (r, d, delta)."""
    calls = Counter()
    original = CuspEngine.expansion

    def counted(self, r, d, delta, *args, **kwargs):
        calls[(r, d, delta)] += 1
        return original(self, r, d, delta, *args, **kwargs)

    monkeypatch.setattr(CuspEngine, "expansion", counted)
    return calls


@pytest.fixture
def split_count(monkeypatch):
    """Counts the splits produced by the enumeration ``cusp.py`` calls."""
    produced = Counter()
    original = cusp.enumerate_splits

    def counted(delta):
        for split in original(delta):
            produced["splits"] += 1
            yield split

    monkeypatch.setattr(cusp, "enumerate_splits", counted)
    return produced


def plant_tangency_table(tmp_path, engine, poison=False):
    """Solve the d=3 one-tangency balance for a consistent stored table."""
    try:
        engine.count(2, 3, TANGENT_QUERY)
    except OracleDataMissingError as exc:
        keys = exc.keys
    lines = []
    for key in keys:
        if key == "N;r=2;d=3;t=1;h=0;c2=7;s=0":
            value = 73 if poison else 72
        elif key == "N;r=2;d=3;t=1;h=0;c2=6;s=1":
            value = 100
        elif key == ("RR2;r=2;d1=1;d2=2;G1=[t=0;h=0;c2=1;s=none];"
                     "G2=[t=1;h=0;c2=5;s=none];k=0;l=0"):
            value = 5
        else:
            value = 0
        lines.append(f"{key} = {value}")
    path = tmp_path / "tangency.oracle"
    path.write_text("\n".join(lines) + "\n")
    table = OracleTable()
    table.load(str(path))
    return table


# -- plane rows through the full recursion ----------------------------------------


def test_cusp_row(engine):
    for d in (3, 4, 5):
        assert engine.count(2, d, pts(3 * d - 2)) == plane.cusp(d) == CUSP_ROW[d]


def test_cusp_on_line_row(engine):
    for d, want in CUSP_ON_LINE_ROW.items():
        assert engine.count(2, d, pts(3 * d - 3, special=1)) == want


def test_cusp_at_point_row(engine):
    for d, want in CUSP_AT_POINT_ROW.items():
        assert engine.count(2, d, pts(3 * d - 4, special=2)) == want


def test_direct_elimination_matches_full_recursion(engine):
    for d in (3, 4):
        for k in (0, 1, 2):
            delta = pts(3 * d - 2 - k, special=k)
            assert engine.count_incidence(2, d, delta) == engine.count(2, d, delta)


def test_direct_elimination_rows(engine):
    for d in (3, 4, 5, 6):
        assert engine.count_incidence(2, d, pts(3 * d - 2)) == CUSP_ROW[d]
        assert engine.count_incidence(
            2, d, pts(3 * d - 3, special=1)) == CUSP_ON_LINE_ROW[d]
        assert engine.count_incidence(
            2, d, pts(3 * d - 4, special=2)) == CUSP_AT_POINT_ROW[d]


# -- gates and validation ----------------------------------------------------------


def test_direct_elimination_needs_two_incidences(engine):
    # a line in P^3 through one special point takes fewer than two
    # incidences; it has no cusp, so the direct elimination returns 0 by
    # theorem instead of asking for a key on an empty table
    assert engine.count_incidence(3, 1, Constraint.build(0, {}, special=2)) == 0


def test_low_degree_zeros(engine):
    assert engine.count(2, 1, pts(1)) == 0
    assert engine.count(2, 2, pts(4)) == 0
    assert engine.count_incidence(2, 2, pts(4)) == 0
    # a line or conic has no node and no cusp, and two lines meet at most
    # once, in every P^r: on an empty table no key is asked for
    oracle = engine.oracle
    for r in (3, 4, 5):
        for d in (1, 2):
            for t in (0, 1):
                for k in range(r + 1):
                    n2 = (r + 1) * d - 2 - t - k
                    if n2 < 0:
                        continue
                    assert engine.count(r, d, Constraint.build(t, {2: n2}, special=k)) == 0
                    if t == 0:
                        assert engine.count_incidence(r, d, pts(n2, special=k)) == 0
                    assert oracle.n_count(
                        r, d, Constraint.build(t, {2: n2 + 1}, special=k)) == 0
                    # the marked curve joined to a line at a point on one hyperplane
                    assert oracle.nr_count(
                        r, d, Constraint.build(t, {2: n2}, special=k), 1,
                        pts(r), 1) == 0
        # two lines joined twice, with a tangency each, which only a table
        # could supply if the theorem did not decide it
        g = Constraint.build(1, {2: r - 1})
        assert oracle.rr2_count(r, 1, g, 1, g, 0, 0) == 0


def test_finiteness(engine):
    with pytest.raises(FinitenessError):
        engine.count(2, 3, pts(6))
    with pytest.raises(FinitenessError):
        engine.count_incidence(2, 3, pts(8))


def test_cusp_location_off_space(engine):
    # on the family dimension, a cusp on a subspace of codimension above r
    # lies nowhere, so the count is empty
    assert engine.count(2, 3, pts(4, special=3)) == 0


def test_codim_beyond_ambient(engine):
    with pytest.raises(ValidationError):
        engine.count(2, 3, Constraint.build(0, {3: 1, 2: 5}))


def test_tangency_rejected_by_direct_elimination(engine):
    with pytest.raises(ValidationError):
        engine.count_incidence(2, 3, Constraint.build(1, {2: 6}))


def test_hyperplane_scaling(engine):
    assert engine.count(2, 3, pts(7, hyperplanes=2)) == 9 * CUSP_ROW[3]
    assert engine.count_incidence(2, 3, pts(7, hyperplanes=1)) == 3 * CUSP_ROW[3]


def test_memoized_on_canonical_key(engine, expansions):
    first = engine.count(2, 4, pts(10))
    expanded = sum(expansions.values())
    # hyperplanes and an unset cusp location normalise to the same subquery
    assert engine.count(2, 4, pts(10, hyperplanes=1, special=0)) == 4 * first
    assert sum(expansions.values()) == expanded
    assert engine._memo[(2, 4, pts(10, special=0))] == first == CUSP_ROW[4]


def test_failed_subquery_expanded_once_per_engine(engine, expansions):
    grid = build_table(engine, TableSpec(2, 4))
    assert expansions and set(expansions.values()) == {1}
    assert [row["C"] for row in grid.rows] == [CUSP_ROW[4]] + [NEEDS_ORACLE] * 10
    # a memoised failure reports the same keys as the unmemoised recursion did
    with open(os.path.join(FIXTURES, "missing_s_r2_d4_t1.keys")) as fh:
        want = fh.read().splitlines()
    with pytest.raises(OracleDataMissingError) as err:
        engine.count(2, 4, Constraint.build(1, {2: 9}, special=0))
    assert err.value.keys == want
    assert set(expansions.values()) == {1}


def test_failure_forgotten_when_table_grows(expansions):
    table = OracleTable()
    engine = CuspEngine(NodalOracle(table=table))
    with pytest.raises(OracleDataMissingError) as err:
        engine.count(2, 3, TANGENT_QUERY)
    assert len(err.value.keys) == 16
    with pytest.raises(OracleDataMissingError):
        engine.count(2, 3, TANGENT_QUERY)
    assert expansions[(2, 3, TANGENT_QUERY)] == 1
    table.load(os.path.join(FIXTURES, "plane_cubic_tangency.oracle"))
    assert engine.count(2, 3, TANGENT_QUERY) == 60
    assert expansions[(2, 3, TANGENT_QUERY)] == 2


# -- theorem expansion structure --------------------------------------------------


def test_expansion_term_shape(engine):
    terms = engine.expansion(2, 3, TANGENT_QUERY)
    by_family = {}
    for term in terms:
        by_family.setdefault(term.family, []).append(term)
    # every one-point join has a nodal component of degree <= 2, so none is
    # produced; the two-point joins over (1, 2), 14 splits, stand for (2, 1)'s
    assert Family.NR not in by_family
    assert len(by_family[Family.RR2]) == 14
    assert sum(t.coefficient for t in by_family[Family.RR2]) == 512
    assert [t.coefficient for t in by_family[Family.S]] == [-9]
    assert sorted(t.coefficient for t in by_family[Family.N]) == [-1, 6]
    for term in by_family[Family.RR2]:
        d1, d2 = term.degrees
        assert (d1, d2) == (1, 2)
        assert term.coefficient % (2 * d1 * d2) == 0 and term.coefficient > 0
        assert term.joint == (0, 0)
    n_terms = sorted(by_family[Family.N], key=lambda t: t.coefficient)
    assert n_terms[0].constraints[0] == Constraint.build(1, {2: 7}, special=0)
    assert n_terms[1].constraints[0] == Constraint.build(1, {2: 6}, special=1)
    s_term = by_family[Family.S][0]
    assert s_term.constraints[0] == Constraint.build(0, {2: 6}, special=1)


@pytest.mark.parametrize("value, field", [
    (ExpansionTerm(-1, Family.N, (3,), (TANGENT_QUERY,)), "coefficient"),
    (TableSpec(2, 3), "points"),
])
def test_value_types_reject_attribute_assignment(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        value.extra = 0


def test_value_types_compare_and_hash_by_fields():
    assert TableSpec(2, 3) == TableSpec(2, 3, 0) and TableSpec(2, 3).points == 0
    assert hash(TableSpec(2, 3)) == hash(TableSpec(2, 3, 0))
    assert ExpansionTerm(1, Family.S, (3,), (TANGENT_QUERY,)).joint is None


def test_tangency_reduction_capped_by_cusp_codimension(engine):
    # k = 2 leaves room for l <= r - k = 1 of the three tangencies
    delta = Constraint.build(3, {2: 1}, special=2)
    s_terms = [t for t in engine.expansion(3, 2, delta) if t.family is Family.S]
    assert [(t.coefficient, t.constraints[0].render()) for t in s_terms] == [
        (-12, "t=2;h=0;c2=1;s=3")]


def test_missing_stored_counts_are_aggregated(engine):
    with pytest.raises(OracleDataMissingError) as err:
        engine.count(2, 3, TANGENT_QUERY)
    keys = err.value.keys
    # every one-point join has a nodal component of degree <= 2, so none is asked for
    assert len(keys) == 16
    assert sum(k.startswith("NR;") for k in keys) == 0
    assert sum(k.startswith("RR2;") for k in keys) == 14
    assert sum(k.startswith("N;") for k in keys) == 2
    assert keys == sorted(keys)


def test_tangency_fixture_recovers_stored_row(tmp_path, engine):
    table = plant_tangency_table(tmp_path, engine)
    solved = CuspEngine(NodalOracle(table=table))
    assert solved.count(2, 3, TANGENT_QUERY) == 60


def test_inconsistent_table_fails_division(tmp_path, engine):
    table = plant_tangency_table(tmp_path, engine, poison=True)
    poisoned = CuspEngine(NodalOracle(table=table))
    with pytest.raises(ConsistencyError):
        poisoned.count(2, 3, TANGENT_QUERY)


def test_consistency_failure_wins_over_missing_data(tmp_path, capsys):
    # the parent's S subquery trades one tangency for the cusp on a line;
    # the table completes that subquery, and nothing else the parent needs
    parent = Constraint.build(2, {2: 5}, special=0)
    child = Constraint.build(1, {2: 5}, special=1)
    try:
        CuspEngine().count(2, 3, child)
    except OracleDataMissingError as exc:
        keys = exc.keys

    def table_with(value):
        lines = ["%s = %d" % (key, value if key == "N;r=2;d=3;t=1;h=0;c2=6;s=1"
                              else 0) for key in keys]
        path = tmp_path / ("s-child-%d.oracle" % value)
        path.write_text("\n".join(lines) + "\n")
        return path

    def engine_on(path):
        table = OracleTable()
        table.load(str(path))
        return CuspEngine(NodalOracle(table=table))

    consistent = engine_on(table_with(0))
    assert consistent.count(2, 3, child) == -2
    with pytest.raises(OracleDataMissingError):
        consistent.count(2, 3, parent)
    # 1 moves the child's eliminated side from -18 to -19, not divisible by 9
    poisoned = table_with(1)
    with pytest.raises(ConsistencyError):
        engine_on(poisoned).count(2, 3, parent)
    for argv in (["--tangent", "2", "--inc", "2:5"], ["--table"]):
        code = main(["--family", "S", "--r", "2", "--d", "3", *argv,
                     "--oracle", str(poisoned)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert captured.err.startswith("consistency failure:")
        assert "Traceback" not in captured.err


# -- fail-fast subqueries and deferred keys -----------------------------------------


def test_grid_stops_failing_subqueries_at_first_missing_leaf(monkeypatch):
    calls = Counter()
    for name in ("_nr_count", "_rr2_count"):
        original = getattr(NodalOracle, name)

        def counted(self, *args, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(NodalOracle, name, counted)
    build_table(CuspEngine(), TableSpec(2, 8))
    # every leaf of every failing subquery would be 85,330
    assert 0 < calls["_nr_count"] + calls["_rr2_count"] <= 2000


def test_direct_elimination_stops_at_its_first_missing_leaf(engine, monkeypatch):
    calls = Counter()
    for name in ("_n_count", "_nr_count", "_rr2_count"):
        original = getattr(NodalOracle, name)

        def counted(self, *args, _original=original):
            calls["leaves"] += 1
            return _original(self, *args)

        monkeypatch.setattr(NodalOracle, name, counted)
    with pytest.raises(OracleDataMissingError) as err:
        engine.count_incidence(3, 3, pts(10, special=0))
    # no stored table, so the first two-point join ends the sum
    assert calls["leaves"] == 1
    with open(os.path.join(FIXTURES, "missing_incidence_r3_d3_c2x10_s0.keys")) as fh:
        assert err.value.keys == fh.read().splitlines()
    # reading the keys runs the other leaves: 9 splits of each of the two
    # degree pairs, and the two marked-node terms
    assert calls["leaves"] == 20


def test_space_grid_reads_its_table_without_rendering(tmp_path, monkeypatch):
    # as perfbench's space_oracle builds it: a table of every key the P^3
    # cubic grid lacks, each valued 9 * w, the square of its total degree
    # keeping every checked division exact
    spec = TableSpec(3, 3)
    empty = CuspEngine()
    keys = set()
    t = 0
    while any(spec.cell_constraint(t, k) is not None for k in range(4)):
        for k in range(4):
            delta = spec.cell_constraint(t, k)
            if delta is None:
                continue
            try:
                empty.count(3, 3, delta)
            except OracleDataMissingError as exc:
                keys.update(exc.keys)
        t += 1
    path = tmp_path / "space.oracle"
    path.write_text("".join("%s = %d\n" % (key, 9 * (i % 7 + 1))
                            for i, key in enumerate(sorted(keys))))
    table = OracleTable()
    table.load(str(path))

    def refuse(self):
        raise AssertionError("rendered %r" % (self,))

    # the leaves look their structured keys up: no key text is rendered
    monkeypatch.setattr(Constraint, "render", refuse)
    result = build_table(CuspEngine(NodalOracle(table=table)), spec)
    cells = [row[c] for row in result.rows for c in result.columns]
    assert len(result.rows) > 1
    assert all(isinstance(v, int) for v in cells if v is not None)


def test_gathered_failure_holds_only_key_text(engine):
    with pytest.raises(OracleDataMissingError) as err:
        engine.count(3, 3, pts(10, special=0))
    assert err.value.keys and all(type(key) is str for key in err.value.keys)
    # the memoised failures, now gathered, keep no constraint set alive
    stack = [hit[1] for hit in engine._memo.values() if not isinstance(hit, int)]
    assert stack
    while stack:
        obj = stack.pop()
        assert not isinstance(obj, Constraint)
        if isinstance(obj, (tuple, list, set, frozenset, PendingFailure)):
            stack.extend(gc.get_referents(obj))


def test_failing_subqueries_build_no_splits(split_count):
    build_table(CuspEngine(), TableSpec(2, 8))
    # the join terms' splits are built only where a subquery reaches them:
    # 66 splits, where building them with every expansion would be 6,095
    assert 0 < split_count["splits"] <= 100


def test_plane_count_kernel_call_budget(monkeypatch):
    calls = Counter()
    original = GWEngine.gw_counts

    def counted(self, *args):
        calls["gw_counts"] += 1
        return original(self, *args)

    monkeypatch.setattr(GWEngine, "gw_counts", counted)
    assert CuspEngine().count(2, 12, pts(34)) == plane.cusp(12) == CUSP_ROW[12]
    # the two-point joins ask only for shares their first component's gate
    # admits: 53 calls, where every share pair would be 1,549
    assert 0 < calls["gw_counts"] <= 60


def test_plane_count_join_term_budget(monkeypatch):
    calls = Counter()
    original = CuspEngine._evaluate

    def counted(self, r, term):
        if term.family in (Family.NR, Family.RR2):
            calls[term.family, term.degrees] += 1
        return original(self, r, term)

    monkeypatch.setattr(CuspEngine, "_evaluate", counted)
    assert CuspEngine().count(2, 12, pts(34)) == CUSP_ROW[12]
    # only the splits the kernel's gate admits: at most two per degree pair,
    # where every split would be 35
    assert calls and max(calls.values()) <= 2


def test_gated_recursion_matches_direct_elimination(engine):
    # count_incidence sums every split, ungated: a second route to each value
    for d in range(3, 13):
        for k, h in product(range(3), repeat=2):
            delta = pts(3 * d - 2 - k, special=k, hyperplanes=h)
            assert engine.count(2, d, delta) == engine.count_incidence(2, d, delta)


def test_expansion_validates_before_iteration(engine):
    with pytest.raises(FinitenessError):
        engine.expansion(2, 3, Constraint.build(0, {2: 3}))


@pytest.mark.parametrize("r, d, delta", [
    (2, 3, TANGENT_QUERY),
    (2, 4, pts(10)),
    (3, 2, Constraint.build(3, {2: 1}, special=2)),
    (3, 3, Constraint.build(2, {2: 5, 3: 1}, special=1)),
    (4, 3, Constraint.build(1, {2: 3, 3: 2, 4: 1}, special=2)),
    # even degrees: the middle pair d1 == d2 takes each split with its
    # mirror, and an odd number of splits keeps the self-mirror one once
    (3, 4, Constraint.build(1, {2: 10, 3: 1}, special=1)),
    (2, 6, Constraint.build(2, {2: 13}, special=1)),
    (3, 4, Constraint.build(0, {2: 10, 3: 2}, special=0)),
    (2, 4, Constraint.build(2, {2: 8}, special=0)),
    (2, 4, pts(10)),
])
def test_expansion_length_counts_its_terms(engine, split_count, r, d, delta):
    terms = engine.expansion(r, d, delta)
    size = len(terms)
    # counted from the condition counts: even the failing plane expansion
    # (2, 3, TANGENT_QUERY) builds no split for it
    assert split_count["splits"] == 0
    listed = list(terms)
    assert size == len(listed)
    families = [t.family for t in listed]
    # the cusp terms come before every leaf
    assert families == sorted(families, key=lambda f: f is not Family.S)


def five_term_transcription(r, d, delta):
    """The eliminated side as the recursion writes it, for a query with h = 0:
    every tangency reduction, both marked-node terms, and both joins over
    every ordered degree pair and every ordered split, coefficients
    (-C(t,l) d^2, -1, +2d, -d2^2, +d1 d2) times the split's multiplicity."""
    k, t, classes = delta.special, delta.tangency, delta.incidences
    terms = [(-comb(t, l) * d * d, Family.S, (d,),
              (delta.with_tangency(t - l).with_special(k + l),), None)
             for l in range(1, t + 1)]
    terms.append((-1, Family.N, (d,), (delta.add_incidence(2),), None))
    terms.append((2 * d, Family.N, (d,), (delta.with_special(k + 1),), None))
    for d1 in range(1, d):
        d2 = d - d1
        for t1 in range(t + 1):
            for taken in product(*(range(n + 1) for _, n in classes)):
                mult = comb(t, t1) * prod(comb(n, a) for (_, n), a in zip(classes, taken))
                g1 = Constraint.build(t1, {c: a for (c, _), a in zip(classes, taken)})
                g2 = Constraint.build(t - t1, {c: n - a for (c, n), a in zip(classes, taken)})
                terms.append((-d2 * d2 * mult, Family.NR, (d1, d2),
                              (g1.with_special(k), g2), 0))
                terms.append((d1 * d2 * mult, Family.RR2, (d1, d2), (g1, g2), (k, 0)))
    return terms


@pytest.mark.parametrize("r, d", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 3)])
@pytest.mark.parametrize("t", [0, 2])
def test_expansion_is_the_five_term_formula(engine, r, d, t):
    # t = 2 with the cusp on a hyperplane of P^2 also meets the reduction cap
    k, extra = 1, {r: 1} if r > 2 else {}
    points = (r + 1) * d - 2 - t - k - (r - 1) * len(extra)
    delta = Constraint.build(t, {2: points, **extra}, special=k)
    form = linear_form(r, engine.expansion(r, d, delta))
    transcription = five_term_transcription(r, d, delta)
    want = linear_form(r, transcription)
    assert any(key.startswith("RR2;") for key in form)
    if r > 2 or t:
        assert form == want
        return
    # the plane with no tangency: the expansion keeps only the joins the
    # kernel's gate admits, each with the transcription's coefficient, and
    # every join it leaves out counts 0 through its public entry
    assert all(form[key] == want.get(key) for key in form)
    left_out = {key: term for term in transcription
                for key in linear_form(r, [term]) if key not in form}
    assert left_out.keys() == want.keys() - form.keys() and left_out
    for term in left_out.values():
        assert public_value(engine, r, ExpansionTerm(*term)) == 0


@pytest.mark.parametrize("r, delta", [
    (3, Constraint.build(0, {2: 10, 3: 2}, special=0)),
    (2, Constraint.build(2, {2: 8}, special=0)),
])
def test_middle_fold_counts_the_self_mirror_split_once(engine, r, delta):
    # 33 and 27 splits: the middle one of the pair (2, 2) is its own mirror
    form = linear_form(r, engine.expansion(r, 4, delta))
    assert form == linear_form(r, five_term_transcription(r, 4, delta))


def test_plane_two_point_join_symmetric_under_component_swap():
    # the expansion weights (d1, g1, d2, g2) twice for its mirror
    oracle, cases = NodalOracle(), 0
    for d1, d2 in product(range(1, 6), repeat=2):
        if empty_by_theorem(Family.RR2, 2, (d1, d2), None):
            continue
        for k, l in product(range(3), repeat=2):
            n = 3 * (d1 + d2) - 2 - k - l
            for a in range(n + 1):
                g1, g2 = pts(a), pts(n - a)
                assert (oracle.rr2_count(2, d1, g1, d2, g2, k, l)
                        == oracle.rr2_count(2, d2, g2, d1, g1, k, l))
                cases += 1
    assert cases == 3348


def public_value(engine, r, term):
    """An expansion term's subquery, evaluated through its public entry."""
    if term.family is Family.S:
        return engine.count(r, term.degrees[0], term.constraints[0])
    if term.family is Family.N:
        return engine.oracle.n_count(r, term.degrees[0], term.constraints[0])
    (d1, d2), (g1, g2) = term.degrees, term.constraints
    if term.family is Family.NR:
        return engine.oracle.nr_count(r, d1, g1, d2, g2, term.joint)
    return engine.oracle.rr2_count(r, d1, g1, d2, g2, *term.joint)


def test_expansion_terms_sum_to_degree_squared_times_count(engine):
    for h, want in ((0, 216), (1, 648), (2, 1944)):
        query = pts(7, hyperplanes=h)
        total = sum(term.coefficient * public_value(engine, 2, term)
                    for term in engine.expansion(2, 3, query))
        assert total == 9 * engine.count(2, 3, query) == want


def test_keys_gathered_once_when_read(engine, expansions, monkeypatch):
    with pytest.raises(OracleDataMissingError) as err:
        engine.count(2, 4, Constraint.build(2, {2: 8}, special=0))
    expanded = dict(expansions)
    leaves = Counter()
    original = NodalOracle._nr_count

    def counted(self, *args):
        leaves["nr"] += 1
        return original(self, *args)

    monkeypatch.setattr(NodalOracle, "_nr_count", counted)
    first = err.value.keys
    gathered = leaves["nr"]
    assert gathered > 0 and first == sorted(set(first))
    assert err.value.keys == first
    # a second failure of the same query shares the memoised, resolved one
    with pytest.raises(OracleDataMissingError) as again:
        engine.count(2, 4, Constraint.build(2, {2: 8}, special=0))
    assert again.value.keys == first
    assert leaves["nr"] == gathered and dict(expansions) == expanded
