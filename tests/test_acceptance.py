"""End-to-end acceptance gate.

One test per numbered criterion, exact integer comparisons throughout.  Each
test prints a single "criterion N: PASS/FAIL" line (visible with -s; the -v
listing carries the same information through the test names).
"""
import functools
import random
from itertools import product
from math import comb

import pytest

from cuspcount import blowup, plane
from cuspcount.cli import main
from cuspcount.constraints import Constraint, Family, enumerate_splits
from cuspcount.cusp import CuspEngine
from cuspcount.errors import ConsistencyError
from cuspcount.gw import GWEngine
from cuspcount.nodal import NodalOracle, OracleTable

from brute_wdvv import BruteSolver, line_count, plane_rational
from crosscheck import cusp_from_node_on_line, gw, wdvv_residual
from linear_form import linear_form

FIXTURE = "tests/fixtures/plane_cubic_tangency.oracle"

PLANE_RATIONAL = {1: 1, 2: 1, 3: 12, 4: 620, 5: 87304, 6: 26312976}
SPACE_LINES = {1: 2, 2: 92, 3: 80160}
CUSP_ROW = {3: 24, 4: 2304, 5: 435168, 6: 156153600}
CUSP_ON_LINE_ROW = {3: 12, 4: 864, 5: 130896, 6: 39223584}
CUSP_AT_POINT_ROW = {3: 2, 4: 102, 5: 12024, 6: 2953656}
NODE_AT_POINT = {3: 1, 4: 96, 5: 18132}


def pts(n, **kw):
    return Constraint.build(0, {2: n}, **kw)


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("criterion %s: FAIL" % label)
                raise
            print("criterion %s: PASS" % label)
        return wrapper
    return deco


@criterion("1 (genus-0 kernel vs independent solver)")
def test_criterion_1_gw_kernel():
    engine = GWEngine()
    for d, want in PLANE_RATIONAL.items():
        assert gw(engine, 2, d, [2] * (3 * d - 1)) == want
    for d, want in SPACE_LINES.items():
        assert gw(engine, 3, d, [2] * (4 * d)) == want
    assert gw(engine, 4, 1, [2] * 6) == 5 == line_count(4)
    assert gw(engine, 5, 1, [2] * 8) == 14 == line_count(5)
    # full agreement with the linear-system solver on every solved query
    for r, dmax in ((2, 6), (3, 3), (4, 1), (5, 1)):
        solver = BruteSolver(r)
        solver.solve_through(dmax)
        assert solver.known
        for (d, ins), expect in sorted(solver.known.items()):
            assert gw(engine, r, d, ins) == expect
    # associativity residuals on randomized admissible inputs
    rng = random.Random(828282)
    for _ in range(100):
        r = rng.randint(2, 4)
        d = rng.randint(1, 3)
        quad = [rng.randint(1, r) for _ in range(4)]
        pi = [rng.randint(1, r) for _ in range(rng.randint(0, 3))]
        assert wdvv_residual(engine, r, d, *quad, pi) == 0


@criterion("2 (plane cusp counts, closed form)")
def test_criterion_2_plane_cusp_row():
    for d, want in CUSP_ROW.items():
        assert plane.cusp(d) == want


@criterion("3 (cusp on a line / at a point rows)")
def test_criterion_3_located_cusp_rows():
    engine = CuspEngine()
    for d in (3, 4, 5, 6):
        on_line = engine.count_incidence(2, d, pts(3 * d - 3, special=1))
        at_point = engine.count_incidence(2, d, pts(3 * d - 4, special=2))
        assert on_line == CUSP_ON_LINE_ROW[d]
        assert at_point == CUSP_AT_POINT_ROW[d]


@criterion("4 (blow-up kernel vs inverted cusp relation)")
def test_criterion_4_blowup_cross_validation():
    kernel = GWEngine()
    engine = CuspEngine()

    def rational(i):
        return gw(kernel, 2, i, [2] * (3 * i - 1))

    for d in (3, 4, 5):
        cusp_d = engine.count_incidence(2, d, pts(3 * d - 2))
        lhs = cusp_d
        for i in range(1, d):
            j = d - i
            n_i = comb(i - 1, 2) * rational(i)
            lhs -= (comb(3 * d - 4, 3 * i - 2) * i * j * (i * j - 1)
                    * rational(i) * rational(j))
            lhs += 2 * comb(3 * d - 4, 3 * i - 1) * i * j * n_i * rational(j)
        assert lhs % 4 == 0
        assert lhs // 4 == blowup.count(d, 2) == NODE_AT_POINT[d]


@criterion("5 (engine equivalences)")
def test_criterion_5_engine_equivalences():
    engine = CuspEngine()
    # (a) direct elimination equals the closed form
    for d in (3, 4, 5, 6):
        assert engine.count_incidence(2, d, pts(3 * d - 2)) == plane.cusp(d)
    # (b) full recursion equals direct elimination on every finite plane query
    for d in (3, 4, 5):
        for k in (0, 1, 2):
            delta = pts(3 * d - 2 - k, special=k)
            assert engine.count(2, d, delta) == engine.count_incidence(2, d, delta)
    # (c) the eliminated pair (p, q) does not matter: recompute the sum for
    # every admissible ordered choice and compare
    oracle = engine.oracle
    for d in (3, 4):
        for k in (0, 1, 2):
            delta = pts(3 * d - 2 - k, special=k)
            expected = engine.count_incidence(2, d, delta)
            codims = [c for c, n in delta.incidences for _ in range(n)]
            pairs = {(p, q) for p in codims for q in codims
                     if codims.count(p) + codims.count(q) >= 2 + (p == q)}
            assert pairs
            for p, q in pairs:
                rest = delta.remove_incidence(p).remove_incidence(q)
                total = 0
                if p + q <= 2:
                    total -= oracle.n_count(2, d, rest.add_incidence(p + q))
                for d1 in range(1, d):
                    d2 = d - d1
                    for g1, g2, mult in enumerate_splits(rest.with_special(None)):
                        total -= mult * oracle.nr_count(
                            2, d1, g1.with_special(k),
                            d2, g2.add_incidence(p).add_incidence(q), 0)
                        total += mult * oracle.rr2_count(
                            2, d1, g1.add_incidence(p),
                            d2, g2.add_incidence(q), k, 0)
                total += oracle.n_count(
                    2, d, delta.remove_incidence(p).with_special(k + p))
                total += oracle.n_count(
                    2, d, delta.remove_incidence(q).with_special(k + q))
                assert total == expected


@criterion("6 (exact-division guards)")
def test_criterion_6_exactness_guards(tmp_path, capsys):
    # the two inversions undo each other only if every division was exact
    for d in (3, 4, 5, 6):
        assert cusp_from_node_on_line(d, plane.node_on_line(d)) == plane.cusp(d)
    with pytest.raises(ConsistencyError):
        cusp_from_node_on_line(3, 7)
    # a stored table violating the theorem's balance aborts with exit code 4
    poisoned = tmp_path / "poisoned.oracle"
    poisoned.write_text(open(FIXTURE).read().replace(" = 72 ", " = 73 "))
    code = main(["--family", "S", "--r", "2", "--d", "3", "--tangent", "1",
                 "--inc", "2:6", "--special-codim", "0",
                 "--oracle", str(poisoned)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("consistency failure:")


@criterion("7 (vanishing low-degree families)")
def test_criterion_7_zero_families():
    engine = CuspEngine()
    oracle = engine.oracle
    for d in (1, 2):
        for k in range(3 * d - 1):
            delta = pts(3 * d - 2 - k, special=k)
            assert engine.count(2, d, delta) == 0
        for k in range(3 * d):
            assert oracle.n_count(2, d, pts(3 * d - 1 - k, special=k)) == 0
    for n1, n2, k, l in product(range(3), range(3), range(3), range(3)):
        if n1 + n2 + k + l != 4:
            continue
        assert oracle.rr2_count(2, 1, pts(n1), 1, pts(n2), k, l) == 0


@criterion("8 (stored-data recursion on a planted fixture)")
def test_criterion_8_tangency_fixture():
    query = Constraint.build(1, {2: 6}, special=0)
    engine = CuspEngine()
    # independent transcription of the five-term expansion, coefficients
    # (-d2^2, -C(t,l) d^2, -1, +d1 d2, +2d), for the d=3 one-tangency query
    expected = []
    for d1 in (1, 2):
        d2 = 3 - d1
        for t1 in range(2):
            for a in range(7):
                mult = comb(1, t1) * comb(6, a)
                g1 = Constraint.build(t1, {2: a})
                g2 = Constraint.build(1 - t1, {2: 6 - a})
                expected.append((-d2 * d2 * mult, "NR", (d1, d2),
                                 (g1.with_special(0), g2), 0))
                expected.append((d1 * d2 * mult, "RR2", (d1, d2), (g1, g2), (0, 0)))
    expected.append((-9, "S", (3,), (Constraint.build(0, {2: 6}, special=1),), None))
    expected.append((-1, "N", (3,), (Constraint.build(1, {2: 7}, special=0),), None))
    expected.append((6, "N", (3,), (Constraint.build(1, {2: 6}, special=1),), None))
    # the same sum: the expansion leaves out the joins empty by theorem and
    # folds each two-point join with its mirror
    assert linear_form(2, engine.expansion(2, 3, query)) == linear_form(2, expected)
    # the planted fixture reproduces the stored tangent-cusp value
    table = OracleTable()
    table.load(FIXTURE)
    solved = CuspEngine(NodalOracle(table=table))
    assert solved.count(2, 3, query) == 60
