import random

import pytest
from hypothesis import given, settings, strategies as st

from brute_wdvv import BruteSolver, line_count, plane_rational
from crosscheck import gw, wdvv_residual
from cuspcount import blowup
from cuspcount.errors import ValidationError
from cuspcount.gw import GWEngine


@pytest.fixture(scope="module")
def engine():
    return GWEngine()


# -- pinned classical values -----------------------------------------------------

PLANE = {1: 1, 2: 1, 3: 12, 4: 620, 5: 87304, 6: 26312976}


def test_plane_degrees(engine):
    for d, expect in PLANE.items():
        assert gw(engine, 2, d, [2] * (3 * d - 1)) == expect


def test_space_curves(engine):
    assert gw(engine, 3, 1, [3, 3]) == 1
    assert gw(engine, 3, 1, [3, 2, 2]) == 1
    assert gw(engine, 3, 1, [2] * 4) == 2
    assert gw(engine, 3, 2, [2] * 8) == 92
    assert gw(engine, 3, 2, [3, 3, 3, 2, 2]) == 1
    assert gw(engine, 3, 3, [2] * 12) == 80160
    assert gw(engine, 3, 3, [3] * 6) == 1


def test_lines_in_higher_space(engine):
    for r in (4, 5):
        assert gw(engine, r, 1, [2] * (2 * r - 2)) == line_count(r)


# Mixed point/line/plane insertions in P^3..P^5, as codim -> count; the
# values were rendered by the tuple-based kernel before it moved to counts.
MIXED = [
    (3, 8, {2: 16, 3: 8}, 84456572946441216),
    (4, 4, {2: 6, 3: 3, 4: 3}, 94104),
    (5, 3, {2: 8, 4: 4}, 226932),
    (3, 10, {2: 40}, 418882604934085122798427891726679408640),
    (3, 4, {2: 10, 3: 3}, 327888),
    (4, 3, {2: 4, 3: 3, 4: 2}, 385),
    (4, 2, {2: 3, 3: 4}, 36),
    (5, 2, {2: 2, 3: 1, 4: 2, 5: 1}, 6),
    (4, 5, {2: 12, 3: 4, 4: 2}, 133462672144),
    (5, 4, {2: 12, 3: 5, 5: 1}, 150777709600),
]


@pytest.mark.parametrize("r,d,counts,expect", MIXED)
def test_mixed_insertions_beyond_the_plane(r, d, counts, expect):
    ins = [a for a, n in counts.items() for _ in range(n)]
    assert gw(GWEngine(), r, d, ins) == expect
    assert GWEngine().gw_counts(r, d, counts.items()) == expect


# -- agreement with the independent solver ----------------------------------------


@pytest.mark.parametrize("r,dmax", [(2, 4), (3, 3)])
def test_matches_linear_system_solver(engine, r, dmax):
    solver = BruteSolver(r)
    solver.solve_through(dmax)
    checked = 0
    for (d, ins), expect in sorted(solver.known.items()):
        assert gw(engine, r, d, ins) == expect, (r, d, ins)
        checked += 1
    assert checked >= dmax


def test_matches_plane_closed_form(engine):
    for d in range(1, 7):
        assert gw(engine, 2, d, [2] * (3 * d - 1)) == plane_rational(d)


def test_plane_degree_40_matches_blowup_route():
    assert gw(GWEngine(), 2, 40, [2] * 119) == blowup.count(40, 0)


# -- axioms ------------------------------------------------------------------------


@given(st.integers(2, 4), st.integers(0, 3),
       st.lists(st.integers(0, 4), max_size=8), st.randoms())
@settings(max_examples=60, deadline=None)
def test_permutation_invariance(r, d, ins, rng):
    ins = [min(a, r) for a in ins]
    eng = GWEngine()
    shuffled = ins[:]
    rng.shuffle(shuffled)
    assert gw(eng, r, d, ins) == gw(eng, r, d, shuffled)


def test_dimension_gate(engine):
    assert gw(engine, 2, 3, [2] * 7) == 0
    assert gw(engine, 2, 3, [2] * 9) == 0


def test_degree_zero(engine):
    assert gw(engine, 3, 0, [3, 2, 1]) == 0
    assert gw(engine, 4, 0, [2, 1, 1]) == 1
    assert gw(engine, 4, 0, [2, 2]) == 0


def test_fundamental_class_kills(engine):
    assert gw(engine, 2, 2, [0, 2, 2, 2, 2, 2, 1]) == 0


def test_divisor_scaling(engine):
    base = gw(engine, 2, 3, [2] * 8)
    assert gw(engine, 2, 3, [1] + [2] * 8) == 3 * base
    assert gw(engine, 3, 2, [1, 1] + [2] * 8) == 4 * gw(engine, 3, 2, [2] * 8)


def test_validation(engine):
    with pytest.raises(ValidationError):
        gw(engine, 1, 1, [1, 1])
    with pytest.raises(ValidationError):
        gw(engine, 2, 1, [3, 2])
    with pytest.raises(ValidationError):
        gw(engine, 2, -1, [2])
    with pytest.raises(ValidationError):
        gw(engine, 2, 1, [-1, 2])
    for bad in [(1, 1, [(1, 2)]), (2, 1, [(3, 1), (2, 1)]), (2, -1, [(2, 1)]),
                (2, 1, [(-1, 1), (2, 1)]), (2, 1, [(2, -1), (2, 3)])]:
        with pytest.raises(ValidationError):
            engine.gw_counts(*bad)


def test_kernel_rejects_degree_zero(engine):
    # degree 0 is the triple intersection, which only crosscheck.gw computes
    assert gw(engine, 2, 0, [2, 0, 0]) == 1
    with pytest.raises(ValidationError, match="degree must be positive"):
        engine.gw_counts(2, 0, [(2, 1), (0, 2)])


def test_count_pairs_add_up(engine):
    assert engine.gw_counts(2, 3, [(2, 3), (1, 1), (2, 5)]) == 3 * PLANE[3]


def test_associativity_residuals(engine):
    rng = random.Random(20260819)
    for _ in range(100):
        r = rng.randint(2, 4)
        d = rng.randint(1, 3)
        quad = [rng.randint(1, r) for _ in range(4)]
        pi = [rng.randint(1, r) for _ in range(rng.randint(0, 3))]
        assert wdvv_residual(engine, r, d, *quad, pi) == 0
