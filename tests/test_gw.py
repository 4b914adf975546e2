import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from brute_wdvv import BruteSolver, line_count, plane_rational
from crosscheck import wdvv_residual
from cuspcount.errors import ConsistencyError, ValidationError
from cuspcount.gw import GWEngine


@pytest.fixture(scope="module")
def engine():
    return GWEngine()


# -- pinned classical values -----------------------------------------------------

PLANE = {1: 1, 2: 1, 3: 12, 4: 620, 5: 87304, 6: 26312976}


def test_plane_degrees(engine):
    for d, expect in PLANE.items():
        assert engine.gw(2, d, [2] * (3 * d - 1)) == expect


def test_space_curves(engine):
    assert engine.gw(3, 1, [3, 3]) == 1
    assert engine.gw(3, 1, [3, 2, 2]) == 1
    assert engine.gw(3, 1, [2] * 4) == 2
    assert engine.gw(3, 2, [2] * 8) == 92
    assert engine.gw(3, 2, [3, 3, 3, 2, 2]) == 1
    assert engine.gw(3, 3, [2] * 12) == 80160
    assert engine.gw(3, 3, [3] * 6) == 1


def test_lines_in_higher_space(engine):
    for r in (4, 5):
        assert engine.gw(r, 1, [2] * (2 * r - 2)) == line_count(r)


# -- agreement with the independent solver ----------------------------------------


@pytest.mark.parametrize("r,dmax", [(2, 4), (3, 3)])
def test_matches_linear_system_solver(engine, r, dmax):
    solver = BruteSolver(r)
    solver.solve_through(dmax)
    checked = 0
    for (d, ins), expect in sorted(solver.known.items()):
        assert engine.gw(r, d, ins) == expect, (r, d, ins)
        checked += 1
    assert checked >= dmax


def test_matches_plane_closed_form(engine):
    for d in range(1, 7):
        assert engine.gw(2, d, [2] * (3 * d - 1)) == plane_rational(d)


# -- axioms ------------------------------------------------------------------------


@given(st.integers(2, 4), st.integers(0, 3),
       st.lists(st.integers(0, 4), max_size=8), st.randoms())
@settings(max_examples=60, deadline=None)
def test_permutation_invariance(r, d, ins, rng):
    ins = [min(a, r) for a in ins]
    eng = GWEngine()
    shuffled = ins[:]
    rng.shuffle(shuffled)
    assert eng.gw(r, d, ins) == eng.gw(r, d, shuffled)


def test_dimension_gate(engine):
    assert engine.gw(2, 3, [2] * 7) == 0
    assert engine.gw(2, 3, [2] * 9) == 0


def test_degree_zero(engine):
    assert engine.gw(3, 0, [3, 2, 1]) == 0
    assert engine.gw(4, 0, [2, 1, 1]) == 1
    assert engine.gw(4, 0, [2, 2]) == 0


def test_fundamental_class_kills(engine):
    assert engine.gw(2, 2, [0, 2, 2, 2, 2, 2, 1]) == 0


def test_divisor_scaling(engine):
    base = engine.gw(2, 3, [2] * 8)
    assert engine.gw(2, 3, [1] + [2] * 8) == 3 * base
    assert engine.gw(3, 2, [1, 1] + [2] * 8) == 4 * engine.gw(3, 2, [2] * 8)


def test_validation(engine):
    with pytest.raises(ValidationError):
        engine.gw(1, 1, [1, 1])
    with pytest.raises(ValidationError):
        engine.gw(2, 1, [3, 2])
    with pytest.raises(ValidationError):
        engine.gw(2, -1, [2])
    with pytest.raises(ValidationError):
        engine.gw(2, 1, [-1, 2])


def test_associativity_residuals(engine):
    rng = random.Random(20260819)
    for _ in range(100):
        r = rng.randint(2, 4)
        d = rng.randint(1, 3)
        quad = [rng.randint(1, r) for _ in range(4)]
        pi = [rng.randint(1, r) for _ in range(rng.randint(0, 3))]
        assert wdvv_residual(engine, r, d, *quad, pi) == 0


# -- persistent cache ----------------------------------------------------------------


def test_cache_round_trip(tmp_path, engine):
    path = str(tmp_path / "gw.cache")
    first = GWEngine(cache_path=path)
    first.gw(2, 4, [2] * 11)
    first.save_cache()
    assert os.path.exists(path)
    warm = GWEngine(cache_path=path)
    memo_before = dict(warm._memo)
    assert warm.gw(2, 4, [2] * 11) == 620
    assert (2, 4, (2,) * 11) in memo_before


def test_cache_is_deterministic(tmp_path):
    a = str(tmp_path / "a.cache")
    b = str(tmp_path / "b.cache")
    for path in (a, b):
        eng = GWEngine(cache_path=path)
        eng.gw(3, 2, [2] * 8)
        eng.save_cache()
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_cache_rejects_corrupt_line(tmp_path):
    path = tmp_path / "bad.cache"
    path.write_text("2,1,2,2=1\nnot a record\n")
    with pytest.raises(ValidationError) as err:
        GWEngine(cache_path=str(path))
    assert ":2" in str(err.value)


def test_cache_rejects_unsorted_insertions(tmp_path):
    path = tmp_path / "bad.cache"
    path.write_text("3,1,2,3=1\n")
    with pytest.raises(ValidationError):
        GWEngine(cache_path=str(path))


def test_cache_rejects_conflicting_values(tmp_path):
    path = tmp_path / "bad.cache"
    path.write_text("2,1,2,2=1\n2,1,2,2=7\n")
    with pytest.raises(ConsistencyError):
        GWEngine(cache_path=str(path))


def test_conflict_with_computed_value(tmp_path):
    path = tmp_path / "bad.cache"
    path.write_text("2,3,2,2,2,2,2,2,2,2=13\n")
    eng = GWEngine()
    eng.gw(2, 3, [2] * 8)
    with pytest.raises(ConsistencyError):
        eng.load_cache(str(path))
