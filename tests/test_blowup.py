from math import comb

from brute_wdvv import plane_rational
from cuspcount import blowup


def e_route(a, b):
    """The same class counted by extracting along the exceptional divisor.

    This relation is not used at runtime; it is the independent pin for the
    seed value of the class through the blown-up point, which the line-class
    relations leave completely free.
    """
    n = 3 * a - b - 1
    total = 0
    for a1 in range(1, a):
        a2 = a - a1
        for b1 in range(b + 1):
            b2 = b - b1
            if b1 > a1 or b2 > a2:
                continue
            n1 = 3 * a1 - b1 - 1
            heavy = comb(n - 3, n1) if 0 <= n1 <= n - 3 else 0
            even = comb(n - 3, n1 - 1) if 0 <= n1 - 1 <= n - 3 else 0
            total += ((a1 * a2 - b1 * b2) * blowup.count(a1, b1) * blowup.count(a2, b2)
                      * (b1 * b1 * heavy - b1 * b2 * even))
    if b + 1 <= a:
        total += (b + 1) * blowup.count(a, b + 1)
    return total


def test_no_multiplicity_reduces_to_plane():
    for d in range(1, 7):
        assert blowup.count(d, 0) == plane_rational(d)


def test_through_the_point_matches_plane():
    # passing through the blown-up point is one point condition among 3d - 1
    for d in range(1, 7):
        assert blowup.count(d, 1) == plane_rational(d)


NODE_AT_POINT = {3: 1, 4: 96, 5: 18132, 6: 6506400}


def test_node_at_the_point():
    for d, expect in NODE_AT_POINT.items():
        assert blowup.count(d, 2) == expect


def test_multiple_cover_classes_are_empty():
    for a in range(2, 6):
        assert blowup.count(a, a) == 0


def test_gates():
    assert blowup.count(0, 0) == 0
    assert blowup.count(2, 3) == 0
    assert blowup.count(3, -1) == 0


def test_exceptional_extraction_agrees():
    for a in range(1, 6):
        for b in range(0, a + 1):
            if 3 * a - b - 1 >= 3:
                assert e_route(a, b) == blowup.count(a, b), (a, b)


def test_exceptional_extraction_pins_the_seed():
    # at class (2, 0) the relation collapses to the seed value itself
    assert e_route(2, 0) == blowup.count(2, 1) == 1


def test_depth_does_not_grow_with_the_degree(frame_budget):
    # the cache fills by ascending degree, so a frame budget far below the
    # degree suffices; a count that recursed once per degree would exceed it
    blowup.count.cache_clear()
    with frame_budget(60):
        low = [blowup.count(150, b) for b in range(3)]
    blowup.count.cache_clear()
    assert low == [blowup.count(150, b) for b in range(3)]
