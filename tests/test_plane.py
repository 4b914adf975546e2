import pytest

from crosscheck import cusp_from_node_on_line
from cuspcount import plane
from cuspcount.errors import ConsistencyError

CUSP = {3: 24, 4: 2304, 5: 435168, 6: 156153600}
NODE_ON_LINE = {3: 6, 4: 768, 5: 181320, 6: 78076800}


def test_cusp_counts():
    assert plane.cusp(1) == 0
    assert plane.cusp(2) == 0
    for d, expect in CUSP.items():
        assert plane.cusp(d) == expect


def test_node_on_line_counts():
    assert plane.node_on_line(2) == 0
    for d, expect in NODE_ON_LINE.items():
        assert plane.node_on_line(d) == expect


def test_marked_node_counts():
    assert [plane.marked_node(d) for d in range(1, 6)] == [0, 0, 12, 1860, 523824]


def test_node_at_point_vanishes_below_degree_3():
    # the engine decides degree <= 2 by theorem before any closed form; the
    # closed form is an independent route to the same 0
    assert plane.node_at_point(1) == plane.node_at_point(2) == 0


def test_inversion_round_trip():
    for d in range(3, 7):
        assert cusp_from_node_on_line(d, plane.node_on_line(d)) == plane.cusp(d)


def test_reconstruction_guards_integrality():
    with pytest.raises(ConsistencyError):
        cusp_from_node_on_line(3, 7)
