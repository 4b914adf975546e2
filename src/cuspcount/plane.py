"""Closed-form characteristic numbers of plane rational curves.

Degree-d specific counts through general points:

* ``rational(d)``       irreducible rational curves, 3d - 1 points
* ``marked_node(d)``    pairs (curve, node), branches unordered, 3d - 1 points
* ``node_on_line(d)``   marked node constrained to a fixed line, 3d - 2 points
* ``node_at_point(d)``  node at a fixed general point, 3d - 3 points
* ``cusp(d)``           one-cusped rational curves, 3d - 2 points

The cusp count is assembled from the blown-up-plane numbers.  The
node-on-line count then follows by inverting a second linear relation
between the two; the division must be exact, and a remainder means
corrupted inputs upstream, never a rounding matter.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from . import blowup
from .errors import ConsistencyError


def rational(d: int) -> int:
    return blowup.count(d, 0)


def marked_node(d: int) -> int:
    # (d-1 choose 2) nodes on each curve counted by rational(d)
    return comb(d - 1, 2) * rational(d) if d >= 1 else 0


def node_at_point(d: int) -> int:
    return blowup.count(d, 2)


@lru_cache(maxsize=None)
def cusp(d: int) -> int:
    if d < 3:
        return 0
    total = 4 * blowup.count(d, 2)
    for i in range(1, d):
        j = d - i
        total += (comb(3 * d - 4, 3 * i - 2) * i * j * (i * j - 1)
                  * rational(i) * rational(j))
        total -= 2 * comb(3 * d - 4, 3 * i - 1) * i * j * marked_node(i) * rational(j)
    return total


@lru_cache(maxsize=None)
def node_on_line(d: int) -> int:
    if d < 3:
        return 0
    num = d * d * cusp(d) + 2 * marked_node(d)
    for i in range(1, d):
        j = d - i
        num -= (comb(3 * d - 2, 3 * i - 1) * i * i * j * j * (i * j - 1)
                * rational(i) * rational(j))
        num += 2 * comb(3 * d - 2, 3 * i - 1) * j ** 3 * i * marked_node(i) * rational(j)
    if num % (4 * d):
        raise ConsistencyError("node-on-line inversion is not integral at degree %d" % d)
    return num // (4 * d)
