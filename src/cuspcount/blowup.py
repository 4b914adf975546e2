"""Counts of rational curves on the plane blown up at one point.

``count(a, b)`` is the number of irreducible rational curves in the class
(a line sections, b exceptional multiplicity) through 3a - b - 1 general
points.  The recursion comes from the four-point relation applied with two
line-section divisors on each side; pairing along the line class makes every
exceptional-only boundary term drop out, leaving pure positive-degree splits.

The class (1, 1) is untouched by every one of those relations (each
specializes to 0 = 0 there), so it enters as a seed of its own: there is a
unique line through the blown-up point and one general point.  The cross
extraction along the exceptional class pins the same value; tests assert
that identity instead of using it at runtime.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb


@lru_cache(maxsize=None)
def count(a: int, b: int) -> int:
    if a < 1 or b < 0 or b > a:
        return 0
    if (a, b) in ((1, 0), (1, 1)):
        return 1
    # fill the cache by ascending degree, so the sum below only hits it
    for a1 in range(2, a):
        for b1 in range(min(a1, b) + 1):
            count(a1, b1)
    n = 3 * a - b - 1
    total = 0
    for a1 in range(1, a):
        a2 = a - a1
        for b1 in range(b + 1):
            b2 = b - b1
            if b1 > a1 or b2 > a2:
                continue
            n1 = 3 * a1 - b1 - 1
            pick_even = comb(n - 3, n1 - 1) if 0 <= n1 - 1 <= n - 3 else 0
            pick_heavy = comb(n - 3, n1) if 0 <= n1 <= n - 3 else 0
            total += ((a1 * a2 - b1 * b2) * count(a1, b1) * count(a2, b2)
                      * (a1 * a2 * pick_even - a1 * a1 * pick_heavy))
    return total
