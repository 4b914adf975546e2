"""Reference routes that only tests use: each re-derives a package value
by a second relation, so the two must agree on every input."""
from __future__ import annotations

import itertools
from math import comb
from typing import Iterable, Sequence

from cuspcount import plane
from cuspcount.errors import ConsistencyError
from cuspcount.gw import GWEngine


def gw(engine: GWEngine, r: int, d: int, insertions: Iterable[int]) -> int:
    """The kernel's number with one insertion of each listed codimension."""
    return engine.gw_counts(r, d, [(a, 1) for a in insertions])


def cusp_from_node_on_line(d: int, on_line: int) -> int:
    """Inverse of the relation ``plane.node_on_line`` solves, for cross-checking stored rows."""
    num = 4 * d * on_line - 2 * plane.marked_node(d)
    for i in range(1, d):
        j = d - i
        num += (comb(3 * d - 2, 3 * i - 1) * i * i * j * j * (i * j - 1)
                * plane.rational(i) * plane.rational(j))
        num -= (2 * comb(3 * d - 2, 3 * i - 1) * j ** 3 * i
                * plane.marked_node(i) * plane.rational(j))
    if num % (d * d):
        raise ConsistencyError("cusp count reconstruction is not integral at degree %d" % d)
    return num // (d * d)


def wdvv_residual(engine: GWEngine, r: int, d: int,
                  g1: int, g2: int, g3: int, g4: int,
                  pi: Sequence[int] = ()) -> int:
    """F(g1 g2 | g3 g4) - F(g1 g3 | g2 g4); zero on every admissible input.

    Each insertion of ``pi`` goes to either side independently, so no
    multiplicities are grouped the way the kernel groups them.
    """

    def paired(i: int, j: int, k: int, l: int) -> int:
        tot = 0
        for d1 in range(d + 1):
            for sides in itertools.product((0, 1), repeat=len(pi)):
                left = [a for a, s in zip(pi, sides) if s == 0]
                right = [a for a, s in zip(pi, sides) if s == 1]
                for e in range(r + 1):
                    tot += (gw(engine, r, d1, [i, j, e] + left)
                            * gw(engine, r, d - d1, [r - e, k, l] + right))
        return tot

    return paired(g1, g2, g3, g4) - paired(g1, g3, g2, g4)
