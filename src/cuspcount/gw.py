"""Genus-zero Gromov-Witten numbers of projective r-space, exactly.

Insertions are powers of the hyperplane class, named by codimension, and the
kernel works on how many there are of each: the count vector
``(n_2, ..., n_r)``. A codimension-0 insertion kills every positive-degree
number and a divisor multiplies it by the degree, so neither enters the
vector. The gate, the memo key and each new multiset then cost O(r), however
many insertions there are.

Everything reduces to the single seed value 1 for a line through two points
by associativity of the quantum product (Kontsevich-Manin); the reduction
below splits off the smallest insertion against the two largest ones, which
keeps every intermediate quantity an integer (no division ever happens).

A number vanishes unless its insertions pass the dimension gate
``sum (a - 1) = (r + 1) d + r - 3``. In each boundary term of the reduction
the left factor's gate is linear in the counts it receives, so its share of
codimension 2 (weight 1) is solved from its shares of the higher classes;
splits that would fail the gate are never generated, and every number the
reduction asks for passes its gate.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from math import comb

from .errors import ValidationError

Counts = tuple[int, ...]  # (n_2, ..., n_r): insertions of each codimension >= 2


def _splits(pi: Counts, weight: int) -> Iterator[tuple[Counts, Counts, int]]:
    """Sub-multisets of ``pi`` of gate weight ``weight`` (codim a weighs a - 1),
    each with its complement and binomial multiplicity."""
    highs = [range(min(n, weight // w) + 1) for w, n in enumerate(pi[1:], 2)]
    for high in itertools.product(*highs):
        low = weight - sum(w * k for w, k in enumerate(high, 2))
        if 0 <= low <= pi[0]:
            left = (low,) + high
            mult = 1
            for n, k in zip(pi, left):
                mult *= comb(n, k)
            yield left, tuple(n - k for n, k in zip(pi, left)), mult


class GWEngine:
    """Memoized evaluator on codimension count vectors."""

    def __init__(self):
        self._memo: dict[tuple[int, int, Counts], int] = {}

    # -- public evaluation ---------------------------------------------------

    def gw_counts(self, r: int, d: int, incidences: Iterable[tuple[int, int]]) -> int:
        """The number with ``count`` insertions of codimension ``codim`` for
        each ``(codim, count)`` pair; repeated codimensions add up."""
        if r < 2:
            raise ValidationError("ambient dimension must be at least 2")
        if d < 0:
            raise ValidationError("negative degree")
        n = [0] * (r + 1)
        weight = 0
        for a, k in incidences:
            if a < 0 or a > r:
                raise ValidationError(
                    "insertion codimension %d outside 0..%d" % (a, r))
            if k < 0:
                raise ValidationError("negative count of codimension %d" % a)
            n[a] += k
            weight += (a - 1) * k
        if weight != (r + 1) * d + r - 3:
            return 0
        if d == 0:
            return 1 if sum(n) == 3 and sum(a * k for a, k in enumerate(n)) == r else 0
        if n[0] or not any(n[2:]):
            return 0
        return d ** n[1] * self._core(r, d, tuple(n[2:]))

    # -- reduction -----------------------------------------------------------

    def _with(self, r: int, d: int, x: int, y: int, z: int, pi: Counts) -> int:
        # pi plus insertions x, y, z in 1..r; d >= 1 and the gate holds
        m = list(pi)
        scale = 1
        for a in (x, y, z):
            if a == 1:
                scale *= d
            else:
                m[a - 2] += 1
        return scale * self._core(r, d, tuple(m))

    def _core(self, r: int, d: int, counts: Counts) -> int:
        # d >= 1 and the gate holds, so there are at least two insertions,
        # and exactly two only for a line through two points
        key = (r, d, counts)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if d == 1 and counts[-1] == 2 and sum(counts) == 2:
            return 1
        m = list(counts)
        b = _pop(m, max)
        c = _pop(m, max)
        a = _pop(m, min)
        pi = tuple(m)
        # four-point relation on (h, h^{a-1}, h^b, h^c): pairing the divisor
        # with h^b isolates the original number as the only boundary term on
        # one side; b >= a keeps that term from cancelling
        val = 0
        if b + 1 <= r:
            val += self._with(r, d, b + 1, a - 1, c, pi)
        if a - 1 + c <= r:
            val += self._with(r, d, 1, b, a - 1 + c, pi)
        if b + c <= r:
            val -= self._with(r, d, 1, a - 1, b + c, pi)
        for d1 in range(1, d):
            d2 = d - d1
            # the left factor (h, h^x, h^e) + left passes its gate iff
            # left weighs free - x - e
            free = (r + 1) * d1 + r - 1
            # e = 0 or e = r puts codimension 0 on a positive-degree factor
            for e in range(1, r):
                for sign, x, y in ((1, b, a - 1), (-1, a - 1, b)):
                    for left, right, mult in _splits(pi, free - x - e):
                        lv = self._with(r, d1, 1, x, e, left)
                        if lv:
                            val += sign * mult * lv * self._with(r, d2, r - e, y, c, right)
        self._memo[key] = val
        return val


def _pop(m: list[int], pick) -> int:
    """Remove one insertion of the codimension ``pick`` (max or min) selects."""
    i = pick(i for i, n in enumerate(m) if n)
    m[i] -= 1
    return i + 2
