"""Genus-zero Gromov-Witten numbers of projective r-space, exactly.

Insertions are powers of the hyperplane class, named by codimension.
Everything reduces to the single seed value 1 for a line through two
points by associativity of the quantum product; the reduction below
splits off the smallest insertion against the two largest ones, which
keeps every intermediate quantity an integer (no division ever happens).
"""

from __future__ import annotations

import itertools
import os
import tempfile
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ConsistencyError, ValidationError


def _class_splits(pi: Sequence[int]) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Ordered distributions of a codim multiset over two factors, with binomial weight."""
    classes = sorted(set(pi))
    counts = [pi.count(x) for x in classes]
    for take in itertools.product(*[range(n + 1) for n in counts]):
        mult = 1
        left: list[int] = []
        right: list[int] = []
        for x, n, a in zip(classes, counts, take):
            mult *= comb(n, a)
            left += [x] * a
            right += [x] * (n - a)
        yield tuple(left), tuple(right), mult


class GWEngine:
    """Memoized evaluator with an optional persistent line cache."""

    def __init__(self, cache_path: Optional[str] = None):
        self._memo: dict[tuple[int, int, tuple[int, ...]], int] = {}
        self._cache_path = cache_path
        if cache_path is not None and os.path.exists(cache_path):
            self.load_cache(cache_path)

    # -- public evaluation ---------------------------------------------------

    def gw(self, r: int, d: int, insertions: Iterable[int]) -> int:
        ins = tuple(insertions)
        if r < 2:
            raise ValidationError("ambient dimension must be at least 2")
        if d < 0:
            raise ValidationError("negative degree")
        for a in ins:
            if a < 0 or a > r:
                raise ValidationError(
                    "insertion codimension %d outside 0..%d" % (a, r))
        return self._eval(r, d, ins)

    def _eval(self, r: int, d: int, ins: tuple[int, ...]) -> int:
        if sum(a - 1 for a in ins) != (r + 1) * d + r - 3:
            return 0
        if d == 0:
            return 1 if (len(ins) == 3 and sum(ins) == r) else 0
        if 0 in ins:
            return 0
        scale = 1
        core = []
        for a in ins:
            if a == 1:
                scale *= d
            else:
                core.append(a)
        if not core:
            return 0
        return scale * self._core(r, d, tuple(sorted(core, reverse=True)))

    def _core(self, r: int, d: int, ins: tuple[int, ...]) -> int:
        # ins sorted descending, every entry in 2..r, dimension gate passed
        key = (r, d, ins)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if d == 1 and ins == (r, r):
            return 1
        b, c, a = ins[0], ins[1], ins[-1]
        pi = ins[2:-1]
        # four-point relation on (h, h^{a-1}, h^b, h^c): pairing the divisor
        # with h^b isolates the original number as the only boundary term on
        # one side; b >= a keeps that term from cancelling
        val = 0
        if b + 1 <= r:
            val += self._eval(r, d, (b + 1, a - 1, c) + pi)
        if a - 1 + c <= r:
            val += self._eval(r, d, (1, b, a - 1 + c) + pi)
        if b + c <= r:
            val -= self._eval(r, d, (1, a - 1, b + c) + pi)
        for d1 in range(1, d):
            d2 = d - d1
            for left, right, mult in _class_splits(pi):
                for e in range(r + 1):
                    val += mult * (
                        self._eval(r, d1, (1, b, e) + left)
                        * self._eval(r, d2, (r - e, a - 1, c) + right)
                        - self._eval(r, d1, (1, a - 1, e) + left)
                        * self._eval(r, d2, (r - e, b, c) + right))
        self._memo[key] = val
        return val

    # -- persistent cache ----------------------------------------------------

    def load_cache(self, path: str) -> None:
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        loaded: dict[tuple[int, int, tuple[int, ...]], int] = {}
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            head, eq, raw = line.partition("=")
            parts = head.split(",")
            try:
                if not eq:
                    raise ValueError
                nums = [int(p) for p in parts]
                value = int(raw)
            except ValueError:
                raise ValidationError(
                    "%s:%d: corrupt cache line %r" % (path, lineno, line)) from None
            if len(nums) < 2:
                raise ValidationError(
                    "%s:%d: cache line needs r and d" % (path, lineno))
            r, d, ins = nums[0], nums[1], tuple(nums[2:])
            if tuple(sorted(ins, reverse=True)) != ins:
                raise ValidationError(
                    "%s:%d: insertions not sorted descending" % (path, lineno))
            key = (r, d, ins)
            if loaded.get(key, value) != value or self._memo.get(key, value) != value:
                raise ConsistencyError(
                    "%s:%d: conflicting cached value for %r" % (path, lineno, head))
            loaded[key] = value
        self._memo.update(loaded)

    def save_cache(self, path: Optional[str] = None) -> None:
        path = path or self._cache_path
        if path is None:
            return
        lines = []
        for (r, d, ins), value in self._memo.items():
            head = ",".join(str(x) for x in (r, d) + ins)
            lines.append("%s=%d" % (head, value))
        payload = "".join(line + "\n" for line in sorted(lines))
        try:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                       prefix=".gwcache-")
            try:
                with os.fdopen(fd, "w", encoding="ascii") as fh:
                    fh.write(payload)
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        except OSError as exc:
            # report the cache path, not the temporary file beside it
            raise OSError(exc.errno, exc.strerror, path) from None
