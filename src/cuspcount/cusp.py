"""Characteristic numbers of rational curves with one cusp.

Two elimination routes produce the same numbers:

* ``count``            the full recursion: multiplying the cusp family by the
                       square of the degree turns it into a sum of marked-node
                       counts, two-component joins, and cusp counts with fewer
                       tangencies; dividing back must be exact.
* ``count_incidence``  a direct elimination available when every condition is
                       a plain incidence: two lowest-codimension conditions
                       are traded against the marked point, with unit
                       coefficients throughout and no division at all.

A query is a constraint set whose ``special`` slot holds the codimension of
the linear space the cusp must lie on.  Missing stored data is collected
across the whole expansion before being reported, so one failed query names
every key it would need.

The engine memoises the outcome of every cusp subquery on ``(r, d, delta)``:
its value, or the set of stored keys it lacks.  A failure is forgotten once
the stored table grows, since the new records may supply what was missing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional, Union

from .constraints import (Constraint, Family, enumerate_splits,
                          normalize_hyperplanes, single_key)
from .errors import (Accumulator, ConsistencyError, FinitenessError,
                     OracleDataMissingError, ValidationError)
from .nodal import NodalOracle


@dataclass(frozen=True)
class ExpansionTerm:
    """One weighted subquery on the eliminated side of the cusp recursion."""

    coefficient: int
    family: Family
    degrees: tuple[int, ...]
    constraints: tuple[Constraint, ...]
    joint: Union[None, int, tuple[int, int]] = None


class CuspEngine:
    def __init__(self, oracle: Optional[NodalOracle] = None):
        self.oracle = oracle or NodalOracle()
        # (r, d, delta) -> value, or (table size, missing keys) on failure
        self._memo: dict[tuple, Union[int, tuple[int, frozenset[str]]]] = {}

    # -- validation common to the public entries ------------------------------

    def _normalize(self, r: int, d: int, delta: Constraint) -> tuple[int, Constraint]:
        if r < 2:
            raise ValidationError("ambient dimension must be at least 2")
        if d < 1:
            raise ValidationError("degree must be positive")
        if delta.incidences and delta.incidences[-1][0] > r:
            raise ValidationError(
                "incidence codimension %d exceeds the ambient dimension"
                % delta.incidences[-1][0])
        return normalize_hyperplanes(d, delta.with_special(delta.special or 0))

    def _check_finite(self, r: int, d: int, delta: Constraint) -> None:
        want = (r + 1) * d - 2
        have = delta.cond()
        if have != want:
            raise FinitenessError(
                "query imposes %d conditions on a %d-dimensional family" % (have, want))

    # -- full recursion --------------------------------------------------------

    def count(self, r: int, d: int, delta: Constraint) -> int:
        scale, delta = self._normalize(r, d, delta)
        if delta.special > r:
            return 0
        self._check_finite(r, d, delta)
        if r == 2 and d <= 2:
            return 0
        return scale * self._count_core(r, d, delta)

    def _count_core(self, r: int, d: int, delta: Constraint) -> int:
        """The memoised value of a cusp subquery; raises with the stored keys it lacks."""
        memo_key = (r, d, delta)
        size = len(self.oracle.table)
        hit = self._memo.get(memo_key)
        if isinstance(hit, int):
            return hit
        if hit is not None and hit[0] == size:
            raise OracleDataMissingError(hit[1])
        acc = Accumulator()
        for term in self.expansion(r, d, delta):
            acc.add(term.coefficient, self._evaluate, r, term)
        if acc.missing:
            self._memo[memo_key] = (size, frozenset(acc.missing))
        total = acc.result()
        if total % (d * d):
            raise ConsistencyError(
                "eliminated side %d is not divisible by %d for %s"
                % (total, d * d, single_key(Family.S, r, d, delta)))
        value = total // (d * d)
        self._memo[memo_key] = value
        return value

    def _evaluate(self, r: int, term: ExpansionTerm) -> int:
        if term.family is Family.N:
            return self.oracle.n_count(r, term.degrees[0], term.constraints[0])
        if term.family is Family.S:
            # same degree as the parent query, so never an empty low-degree family
            return self._count_core(r, term.degrees[0], term.constraints[0])
        d1, d2 = term.degrees
        g1, g2 = term.constraints
        if term.family is Family.NR:
            return self.oracle.nr_count(r, d1, g1, d2, g2, term.joint)
        return self.oracle.rr2_count(r, d1, g1, d2, g2, *term.joint)

    def expansion(self, r: int, d: int, delta: Constraint) -> list[ExpansionTerm]:
        """The eliminated side of ``count`` as explicit weighted subqueries.

        The returned coefficients still carry the degree-squared factor, so
        summing coefficient times subquery value gives d*d times the cusp
        count.  Tangency-reduced cusp subqueries appear as family S terms.
        """
        _, delta = self._normalize(r, d, delta)
        self._check_finite(r, d, delta)
        k, t = delta.special, delta.tangency
        splits = list(enumerate_splits(delta.with_special(None)))
        terms: list[ExpansionTerm] = []
        for d1 in range(1, d):
            d2 = d - d1
            for g1, g2, mult in splits:
                terms.append(ExpansionTerm(
                    -d2 * d2 * mult, Family.NR, (d1, d2),
                    (g1.with_special(k), g2), 0))
        # trading l tangencies for cusp codimension stops at the ambient space
        for l in range(1, min(t, r - k) + 1):
            terms.append(ExpansionTerm(
                -comb(t, l) * d * d, Family.S, (d,),
                (delta.with_tangency(t - l).with_special(k + l),)))
        terms.append(ExpansionTerm(-1, Family.N, (d,), (delta.add_incidence(2),)))
        for d1 in range(1, d):
            d2 = d - d1
            for g1, g2, mult in splits:
                terms.append(ExpansionTerm(
                    d1 * d2 * mult, Family.RR2, (d1, d2), (g1, g2), (k, 0)))
        terms.append(ExpansionTerm(2 * d, Family.N, (d,), (delta.with_special(k + 1),)))
        return terms

    # -- direct elimination for incidence-only queries ---------------------------

    def count_incidence(self, r: int, d: int, delta: Constraint) -> int:
        scale, delta = self._normalize(r, d, delta)
        if delta.tangency:
            raise ValidationError(
                "the direct elimination handles plain incidence conditions only")
        if delta.special > r:
            return 0
        self._check_finite(r, d, delta)
        if r == 2 and d <= 2:
            return 0
        k = delta.special
        codims = delta.incidence_codims()
        if len(codims) < 2:
            raise ValidationError(
                "need at least two incidence conditions beyond hyperplanes")
        # eliminate the two lowest-codimension incidences p, q
        p, q = codims[:2]
        rest = delta.remove_incidence(p).remove_incidence(q)
        acc = Accumulator()
        # a combined incidence of codimension above r is empty and adds nothing
        if p + q <= r:
            acc.add(-1, self.oracle.n_count, r, d, rest.add_incidence(p + q))
        splits = list(enumerate_splits(rest.with_special(None)))
        for d1 in range(1, d):
            d2 = d - d1
            for g1, g2, mult in splits:
                acc.add(-mult, self.oracle.nr_count,
                        r, d1, g1.with_special(k),
                        d2, g2.add_incidence(p).add_incidence(q), 0)
                acc.add(mult, self.oracle.rr2_count,
                        r, d1, g1.add_incidence(p), d2, g2.add_incidence(q), k, 0)
        acc.add(1, self.oracle.n_count, r, d, delta.remove_incidence(p).with_special(k + p))
        acc.add(1, self.oracle.n_count, r, d, delta.remove_incidence(q).with_special(k + q))
        return scale * acc.result()
