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
the linear space the cusp must lie on.

An expansion yields its tangency-reduced cusp terms (family S) first.
``count`` evaluates all of them, so every division check a query reaches
runs, then stops a failing subquery at its first missing leaf; the keys it
lacks are gathered only when ``OracleDataMissingError.keys`` is read.

The engine memoises the outcome of every cusp subquery on ``(r, d, delta)``:
its value, or its pending failure together with the stored-table size it
was met at.  A failure is forgotten once the stored table grows, since the
new records may supply what was missing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional, Union

from .constraints import (Constraint, Family, check_query, enumerate_splits,
                          finite_conditions, normalize_hyperplanes, single_key)
from .errors import (Accumulator, ConsistencyError, FinitenessError,
                     PendingFailure, ValidationError, settle)
from .nodal import NodalOracle


@dataclass(frozen=True)
class ExpansionTerm:
    """One weighted subquery on the eliminated side of the cusp recursion."""

    coefficient: int
    family: Family
    degrees: tuple[int, ...]
    constraints: tuple[Constraint, ...]
    joint: Union[None, int, tuple[int, int]] = None


@dataclass(frozen=True)
class Expansion:
    """A cusp expansion's terms, produced once, as they are iterated.

    ``len`` counts them without producing any; perfbench's tracer reads it.
    """

    terms: Iterator[ExpansionTerm]
    size: int

    def __iter__(self) -> Iterator[ExpansionTerm]:
        return self.terms

    def __len__(self) -> int:
        return self.size


class CuspEngine:
    def __init__(self, oracle: Optional[NodalOracle] = None):
        self.oracle = oracle or NodalOracle()
        # (r, d, delta) -> value, or (table size, pending failure)
        self._memo: dict[tuple, Union[int, tuple[int, PendingFailure]]] = {}

    # -- validation common to the public entries ------------------------------

    def _normalize(self, r: int, d: int, delta: Constraint) -> tuple[int, Constraint]:
        check_query(r, (d,), delta)
        return normalize_hyperplanes(d, delta.with_special(delta.special or 0))

    def _check_finite(self, r: int, d: int, delta: Constraint) -> None:
        want = finite_conditions(Family.S, r, d)
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
        return scale * settle(self._count_core(r, d, delta))

    def _count_core(self, r: int, d: int, delta: Constraint):
        """The memoised outcome of a cusp subquery: its value or a pending failure."""
        memo_key = (r, d, delta)
        size = len(self.oracle.table)
        hit = self._memo.get(memo_key)
        if isinstance(hit, int):
            return hit
        if hit is not None and hit[0] == size:
            return hit[1]
        terms = iter(self.expansion(r, d, delta))
        acc = Accumulator()
        # the S terms come first and all run, so do their division checks
        for term in terms:
            acc.add(term.coefficient, self._evaluate(r, term))
            if acc.missing and term.family is not Family.S:
                break
        if acc.missing:
            failure = acc.outcome(self._evaluate(r, term) for term in terms)
            self._memo[memo_key] = (size, failure)
            return failure
        if acc.total % (d * d):
            raise ConsistencyError(
                "eliminated side %d is not divisible by %d for %s"
                % (acc.total, d * d, single_key(Family.S, r, d, delta)))
        value = acc.total // (d * d)
        self._memo[memo_key] = value
        return value

    def _evaluate(self, r: int, term: ExpansionTerm):
        if term.family is Family.N:
            return self.oracle._n_count(r, term.degrees[0], term.constraints[0])
        if term.family is Family.S:
            # same degree as the parent query, so never an empty low-degree family
            return self._count_core(r, term.degrees[0], term.constraints[0])
        d1, d2 = term.degrees
        g1, g2 = term.constraints
        if term.family is Family.NR:
            return self.oracle._nr_count(r, d1, g1, d2, g2, term.joint)
        return self.oracle._rr2_count(r, d1, g1, d2, g2, *term.joint)

    def expansion(self, r: int, d: int, delta: Constraint) -> Expansion:
        """The eliminated side of ``count`` as explicit weighted subqueries.

        The coefficients still carry the degree-squared factor, so summing
        coefficient times subquery value gives d*d times the cusp count.
        Tangency-reduced cusp subqueries are family S terms and come first.
        The query is validated here, before any term is produced.
        """
        _, delta = self._normalize(r, d, delta)
        self._check_finite(r, d, delta)
        k, t = delta.special, delta.tangency
        splits = list(enumerate_splits(delta.with_special(None)))
        # trading l tangencies for cusp codimension stops at the ambient space
        reductions = range(1, min(t, r - k) + 1)

        def terms() -> Iterator[ExpansionTerm]:
            for l in reductions:
                yield ExpansionTerm(
                    -comb(t, l) * d * d, Family.S, (d,),
                    (delta.with_tangency(t - l).with_special(k + l),))
            for d1 in range(1, d):
                d2 = d - d1
                for g1, g2, mult in splits:
                    yield ExpansionTerm(
                        -d2 * d2 * mult, Family.NR, (d1, d2),
                        (g1.with_special(k), g2), 0)
            yield ExpansionTerm(-1, Family.N, (d,), (delta.add_incidence(2),))
            for d1 in range(1, d):
                d2 = d - d1
                for g1, g2, mult in splits:
                    yield ExpansionTerm(
                        d1 * d2 * mult, Family.RR2, (d1, d2), (g1, g2), (k, 0))
            yield ExpansionTerm(2 * d, Family.N, (d,), (delta.with_special(k + 1),))

        return Expansion(terms(), len(reductions) + 2 * (d - 1) * len(splits) + 2)

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
            acc.add(-1, self.oracle._n_count(r, d, rest.add_incidence(p + q)))
        splits = list(enumerate_splits(rest.with_special(None)))
        for d1 in range(1, d):
            d2 = d - d1
            for g1, g2, mult in splits:
                acc.add(-mult, self.oracle._nr_count(
                    r, d1, g1.with_special(k),
                    d2, g2.add_incidence(p).add_incidence(q), 0))
                acc.add(mult, self.oracle._rr2_count(
                    r, d1, g1.add_incidence(p), d2, g2.add_incidence(q), k, 0))
        acc.add(1, self.oracle._n_count(r, d, delta.remove_incidence(p).with_special(k + p)))
        acc.add(1, self.oracle._n_count(r, d, delta.remove_incidence(q).with_special(k + q)))
        return scale * settle(acc.outcome())
