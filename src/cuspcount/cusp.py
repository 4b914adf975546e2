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
the linear space the cusp must lie on; ``constraints.empty_by_theorem``
names the queries that count 0 in every P^r.

An expansion produces only the joins that can contribute: none that
``empty_by_theorem`` empties, a two-point join standing, at twice its
coefficient, for its mirror, which has the same key (over ``d1 = d2``, the
splits below their mirrors, and a self-mirror split once), and, in the
plane with no tangency, only the splits ``nodal.plane_join_points`` admits.

Both routes stop a failing sum at its first missing leaf: ``count_incidence``
through ``errors.weighted_sum``, ``count`` in its own loop, after all the S
terms an expansion yields, so every division check a query reaches runs.
The keys are gathered only when ``OracleDataMissingError.keys`` is read.
``count`` iterates one lazy term generator, ``_terms``: it builds the
constraint splits the joins share, once, and plans each join kind's degree
pairs and split windows only when its sum has passed both marked-node
terms, so a subquery that fails at a marked-node term plans none; it marks
each split a one-point join takes once.  ``expansion`` lists the same
terms for a validated query, their coefficients times its d**h.

The engine memoises the outcome of every cusp subquery on ``(r, d, delta)``:
its value, or its pending failure together with the stored-table size it
was met at.  A failure is forgotten once the stored table grows, since the
new records may supply what was missing.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from math import comb

from .constraints import (Constraint, Family, check_query, empty_by_theorem,
                          enumerate_splits, normalize_hyperplanes, render_key)
from .errors import (ConsistencyError, PendingFailure, ValidationError, settle,
                     weighted_sum)
from .nodal import NodalOracle, plane_join_points

_N, _S, _NR, _RR2 = Family.N, Family.S, Family.NR, Family.RR2


class ExpansionTerm(namedtuple("ExpansionTerm",
                               "coefficient family degrees constraints joint",
                               defaults=(None,))):
    """One weighted subquery on the eliminated side of the cusp recursion, as
    an immutable tuple: a coefficient, a family, 1 or 2 degrees and constraint
    sets, and the joint conditions of a join (``c`` or ``(k, l)``), else ``None``."""

    __slots__ = ()


class CuspEngine:
    def __init__(self, oracle: NodalOracle | None = None):
        self.oracle = oracle or NodalOracle()
        # (r, d, delta) -> value, or (table size, pending failure)
        self._memo: dict[tuple, int | tuple[int, PendingFailure]] = {}

    # -- validation common to the public entries ------------------------------

    def _normalize(self, r: int, d: int, delta: Constraint) -> tuple[int, Constraint]:
        check_query(r, (d,), delta, family=_S)
        return normalize_hyperplanes(d, delta.with_special(delta.special or 0))

    # -- full recursion --------------------------------------------------------

    def count(self, r: int, d: int, delta: Constraint) -> int:
        scale, delta = self._normalize(r, d, delta)
        if empty_by_theorem(_S, r, (d,), delta.special):
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
        terms = _terms(r, d, delta)
        total, missing = 0, []
        # the S terms come first and all run, so do their division checks;
        # a loop of its own, as a generator per term costs plane grids 5%
        for term in terms:
            outcome = self._evaluate(r, term)
            if isinstance(outcome, int):
                total += term.coefficient * outcome
            else:
                missing.append(outcome)
            if missing and term.family is not _S:
                break
        if missing:
            failure = PendingFailure(missing, (self._evaluate(r, term) for term in terms))
            self._memo[memo_key] = (size, failure)
            return failure
        if total % (d * d):
            raise ConsistencyError(
                "eliminated side %d is not divisible by %d for %s"
                % (total, d * d, render_key((_S, r, d, delta))))
        value = total // (d * d)
        self._memo[memo_key] = value
        return value

    def _evaluate(self, r: int, term: ExpansionTerm):
        family = term.family
        if family is _N:
            return self.oracle._n_count(r, term.degrees[0], term.constraints[0])
        if family is _S:
            # same degree as the parent query, so never an empty low-degree family
            return self._count_core(r, term.degrees[0], term.constraints[0])
        d1, d2 = term.degrees
        g1, g2 = term.constraints
        if family is _NR:
            return self.oracle._nr_count(r, d1, g1, d2, g2, term.joint)
        k, l = term.joint
        return self.oracle._rr2_count(r, d1, g1, d2, g2, k, l)

    def expansion(self, r: int, d: int, delta: Constraint) -> list[ExpansionTerm]:
        """The eliminated side of ``count`` as a list of weighted subqueries.

        The coefficients still carry the degree-squared factor, and here
        also the query's hyperplane factor d**h, while the subqueries have
        h = 0, so summing coefficient times subquery value gives d*d times
        the cusp count.
        The terms come by family: S (tangency-reduced cusps), N, NR, RR2.
        The joins leave out what ``empty_by_theorem`` empties and run over
        ``d1 <= d2``, a pair with ``d1 < d2`` weighted twice for its mirror,
        ``d1 = d2`` each split below its mirror.  In the plane with no
        tangency they take the one or two splits per degree pair that
        ``nodal.plane_join_points`` admits; every other split is 0.
        The query is validated here, before any term is produced.
        """
        scale, delta = self._normalize(r, d, delta)
        return [term._replace(coefficient=scale * term.coefficient)
                for term in _terms(r, d, delta)]

    # -- direct elimination for incidence-only queries ---------------------------

    def count_incidence(self, r: int, d: int, delta: Constraint) -> int:
        scale, delta = self._normalize(r, d, delta)
        if delta.tangency:
            raise ValidationError(
                "the direct elimination handles plain incidence conditions only")
        if empty_by_theorem(_S, r, (d,), delta.special):
            return 0
        k = delta.special
        # eliminate the two lowest-codimension incidences p, q; with d >= 3 and
        # k <= r, (r + 1) d - 2 conditions need two, as one weighs at most r - 1
        p, q = delta.incidence_codims()[:2]
        rest = delta.remove_incidence(p).remove_incidence(q)

        def terms():
            # a combined incidence of codimension above r is empty and adds nothing
            if p + q <= r:
                yield -1, self.oracle._n_count(r, d, rest.add_incidence(p + q))
            splits = list(enumerate_splits(rest.with_special(None)))
            for d1, d2 in _join_degrees(_NR, r, d, k, range(1, d)):
                for g1, g2, mult in splits:
                    yield -mult, self.oracle._nr_count(
                        r, d1, g1.with_special(k),
                        d2, g2.add_incidence(p).add_incidence(q), 0)
            for d1 in range(1, d):
                for g1, g2, mult in splits:
                    yield mult, self.oracle._rr2_count(
                        r, d1, g1.add_incidence(p), d - d1, g2.add_incidence(q), k, 0)
            yield 1, self.oracle._n_count(r, d, delta.remove_incidence(p).with_special(k + p))
            yield 1, self.oracle._n_count(r, d, delta.remove_incidence(q).with_special(k + q))

        return scale * settle(weighted_sum(terms()))


def _join_degrees(family: Family, r: int, d: int, special: int | None,
                  firsts: range) -> list[tuple[int, int]]:
    """The degree pairs ``(d1, d - d1)``, d1 in ``firsts``, of the joins of a
    ``family`` that ``empty_by_theorem`` does not empty."""
    return [(d1, d - d1) for d1 in firsts
            if not empty_by_theorem(family, r, (d1, d - d1), special)]


def _terms(r: int, d: int, delta: Constraint) -> Iterator[ExpansionTerm]:
    """The terms of the expansion of a normalised query ``delta`` with h = 0,
    by family: S, N, NR, RR2."""
    k, t = delta.special, delta.tangency
    # trading l tangencies for cusp codimension stops at the ambient space
    for l in range(1, min(t, r - k) + 1):
        yield ExpansionTerm(
            -comb(t, l) * d * d, _S, (d,),
            (delta.with_tangency(t - l).with_special(k + l),))
    # N terms before the joins: a subquery that fails at one plans no join
    yield ExpansionTerm(-1, _N, (d,), (delta.add_incidence(2),))
    yield ExpansionTerm(2 * d, _N, (d,), (delta.with_special(k + 1),))
    # built once, here, and shared by every join term; split i and split
    # n - 1 - i of the n splits are mirrors
    splits = list(enumerate_splits(delta.with_special(None)))
    n = len(splits)
    gated = r == 2 and t == 0
    term = ExpansionTerm._make
    # a one-point join's first component carries the cusp, at k: each split
    # is marked once, by the first degree pair that takes it
    marked = {}
    for degrees in _join_degrees(_NR, r, d, k, range(1, d)):
        d1, d2 = degrees
        weight = -d2 * d2
        for i in _picks(gated, _NR, d1, k, 0, n):
            pair = marked.get(i)
            if pair is None:
                pair = marked[i] = (splits[i][0].with_special(k), splits[i][1])
            yield term((weight * splits[i][2], _NR, degrees, pair, 0))
    half = n // 2
    for degrees in _join_degrees(_RR2, r, d, None, range(1, d // 2 + 1)):
        d1, d2 = degrees
        weight = d1 * d2
        if d1 < d2:  # (d1, d2) stands for its mirror (d2, d1) too
            windows = (0, n, 2 * weight),
        else:
            # a split below its mirror, which has the same key, stands for
            # both, the self-mirror one of an odd count for itself alone; in
            # the plane a split whose mirror is off the gate is 0, as its mirror is
            windows = (0, half, 2 * weight), (half, n - half, weight)
        for lo, hi, w in windows:
            chosen = _picks(gated, _RR2, d1, k, lo, hi)
            for g1, g2, mult in splits[chosen.start:chosen.stop]:
                yield term((w * mult, _RR2, degrees, (g1, g2), (k, 0)))


def _picks(gated: bool, family: Family, d1: int, k: int, lo: int, hi: int) -> range:
    """The split indices in ``lo..hi - 1`` a join takes: in the plane with no
    tangency the conditions are n points and split a puts a of them on the
    first component, so only the a the kernel's gate admits."""
    if gated:
        gate = plane_join_points(family, d1, k)
        lo, hi = max(lo, gate.start), min(hi, gate.stop)
    return range(lo, max(lo, hi))
