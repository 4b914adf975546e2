"""Counts for marked-node families and two-component joins, with stored-data fallback.

Three query shapes appear in the cusp recursions:

* a single curve with a marked node whose location sits on ``s`` general
  hyperplanes (family key ``N``),
* a marked-node curve attached to a rational curve at a point on ``c``
  general hyperplanes (``NR``),
* two rational curves attached at two points, lying on ``l`` respectively
  ``k`` general hyperplanes (``RR2``).

In the plane, with no tangency conditions, all three evaluate in closed form
(through the blown-up-plane counts and the diagonal-splitting trick for
joins); the stored table cannot override those.  Everything else resolves
against the table, except that incidence-only one-point joins in higher
space fall back to the splitting formula when their own key is absent.
Off-dimension queries are exact zeros and never touch the table.

The public entries validate their input and raise; the cusp engine calls
their unchecked counterparts ``_n_count``, ``_nr_count`` and ``_rr2_count``,
which return the value or the keys they lack (an outcome, see ``errors``).

Stored tables are text files of ``KEY = VALUE`` lines, ``#`` starting a
comment.  Only ``N``, ``NR`` and ``RR2`` records are read, and a key must be
the exact text the package renders (``parse_key``), except that ``s=none`` on
the marked component is read as ``s=0``.  Keys the engine never looks up are
rejected on load: ``R`` and ``S`` (always computed), r below 2, a degree below
1, an incidence codimension above r, ``h`` other than 0, a marked point beyond
P^r, conditions that do not match the family dimension, and tangency-free
plane keys (closed forms).  The splitting formulas take their leaves from
components already normalised to ``h = 0`` and pass count pairs to the GW
kernel, over shares of codimension 1..r only.  The one codimension-0 share,
``e = r`` of a one-point join with ``c = 0``, is 0 but still evaluates its
marked-node side, so the stored keys that side lacks stay in the exit-3 report.
"""

from __future__ import annotations

from typing import Optional

from . import plane
from .constraints import (Constraint, Family, check_query, enumerate_splits,
                          finite_conditions, normalize_hyperplanes, nr_key,
                          parse_key, rr2_key, single_key)
from .errors import (Accumulator, ConsistencyError, PendingFailure,
                     ValidationError, settle)
from .gw import GWEngine

_RECORD_FORMAT = "stored tables hold 'KEY = VALUE' text lines"


class OracleTable:
    """Store of externally supplied counts, keyed by canonical text."""

    def __init__(self):
        # key -> (value, file:line it came from)
        self._records: dict[str, tuple[int, str]] = {}

    def __len__(self) -> int:
        return len(self._records)

    def get(self, key: str) -> Optional[int]:
        rec = self._records.get(key)
        return None if rec is None else rec[0]

    def load(self, path: str) -> None:
        """Read ``KEY = VALUE`` records, one per line; ``#`` starts a comment."""
        with open(path, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ValidationError("%s: not UTF-8 text: %s" % (path, exc)) from None
        for lineno, line in enumerate(text.splitlines(), 1):
            payload = line.split("#", 1)[0].strip()
            if not payload:
                continue
            key_text, eq, value_text = payload.rpartition("=")
            where = "%s:%d" % (path, lineno)
            if not eq:
                raise ValidationError(
                    "%s: missing '=' in record; %s" % (where, _RECORD_FORMAT))
            try:
                value = int(value_text.strip())
            except ValueError:
                raise ValidationError(
                    "%s: value %r is not an integer; %s"
                    % (where, value_text.strip(), _RECORD_FORMAT)) from None
            key = _normalize_stored_key(key_text.strip(), where)
            old = self._records.setdefault(key, (value, where))
            if old[0] != value:
                raise ConsistencyError(
                    "conflicting values for %s: %d (%s) vs %d (%s)"
                    % (key, old[0], old[1], value, where))


def _normalize_stored_key(key: str, source: str) -> str:
    try:
        family, r, degrees, constraints, joint = parse_key(key)
        check_query(r, degrees, *constraints)
    except ValidationError as exc:
        raise ValidationError("%s: %s" % (source, exc)) from None
    # the marked node sits on the first component of N and NR keys
    marked = None if family is Family.RR2 else constraints[0]
    plain = constraints if marked is None else constraints[1:]
    weight = sum(g.cond() for g in constraints)
    weight += sum(joint) if isinstance(joint, tuple) else joint or 0
    why = None
    if family in (Family.R, Family.S):
        why = "family %s is computed, never read from a table" % family
    elif any(g.hyperplanes for g in constraints):
        why = "stored keys must have h=0; scale by the degree instead"
    elif any(g.special is not None for g in plain):
        why = ("only the marked-node component carries a marked point,"
               " use s=none elsewhere")
    # the leaves settle these keys before they read the table
    elif marked is not None and (marked.special or 0) > r:
        why = "marked point codimension %d exceeds the ambient dimension" % marked.special
    elif weight != finite_conditions(family, r, sum(degrees)):
        why = "%d conditions do not match the family dimension" % weight
    elif r == 2 and not any(g.tangency for g in constraints):
        why = "tangency-free plane counts are computed, never read from a table"
    if why:
        raise ValidationError("%s: %s (%s)" % (source, why, key))
    # parse_key accepts canonical text only, so only s=none needs rewriting
    if marked is None or marked.special is not None:
        return key
    if family is Family.N:
        return single_key(family, r, degrees[0], marked.with_special(0))
    return nr_key(r, degrees[0], marked.with_special(0), degrees[1], constraints[1], joint)


class NodalOracle:
    """Resolves marked-node and join queries through closed forms or stored data."""

    def __init__(self, gw_engine: Optional[GWEngine] = None,
                 table: Optional[OracleTable] = None):
        self.gw_engine = gw_engine or GWEngine()
        self.table = OracleTable() if table is None else table

    # -- plain rational component ---------------------------------------------

    def gw_count(self, r: int, d: int, delta: Constraint) -> int:
        """Irreducible rational curves meeting the given subspaces."""
        if delta.tangency:
            raise ValidationError(
                "tangency conditions on a plain rational component need stored data")
        if delta.special is not None:
            raise ValidationError("a plain rational component has no marked point")
        # the kernel names an insertion codimension outside 0..r itself
        check_query(r, (d,))
        scale, delta = normalize_hyperplanes(d, delta)
        return scale * self.gw_engine.gw_counts(r, d, delta.incidences)

    # -- marked-node family -----------------------------------------------------

    def n_count(self, r: int, d: int, delta: Constraint) -> int:
        check_query(r, (d,), delta)
        return settle(self._n_count(r, d, delta))

    def _n_count(self, r: int, d: int, delta: Constraint):
        delta = delta.with_special(delta.special or 0)
        if delta.special > r:
            return 0
        scale, delta = normalize_hyperplanes(d, delta)
        if delta.cond() != finite_conditions(Family.N, r, d):
            return 0
        if r == 2 and delta.tangency == 0:
            s = delta.special
            if s == 0:
                base = 2 * plane.marked_node(d)
            elif s == 1:
                base = 2 * plane.node_on_line(d)
            else:
                base = 2 * plane.node_at_point(d)
            return scale * base
        return self._stored(scale, single_key(Family.N, r, d, delta))

    def _stored(self, scale: int, key: str):
        """The stored value times ``scale``, or the one-key outcome lacking it."""
        value = self.table.get(key)
        return (key,) if value is None else scale * value

    # -- one-point join -----------------------------------------------------------

    def nr_count(self, r: int, d1: int, g1: Constraint,
                 d2: int, g2: Constraint, c: int) -> int:
        if g2.special is not None:
            raise ValidationError("the attached rational component has no marked point")
        check_query(r, (d1, d2), g1, g2)
        return settle(self._nr_count(r, d1, g1, d2, g2, c))

    def _nr_count(self, r: int, d1: int, g1: Constraint,
                  d2: int, g2: Constraint, c: int):
        g1 = g1.with_special(g1.special or 0)
        if g1.special > r:
            return 0
        scale, g1 = normalize_hyperplanes(d1, g1)
        scale2, g2 = normalize_hyperplanes(d2, g2)
        scale *= scale2
        if g1.cond() + g2.cond() + c != finite_conditions(Family.NR, r, d1 + d2):
            return 0
        tangency_free = g1.tangency == 0 and g2.tangency == 0
        if r == 2 and tangency_free:
            # every node count the splitting takes is a plane closed form here
            return scale * self._nr_joint(r, d1, g1, d2, g2, c)
        stored = self._stored(scale, nr_key(r, d1, g1, d2, g2, c))
        if isinstance(stored, int) or not tangency_free:
            return stored
        joint = self._nr_joint(r, d1, g1, d2, g2, c)
        if isinstance(joint, int):
            return scale * joint
        return PendingFailure([joint, stored])

    def _nr_joint(self, r: int, d1: int, g1: Constraint,
                  d2: int, g2: Constraint, c: int):
        # split the diagonal of the attachment point across the two components
        acc = Accumulator()
        for e, f in _shares(r, c):
            acc.add(self._gw_leaf(r, d2, g2, f), self._n_count(r, d1, g1.add_incidence(e)))
        if c == 0:
            # e = r leaves codimension 0 on the rational side, a factor 0;
            # the node side still reports the stored keys it lacks
            acc.add(0, self._n_count(r, d1, g1.add_incidence(r)))
        return acc.outcome()

    def _gw_leaf(self, r: int, d: int, g: Constraint, *extras: int) -> int:
        # g is normalised and tangency-free; extras lie in 1..r
        return self.gw_engine.gw_counts(r, d, g.incidences + tuple((e, 1) for e in extras))

    # -- two-point join -------------------------------------------------------------

    def rr2_count(self, r: int, d1: int, g1: Constraint,
                  d2: int, g2: Constraint, k: int, l: int) -> int:
        if g1.special is not None or g2.special is not None:
            raise ValidationError("two-point joins carry no further marked point")
        check_query(r, (d1, d2), g1, g2)
        return settle(self._rr2_count(r, d1, g1, d2, g2, k, l))

    def _rr2_count(self, r: int, d1: int, g1: Constraint,
                   d2: int, g2: Constraint, k: int, l: int):
        scale, g1 = normalize_hyperplanes(d1, g1)
        scale2, g2 = normalize_hyperplanes(d2, g2)
        scale *= scale2
        if g1.cond() + g2.cond() + k + l != finite_conditions(Family.RR2, r, d1 + d2):
            return 0
        tangency_free = g1.tangency == 0 and g2.tangency == 0
        if r == 2 and tangency_free:
            if d1 == 1 and d2 == 1:
                # two distinct lines meet only once; the diagonal formula
                # would instead pick up the degenerate overlap where both
                # components share one image line
                return 0
            return scale * self._rr2_diagonal(r, d1, g1, d2, g2, k, l)
        return self._stored(scale, rr2_key(r, d1, g1, d2, g2, k, l))

    def _rr2_diagonal(self, r: int, d1: int, g1: Constraint,
                      d2: int, g2: Constraint, k: int, l: int) -> int:
        # both attachment points split independently, minus the excess where
        # the configurations with a single attachment are counted twice
        total = 0
        for e1, f1 in _shares(r, l):
            for e2, f2 in _shares(r, k):
                total += (self._gw_leaf(r, d1, g1, e1, e2)
                          * self._gw_leaf(r, d2, g2, f1, f2))
        for e, f in _shares(r, k + l):
            total -= self._gw_leaf(r, d1, g1, e) * self._gw_leaf(r, d2, g2, f)
        return total

    # -- distributing one constraint set over a join -----------------------------

    def nr_split_count(self, r: int, d1: int, d2: int, delta: Constraint,
                       node_codim: int, c: int) -> int:
        return self._split_sum(r, d1, d2, delta, lambda g1, g2: self._nr_count(
            r, d1, g1.with_special(node_codim), d2, g2, c))

    def rr2_split_count(self, r: int, d1: int, d2: int, delta: Constraint,
                        k: int, l: int) -> int:
        return self._split_sum(r, d1, d2, delta, lambda g1, g2: self._rr2_count(
            r, d1, g1, d2, g2, k, l))

    def _split_sum(self, r: int, d1: int, d2: int, delta: Constraint, leaf) -> int:
        check_query(r, (d1, d2), delta)
        scale, delta = normalize_hyperplanes(d1 + d2, delta)
        acc = Accumulator()
        for g1, g2, mult in enumerate_splits(delta):
            acc.add(mult, leaf(g1, g2))
        return scale * settle(acc.outcome())


def _shares(r: int, j: int) -> list[tuple[int, int]]:
    """Codimensions (e, r + j - e), both in 1..r, splitting the diagonal of a
    point on j hyperplanes; a codimension-0 share would kill its factor."""
    return [(e, r + j - e) for e in range(max(j, 1), min(r, r + j - 1) + 1)]
