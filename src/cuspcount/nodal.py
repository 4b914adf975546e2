"""Counts for marked-node families and two-component joins, with stored-data fallback.

Three query shapes appear in the cusp recursions:

* a single curve with a marked node whose location sits on ``s`` general
  hyperplanes (family key ``N``),
* a marked-node curve attached to a rational curve at a point on ``c``
  general hyperplanes (``NR``),
* two rational curves attached at two points, lying on ``l`` respectively
  ``k`` general hyperplanes (``RR2``).

One rule, ``_never_stored``, says which counts no table holds: those
``constraints.empty_by_theorem`` empties, 0 in every P^r, and in the plane,
with no tangency conditions, all three, which evaluate in closed form
(through the blown-up-plane counts and the diagonal-splitting trick for
joins).  Everything else resolves against the table, except that a
tangency-free one-point join in higher space falls back to the splitting
formula when its own key is absent.  A join splits the diagonal of each
attachment point into a share per component, and asks the kernel only for
the shares its first component's dimension admits; every other product has
a factor off the kernel's dimension gate, which is 0.

The public entries validate their input through ``check_query``, the family
dimension and the marked-point rule among it, and raise; they trade each
hyperplane incidence for a factor of its component's degree.  The split
counts sum through ``errors.weighted_sum``.  The cusp engine calls the
unchecked counterparts ``_n_count``, ``_nr_count`` and ``_rr2_count``, which
trust their input to match the dimension, to carry the marked point of N and
NR and to have ``h = 0``, and return the value or the keys they lack (an
outcome, see ``errors``).  The table is a dict from structured key (see
``constraints``) to value, so a lookup is one ``dict.get`` and renders no text.

Stored tables are text files of ``KEY = VALUE`` lines, each ended by LF,
CRLF or CR and by nothing else, ``#`` starting a comment.  Only ``N``,
``NR`` and ``RR2`` records are read, and a key must be the exact text
``constraints.render_key`` gives.  Each record's key is parsed once, on
load, by its parts (``parse_key``), into the structured key the leaves look
up; only messages read a record's line.  Keys the engine never looks up are
rejected on load: ``R`` and ``S`` (always computed), r below 2, a degree
below 1, an incidence codimension above r, ``h`` other than 0, a marked
component with ``s=none``, a marked point anywhere else (``check_query``'s
rule), conditions that do not match the family dimension, and every key
``_never_stored`` gives a reason for, which the message names.  A value is
plain decimal, exactly as ``str(int)`` prints it, and not negative: every
stored key counts configurations of curves.
"""

from __future__ import annotations

from . import plane
from .constraints import (Constraint, Family, check_query, empty_by_theorem,
                          enumerate_splits, finite_conditions, join_order,
                          normalize_hyperplanes, parse_key)
from .errors import (ConsistencyError, PendingFailure, ValidationError, settle,
                     weighted_sum)
from .gw import GWEngine

_RECORD_FORMAT = "stored tables hold 'KEY = VALUE' text lines"
_COMPUTED = "tangency-free plane counts are computed, never read from a table"
_R, _N, _S, _NR, _RR2 = Family.R, Family.N, Family.S, Family.NR, Family.RR2


class OracleTable(dict):
    """Store of externally supplied counts: a dict from the structured key of
    each record (see ``constraints``), which its text is parsed into on load,
    to its value.  ``where`` holds, per loaded path, the line of each record
    first read from it, which only messages read."""

    def __init__(self):
        super().__init__()
        self.where: dict[str, dict[tuple, int]] = {}

    def load(self, path: str) -> None:
        """Read ``KEY = VALUE`` records, one per line; ``#`` starts a comment."""
        lines = self.where.setdefault(path, {})
        try:
            with open(path, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    payload = line.split("#", 1)[0].strip()
                    if not payload:
                        continue
                    key_text, eq, value_text = payload.rpartition("=")
                    if not eq:
                        raise ValidationError("%s:%d: missing '=' in record; %s"
                                              % (path, lineno, _RECORD_FORMAT))
                    value_text = value_text.strip()
                    try:
                        value = int(value_text)
                    except ValueError:
                        value = None
                    # values follow the key rule: exactly the text str(int) gives back
                    if value is None or str(value) != value_text:
                        raise ValidationError(
                            "%s:%d: value %r is not a plain decimal integer; %s"
                            % (path, lineno, value_text, _RECORD_FORMAT))
                    if value < 0:
                        raise ValidationError(
                            "%s:%d: value %d is negative, and a count of curves cannot be"
                            % (path, lineno, value))
                    key_text = key_text.strip()
                    try:
                        key = _check_stored_key(key_text)
                    except ValidationError as exc:
                        raise ValidationError("%s:%d: %s" % (path, lineno, exc)) from None
                    old = self.get(key)
                    if old is None:
                        self[key] = value
                        lines[key] = lineno
                    elif old != value:
                        first = next(p for p, seen in self.where.items() if key in seen)
                        raise ConsistencyError(
                            "conflicting values for %s: %d (%s:%d) vs %d (%s:%d)"
                            % (key_text, old, first, self.where[first][key], value, path, lineno))
        except UnicodeDecodeError:
            with open(path, "rb") as fh:  # decoded whole, the error counts from its start
                try:
                    fh.read().decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ValidationError("%s: not UTF-8 text: %s" % (path, exc)) from None


def _check_stored_key(text: str) -> tuple:
    """The structured key of a stored key's text; rejects a key the engine
    never looks up."""
    key = parse_key(text)
    family, r, g1 = key[0], key[1], key[3]
    g2 = g1 if len(key) == 4 else key[5]
    if family is _R or family is _S:
        why = "family %s is computed, never read from a table" % family
    elif g1.hyperplanes or g2.hyperplanes:
        why = "stored keys must have h=0; scale by the degree instead"
    # the entries read s=none on the marked component as s=0; a key never does
    elif family is not _RR2 and g1.special is None:
        why = "the marked-node component locates its node: s=<n>, not s=none"
    else:
        degrees = (key[2],) if family is _N else (key[2], key[4])
        try:  # spelled out: a starred call costs the load a tenth of its checks
            if family is _N:
                check_query(r, degrees, g1, family=family)
            else:
                check_query(r, degrees, g1, g2, family=family,
                            joint=key[6] if family is _NR else key[6] + key[7])
        except ValidationError as exc:
            why = str(exc)
        else:
            why = _never_stored(family, r, degrees, g1, g2)
    if why:
        raise ValidationError("%s (%s)" % (why, text))
    return key


def _never_stored(family: Family, r: int, degrees: tuple[int, ...],
                  g1: Constraint, g2: Constraint) -> str | None:
    """Why no table holds an N, NR or RR2 count (the reader's reject message),
    or ``None`` when its leaf reads the table; for ``_COMPUTED`` the leaf
    computes the count, and for ``empty_by_theorem``'s reason returns 0.
    ``g2`` is ``g1`` for N.  One exception: a tangency-free NR leaf outside
    the plane falls back to the splitting when its key is absent."""
    why = empty_by_theorem(family, r, degrees, g1.special)
    if not why and r == 2 and not g1.tangency and not g2.tangency:
        return _COMPUTED
    return why


class NodalOracle:
    """Resolves marked-node and join queries through closed forms or stored data."""

    def __init__(self, gw_engine: GWEngine | None = None,
                 table: OracleTable | None = None):
        self.gw_engine = gw_engine or GWEngine()
        self.table = OracleTable() if table is None else table

    # -- plain rational component ---------------------------------------------

    def gw_count(self, r: int, d: int, delta: Constraint) -> int:
        """Irreducible rational curves meeting the given subspaces."""
        if delta.tangency:
            raise ValidationError(
                "tangency conditions on a plain rational component need stored data")
        check_query(r, (d,), delta, family=_R)
        # the kernel scales codimension-1 insertions by d itself
        return self.gw_engine.gw_counts(r, d, ((1, delta.hyperplanes),) + delta.incidences)

    # -- marked-node family -----------------------------------------------------

    def n_count(self, r: int, d: int, delta: Constraint) -> int:
        check_query(r, (d,), delta, family=_N)
        scale, delta = normalize_hyperplanes(d, delta.with_special(delta.special or 0))
        return scale * settle(self._n_count(r, d, delta))

    def _n_count(self, r: int, d: int, delta: Constraint):
        why = _never_stored(_N, r, (d,), delta, delta)
        if why is _COMPUTED:
            s = delta.special
            if s == 0:
                return 2 * plane.marked_node(d)
            if s == 1:
                return 2 * plane.node_on_line(d)
            return 2 * plane.node_at_point(d)
        if why:
            return 0
        key = (_N, r, d, delta)
        return self.table.get(key, (key,))  # the stored value, or the outcome lacking it

    # -- one-point join -----------------------------------------------------------

    def nr_count(self, r: int, d1: int, g1: Constraint,
                 d2: int, g2: Constraint, c: int) -> int:
        check_query(r, (d1, d2), g1, g2, family=_NR, joint=c)
        scale1, g1 = normalize_hyperplanes(d1, g1.with_special(g1.special or 0))
        scale2, g2 = normalize_hyperplanes(d2, g2)
        return scale1 * scale2 * settle(self._nr_count(r, d1, g1, d2, g2, c))

    def _nr_count(self, r: int, d1: int, g1: Constraint,
                  d2: int, g2: Constraint, c: int):
        why = _never_stored(_NR, r, (d1, d2), g1, g2)
        if why is _COMPUTED:
            # every node count the splitting takes is a plane closed form here
            return self._nr_joint(r, d1, g1, d2, g2, c)
        if why:
            return 0
        key = (_NR, r, d1, g1, d2, g2, c)
        stored = self.table.get(key, (key,))
        if isinstance(stored, int) or g1.tangency or g2.tangency:
            return stored
        joint = self._nr_joint(r, d1, g1, d2, g2, c)
        return joint if isinstance(joint, int) else PendingFailure([joint, stored])

    def _nr_joint(self, r: int, d1: int, g1: Constraint,
                  d2: int, g2: Constraint, c: int):
        # split the diagonal of the attachment point into codimension e on the
        # node side and f on the rational side; the node side's dimension fixes e
        e = finite_conditions(_N, r, d1) + 1 - g1.cond()
        if not max(c, 1) <= e <= r:
            return 0
        # a codimension-1 share is a hyperplane: it scales the node side by d1
        node = self._n_count(r, d1, g1.add_incidence(e) if e > 1 else g1)
        f = r + c - e
        if not isinstance(node, int):
            return node  # its missing keys count even where f = 0 zeroes the product
        if e == 1:
            node *= d1
        return node * self._gw_leaf(r, d2, g2, f) if f else 0

    def _gw_leaf(self, r: int, d: int, g: Constraint, *extras: int) -> int:
        # g has h = 0 and no tangency; extras lie in 1..r
        return self.gw_engine.gw_counts(r, d, g.incidences + tuple((e, 1) for e in extras))

    # -- two-point join -------------------------------------------------------------

    def rr2_count(self, r: int, d1: int, g1: Constraint,
                  d2: int, g2: Constraint, k: int, l: int) -> int:
        check_query(r, (d1, d2), g1, g2, family=_RR2, joint=k + l)
        scale1, g1 = normalize_hyperplanes(d1, g1)
        scale2, g2 = normalize_hyperplanes(d2, g2)
        return scale1 * scale2 * settle(self._rr2_count(r, d1, g1, d2, g2, k, l))

    def _rr2_count(self, r: int, d1: int, g1: Constraint,
                   d2: int, g2: Constraint, k: int, l: int):
        # two lines meet once, where the diagonal would count their shared image line
        why = _never_stored(_RR2, r, (d1, d2), g1, g2)
        if why is _COMPUTED:
            return self._rr2_diagonal(r, d1, g1, d2, g2, k, l)
        if why:
            return 0
        key = (_RR2, r) + join_order(d1, g1, d2, g2) + (k, l)
        return self.table.get(key, (key,))

    def _rr2_diagonal(self, r: int, d1: int, g1: Constraint,
                      d2: int, g2: Constraint, k: int, l: int) -> int:
        # both attachment points split independently, minus the excess where
        # the configurations with a single attachment are counted twice.
        # A share of codimension e weighs e - 1 in the kernel's gate, so the
        # first factor, g1.cond() + (e1 - 1) + (e2 - 1) = (r + 1) d1 + r - 3,
        # is 0 unless e1 + e2 = w, and the excess one's g1.cond() + (e - 1)
        # is off the gate unless e = w - 1; only those products are asked for
        w = (r + 1) * d1 + r - 1 - g1.cond()
        second = _shares(r, k)
        total = 0
        for e1 in _shares(r, l):
            e2 = w - e1
            if e2 in second:
                total += (self._gw_leaf(r, d1, g1, e1, e2)
                          * self._gw_leaf(r, d2, g2, r + l - e1, r + k - e2))
        e = w - 1
        if e in _shares(r, k + l):
            total -= self._gw_leaf(r, d1, g1, e) * self._gw_leaf(r, d2, g2, r + k + l - e)
        return total

    # -- distributing one constraint set over a join -----------------------------

    def nr_split_count(self, r: int, d1: int, d2: int, delta: Constraint,
                       node_codim: int, c: int) -> int:
        # the node's location stands as the marked first component and delta,
        # which has none to give, as the second, so a marked point on delta
        # meets check_query's placement rule
        check_query(r, (d1, d2), Constraint(special=node_codim), delta,
                    family=_NR, joint=c)
        return self._split_sum(d1 + d2, delta, lambda g1, g2: self._nr_count(
            r, d1, g1.with_special(node_codim), d2, g2, c))

    def rr2_split_count(self, r: int, d1: int, d2: int, delta: Constraint,
                        k: int, l: int) -> int:
        check_query(r, (d1, d2), delta, family=_RR2, joint=k + l)
        return self._split_sum(d1 + d2, delta, lambda g1, g2: self._rr2_count(
            r, d1, g1, d2, g2, k, l))

    def _split_sum(self, d: int, delta: Constraint, leaf) -> int:
        scale, delta = normalize_hyperplanes(d, delta)
        return scale * settle(weighted_sum(
            (mult, leaf(g1, g2)) for g1, g2, mult in enumerate_splits(delta)))


def _shares(r: int, j: int) -> range:
    """First codimensions e of the shares (e, r + j - e), both in 1..r, of the
    diagonal of a point on j hyperplanes; a codimension-0 share kills its factor."""
    return range(max(j, 1), min(r, r + j - 1) + 1)


def plane_join_points(family: Family, d1: int, k: int) -> range:
    """The point counts ``a`` on the first component, of degree ``d1``, at
    which the cusp expansion's tangency-free plane join, NR with c = 0 and
    its node on ``k`` lines or RR2 with (k, l) = (k, 0), can be nonzero;
    at any other ``a`` every product it takes is off the kernel's gate."""
    r = 2
    if family is _NR:
        # _nr_joint's node share e = top - a lies in 1..r, and f = r - e > 0
        top, shares = finite_conditions(_N, r, d1) + 1 - k, _shares(r, 0)
    else:
        # with l = 0, both of _rr2_diagonal's products need w - 1 = top - a
        # in _shares(r, k)
        top, shares = (r + 1) * d1 + r - 2, _shares(r, k)
    return range(top - shares.stop + 1, top - shares.start + 1)
