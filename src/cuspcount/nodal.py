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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from . import plane
from .constraints import (Constraint, Family, enumerate_splits,
                          normalize_hyperplanes, nr_key, parse_key, rr2_key,
                          single_key)
from .errors import (Accumulator, ConsistencyError, OracleDataMissingError,
                     ValidationError)
from .gw import GWEngine


@dataclass(frozen=True)
class OracleRecord:
    key: str
    value: int
    provenance: str
    source: str


class OracleTable:
    """Store of externally supplied counts, keyed by canonical text."""

    def __init__(self):
        self._records: dict[str, OracleRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def get(self, key: str) -> Optional[int]:
        rec = self._records.get(key)
        return None if rec is None else rec.value

    def record(self, key: str) -> Optional[OracleRecord]:
        return self._records.get(key)

    def _store(self, key: str, value: int, provenance: str, source: str) -> None:
        key = _normalize_stored_key(key, source)
        old = self._records.get(key)
        if old is not None:
            if old.value != value:
                raise ConsistencyError(
                    "conflicting values for %s: %d (%s) vs %d (%s)"
                    % (key, old.value, old.source, value, source))
            return
        self._records[key] = OracleRecord(key, value, provenance, source)

    def load(self, path: str) -> None:
        if path.endswith(".json"):
            self.load_json(path)
        else:
            self.load_text(path)

    def load_text(self, path: str) -> None:
        lines = _read_utf8(path).splitlines()
        for lineno, line in enumerate(lines, 1):
            payload = line.split("#", 1)[0].strip()
            provenance = line.split("#", 1)[1].strip() if "#" in line else ""
            if not payload:
                continue
            key_text, eq, value_text = payload.rpartition("=")
            where = "%s:%d" % (path, lineno)
            if not eq:
                raise ValidationError("%s: missing '=' in record" % where)
            try:
                value = int(value_text.strip())
            except ValueError:
                raise ValidationError(
                    "%s: value %r is not an integer" % (where, value_text.strip())) from None
            self._store(key_text.strip(), value, provenance, where)

    def load_json(self, path: str) -> None:
        try:
            data = json.loads(_read_utf8(path))
        except json.JSONDecodeError as exc:
            raise ValidationError("%s: not valid JSON: %s" % (path, exc)) from None
        if not isinstance(data, list):
            raise ValidationError("%s: top level must be an array" % path)
        for idx, entry in enumerate(data):
            where = "%s[%d]" % (path, idx)
            if not isinstance(entry, dict):
                raise ValidationError("%s: entry must be an object" % where)
            unknown = set(entry) - {"family", "r", "degrees", "constraint",
                                    "joint", "value", "provenance"}
            if unknown:
                raise ValidationError(
                    "%s: unknown fields %s" % (where, ", ".join(sorted(unknown))))
            try:
                family = Family(entry["family"])
                r = int(entry["r"])
                value = int(entry["value"])
            except (KeyError, ValueError) as exc:
                raise ValidationError("%s: %s" % (where, exc)) from None
            provenance = str(entry.get("provenance", ""))
            degrees = entry.get("degrees")
            constraint = entry.get("constraint")
            joint = entry.get("joint")
            if family in (Family.R, Family.N, Family.S):
                if not isinstance(degrees, int) or not isinstance(constraint, str):
                    raise ValidationError(
                        "%s: single-component record needs integer degrees"
                        " and one constraint string" % where)
                if joint is not None:
                    raise ValidationError("%s: joint must be null here" % where)
                key = single_key(family, r, degrees, Constraint.parse(constraint))
            else:
                ok_shape = (isinstance(degrees, list) and len(degrees) == 2
                            and isinstance(constraint, list) and len(constraint) == 2)
                if not ok_shape:
                    raise ValidationError(
                        "%s: two-component record needs [d1, d2] and two"
                        " constraint strings" % where)
                d1, d2 = int(degrees[0]), int(degrees[1])
                g1 = Constraint.parse(constraint[0])
                g2 = Constraint.parse(constraint[1])
                if family is Family.NR:
                    if not isinstance(joint, int):
                        raise ValidationError("%s: joint must be an integer" % where)
                    key = nr_key(r, d1, g1, d2, g2, joint)
                else:
                    if not (isinstance(joint, list) and len(joint) == 2):
                        raise ValidationError("%s: joint must be [k, l]" % where)
                    key = rr2_key(r, d1, g1, d2, g2, int(joint[0]), int(joint[1]))
            self._store(key, value, provenance, where)


def _read_utf8(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError("%s: not UTF-8 text: %s" % (path, exc)) from None


def _normalize_stored_key(key: str, source: str) -> str:
    try:
        family, r, degrees, constraints, joint = parse_key(key)
    except ValidationError as exc:
        raise ValidationError("%s: %s" % (source, exc)) from None

    def check_bare(g: Constraint, slot: str) -> None:
        if g.hyperplanes:
            raise ValidationError(
                "%s: stored keys must have h=0 (%s in %s); scale by the degree"
                " instead" % (source, slot, key))

    if family in (Family.R, Family.N, Family.S):
        (d,), (delta,) = degrees, constraints
        check_bare(delta, "constraint")
        if family is Family.R:
            if delta.special is not None:
                raise ValidationError(
                    "%s: family R carries no marked point, use s=none (%s)"
                    % (source, key))
            return key
        return single_key(family, r, d, delta.with_special(delta.special or 0))
    (d1, d2), (g1, g2) = degrees, constraints
    check_bare(g1, "G1")
    check_bare(g2, "G2")
    if family is Family.NR:
        if g2.special is not None:
            raise ValidationError(
                "%s: the attached rational component carries no marked point,"
                " use s=none (%s)" % (source, key))
        return nr_key(r, d1, g1.with_special(g1.special or 0), d2, g2, joint)
    if g1.special is not None or g2.special is not None:
        raise ValidationError(
            "%s: two-point joins carry no further marked point, use s=none (%s)"
            % (source, key))
    return key


class NodalOracle:
    """Resolves marked-node and join queries through closed forms or stored data."""

    def __init__(self, gw_engine: Optional[GWEngine] = None,
                 table: Optional[OracleTable] = None):
        self.gw_engine = gw_engine or GWEngine()
        self.table = OracleTable() if table is None else table

    # -- plain rational component ---------------------------------------------

    def gw_count(self, r: int, d: int, delta: Constraint,
                 extras: Sequence[int] = ()) -> int:
        """Irreducible rational curves meeting the given subspaces.

        ``extras`` are additional transversal incidences picked up from
        diagonal splittings; a codimension-0 entry imposes no condition on a
        marked point roaming the curve, and the count vanishes.
        """
        if delta.tangency:
            raise ValidationError(
                "tangency conditions on a plain rational component need stored data")
        if delta.special is not None:
            raise ValidationError("a plain rational component has no marked point")
        if 0 in extras:
            return 0
        scale, delta = normalize_hyperplanes(d, delta)
        return scale * self.gw_engine.gw_counts(
            r, d, delta.incidences + tuple((e, 1) for e in extras))

    # -- marked-node family -----------------------------------------------------

    def n_count(self, r: int, d: int, delta: Constraint,
                extra: Optional[int] = None) -> int:
        if extra is not None:
            if extra == 0:
                return 0
            if extra == 1:
                delta = delta.with_hyperplanes(delta.hyperplanes + 1)
            else:
                delta = delta.add_incidence(extra)
        delta = delta.with_special(delta.special or 0)
        if delta.special > r:
            return 0
        scale, delta = normalize_hyperplanes(d, delta)
        if delta.cond() != (r + 1) * d - 1:
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
        key = single_key(Family.N, r, d, delta)
        value = self.table.get(key)
        if value is None:
            raise OracleDataMissingError([key])
        return scale * value

    # -- one-point join -----------------------------------------------------------

    def nr_count(self, r: int, d1: int, g1: Constraint,
                 d2: int, g2: Constraint, c: int) -> int:
        g1 = g1.with_special(g1.special or 0)
        if g2.special is not None:
            raise ValidationError("the attached rational component has no marked point")
        if g1.special > r:
            return 0
        scale, g1 = normalize_hyperplanes(d1, g1)
        scale2, g2 = normalize_hyperplanes(d2, g2)
        scale *= scale2
        if g1.cond() + g2.cond() + c != (r + 1) * (d1 + d2) - 2:
            return 0
        tangency_free = g1.tangency == 0 and g2.tangency == 0
        if r == 2 and tangency_free:
            return scale * self._nr_joint(r, d1, g1, d2, g2, c)
        key = nr_key(r, d1, g1, d2, g2, c)
        value = self.table.get(key)
        if value is not None:
            return scale * value
        if not tangency_free:
            raise OracleDataMissingError([key])
        acc = Accumulator()
        acc.add(scale, self._nr_joint, r, d1, g1, d2, g2, c)
        if acc.missing:
            acc.missing.add(key)
        return acc.result()

    def _nr_joint(self, r: int, d1: int, g1: Constraint,
                  d2: int, g2: Constraint, c: int) -> int:
        # split the diagonal of the attachment point across the two components
        acc = Accumulator()
        for e in range(r + 1):
            f = r + c - e
            if 0 <= f <= r:
                acc.add(1, lambda: (self.n_count(r, d1, g1, extra=e)
                                    * self.gw_count(r, d2, g2, (f,))))
        return acc.result()

    # -- two-point join -------------------------------------------------------------

    def rr2_count(self, r: int, d1: int, g1: Constraint,
                  d2: int, g2: Constraint, k: int, l: int) -> int:
        if g1.special is not None or g2.special is not None:
            raise ValidationError("two-point joins carry no further marked point")
        scale, g1 = normalize_hyperplanes(d1, g1)
        scale2, g2 = normalize_hyperplanes(d2, g2)
        scale *= scale2
        if g1.cond() + g2.cond() + k + l != (r + 1) * (d1 + d2) - 2:
            return 0
        tangency_free = g1.tangency == 0 and g2.tangency == 0
        if r == 2 and tangency_free:
            if d1 == 1 and d2 == 1:
                # two distinct lines meet only once; the diagonal formula
                # would instead pick up the degenerate overlap where both
                # components share one image line
                return 0
            return scale * self._rr2_diagonal(r, d1, g1, d2, g2, k, l)
        key = rr2_key(r, d1, g1, d2, g2, k, l)
        value = self.table.get(key)
        if value is not None:
            return scale * value
        raise OracleDataMissingError([key])

    def _rr2_diagonal(self, r: int, d1: int, g1: Constraint,
                      d2: int, g2: Constraint, k: int, l: int) -> int:
        # both attachment points split independently, minus the excess where
        # the configurations with a single attachment are counted twice
        total = 0
        for e1 in range(r + 1):
            f1 = r + l - e1
            if not 0 <= f1 <= r:
                continue
            for e2 in range(r + 1):
                f2 = r + k - e2
                if not 0 <= f2 <= r:
                    continue
                total += (self.gw_count(r, d1, g1, (e1, e2))
                          * self.gw_count(r, d2, g2, (f1, f2)))
        for e in range(r + 1):
            f = r + k + l - e
            if not 0 <= f <= r:
                continue
            total -= self.gw_count(r, d1, g1, (e,)) * self.gw_count(r, d2, g2, (f,))
        return total

    # -- distributing one constraint set over a join -----------------------------

    def nr_split_count(self, r: int, d1: int, d2: int, delta: Constraint,
                       node_codim: int, c: int) -> int:
        if delta.special is not None:
            raise ValidationError("pass the node location as node_codim, not in the set")
        scale, delta = normalize_hyperplanes(d1 + d2, delta)
        acc = Accumulator()
        for g1, g2, mult in enumerate_splits(delta):
            acc.add(mult, self.nr_count,
                    r, d1, g1.with_special(node_codim), d2, g2, c)
        return scale * acc.result()

    def rr2_split_count(self, r: int, d1: int, d2: int, delta: Constraint,
                        k: int, l: int) -> int:
        if delta.special is not None:
            raise ValidationError("two-point joins carry no marked point")
        scale, delta = normalize_hyperplanes(d1 + d2, delta)
        acc = Accumulator()
        for g1, g2, mult in enumerate_splits(delta):
            acc.add(mult, self.rr2_count, r, d1, g1, d2, g2, k, l)
        return scale * acc.result()
