"""Constraint multisets on families of rational curves, and their canonical text form.

A constraint set records, for one component of a curve family:

* ``tangency``     number of tangency conditions with respect to fixed hyperplanes,
* ``hyperplanes``  number of plain incidence conditions with fixed hyperplanes (codim 1),
* ``incidences``   incidence conditions with general linear subspaces of codimension
                   2 and higher, stored as ``(codim, count)`` pairs,
* ``special``      codimension of the linear space the marked point (node or cusp)
                   is required to lie on, or ``None`` when the family carries no
                   marked point.

The inline text form is ``t=<n>;h=<n>;c<i>=<n>;...;s=<n|none>`` with c-fields
present only for nonzero counts, in increasing codimension order.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterator, Optional

from .errors import ValidationError

_CONSTRAINT_RE = re.compile(r"t=([0-9]+);h=([0-9]+)((?:;c[0-9]+=[0-9]+)*);s=(none|[0-9]+)")
_INCIDENCE_RE = re.compile(r";c([0-9]+)=([0-9]+)")


@dataclass(frozen=True)
class Constraint:
    tangency: int = 0
    hyperplanes: int = 0
    incidences: tuple[tuple[int, int], ...] = ()
    special: Optional[int] = None

    def __post_init__(self):
        if self.tangency < 0 or self.hyperplanes < 0:
            raise ValidationError("negative condition count")
        if self.special is not None and self.special < 0:
            raise ValidationError("negative special codimension")
        prev = 1
        for codim, count in self.incidences:
            if codim <= prev:
                raise ValidationError("incidence codims must be distinct, ascending, >= 2")
            if count <= 0:
                raise ValidationError("incidence counts must be positive")
            prev = codim

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def build(tangency: int = 0,
              incidences: Optional[dict[int, int]] = None,
              hyperplanes: int = 0,
              special: Optional[int] = None) -> "Constraint":
        """Build from a codim -> count mapping; codim-1 entries fold into ``hyperplanes``."""
        inc = dict(incidences or {})
        hyperplanes += inc.pop(1, 0)
        pairs = tuple(sorted((c, n) for c, n in inc.items() if n))
        return Constraint(tangency, hyperplanes, pairs, special)

    def incidence_codims(self) -> tuple[int, ...]:
        """Codimensions >= 2 with multiplicity, ascending."""
        out = []
        for c, n in self.incidences:
            out.extend([c] * n)
        return tuple(out)

    def add_incidence(self, codim: int, count: int = 1) -> "Constraint":
        inc = dict(self.incidences)
        if codim == 1:
            return self.with_hyperplanes(self.hyperplanes + count)
        inc[codim] = inc.get(codim, 0) + count
        return Constraint(self.tangency, self.hyperplanes,
                          tuple(sorted(inc.items())), self.special)

    def remove_incidence(self, codim: int) -> "Constraint":
        inc = dict(self.incidences)
        if inc.get(codim, 0) < 1:
            raise ValidationError("no incidence of codimension %d to remove" % codim)
        inc[codim] -= 1
        pairs = tuple(sorted((c, n) for c, n in inc.items() if n))
        return Constraint(self.tangency, self.hyperplanes, pairs, self.special)

    def with_tangency(self, t: int) -> "Constraint":
        return Constraint(t, self.hyperplanes, self.incidences, self.special)

    def with_hyperplanes(self, h: int) -> "Constraint":
        return Constraint(self.tangency, h, self.incidences, self.special)

    def with_special(self, s: Optional[int]) -> "Constraint":
        return Constraint(self.tangency, self.hyperplanes, self.incidences, s)

    # -- numeric invariants --------------------------------------------------

    def cond(self) -> int:
        """Total number of conditions imposed on the family.

        Tangencies and special-point codimensions count at face value;
        an incidence with a codim-c subspace cuts the family by c-1;
        hyperplane incidences cut nothing and only rescale by the degree.
        """
        w = self.tangency + (self.special or 0)
        for c, n in self.incidences:
            w += (c - 1) * n
        return w

    # -- canonical text ------------------------------------------------------

    def render(self) -> str:
        parts = ["t=%d" % self.tangency, "h=%d" % self.hyperplanes]
        parts += ["c%d=%d" % (c, n) for c, n in self.incidences]
        parts.append("s=none" if self.special is None else "s=%d" % self.special)
        return ";".join(parts)

    @staticmethod
    # a stored table repeats a few hundred constraint texts across thousands
    # of keys, and a Constraint is immutable, so one parse serves every repeat
    @lru_cache(maxsize=4096)
    def parse(text: str) -> "Constraint":
        """Read canonical text: exactly what ``render`` gives back.

        Anything else fails the round trip, among it duplicate, zero-count,
        ``c0``/``c1`` or out-of-order fields and numbers with leading zeros.
        """
        m = _CONSTRAINT_RE.fullmatch(text)
        if m:
            t, h, fields, s = m.groups()
            inc = {int(c): int(n) for c, n in _INCIDENCE_RE.findall(fields)}
            delta = Constraint.build(int(t), inc, int(h), None if s == "none" else int(s))
            if delta.render() == text:
                return delta
        raise ValidationError(
            "constraint %r is not canonical 't=N;h=N;cI=N...;s=N|none' text" % text)

    def __str__(self) -> str:
        return self.render()


class Family(str, enum.Enum):
    """Curve families the engine and the stored-count format know about."""

    R = "R"        # irreducible rational curves
    N = "N"        # rational curves with a marked node, branches ordered
    S = "S"        # rational curves with a marked cusp
    NR = "NR"      # marked-node curve joined to a rational curve at one point
    RR2 = "RR2"    # two rational curves joined at two points

    def __str__(self) -> str:
        return self.value


# -- canonical keys ----------------------------------------------------------


def single_key(family: Family, r: int, d: int, delta: Constraint) -> str:
    return "%s;r=%d;d=%d;%s" % (family, r, d, delta.render())


def nr_key(r: int, d1: int, g1: Constraint, d2: int, g2: Constraint, c: int) -> str:
    return "NR;r=%d;d1=%d;d2=%d;G1=[%s];G2=[%s];c=%d" % (
        r, d1, d2, g1.render(), g2.render(), c)


def rr2_key(r: int, d1: int, g1: Constraint, d2: int, g2: Constraint,
            k: int, l: int) -> str:
    # the count is symmetric under swapping the two components, so the key
    # fixes one order of the (degree, constraint) pairs
    a = (d1, g1.render())
    b = (d2, g2.render())
    (e1, t1), (e2, t2) = sorted([a, b])
    return "RR2;r=%d;d1=%d;d2=%d;G1=[%s];G2=[%s];k=%d;l=%d" % (
        r, e1, e2, t1, t2, k, l)


_NUM = "(0|[1-9][0-9]*)"
_BLOCK = r"\[([^\[\]]*)\]"
_KEY_RE = re.compile("|".join([
    "([RNS]);r={n};d={n};(.*)",
    "(NR);r={n};d1={n};d2={n};G1={b};G2={b};c={n}",
    "(RR2);r={n};d1={n};d2={n};G1={b};G2={b};k={n};l={n}",
]).format(n=_NUM, b=_BLOCK))


def parse_key(key: str):
    """Parse a canonical family key: exactly the text the key functions render.

    Returns ``(family, r, degrees, constraints, joint)`` where degrees and
    constraints are 1- or 2-tuples and joint is ``None``, ``c`` or ``(k, l)``.
    Numbers are unsigned without leading zeros. The key is re-rendered and
    compared, which also rejects a two-point join whose components are not in
    the canonical order; the message names that order.
    """
    m = _KEY_RE.fullmatch(key)
    if m is None:
        raise ValidationError("key %r does not follow the family key format" % key)
    head, r, *fields = (g for g in m.groups() if g is not None)
    family, r = Family(head), int(r)
    if len(fields) == 2:
        d, delta = int(fields[0]), Constraint.parse(fields[1])
        parsed = family, r, (d,), (delta,), None
        canon = single_key(family, r, d, delta)
    else:
        d1, d2 = int(fields[0]), int(fields[1])
        g1, g2 = Constraint.parse(fields[2]), Constraint.parse(fields[3])
        if family is Family.NR:
            joint = int(fields[4])
            canon = nr_key(r, d1, g1, d2, g2, joint)
        else:
            joint = int(fields[4]), int(fields[5])
            canon = rr2_key(r, d1, g1, d2, g2, *joint)
        parsed = family, r, (d1, d2), (g1, g2), joint
    if canon != key:
        raise ValidationError("non-canonical key %r (expected %r)" % (key, canon))
    return parsed


# -- distribution over two components ----------------------------------------


def enumerate_splits(delta: Constraint) -> Iterator[tuple[Constraint, Constraint, int]]:
    """All ordered two-component distributions of a constraint set.

    Tangencies and each incidence class distribute independently; the
    multiplicity of a split is the product of the binomial choices, so the
    multiplicities over all splits sum to 2**n, where n counts the tangencies
    and the non-hyperplane incidences.  Requires a bare set: no special point,
    no hyperplane incidences.
    """
    if delta.special is not None:
        raise ValidationError("cannot split a constraint set with a marked point")
    if delta.hyperplanes:
        raise ValidationError("normalize hyperplane incidences before splitting")
    t = delta.tangency
    classes = delta.incidences
    ranges = [range(t + 1)] + [range(n + 1) for _, n in classes]
    for pick in itertools.product(*ranges):
        t1, taken = pick[0], pick[1:]
        mult = comb(t, t1)
        left: dict[int, int] = {}
        right: dict[int, int] = {}
        for (codim, n), a in zip(classes, taken):
            mult *= comb(n, a)
            if a:
                left[codim] = a
            if n - a:
                right[codim] = n - a
        yield (Constraint.build(t1, left), Constraint.build(t - t1, right), mult)


def normalize_hyperplanes(d: int, delta: Constraint) -> tuple[int, Constraint]:
    """Trade codim-1 incidences for a degree factor: returns (d**h, stripped set)."""
    if not delta.hyperplanes:
        return 1, delta
    return d ** delta.hyperplanes, delta.with_hyperplanes(0)


def check_query(r: int, degrees: tuple[int, ...], *constraints: Constraint) -> None:
    """Reject what no count in P^r is defined for: r below 2, a degree below 1
    and an incidence with a subspace of codimension above r, which P^r lacks."""
    if r < 2:
        raise ValidationError("ambient dimension must be at least 2")
    if min(degrees) < 1:
        raise ValidationError("degree must be positive")
    for delta in constraints:
        if delta.incidences and delta.incidences[-1][0] > r:
            raise ValidationError(
                "incidence codimension %d exceeds the ambient dimension"
                % delta.incidences[-1][0])


def finite_conditions(family: Family, r: int, d: int) -> int:
    """Condition weight at which an N, S, NR or RR2 count of total degree d is a number."""
    return (r + 1) * d - (1 if family is Family.N else 2)
