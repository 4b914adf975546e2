"""Constraint multisets on families of rational curves, and their canonical text form.

A constraint set records, for one component of a curve family:

* ``tangency``     number of tangency conditions with respect to fixed hyperplanes,
* ``hyperplanes``  number of plain incidence conditions with fixed hyperplanes (codim 1),
* ``incidences``   incidence conditions with general linear subspaces of codimension
                   2 and higher, stored as ``(codim, count)`` pairs,
* ``special``      codimension of the linear space the marked point (node or cusp)
                   is required to lie on, or ``None`` when the family carries no
                   marked point.

A ``Constraint`` is an immutable tuple of these four fields, validated on
every construction but the splits, which ``enumerate_splits`` takes from a
valid set; it hashes and compares as a plain tuple.

The inline text form is ``t=<n>;h=<n>;c<i>=<n>;...;s=<n|none>`` with c-fields
present only for nonzero counts, in increasing codimension order.  A family
key's text is read by its parts, each through a cache (``parse_key``).
"""

from __future__ import annotations

import enum
import itertools
import re
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from math import comb

from .errors import FinitenessError, ValidationError

_CONSTRAINT_RE = re.compile(r"t=([0-9]+);h=([0-9]+)((?:;c[0-9]+=[0-9]+)*);s=(none|[0-9]+)")
_INCIDENCE_RE = re.compile(r";c([0-9]+)=([0-9]+)")


class Constraint(namedtuple("Constraint", "tangency hyperplanes incidences special")):
    __slots__ = ()

    def __new__(cls, tangency: int = 0, hyperplanes: int = 0,
                incidences: tuple[tuple[int, int], ...] = (),
                special: int | None = None) -> Constraint:
        if tangency < 0 or hyperplanes < 0:
            raise ValidationError("negative condition count")
        if special is not None and special < 0:
            raise ValidationError("negative special codimension")
        prev = 1
        for codim, count in incidences:
            if codim <= prev:
                raise ValidationError("incidence codims must be distinct, ascending, >= 2")
            if count <= 0:
                raise ValidationError("incidence counts must be positive")
            prev = codim
        return tuple.__new__(cls, (tangency, hyperplanes, incidences, special))

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def build(tangency: int = 0,
              incidences: dict[int, int] | None = None,
              hyperplanes: int = 0,
              special: int | None = None) -> Constraint:
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

    def add_incidence(self, codim: int) -> Constraint:
        inc = dict(self.incidences)
        inc[codim] = inc.get(codim, 0) + 1
        return Constraint(self.tangency, self.hyperplanes,
                          tuple(sorted(inc.items())), self.special)

    def remove_incidence(self, codim: int) -> Constraint:
        inc = dict(self.incidences)
        if inc.get(codim, 0) < 1:
            raise ValidationError("no incidence of codimension %d to remove" % codim)
        inc[codim] -= 1
        pairs = tuple(sorted((c, n) for c, n in inc.items() if n))
        return Constraint(self.tangency, self.hyperplanes, pairs, self.special)

    def with_tangency(self, t: int) -> Constraint:
        return Constraint(t, self.hyperplanes, self.incidences, self.special)

    def with_hyperplanes(self, h: int) -> Constraint:
        return Constraint(self.tangency, h, self.incidences, self.special)

    def with_special(self, s: int | None) -> Constraint:
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
    @lru_cache(maxsize=4096)  # a Constraint is immutable: one parse serves every repeat
    def parse(text: str) -> Constraint:
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


# module-level names for the hot paths: a ``Family.X`` read is an enum
# attribute lookup, several times slower than a global
_R, _N, _S, _NR, _RR2 = Family.R, Family.N, Family.S, Family.NR, Family.RR2
_MARKED = (_N, _S, _NR)


# -- keys ----------------------------------------------------------------------
#
# A count is keyed by a flat tuple: ``(family, r, d, delta)``,
# ``(NR, r, d1, g1, d2, g2, c)`` or ``(RR2, r, d1, g1, d2, g2, k, l)``, a
# two-point join's components in ``join_order``.  A stored table and an
# exit-3 list hold its canonical text, which ``parse_key`` reads and
# ``render_key``, called only for messages and reports, writes.


def join_order(d1: int, g1: Constraint, d2: int, g2: Constraint) -> tuple:
    """``(d1, g1, d2, g2)`` with the components ordered by degree, then by
    constraint set: the two-point join count is symmetric, so its structured
    key takes either argument order to one record.  The text key orders by
    the rendered blocks instead, which can disagree (``c2=10`` < ``c2=9``)."""
    if d1 < d2 or d1 == d2 and g1 <= g2:
        return d1, g1, d2, g2
    return d2, g2, d1, g1


def render_key(key: tuple) -> str:
    """The canonical text of a structured key, which ``parse_key`` reads back."""
    if len(key) == 4:
        family, r, d, delta = key
        return "%s;r=%d;d=%d;%s" % (family, r, d, delta.render())
    family, r, d1, g1, d2, g2, *joint = key
    blocks = [(d1, g1.render()), (d2, g2.render())]
    if family is _RR2:
        blocks.sort()  # a two-point join's text orders its components as rendered
    (d1, t1), (d2, t2) = blocks
    tail = ("k=%d;l=%d" if family is _RR2 else "c=%d") % tuple(joint)
    return "%s;r=%d;d1=%d;d2=%d;G1=[%s];G2=[%s];%s" % (family, r, d1, d2, t1, t2, tail)


_NUM = "(0|[1-9][0-9]*)"
# a key's parts: the fields after the family head up to its first block, the
# blocks, and the joint tail.  A table repeats a few heads and tails and a few
# hundred blocks across thousands of keys, so each part is read through a cache
_SINGLE_PARTS = re.compile(r"([^;]*;[^;]*;)(.*)")
# the fields with each block cut out to "[]", which no other field holds
_FRAMES = {family: re.compile(fields.format(n=_NUM, b=r"\[\]")) for family, fields in (
    (_R, "r={n};d={n};{b}"), (_N, "r={n};d={n};{b}"), (_S, "r={n};d={n};{b}"),
    (_NR, "r={n};d1={n};d2={n};G1={b};c={n}"),
    (_RR2, "r={n};d1={n};d2={n};G1={b};k={n};l={n}"),
)}
_FAMILIES = {family.value: family for family in Family}


@lru_cache(maxsize=256)
def _frame(family: Family, head: str, tail: str):
    """``(r, degrees, joint)`` from the fields around a key's blocks, else ``None``."""
    m = _FRAMES[family].fullmatch(head + "[]" + tail)
    if not m:
        return None
    r, *n = map(int, m.groups())
    joint = (n[2], n[3]) if family is _RR2 else n[2] if family is _NR else None
    return r, tuple(n[:2]), joint


def parse_key(key: str) -> tuple:
    """The structured key of a canonical key text: exactly the text
    ``render_key`` gives back.

    Numbers are unsigned without leading zeros.  A two-point join whose
    components are not in the text's order is rejected; the message names
    the key in that order.
    """
    head, _, fields = key.partition(";")
    family = _FAMILIES.get(head)
    if family is _NR or family is _RR2:
        head, _, t1 = fields.partition("[")
        t1, _, t2 = t1.partition("];G2=[")
        t2, cut, tail = t2.partition("]")
        # a block holds no bracket, and the frame's pattern admits none
        frame = cut and not ("[" in t1 or "]" in t1 or "[" in t2) and _frame(family, head, tail)
    else:
        parts = family and _SINGLE_PARTS.fullmatch(fields)
        frame = parts and _frame(family, parts[1], "")
    if not frame:
        raise ValidationError("key %r does not follow the family key format" % key)
    r, degrees, joint = frame
    if joint is None:
        return family, r, degrees[0], Constraint.parse(parts[2])
    g1, g2 = Constraint.parse(t1), Constraint.parse(t2)
    d1, d2 = degrees
    if family is _NR:
        return family, r, d1, g1, d2, g2, joint
    # each block survived its round trip, so its text is its rendering
    if (d1, t1) > (d2, t2):
        raise ValidationError("non-canonical key %r (expected %r)"
                              % (key, render_key((family, r, d1, g1, d2, g2) + joint)))
    return (family, r) + join_order(d1, g1, d2, g2) + joint


# -- distribution over two components ----------------------------------------


def enumerate_splits(delta: Constraint) -> Iterator[tuple[Constraint, Constraint, int]]:
    """All ordered two-component distributions of a constraint set.

    Tangencies and each incidence class distribute independently; the
    multiplicity of a split is the product of the binomial choices, so the
    multiplicities over all splits sum to 2**n, where n counts the tangencies
    and the non-hyperplane incidences.  Requires a bare set: no special point,
    no hyperplane incidences.  Both sides are taken straight from the
    ascending class list, so neither is validated again.
    """
    if delta.special is not None:
        raise ValidationError("cannot split a constraint set with a marked point")
    if delta.hyperplanes:
        raise ValidationError("normalize hyperplane incidences before splitting")
    t = delta.tangency
    # per class, each choice of a of its n conditions for the first component
    choices = [[(((codim, a),) if a else (), ((codim, n - a),) if a < n else (), comb(n, a))
                for a in range(n + 1)] for codim, n in delta.incidences]
    new = Constraint._make
    for t1 in range(t + 1):
        for picks in itertools.product(*choices):
            first, second, mult = (), (), comb(t, t1)
            for left, right, ways in picks:
                first += left
                second += right
                mult *= ways
            yield new((t1, 0, first, None)), new((t - t1, 0, second, None)), mult


def normalize_hyperplanes(d: int, delta: Constraint) -> tuple[int, Constraint]:
    """Trade codim-1 incidences for a degree factor: returns (d**h, stripped set)."""
    if not delta.hyperplanes:
        return 1, delta
    return d ** delta.hyperplanes, delta.with_hyperplanes(0)


def check_query(r: int, degrees: tuple[int, ...], *constraints: Constraint,
                family: Family | None = None, joint: int = 0) -> None:
    """Reject what no count in P^r is defined for: r below 2, a degree below 1,
    an incidence with a subspace of codimension above r, which P^r lacks, and,
    given a ``family`` and its ``joint`` conditions, a marked point anywhere
    but on the first component of N, S and NR, or a weight off the family
    dimension."""
    want = _dimension(family, r, degrees)
    have = joint
    for delta in constraints:
        have += _weight(r, delta)
    if family is None:
        return
    for g in constraints[1:] if family in _MARKED else constraints:
        if g.special is not None:
            raise ValidationError("only the first component of N, S and NR carries"
                                  " a marked point; use s=none elsewhere")
    if have != want:
        raise FinitenessError(
            "query imposes %d conditions on a %d-dimensional family" % (have, want))


# a stored table repeats a few heads and a few hundred constraint sets in one
# P^r across thousands of keys, so check_query reads each of them once
@lru_cache(maxsize=256)
def _dimension(family: Family | None, r: int, degrees: tuple[int, ...]) -> int | None:
    """The weight a ``family`` count needs (``None`` without a family)."""
    if r < 2:
        raise ValidationError("ambient dimension must be at least 2")
    if min(degrees) < 1:
        raise ValidationError("degree must be positive")
    return family and finite_conditions(family, r, sum(degrees))


@lru_cache(maxsize=4096)
def _weight(r: int, delta: Constraint) -> int:
    """The conditions ``delta`` imposes in P^r, which must hold its incidences."""
    if delta.incidences and delta.incidences[-1][0] > r:
        raise ValidationError("incidence codimension %d exceeds the ambient dimension"
                              % delta.incidences[-1][0])
    return delta.cond()


def finite_conditions(family: Family, r: int, d: int) -> int:
    """Condition weight at which a count of total degree d is a number."""
    if family is _R:
        return (r + 1) * d + r - 3
    return (r + 1) * d - (1 if family is _N else 2)


def empty_by_theorem(family: Family, r: int, degrees: tuple[int, ...],
                     special: int | None) -> str | None:
    """Why an N, S, NR or RR2 count is 0 in every P^r, or ``None``; ``special``
    locates the marked point on the first component (``None`` for RR2)."""
    if (special or 0) > r:
        return "marked point codimension %d exceeds the ambient dimension" % special
    if family is not _RR2 and degrees[0] <= 2:
        return "a rational curve of degree %d has no node and no cusp" % degrees[0]
    if degrees == (1, 1):
        return "two distinct lines meet at most once"
    return None
