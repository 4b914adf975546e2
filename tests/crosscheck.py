"""Reference routes that only tests use: each re-derives a package value
by a second relation, so the two must agree on every input."""
from __future__ import annotations

import itertools
import re
from math import comb
from typing import Iterable, Sequence

from cuspcount import plane
from cuspcount.constraints import Constraint, Family, rr2_key
from cuspcount.errors import ConsistencyError, ValidationError
from cuspcount.gw import GWEngine


def gw(engine: GWEngine, r: int, d: int, insertions: Iterable[int]) -> int:
    """The kernel's number with one insertion of each listed codimension.

    The kernel takes positive degrees only; in degree 0 the number is the
    triple intersection of the insertions, checked as the kernel checks them.
    """
    insertions = list(insertions)
    if d:
        return engine.gw_counts(r, d, [(a, 1) for a in insertions])
    if r < 2:
        raise ValidationError("ambient dimension must be at least 2")
    for a in insertions:
        if a < 0 or a > r:
            raise ValidationError("insertion codimension %d outside 0..%d" % (a, r))
    return 1 if len(insertions) == 3 and sum(insertions) == r else 0


def cusp_from_node_on_line(d: int, on_line: int) -> int:
    """Inverse of the relation ``plane.node_on_line`` solves, for cross-checking stored rows."""
    num = 4 * d * on_line - 2 * plane.marked_node(d)
    for i in range(1, d):
        j = d - i
        num += (comb(3 * d - 2, 3 * i - 1) * i * i * j * j * (i * j - 1)
                * plane.rational(i) * plane.rational(j))
        num -= (2 * comb(3 * d - 2, 3 * i - 1) * j ** 3 * i
                * plane.marked_node(i) * plane.rational(j))
    if num % (d * d):
        raise ConsistencyError("cusp count reconstruction is not integral at degree %d" % d)
    return num // (d * d)


def wdvv_residual(engine: GWEngine, r: int, d: int,
                  g1: int, g2: int, g3: int, g4: int,
                  pi: Sequence[int] = ()) -> int:
    """F(g1 g2 | g3 g4) - F(g1 g3 | g2 g4); zero on every admissible input.

    Each insertion of ``pi`` goes to either side independently, so no
    multiplicities are grouped the way the kernel groups them.
    """

    def paired(i: int, j: int, k: int, l: int) -> int:
        tot = 0
        for d1 in range(d + 1):
            for sides in itertools.product((0, 1), repeat=len(pi)):
                left = [a for a, s in zip(pi, sides) if s == 0]
                right = [a for a, s in zip(pi, sides) if s == 1]
                for e in range(r + 1):
                    tot += (gw(engine, r, d1, [i, j, e] + left)
                            * gw(engine, r, d - d1, [r - e, k, l] + right))
        return tot

    return paired(g1, g2, g3, g4) - paired(g1, g3, g2, g4)


_NUM = "(0|[1-9][0-9]*)"
_BLOCK = r"\[([^\[\]]*)\]"
_SINGLE = "r={n};d={n};(.*)"
_KEY_FIELDS = {family: re.compile(fields.format(n=_NUM, b=_BLOCK)) for family, fields in (
    (Family.R, _SINGLE), (Family.N, _SINGLE), (Family.S, _SINGLE),
    (Family.NR, "r={n};d1={n};d2={n};G1={b};G2={b};c={n}"),
    (Family.RR2, "r={n};d1={n};d2={n};G1={b};G2={b};k={n};l={n}"),
)}


def parse_key(key: str):
    """The key grammar as one regular expression per family head, which the
    package's ``parse_key``, reading a key by its parts, must match: the same
    result for every key it accepts, the same message for every key it rejects."""
    head, _, fields = key.partition(";")
    family = {f.value: f for f in Family}.get(head)
    m = family and _KEY_FIELDS[family].fullmatch(fields)
    if not m:
        raise ValidationError("key %r does not follow the family key format" % key)
    if family is not Family.NR and family is not Family.RR2:
        r, d, text = m.groups()
        return family, int(r), (int(d),), (Constraint.parse(text),), None
    r, d1, d2, t1, t2, *joint = m.groups()
    r, d1, d2 = int(r), int(d1), int(d2)
    g1, g2 = Constraint.parse(t1), Constraint.parse(t2)
    if family is Family.NR:
        return family, r, (d1, d2), (g1, g2), int(joint[0])
    joint = int(joint[0]), int(joint[1])
    if (d1, t1) > (d2, t2):
        raise ValidationError("non-canonical key %r (expected %r)"
                              % (key, rr2_key(r, d1, g1, d2, g2, *joint)))
    return family, r, (d1, d2), (g1, g2), joint


def split_reference(delta: Constraint):
    """Every split of a bare constraint set, each side through ``Constraint.build``,
    in the order and with the multiplicities ``enumerate_splits`` gives."""
    t, classes = delta.tangency, delta.incidences
    for t1, *taken in itertools.product(range(t + 1), *(range(n + 1) for _, n in classes)):
        mult = comb(t, t1)
        for (_, n), a in zip(classes, taken):
            mult *= comb(n, a)
        yield (Constraint.build(t1, {c: a for (c, _), a in zip(classes, taken)}),
               Constraint.build(t - t1, {c: n - a for (c, n), a in zip(classes, taken)}),
               mult)
