"""A cusp expansion as a linear form in its subqueries.

Two lists of expansion terms describe the same sum when their linear forms
agree. Each term, a ``(coefficient, family, degrees, constraints, joint)``
tuple such as an ``ExpansionTerm``, is keyed by the canonical key of its
subquery, so a two-point join and its mirror (the components swapped) share
one entry. Terms ``empty_by_theorem`` zeroes are dropped, the coefficients of
one key are summed, and keys whose coefficients cancel are dropped.
"""
from collections import Counter

from cuspcount.constraints import Family, empty_by_theorem, render_key


def linear_form(r, terms):
    form = Counter()
    for coefficient, family, degrees, constraints, joint in terms:
        family = Family(family)
        marked = None if family is Family.RR2 else constraints[0].special
        if empty_by_theorem(family, r, degrees, marked):
            continue
        if family is Family.RR2:
            (d1, d2), (g1, g2) = degrees, constraints
            key = family, r, d1, g1, d2, g2, *joint
        elif family is Family.NR:
            (d1, d2), (g1, g2) = degrees, constraints
            key = family, r, d1, g1, d2, g2, joint
        else:
            key = family, r, degrees[0], constraints[0]
        form[render_key(key)] += coefficient
    return {key: c for key, c in form.items() if c}
