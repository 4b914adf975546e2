"""Exception types, process exit codes, and the one sum of outcomes.

An *outcome* is a value (an ``int``) or the stored keys a computation lacks:
a leaf's one-key tuple, whose key is a structured value (see
``constraints.render_key``), or a ``PendingFailure``.  The keys are
rendered to their canonical text when they are gathered, so a gathered
failure holds text and no constraint set.
``weighted_sum`` is the one sum over outcomes: it stops at its first missing
leaf and leaves the rest to be evaluated when the keys are read (the cusp
recursion inlines it, to run all its S terms first).  Only the public
entries raise, through ``settle``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain


class ValidationError(ValueError):
    """Malformed query, flag combination, key text, or input file."""


class FinitenessError(ValidationError):
    """Condition weight does not match the family dimension, so the count is not a number."""


class ConsistencyError(ArithmeticError):
    """An exactness invariant failed (non-integral division, conflicting stored values)."""


class OracleDataMissingError(LookupError):
    """Raised when required stored counts are absent.

    ``keys`` holds every canonical key the failed computation needed,
    sorted and de-duplicated, so a caller can provision them in one pass.
    They are gathered from the failed outcome, and rendered to text, when
    first read.
    """

    def __init__(self, missing):
        super().__init__()
        self._missing = missing

    @cached_property
    def keys(self) -> list[str]:
        return sorted(set(_texts(self._missing)))

    def __str__(self) -> str:
        return "missing oracle data for %d key(s)" % len(self.keys)


class PendingFailure:
    """Missing keys met so far (``parts``) and the unevaluated rest of a sum.

    The first iteration evaluates ``rest``, an iterator of outcomes, against
    the stored table as it is then, keeps the set of key texts and drops
    both, so a failure is expanded once however often its keys are read.
    """

    __slots__ = ("_parts", "_rest", "_keys")

    def __init__(self, parts: list, rest=()):
        self._parts, self._rest, self._keys = parts, rest, None

    def __iter__(self):
        if self._keys is None:
            keys: set[str] = set()
            for part in chain(self._parts, self._rest):
                if not isinstance(part, int):
                    keys.update(_texts(part))
            self._keys = frozenset(keys)
            self._parts = self._rest = None
        return iter(self._keys)


def _texts(outcome):
    """The canonical texts of a failed outcome's missing keys."""
    if isinstance(outcome, PendingFailure):
        return outcome  # it renders its own keys as it gathers them
    from .constraints import render_key  # constraints imports this module
    return map(render_key, outcome)


def weighted_sum(pairs):
    """The sum of ``coefficient * outcome`` over the pairs, or, at the first
    outcome lacking stored counts, a pending failure of it and the rest."""
    pairs = iter(pairs)
    total = 0
    for coefficient, outcome in pairs:
        if not isinstance(outcome, int):
            return PendingFailure([outcome], (rest for _, rest in pairs))
        total += coefficient * outcome
    return total


def settle(outcome) -> int:
    """The value of an outcome; raises with its missing keys when it has no value."""
    if isinstance(outcome, int):
        return outcome
    raise OracleDataMissingError(outcome)


EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ORACLE = 3
EXIT_CONSISTENCY = 4
