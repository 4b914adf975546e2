"""Exception types, process exit codes, and the sum that gathers missing keys."""

from __future__ import annotations


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
    """

    def __init__(self, keys):
        self.keys = sorted(set(keys))
        super().__init__("missing oracle data for %d key(s)" % len(self.keys))


class Accumulator:
    """Weighted sum of subquery values that keeps going past missing data.

    A term that lacks stored counts adds its missing keys instead of a
    value, so one failed computation reports every key it needs.
    """

    def __init__(self):
        self.total = 0
        self.missing: set[str] = set()

    def add(self, coefficient: int, fn, *args) -> None:
        """Add ``coefficient * fn(*args)``, or the keys it raises."""
        try:
            self.total += coefficient * fn(*args)
        except OracleDataMissingError as exc:
            self.missing.update(exc.keys)

    def result(self) -> int:
        """The sum; raises with every missing key when any term failed."""
        if self.missing:
            raise OracleDataMissingError(self.missing)
        return self.total


EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ORACLE = 3
EXIT_CONSISTENCY = 4
