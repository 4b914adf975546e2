"""Probe grid whose rendered outcomes pin the public counting entries.

Each probe renders as one line: the query, then its value, or the number of
stored keys it lacks with the sha1 of their sorted list, or the error type
and text. ``tests/fixtures/parity_r2_r5.txt`` holds the lines rendered by the
code before the leaf layer was slimmed, followed by the lines of the probes
of the single-query entries ``n_count``, ``nr_count``, ``rr2_count`` and
``gw_count`` (h = 0..2; a marked point of ``None`` or 0..r where the family
has one, else ``None``), rendered before the marked-point rule moved into
``check_query``; ``tests/test_golden.py`` compares against it. Printing the
lines for another checkout:

    PYTHONPATH=src python tests/parity.py > parity.txt
"""
import hashlib

from cuspcount.constraints import Constraint
from cuspcount.cusp import CuspEngine
from cuspcount.errors import ConsistencyError, OracleDataMissingError, ValidationError

# codim-2 fill plus at most one higher incidence
MIXES = ({}, {3: 1}, {4: 1})


def outcome(fn, *args):
    try:
        return "= %d" % fn(*args)
    except OracleDataMissingError as exc:
        blob = "\n".join(exc.keys).encode("utf-8")
        return "missing %d sha1=%s" % (len(exc.keys), hashlib.sha1(blob).hexdigest())
    except (ValidationError, ConsistencyError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def cusp_probes():
    for r in range(2, 6):
        for d in range(1, 4):
            for t in range(4):
                for s in range(r + 2):  # r + 1 lies outside the space
                    for mix in MIXES:
                        n2 = (r + 1) * d - 2 - t - s - sum((c - 1) * n for c, n in mix.items())
                        if n2 < 0:
                            continue
                        yield r, d, Constraint.build(t, {2: n2, **mix}, special=s)


def split_probes():
    for r in (2, 3):
        for d1 in range(1, 5):
            for d2 in range(1, 5):
                for a in range(3):
                    for b in range(3):
                        n2 = (r + 1) * (d1 + d2) - 2 - a - b
                        yield r, d1, d2, Constraint.build(0, {2: n2}), a, b


def entry_probes():
    """``(name, args)`` for each probe of the single-query entries."""
    for r in (2, 3, 4):
        for d in (2, 3, 4):
            for h in range(3):
                for mix in MIXES[:2]:
                    for t in (0, 1):
                        for s in (None,) + tuple(range(r + 1)):
                            n2 = (r + 1) * d - 1 - t - (s or 0) - 2 * len(mix)
                            if n2 >= 0:
                                yield "n_count", (r, d, Constraint.build(
                                    t, {2: n2, **mix}, h, s))
                    n2 = (r + 1) * d + r - 3 - 2 * len(mix)
                    yield "gw_count", (r, d, Constraint.build(0, {2: n2, **mix}, h))
    for r in (2, 3):
        for d1 in (2, 3):
            for d2 in (1, 2):
                for h in range(3):
                    for t in (0, 1):
                        # the second component takes its own dimension's share
                        g2 = Constraint.build(0, {2: (r + 1) * d2 - 1}, h)
                        for c in (0, 1):
                            for s in (None,) + tuple(range(r + 1)):
                                n2 = (r + 1) * d1 - 1 - t - (s or 0) - c
                                if n2 >= 0:
                                    yield "nr_count", (r, d1, Constraint.build(
                                        t, {2: n2}, h, s), d2, g2, c)
                        for k, l in ((0, 0), (1, 0), (0, 1)):
                            n2 = (r + 1) * d1 - 1 - t - k - l
                            yield "rr2_count", (r, d1, Constraint.build(
                                t, {2: n2}, h), d2, g2, k, l)


def parity_lines():
    engine = CuspEngine()
    for r, d, delta in cusp_probes():
        for name in ("count", "count_incidence"):
            fn = getattr(engine, name)
            yield "%s r=%d d=%d [%s] %s" % (name, r, d, delta, outcome(fn, r, d, delta))
    oracle = engine.oracle
    for r, d1, d2, delta, a, b in split_probes():
        yield "nr_split_count r=%d d1=%d d2=%d [%s] s=%d c=%d %s" % (
            r, d1, d2, delta, a, b,
            outcome(oracle.nr_split_count, r, d1, d2, delta, a, b))
        yield "rr2_split_count r=%d d1=%d d2=%d [%s] k=%d l=%d %s" % (
            r, d1, d2, delta, a, b,
            outcome(oracle.rr2_split_count, r, d1, d2, delta, a, b))
    for name, args in entry_probes():
        text = " ".join(str(a) if isinstance(a, int) else "[%s]" % a.render() for a in args)
        yield "%s %s %s" % (name, text, outcome(getattr(oracle, name), *args))


if __name__ == "__main__":
    for line in parity_lines():
        print(line)
