#!/usr/bin/env python3
"""Cross-check the memoized genus-0 kernel against the linear-system solver.

The solver in tests/brute_wdvv.py shares no code with the package: it builds
one linear system per degree from associativity relations and solves it with
exact fractions.  Every value it pins must match the recursion.
"""
import os
import sys
import time

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from brute_wdvv import BruteSolver
from crosscheck import gw
from cuspcount.gw import GWEngine

SIZES = ((2, 6), (3, 3), (4, 2), (5, 1))


def main() -> None:
    engine = GWEngine()
    grand = 0
    for r, dmax in SIZES:
        start = time.time()
        solver = BruteSolver(r)
        solver.solve_through(dmax)
        bad = 0
        for (d, ins), expect in sorted(solver.known.items()):
            got = gw(engine, r, d, ins)
            if got != expect:
                bad += 1
                print("MISMATCH r=%d d=%d %s: solver %d, engine %d"
                      % (r, d, ins, expect, got))
        grand += len(solver.known)
        print("r=%d, d <= %d: %4d invariants agree (%.2fs)%s"
              % (r, dmax, len(solver.known), time.time() - start,
                 "" if not bad else " [%d MISMATCHES]" % bad))
        if bad:
            raise SystemExit(1)
    print("total: %d invariants checked" % grand)


if __name__ == "__main__":
    main()
