#!/usr/bin/env python3
"""Regenerate tests/fixtures/plane_cubic_tangency.oracle.

The fixture feeds the degree-3 one-tangency plane query. Its two-point
joins (RR2) join a line to a conic, which meet twice, so no theorem makes
them vanish: all but one are set to 0 by choice. The two marked-node
entries and the single nonzero two-point join entry are chosen so the
eliminated left side comes out divisible by d^2 with quotient 60, the
stored tangent-cusp value this fixture is built to reproduce.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cuspcount.constraints import Constraint
from cuspcount.cusp import CuspEngine
from cuspcount.errors import OracleDataMissingError

QUERY = Constraint.build(1, {2: 6}, special=0)

PLANTED = {
    "N;r=2;d=3;t=1;h=0;c2=7;s=0":
        (72, "tangent line + 7 points on the one-nodal cubic family"),
    "N;r=2;d=3;t=1;h=0;c2=6;s=1":
        (100, "tangent line + 6 points, node on a line"),
    "RR2;r=2;d1=1;d2=2;G1=[t=0;h=0;c2=1;s=none];G2=[t=1;h=0;c2=5;s=none];k=0;l=0":
        (5, "line through 1 point joined twice to a tangent conic through 5"),
}


def fixture_text() -> str:
    try:
        CuspEngine().count(2, 3, QUERY)
    except OracleDataMissingError as exc:
        keys = exc.keys
    else:
        raise SystemExit("expected the empty-table query to report missing keys")
    lines = ["# inputs for the degree-3 one-tangency plane query; the",
             "# eliminated total 540 = 9 * 60 checks the recursion's balance"]
    for key in keys:
        if key in PLANTED:
            value, note = PLANTED[key]
        else:
            value, note = 0, "set to 0 to balance the total, not zero by theorem"
        lines.append(f"{key} = {value}  # {note}")
    return "\n".join(lines) + "\n"


def main() -> None:
    text = fixture_text()
    out = os.path.join(os.path.dirname(__file__), "..",
                       "tests", "fixtures", "plane_cubic_tangency.oracle")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(text)
    records = sum(not line.startswith("#") for line in text.splitlines())
    print(f"wrote {records} records to {os.path.relpath(out)}")


if __name__ == "__main__":
    main()
