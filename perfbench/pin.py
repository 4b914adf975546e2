#!/usr/bin/env python3
"""Regenerate perfbench/pinned.json from the package in ./src.

Run from the repository root: ``python3 perfbench/pin.py``. The file holds

* ``acceptance``: the plane rows pinned by tests/test_acceptance.py;
* ``space_oracle``: the grids ``U1``, ``U2`` of each grid's synthetic stored
  table with weights ``(1, 0)`` and ``(0, 1)``, from which the workload
  checks any seed's grids by linearity.

Only rerun it when a workload's population changes; the values are the
package's answers at the commit that pinned them, not a moving target.
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from cuspcount import cli  # noqa: E402

import workloads  # noqa: E402

ACCEPTANCE = {
    "PLANE_RATIONAL": {1: 1, 2: 1, 3: 12, 4: 620, 5: 87304, 6: 26312976},
    "CUSP_ROW": {3: 24, 4: 2304, 5: 435168, 6: 156153600},
    "CUSP_ON_LINE_ROW": {3: 12, 4: 864, 5: 130896, 6: 39223584},
    "CUSP_AT_POINT_ROW": {3: 2, 4: 102, 5: 12024, 6: 2953656},
}


def grid_cells(text: str, r: int) -> list[list]:
    labels = workloads.column_labels(r)
    return [[row[c] for c in labels] for row in json.loads(text)["rows"]]


def space_oracle() -> dict:
    pinned = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        grids = {}
        for r, d in workloads.SpaceOracle.GRIDS:
            keys = workloads.missing_keys(r, d)
            for a, b in ((1, 0), (0, 1)):
                path = os.path.join(tmp, "base.oracle")
                workloads.write_table(path, keys, a, b)
                out = io.StringIO()
                with redirect_stdout(out):
                    code = cli.main(["--family", "S", "--r", str(r), "--d", str(d),
                                     "--table", "--oracle", path, "--format", "json"])
                if code != 0:
                    raise SystemExit("grid (%d, %d) exited with %d" % (r, d, code))
                grids.setdefault((r, d), []).append(grid_cells(out.getvalue(), r))
        for (r, d), pair in grids.items():
            if workloads.NEEDS_ORACLE in json.dumps(pair):
                raise SystemExit("grid (%d, %d) still needs stored data" % (r, d))
            pinned["%d,%d" % (r, d)] = pair
    return pinned


def main() -> None:
    pinned = {
        "acceptance": ACCEPTANCE,
        "space_oracle": space_oracle(),
    }
    path = os.path.join(ROOT, "perfbench", "pinned.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % os.path.relpath(path))


if __name__ == "__main__":
    main()
