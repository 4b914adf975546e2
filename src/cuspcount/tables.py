"""Grids of cusp counts over tangency rows and cusp-location columns.

Column k constrains the cusp to k general hyperplanes; row t asks for t
tangencies.  Every cell is padded with plain incidence conditions of
codimension 2 (and optionally some point conditions) to land exactly on the
family dimension, and cells that cannot be padded are left out.  Cells whose
evaluation needs stored data that is not loaded render as ``needs-oracle``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Union

from .constraints import Constraint, Family, check_query, finite_conditions
from .cusp import CuspEngine
from .errors import OracleDataMissingError, ValidationError

_DIM_SUFFIX = {0: "p", 1: "l", 2: "s", 3: "b", 4: "f"}

NEEDS_ORACLE = "needs-oracle"


def column_label(r: int, k: int) -> str:
    if k == 0:
        return "C"
    dim = r - k
    if dim in _DIM_SUFFIX:
        return "C_%s" % _DIM_SUFFIX[dim]
    return "C_k%d" % k


@dataclass(frozen=True)
class TableSpec:
    r: int
    d: int
    points: int = 0

    def cell_constraint(self, t: int, k: int) -> Optional[Constraint]:
        pad = (finite_conditions(Family.S, self.r, self.d) - t - k
               - self.points * (self.r - 1))
        if pad < 0:
            return None
        inc = {self.r: self.points} if self.points else {}
        inc[2] = inc.get(2, 0) + pad
        return Constraint.build(t, inc, special=k)


@dataclass
class TableResult:
    spec: TableSpec
    columns: list[str]
    rows: list[dict[str, Union[int, str, None]]] = field(default_factory=list)


def build_table(engine: CuspEngine, spec: TableSpec) -> TableResult:
    check_query(spec.r, (spec.d,))
    if spec.points < 0:
        raise ValidationError("negative point count")
    columns = [column_label(spec.r, k) for k in range(spec.r + 1)]
    result = TableResult(spec, columns)
    t = 0
    while True:
        cells: dict[str, Union[int, str, None]] = {}
        any_present = False
        for k in range(spec.r + 1):
            delta = spec.cell_constraint(t, k)
            if delta is None:
                cells[columns[k]] = None
                continue
            any_present = True
            try:
                cells[columns[k]] = engine.count(spec.r, spec.d, delta)
            except OracleDataMissingError:
                cells[columns[k]] = NEEDS_ORACLE
        if not any_present:
            break
        result.rows.append({"t": t, **cells})
        t += 1
    return result


def render(result: TableResult, fmt: str) -> str:
    headers = ["t"] + result.columns
    grid = []
    for row in result.rows:
        grid.append([str(row["t"])] +
                    ["" if row[c] is None else str(row[c]) for c in result.columns])
    if fmt == "csv":
        return "\n".join(",".join(cells) for cells in [headers] + grid)
    if fmt == "json":
        payload = {
            "r": result.spec.r,
            "d": result.spec.d,
            "points": result.spec.points,
            "columns": result.columns,
            "rows": result.rows,
        }
        return json.dumps(payload, sort_keys=True)
    if fmt == "markdown":
        lines = ["| " + " | ".join(headers) + " |",
                 "|" + "|".join(" --- " for _ in headers) + "|"]
        lines += ["| " + " | ".join(cells) + " |" for cells in grid]
        return "\n".join(lines)
    if fmt == "plain":
        widths = [max(len(row[i]) for row in [headers] + grid)
                  for i in range(len(headers))]
        lines = []
        for cells in [headers] + grid:
            lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines)
    raise ValidationError("unknown format %r" % fmt)
