"""The three workloads: inputs made from a seed, and checks of every output.

Each workload hands a child process a list of operations per run and checks
each operation's output afterwards, in the parent, outside any timed region.
An operation is a JSON list whose first entry names its kind:

* ``["grid", r, d, points]``   build and render one cusp grid on its own engine
* ``["S", d, k]``              plane cusp count, cusp on ``k`` general lines
* ``["R", d]``                 plane rational count through ``3d - 1`` points
* ``["cli", argv]``            one ``cuspcount`` invocation, stdout captured

Checks prefer a second route through the package (closed forms against the
recursion, the direct elimination against the full one) and otherwise use
the values in ``pinned.json``, which ``pin.py`` regenerates.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re

HERE = os.path.dirname(os.path.abspath(__file__))
NEEDS_ORACLE = "needs-oracle"


def load_pinned() -> dict:
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
        return json.load(fh)


def seed_rng(name: str, seed: int) -> random.Random:
    return random.Random("%s:%d" % (name, seed))


def grid_shape(r: int, d: int, points: int) -> list[list[bool]]:
    """Which cells of a grid exist: row t, column k, as ``tables`` pads them."""
    rows = []
    t = 0
    while True:
        row = [(r + 1) * d - 2 - t - k - points * (r - 1) >= 0 for k in range(r + 1)]
        if not any(row):
            return rows
        rows.append(row)
        t += 1


def column_labels(r: int) -> list[str]:
    suffix = {0: "p", 1: "l", 2: "s", 3: "b", 4: "f"}
    return ["C"] + ["C_%s" % suffix[r - k] for k in range(1, r + 1)]


def grid_matches(text: str, r: int, d: int, points: int, cell) -> bool:
    """``cell(t, k)`` gives the expected value of each existing cell."""
    got = json.loads(text)
    labels = column_labels(r)
    if (got.get("r"), got.get("d"), got.get("points"), got.get("columns")) != (
            r, d, points, labels):
        return False
    shape = grid_shape(r, d, points)
    if len(got["rows"]) != len(shape):
        return False
    for t, (row, present) in enumerate(zip(got["rows"], shape)):
        want = {"t": t}
        for k, label in enumerate(labels):
            want[label] = cell(t, k) if present[k] else None
        if row != want:
            return False
    return True


class Workload:
    name = ""
    # latency percentile of op_tail_ms, over the operations of one run
    tail_pct = 0.0
    # whether every operation gets its own engine instead of the run's
    fresh_engine = False
    info: dict = {}  # facts about the inputs, for the result's info line

    def prepare(self, seed: int, workdir: str) -> None:
        """Make the inputs shared by every run of one invocation."""

    def ops(self, seed: int) -> list:
        """The operations every run of one invocation performs, in order."""
        raise NotImplementedError

    def check(self, op: list, output) -> bool:
        raise NotImplementedError


class PlaneReference:
    """Plane counts through routes other than the ones the workloads time."""

    def __init__(self, pinned: dict):
        from cuspcount.cusp import CuspEngine
        self._engine = CuspEngine()
        self._pinned = {name: {int(d): v for d, v in row.items()}
                        for name, row in pinned["acceptance"].items()}
        self._cusp: dict[tuple[int, int], int] = {}

    def cusp(self, d: int, k: int) -> int:
        """Cusped plane curves through ``3d - 2 - k`` points, cusp on ``k`` lines."""
        if (d, k) not in self._cusp:
            from cuspcount import plane
            from cuspcount.constraints import Constraint
            if k == 0:
                value = plane.cusp(d)
            else:
                value = self._engine.count_incidence(
                    2, d, Constraint.build(0, {2: 3 * d - 2 - k}, special=k))
            row = ("CUSP_ROW", "CUSP_ON_LINE_ROW", "CUSP_AT_POINT_ROW")[k]
            if self._pinned[row].get(d, value) != value:
                raise AssertionError("second route disagrees with %s[%d]" % (row, d))
            self._cusp[d, k] = value
        return self._cusp[d, k]

    def rational(self, d: int) -> int:
        from cuspcount import blowup
        value = blowup.count(d, 0)
        if self._pinned["PLANE_RATIONAL"].get(d, value) != value:
            raise AssertionError("blowup.count disagrees with PLANE_RATIONAL[%d]" % d)
        return value


class PlaneGrid(Workload):
    """P^2 grids on an empty table: every tangency cell must need stored data.

    Each grid is built on its own engine, as one ``cuspcount --table``
    invocation builds it; sharing one engine across the grids saves almost
    nothing and would make each grid's latency depend on the seeded order.
    The grids cost from milliseconds (d = 3) to about a quarter second, so a
    seeded choice of grids would move ``run_s`` by more than its bound; the
    seed decides their order. Points variants drop the costliest top rows of
    the d >= 5 grids, so that no grid takes much longer than the others and
    a run stays short enough for many runs to give each grid's latency.
    """

    name = "plane_grid"
    GRIDS = ([(3, p) for p in range(4)] + [(4, p) for p in range(4)]
             + [(5, 6), (6, 12), (7, 16), (8, 20)])
    tail_pct = 0.9
    fresh_engine = True

    def prepare(self, seed, workdir):
        self.ref = PlaneReference(load_pinned())

    def ops(self, seed):
        ops = [["grid", 2, d, p] for d, p in self.GRIDS]
        seed_rng(self.name, seed).shuffle(ops)
        return ops

    def check(self, op, output):
        _, r, d, points = op

        def cell(t, k):
            return self.ref.cusp(d, k) if t == 0 else NEEDS_ORACLE

        return grid_matches(output, r, d, points, cell)


class PlaneKernel(Workload):
    """Incidence-only plane counts: long codim-2 tuples through the kernel.

    The queries share one engine, so each pays for the sub-results no
    earlier query computed. They come by ascending degree, which gives each
    about the same share of new work whatever the seed; the seed orders the
    queries of equal degree.
    """

    name = "plane_kernel"
    tail_pct = 0.95

    def prepare(self, seed, workdir):
        self.ref = PlaneReference(load_pinned())

    def ops(self, seed):
        ops = [["S", d, k] for d in range(6, 13) for k in range(3)]
        ops += [["R", d] for d in range(10, 31)]
        seed_rng(self.name, seed).shuffle(ops)
        return sorted(ops, key=lambda op: op[1])

    def check(self, op, output):
        if op[0] == "S":
            return output == self.ref.cusp(op[1], op[2])
        return output == self.ref.rational(op[1])


def structural_zero(family: str, degrees: dict) -> bool:
    """Keys that are empty in every P^r: marked-node curves of degree <= 2,
    joins whose nodal component has degree <= 2, two lines joined twice."""
    if family == "N":
        return degrees["d"] <= 2
    if family == "NR":
        return degrees["d1"] <= 2
    return family == "RR2" and degrees["d1"] == degrees["d2"] == 1


_DEGREE_RE = re.compile(r";(d|d1|d2)=([0-9]+)")


def key_weight(key: str, salt: int) -> int:
    digest = hashlib.sha256(("%d:%s" % (salt, key)).encode()).digest()
    return 1 + int.from_bytes(digest[:4], "big") % 1000


def table_value(key: str, a: int, b: int) -> int:
    """Stored value ``a * w1 + b * w2`` scaled by the key's total degree squared.

    The scaling keeps every checked division by ``d^2`` exact. Outside the
    plane no closed form feeds the cusp recursion, so each grid cell is
    linear in the stored values: ``a * U1 + b * U2`` for the pinned grids
    ``U1``, ``U2`` of the tables with ``(a, b) = (1, 0)`` and ``(0, 1)``.
    """
    family = key.split(";", 1)[0]
    degrees = {name: int(v) for name, v in _DEGREE_RE.findall(key)}
    if structural_zero(family, degrees):
        return 0
    total = degrees["d"] if "d" in degrees else degrees["d1"] + degrees["d2"]
    return total * total * (a * key_weight(key, 1) + b * key_weight(key, 2))


def missing_keys(r: int, d: int) -> list[str]:
    """Every key an (r, d) cusp grid reports missing against an empty table."""
    from cuspcount.cusp import CuspEngine
    from cuspcount.errors import OracleDataMissingError
    from cuspcount.tables import TableSpec
    engine = CuspEngine()
    spec = TableSpec(r, d)
    keys: set[str] = set()
    for t, present in enumerate(grid_shape(r, d, 0)):
        for k in range(r + 1):
            if not present[k]:
                continue
            try:
                engine.count(r, d, spec.cell_constraint(t, k))
            except OracleDataMissingError as exc:
                keys.update(exc.keys)
    return sorted(keys)


def write_table(path: str, keys: list[str], a: int, b: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# synthetic table: value = D^2 * (%d * w1 + %d * w2)\n" % (a, b))
        for key in keys:
            fh.write("%s = %d\n" % (key, table_value(key, a, b)))


class SpaceOracle(Workload):
    """P^3/P^4 cusp grids through the command line against stored tables.

    Each grid reads its own table, which holds the keys that grid reports
    missing against an empty table, so that an invocation loads what it
    needs and no more.
    """

    name = "space_oracle"
    GRIDS = ((3, 3), (3, 4), (4, 3))
    # the tail is the slowest of the three invocations
    tail_pct = 1.0

    def prepare(self, seed, workdir):
        rng = seed_rng(self.name, seed)
        self.a, self.b = rng.randint(1, 999), rng.randint(1, 999)
        self.tables = {}
        records = size = 0
        for r, d in self.GRIDS:
            keys = missing_keys(r, d)
            path = os.path.join(workdir, "space-%d-%d.oracle" % (r, d))
            write_table(path, keys, self.a, self.b)
            self.tables[r, d] = path
            records += len(keys)
            size += os.path.getsize(path)
        self.info = {"table_records": records, "table_bytes": size}
        self.base = load_pinned()["space_oracle"]

    def ops(self, seed):
        ops = [["cli", ["--family", "S", "--r", str(r), "--d", str(d), "--table",
                        "--oracle", self.tables[r, d], "--format", "json"]]
               for r, d in self.GRIDS]
        seed_rng(self.name, seed).shuffle(ops)
        return ops

    def check(self, op, output):
        code, text = output
        argv = op[1]
        r, d = int(argv[3]), int(argv[5])
        u1, u2 = self.base["%d,%d" % (r, d)]
        return code == 0 and grid_matches(
            text, r, d, 0, lambda t, k: self.a * u1[t][k] + self.b * u2[t][k])


WORKLOADS = {w.name: w for w in (PlaneGrid(), PlaneKernel(), SpaceOracle())}
