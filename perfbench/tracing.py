"""Per-layer tracing from outside the package.

``Tracer.install`` wraps every public function and public method of the
layer modules where callers resolve them: class attributes, module
attributes, and names that other package modules imported with
``from ... import``. Each call records a span (name, start, end, parent span,
operation index) in flat arrays kept in memory; ``Tracer.dump`` writes them
out at the end of a run and ``summarize`` derives self times from them in
the parent process. A few wrapped functions also count what they return
(expansion terms, table hits, grid cells, records loaded).

Generator functions are drained into a list inside their span, so that the
time spent producing values is charged to them and not to the consumer.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter

LAYERS = ("gw", "blowup", "plane", "nodal", "cusp", "constraints", "tables", "cli")
OP_SPAN = "bench:op"


class Tracer:
    def __init__(self):
        from cuspcount.errors import OracleDataMissingError
        self._missing_error = OracleDataMissingError
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.name = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.current_op = -1
        self.counters: Counter = Counter()
        self._expansions: set = set()
        self._missing_keys: set = set()
        self._lru: dict[str, object] = {}
        self._op_span = self.span(OP_SPAN, lambda fn, *args: fn(*args))

    # -- recording ------------------------------------------------------------

    def span(self, qualname: str, fn):
        """``fn`` wrapped so each call records one span named ``qualname``."""
        nid = len(self.names)
        self.names.append(qualname)
        layer = qualname.split(":", 1)[0]
        start, end, parent, name, op = self.start, self.end, self.parent, self.name, self.op
        stack = self._stack
        clock = time.perf_counter_ns
        missing_error = self._missing_error
        tracer = self

        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1])
            name.append(nid)
            op.append(tracer.current_op)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[i] = clock()
                stack.pop()
                if isinstance(exc, missing_error):
                    tracer._raised(layer, exc)
                raise
            end[i] = clock()
            stack.pop()
            return result

        return traced

    def _raised(self, layer: str, exc) -> None:
        if layer in ("cusp", "nodal"):
            self.counters[layer + ".missing_raised"] += 1
        if layer == "nodal":
            self._missing_keys.update(exc.keys)

    def run_op(self, index: int, fn, *args):
        self.current_op = index
        return self._op_span(fn, *args)

    def calibrate(self, n: int = 20000, repeats: int = 5) -> None:
        """Measure what one span costs outside and inside its own interval.

        The bookkeeping before a span's start and after its end is charged to
        the parent's self time; the rest lands inside the span. ``summarize``
        subtracts both, so many small spans do not inflate their callers.
        """
        clock = time.perf_counter_ns
        mark = len(self.start)

        def noop(a, b, c):
            return a

        traced = self.span("bench:calibration", noop)
        outside, inside = [], []
        for _ in range(repeats):
            t = clock()
            for _ in range(n):
                pass
            loop = clock() - t
            t = clock()
            for _ in range(n):
                noop(1, 2, 3)
            call = clock() - t - loop
            first = len(self.start)
            t = clock()
            for _ in range(n):
                traced(1, 2, 3)
            total = clock() - t
            spans = sum(e - s for s, e in zip(self.start[first:], self.end[first:]))
            outside.append((total - spans - loop) / n)
            inside.append((spans - call) / n)
        for arr in (self.start, self.end, self.parent, self.name, self.op):
            del arr[mark:]
        self.names.pop()
        self.counters["trace.outside_ns"] = sorted(outside)[repeats // 2]
        self.counters["trace.inside_ns"] = sorted(inside)[repeats // 2]

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module("cuspcount." + layer) for layer in LAYERS}
        replaced = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, enum.Enum):
                        self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    if hasattr(obj, "cache_info"):
                        self._lru["%s.%s" % (layer, attr)] = obj
                    qual = "%s:%s" % (layer, attr)
                    replaced[id(obj)] = self.span(qual, self._hooked(qual, obj))
        for modname, module in list(sys.modules.items()):
            if modname == "cuspcount" or modname.startswith("cuspcount."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in replaced:
                        setattr(module, attr, replaced[id(obj)])

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            static = isinstance(member, staticmethod)
            fn = member.__func__ if static else member
            if not inspect.isfunction(fn):
                continue
            qual = "%s:%s.%s" % (layer, cls.__name__, attr)
            traced = self.span(qual, self._hooked(qual, fn))
            setattr(cls, attr, staticmethod(traced) if static else traced)

    def _hooked(self, qual: str, fn):
        """``fn`` with the counting a few spans need; generators drained."""
        counters = self.counters
        if inspect.isgeneratorfunction(fn):
            return lambda *a, **k: iter(list(fn(*a, **k)))
        if qual == "cusp:CuspEngine.expansion":
            def expansion(self_, r, d, delta, *a, **k):
                terms = fn(self_, r, d, delta, *a, **k)
                counters["cusp.expansion_terms"] += len(terms)
                self._expansions.add((r, d, delta))
                return terms
            return expansion
        if qual == "nodal:OracleTable.get":
            def get(self_, key):
                value = fn(self_, key)
                counters["nodal.table_hits"] += value is not None
                return value
            return get
        if qual == "nodal:OracleTable.load":
            def load(self_, path):
                before = len(self_)
                fn(self_, path)
                counters["nodal.load_records"] += len(self_) - before
                counters["nodal.load_bytes"] += os.path.getsize(path)
            return load
        if qual == "tables:build_table":
            def build_table(*a, **k):
                result = fn(*a, **k)
                for row in result.rows:
                    cells = [row[c] for c in result.columns if row[c] is not None]
                    counters["tables.cells"] += len(cells)
                    counters["tables.needs_oracle_cells"] += sum(
                        1 for v in cells if isinstance(v, str))
                return result
            return build_table
        return fn

    # -- output ---------------------------------------------------------------

    def dump(self, path: str) -> dict:
        """Write the spans to ``path``; return the counters for the run record."""
        with open(path, "wb") as fh:
            for arr in (self.start, self.end, self.parent, self.name, self.op):
                fh.write(array("q", [len(arr)]).tobytes())
                arr.tofile(fh)
        counters = dict(self.counters)
        counters["cusp.distinct_expansions"] = len(self._expansions)
        counters["nodal.missing_keys"] = len(self._missing_keys)
        for name, fn in self._lru.items():
            info = fn.cache_info()
            counters[name + ".hits"] = info.hits
            counters[name + ".misses"] = info.misses
        return {"names": self.names, "counters": counters}


def read_spans(path: str) -> list[array]:
    out = []
    with open(path, "rb") as fh:
        for code in ("q", "q", "i", "i", "i"):
            n = array("q", fh.read(8))[0]
            arr = array(code)
            arr.fromfile(fh, n)
            out.append(arr)
    return out


def summarize(path: str, record: dict) -> dict:
    """Per-layer metrics of one traced run from its spans and counters."""
    start, end, parent, name, _op = read_spans(path)
    names = record["names"]
    counters = Counter(record["counters"])
    outside = round(counters["trace.outside_ns"])
    inside = round(counters["trace.inside_ns"])
    dur = array("q", (e - s for s, e in zip(start, end)))
    # time under child spans, plus the bookkeeping each child cost this span
    covered = array("q", [inside]) * len(dur)
    for p, d in zip(parent, dur):
        if p >= 0:
            covered[p] += d + outside
    calls = Counter()
    self_ns = Counter()
    incl_ns = Counter()
    for nid, d, c in zip(name, dur, covered):
        calls[nid] += 1
        self_ns[nid] += d - c
        incl_ns[nid] += d
    by_name = {names[nid]: (calls[nid], self_ns[nid], incl_ns[nid]) for nid in calls}

    def layer_sum(layer: str, field: int) -> int:
        total = sum(v[field] for q, v in by_name.items() if q.split(":", 1)[0] == layer)
        return max(total, 0)

    def named(qual: str, field: int) -> int:
        return by_name.get(qual, (0, 0, 0))[field]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {}
    for layer in LAYERS:
        m[layer + ".calls"] = layer_sum(layer, 0)
        m[layer + ".self_s"] = layer_sum(layer, 1) / 1e9
    hits = counters["blowup.count.hits"]
    m["blowup.hit_ratio"] = ratio(hits, hits + counters["blowup.count.misses"])
    expansions = named("cusp:CuspEngine.expansion", 0)
    m["cusp.expansion_calls"] = expansions
    m["cusp.expansion_terms"] = counters["cusp.expansion_terms"]
    m["cusp.expansion_useful_ratio"] = ratio(counters["cusp.distinct_expansions"], expansions)
    m["cusp.missing_raised"] = counters["cusp.missing_raised"]
    m["nodal.missing_raised"] = counters["nodal.missing_raised"]
    m["nodal.missing_keys"] = counters["nodal.missing_keys"]
    gets = named("nodal:OracleTable.get", 0)
    m["nodal.table_gets"] = gets
    m["nodal.table_hit_ratio"] = ratio(counters["nodal.table_hits"], gets)
    m["nodal.load_s"] = named("nodal:OracleTable.load", 2) / 1e9
    m["nodal.load_records"] = counters["nodal.load_records"]
    m["nodal.load_bytes"] = counters["nodal.load_bytes"]
    m["constraints.build_calls"] = named("constraints:Constraint.build", 0)
    m["constraints.render_calls"] = named("constraints:Constraint.render", 0)
    m["constraints.parse_key_calls"] = named("constraints:parse_key", 0)
    m["tables.build_s"] = named("tables:build_table", 2) / 1e9
    m["tables.render_s"] = named("tables:render", 2) / 1e9
    m["tables.cells"] = counters["tables.cells"]
    m["tables.needs_oracle_cells"] = counters["tables.needs_oracle_cells"]
    m["cli.main_calls"] = named("cli:main", 0)
    m["bench.op_self_s"] = max(named(OP_SPAN, 1), 0) / 1e9
    return m

