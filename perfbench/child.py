"""One run of a workload, in a fresh process.

Usage: ``python3 child.py SPEC OUT``. The process imports ``cuspcount.cli``
first and notes the monotonic clock when it is ready, so the parent can
measure set-up from the spawn. ``SPEC`` is a JSON file with the workload
name, its operations, whether each operation gets its own engine, and
whether to trace; without operations the process stops after the import.
``OUT`` receives a JSON record with each operation's output and latency,
the run's wall time and peak resident memory, and, when tracing, the span
names and counters (the spans go to ``OUT + ".spans"``).
"""

import time

_t0 = time.perf_counter()
import cuspcount.cli  # noqa: E402

READY = time.monotonic()
IMPORT_S = time.perf_counter() - _t0

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

from cuspcount import constraints, cusp, tables  # noqa: E402


def grid(engine, r, d, points):
    result = tables.build_table(engine, tables.TableSpec(r, d, points))
    return tables.render(result, "json")


def plane_cusp(engine, d, k):
    return engine.count(2, d, constraints.Constraint.build(0, {2: 3 * d - 2 - k}, special=k))


def plane_rational(engine, d):
    return engine.oracle.gw_count(2, d, constraints.Constraint.build(0, {2: 3 * d - 1}))


def invoke(_engine, argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cuspcount.cli.main(argv)
    return [code, out.getvalue()]


OPS = {"grid": grid, "S": plane_cusp, "R": plane_rational, "cli": invoke}


def run(spec: dict, out_path: str) -> dict:
    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    # one engine per run, or one per operation
    engine = cusp.CuspEngine()
    outputs, latencies = [], []
    clock = time.perf_counter
    begin = clock()
    for index, (kind, *args) in enumerate(spec["ops"]):
        fn = OPS[kind]
        t = clock()
        if spec["fresh_engine"]:
            engine = cusp.CuspEngine()
        try:
            if tracer is None:
                value = fn(engine, *args)
            else:
                value = tracer.run_op(index, fn, engine, *args)
        except Exception as exc:  # recorded as a failed operation
            value = {"error": "%s: %s" % (type(exc).__name__, exc)}
        latencies.append(clock() - t)
        outputs.append(value)
    run_s = clock() - begin
    record = {"outputs": outputs, "latencies": latencies, "run_s": run_s,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.calibrate()
        record.update(tracer.dump(out_path + ".spans"))
    return record


def main() -> None:
    spec_path, out_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    record = {"ready": READY, "import_s": IMPORT_S}
    if spec.get("ops"):
        record.update(run(spec, out_path))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
