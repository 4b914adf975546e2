#!/usr/bin/env python3
"""Benchmark of cuspcount: three workloads, end-to-end or per layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The parent process makes the workload's operations from the seed, then
starts one child process per run (``child.py``), one at a time, until the
children have used ``S`` seconds. Every run performs the same operations in
the same order. Each child imports the package from ``./src`` cold, runs the
operations, and reports outputs and timings. The parent checks every output
before the run's times count.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones:

* ``setup_s``      spawn until ``cuspcount.cli`` is imported (median of the
                   runs and of extra set-up-only processes)
* ``run_s``        wall time of one run's operations, each operation at its
                   median latency over the runs
* ``op_p50_ms``    median over the operations of their median latencies
* ``op_tail_ms``   the workload's fixed tail percentile of the same
* ``peak_rss_mb``  peak resident memory of a run's process (median)

With ``--trace 1`` runs alternate untraced and traced, and the metrics are
the per-layer ones of the traced runs (medians), plus
``trace.overhead_ratio``. The line before the result describes the machine,
the sample counts and the tail percentile.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracing import summarize
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
# set-up-only children started before each run until there are this many
# set-up samples, so that they spread over the invocation like the runs do
SETUP_SAMPLES = 24
# fewest runs whose per-operation medians an untraced invocation reports
MIN_RUNS = 5
CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    pass


def machine_stamp() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "platform": platform.platform()}


class Bench:
    def __init__(self, src: str, workdir: str, workload):
        self.env = dict(os.environ, PYTHONPATH=src)
        self.workdir = workdir
        self.workload = workload
        self.children = 0
        self.setup = []
        self.import_s = []

    def spawn(self, ops: list, trace: bool = False) -> dict:
        """Run one child to completion and return its record."""
        n = self.children
        self.children += 1
        spec = os.path.join(self.workdir, "spec%d.json" % n)
        out = os.path.join(self.workdir, "out%d.json" % n)
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.workload.name, "ops": ops, "trace": trace,
                       "fresh_engine": self.workload.fresh_engine}, fh)
        begin = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, CHILD, spec, out], env=self.env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise ChildFailed("run %d exceeded %d s" % (n, CHILD_TIMEOUT_S)) from None
        wall = time.monotonic() - begin
        if proc.returncode != 0 or not os.path.exists(out):
            raise ChildFailed("run %d exited with %d:\n%s"
                              % (n, proc.returncode, proc.stderr[-2000:]))
        with open(out, encoding="utf-8") as fh:
            record = json.load(fh)
        record["wall"] = wall
        record["spans"] = out + ".spans"
        self.setup.append(record["ready"] - begin)
        self.import_s.append(record["import_s"])
        return record

    def compile_bytecode(self) -> None:
        """Start one untimed child, which compiles the bytecode; users do not
        pay that on every run."""
        self.spawn([])
        self.setup.clear()
        self.import_s.clear()

    def probe_setup(self) -> None:
        for _ in range(2):
            if len(self.setup) < SETUP_SAMPLES:
                self.spawn([])

    def check(self, ops: list, record: dict, failures: list) -> int:
        failed = 0
        for op, output in zip(ops, record["outputs"]):
            try:
                ok = self.workload.check(op, output)
            except Exception as exc:  # a check that cannot run counts as failed
                ok = False
                output = "%s: %s" % (type(exc).__name__, exc)
            if not ok:
                failed += 1
                failures.append((op, output))
        return failed


def tail(latencies: list, pct: float) -> float:
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(pct * len(ordered)) - 1)]


def measure(bench: Bench, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    workload = bench.workload
    ops = workload.ops(seed)
    attempted = failed = 0
    failures: list = []
    runs, traced = [], []
    used = 0.0
    while True:
        bench.probe_setup()
        pair = [(False, bench.spawn(ops))]
        if trace:
            pair.append((True, bench.spawn(ops, trace=True)))
        cost = 0.0
        for is_traced, record in pair:
            attempted += len(ops)
            record["failed"] = bench.check(ops, record, failures)
            failed += record["failed"]
            if is_traced:
                record["layers"] = summarize(record["spans"], record)
                os.remove(record["spans"])
            (traced if is_traced else runs).append(record)
            cost += record["wall"]
        used += cost
        if len(runs) >= (1 if trace else MIN_RUNS) and used + cost > seconds:
            break

    # a run's times count only once all its outputs passed their checks
    runs = [r for r in runs if not r["failed"]] or runs
    traced = [r for r in traced if not r["failed"]] or traced
    # every run repeats the same operations, so each operation's latency is
    # its median over the runs: other load on the machine slows most runs by
    # an amount that drifts, and the median of many runs drifts less than
    # either one run or the best of them
    typical = [statistics.median(r["latencies"][i] for r in runs) for i in range(len(ops))]
    info = {
        "workload": workload.name, "seed": seed, "runs": len(runs),
        "ops_per_run": len(ops), "tail_percentile": workload.tail_pct * 100,
        "samples_beyond_tail": len(ops) - math.ceil(workload.tail_pct * len(ops)),
        "setup_samples": len(bench.setup), "fail_ratio": failed / attempted,
        "failures": [repr(f)[:300] for f in failures[:5]],
    }
    info.update(workload.info)
    if not trace:
        metrics = {
            "setup_s": (statistics.median(bench.setup), "s"),
            "run_s": (sum(typical), "s"),
            "op_p50_ms": (statistics.median(typical) * 1e3, "ms"),
            "op_tail_ms": (tail(typical, workload.tail_pct) * 1e3, "ms"),
            "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in runs) / 1024, "MB"),
        }
    else:
        per_run = [r["layers"] for r in traced]
        whole = {"cli.import_s": statistics.median(bench.import_s),
                 "trace.overhead_ratio": statistics.median(r["run_s"] for r in traced)
                 / statistics.median(r["run_s"] for r in runs)}
        metrics = {}
        for name, unit in per_layer_units().items():
            value = whole[name] if name in whole else statistics.median(m[name] for m in per_run)
            metrics[name] = (value, unit)
        layers = {k[:-len(".self_s")]: v for k, v in metrics.items()
                  if k.endswith(".self_s")}
        total = sum(v for v, _ in layers.values()) + statistics.median(
            m["bench.op_self_s"] for m in per_run)
        info["self_time_share"] = {k: round(v / total, 4) for k, (v, _) in layers.items()}
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return info, result


def per_layer_units() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cuspcount", "cli.py")):
        print("error: no package at %s; run from the repository root" % src,
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workload = WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        workload.prepare(args.seed, workdir)
        bench = Bench(src, workdir, workload)
        bench.compile_bytecode()
        info, result = measure(bench, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["machine"] = machine_stamp()
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
