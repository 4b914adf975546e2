"""Command-line entry point.

Count mode (the default) evaluates one family query and prints its value;
``--table`` prints the whole tangency-by-cusp-location grid for family S.
Exit codes: 0 on success, 2 for invalid queries or inputs, 3 when stored
counts are missing (the keys are listed on stderr), 4 when an exactness
invariant fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Optional

from .constraints import Constraint, Family, single_key
from .cusp import CuspEngine
from .errors import (EXIT_CONSISTENCY, EXIT_OK, EXIT_ORACLE, EXIT_VALIDATION,
                     ConsistencyError, OracleDataMissingError, ValidationError)
from .gw import GWEngine
from .nodal import NodalOracle, OracleTable
from .tables import TableSpec, build_table, render


@dataclass
class RunConfig:
    family: str = "S"
    r: int = 2
    d: Optional[int] = None
    d1: Optional[int] = None
    d2: Optional[int] = None
    tangent: int = 0
    inc: tuple = ()
    hyperplanes: int = 0
    special_codim: Optional[int] = None
    joint_k: Optional[int] = None
    joint_l: Optional[int] = None
    oracle: tuple = ()
    cache: Optional[str] = None
    format: str = "plain"
    table: bool = False
    points: int = 0
    experimental_rr2_general_r: bool = False

    def to_argv(self) -> list[str]:
        argv = ["--family", self.family, "--r", str(self.r)]
        if self.d is not None:
            argv += ["--d", str(self.d)]
        if self.d1 is not None:
            argv += ["--d1", str(self.d1)]
        if self.d2 is not None:
            argv += ["--d2", str(self.d2)]
        if self.tangent:
            argv += ["--tangent", str(self.tangent)]
        for codim, count in self.inc:
            argv += ["--inc", "%d:%d" % (codim, count)]
        if self.hyperplanes:
            argv += ["--hyperplanes", str(self.hyperplanes)]
        if self.special_codim is not None:
            argv += ["--special-codim", str(self.special_codim)]
        if self.joint_k is not None:
            argv += ["--joint-k", str(self.joint_k)]
        if self.joint_l is not None:
            argv += ["--joint-l", str(self.joint_l)]
        for path in self.oracle:
            argv += ["--oracle", path]
        if self.cache is not None:
            argv += ["--cache", self.cache]
        argv += ["--format", self.format]
        if self.table:
            argv += ["--table"]
        if self.points:
            argv += ["--points", str(self.points)]
        if self.experimental_rr2_general_r:
            argv += ["--experimental-rr2-general-r"]
        return argv


def _parse_inc(raw: str) -> tuple[int, int]:
    codim, sep, count = raw.partition(":")
    try:
        if not sep:
            raise ValueError
        return int(codim), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected CODIM:COUNT, got %r" % raw) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspcount",
        description="Characteristic numbers of rational curves in projective"
                    " space with a cusp, a marked node, or component joins.")
    parser.add_argument("--family", choices=[f.value for f in Family],
                        default="S", help="curve family to count (default S)")
    parser.add_argument("--r", type=int, default=2,
                        help="ambient projective dimension (default 2)")
    parser.add_argument("--d", type=int, help="degree, single-component families")
    parser.add_argument("--d1", type=int, help="first component degree")
    parser.add_argument("--d2", type=int, help="second component degree")
    parser.add_argument("--tangent", type=int, default=0,
                        help="number of tangency conditions")
    parser.add_argument("--inc", type=_parse_inc, action="append", default=[],
                        metavar="CODIM:COUNT",
                        help="incidence conditions, repeatable")
    parser.add_argument("--hyperplanes", type=int, default=0,
                        help="plain hyperplane incidences (codimension 1)")
    parser.add_argument("--special-codim", type=int, default=None,
                        help="codimension of the linear space holding the"
                             " marked point (cusp or node)")
    parser.add_argument("--joint-k", type=int, default=None,
                        help="NR: hyperplanes through the attachment point;"
                             " RR2: hyperplanes through the second one")
    parser.add_argument("--joint-l", type=int, default=None,
                        help="RR2 only: hyperplanes through the first"
                             " attachment point")
    parser.add_argument("--oracle", action="append", default=[],
                        metavar="FILE", help="stored-count table, repeatable")
    parser.add_argument("--cache", metavar="FILE",
                        help="persistent cache of computed invariants")
    parser.add_argument("--format", choices=["plain", "csv", "markdown", "json"],
                        default="plain")
    parser.add_argument("--table", action="store_true",
                        help="print the tangency-by-cusp-location grid")
    parser.add_argument("--points", type=int, default=0,
                        help="table mode: point conditions added to every cell")
    parser.add_argument("--experimental-rr2-general-r", action="store_true",
                        help="allow the diagonal-splitting formula for"
                             " two-point joins outside the plane")
    return parser


def parse_config(argv: Optional[list] = None) -> RunConfig:
    ns = build_parser().parse_args(argv)
    return RunConfig(
        family=ns.family, r=ns.r, d=ns.d, d1=ns.d1, d2=ns.d2,
        tangent=ns.tangent, inc=tuple(ns.inc), hyperplanes=ns.hyperplanes,
        special_codim=ns.special_codim, joint_k=ns.joint_k, joint_l=ns.joint_l,
        oracle=tuple(ns.oracle), cache=ns.cache, format=ns.format,
        table=ns.table, points=ns.points,
        experimental_rr2_general_r=ns.experimental_rr2_general_r)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _single_degree(cfg: RunConfig) -> int:
    _require(cfg.d is not None, "--d is required for family %s" % cfg.family)
    _require(cfg.d1 is None and cfg.d2 is None,
             "--d1/--d2 do not apply to family %s" % cfg.family)
    return cfg.d


def _pair_degrees(cfg: RunConfig) -> tuple[int, int]:
    _require(cfg.d1 is not None and cfg.d2 is not None,
             "--d1 and --d2 are required for family %s" % cfg.family)
    _require(cfg.d is None, "--d does not apply to family %s" % cfg.family)
    return cfg.d1, cfg.d2


def run_count(cfg: RunConfig, engine: CuspEngine) -> tuple[str, int]:
    oracle = engine.oracle
    base = Constraint.build(cfg.tangent, dict(cfg.inc), cfg.hyperplanes)
    family = Family(cfg.family)
    if family is Family.S:
        d = _single_degree(cfg)
        _require(cfg.joint_k is None and cfg.joint_l is None,
                 "joint flags do not apply to family S")
        delta = base.with_special(cfg.special_codim or 0)
        return single_key(family, cfg.r, d, delta), engine.count(cfg.r, d, delta)
    if family is Family.N:
        d = _single_degree(cfg)
        _require(cfg.joint_k is None and cfg.joint_l is None,
                 "joint flags do not apply to family N")
        delta = base.with_special(cfg.special_codim or 0)
        return single_key(family, cfg.r, d, delta), oracle.n_count(cfg.r, d, delta)
    if family is Family.R:
        d = _single_degree(cfg)
        _require(cfg.tangent == 0, "family R takes no tangency conditions")
        _require(cfg.special_codim is None, "family R has no marked point")
        _require(cfg.joint_k is None and cfg.joint_l is None,
                 "joint flags do not apply to family R")
        return single_key(family, cfg.r, d, base), oracle.gw_count(cfg.r, d, base)
    if family is Family.NR:
        d1, d2 = _pair_degrees(cfg)
        _require(cfg.joint_l is None, "--joint-l applies to family RR2 only")
        node = cfg.special_codim or 0
        c = cfg.joint_k or 0
        key = "NR-split;r=%d;d1=%d;d2=%d;D=[%s];s=%d;c=%d" % (
            cfg.r, d1, d2, base.render(), node, c)
        return key, oracle.nr_split_count(cfg.r, d1, d2, base, node, c)
    d1, d2 = _pair_degrees(cfg)
    _require(cfg.special_codim is None,
             "family RR2 has no marked point; use --joint-k/--joint-l")
    k = cfg.joint_k or 0
    l = cfg.joint_l or 0
    key = "RR2-split;r=%d;d1=%d;d2=%d;D=[%s];k=%d;l=%d" % (
        cfg.r, d1, d2, base.render(), k, l)
    return key, oracle.rr2_split_count(cfg.r, d1, d2, base, k, l)


def _format_count(key: str, value: int, fmt: str) -> str:
    if fmt == "plain":
        return str(value)
    if fmt == "csv":
        return "query,value\n%s,%d" % (key, value)
    if fmt == "markdown":
        return "| query | value |\n| --- | --- |\n| %s | %d |" % (key, value)
    return json.dumps({"query": key, "value": value}, sort_keys=True)


def run(cfg: RunConfig, out=None) -> int:
    out = out or sys.stdout
    gw_engine = GWEngine(cache_path=cfg.cache)
    table = OracleTable()
    for path in cfg.oracle:
        table.load(path)
    oracle = NodalOracle(
        gw_engine, table,
        experimental_rr2_general_r=cfg.experimental_rr2_general_r)
    engine = CuspEngine(oracle)
    if cfg.table:
        _require(cfg.family == "S", "--table applies to family S")
        d = _single_degree(cfg)
        text = render(build_table(engine, TableSpec(cfg.r, d, cfg.points)), cfg.format)
    else:
        text = _format_count(*run_count(cfg, engine), cfg.format)
    # a cache that cannot be written fails the run before anything is printed
    gw_engine.save_cache()
    out.write(text + "\n")
    return EXIT_OK


def main(argv: Optional[list] = None) -> int:
    try:
        cfg = parse_config(argv)
        return run(cfg)
    except OracleDataMissingError as exc:
        print("missing stored counts for %d key(s):" % len(exc.keys),
              file=sys.stderr)
        for key in exc.keys:
            print("  " + key, file=sys.stderr)
        return EXIT_ORACLE
    except (ValidationError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except ConsistencyError as exc:
        print("consistency failure: %s" % exc, file=sys.stderr)
        return EXIT_CONSISTENCY


if __name__ == "__main__":
    sys.exit(main())
