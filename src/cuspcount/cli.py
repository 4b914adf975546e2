"""Command-line entry point.

Count mode (the default) evaluates one family query and prints its value;
``--table`` prints the whole tangency-by-cusp-location grid for family S.
Exit codes: 0 on success, 2 for invalid queries or inputs or a degree too deep
for the recursion limit, 3 when stored counts are missing (the keys are listed
on stderr), 4 when an exactness invariant fails.
"""

from __future__ import annotations

import argparse
import sys

from .constraints import Constraint, Family, render_key
from .cusp import CuspEngine
from .errors import (EXIT_CONSISTENCY, EXIT_OK, EXIT_ORACLE, EXIT_VALIDATION,
                     ConsistencyError, OracleDataMissingError, ValidationError)
from .gw import GWEngine
from .nodal import NodalOracle, OracleTable
from .tables import TableSpec, build_table, render


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
    parser.add_argument("--tangent", type=int,
                        help="number of tangency conditions")
    parser.add_argument("--inc", type=_parse_inc, action="append", default=[],
                        metavar="CODIM:COUNT",
                        help="incidence conditions, repeatable")
    parser.add_argument("--hyperplanes", type=int,
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
    parser.add_argument("--format", choices=["plain", "csv", "markdown", "json"],
                        default="plain")
    parser.add_argument("--table", action="store_true",
                        help="print the tangency-by-cusp-location grid")
    parser.add_argument("--points", type=int,
                        help="table mode: point conditions added to every cell")
    return parser


# the optional flags each mode takes: its required degrees, then the rest
_FLAGS = {
    "family S": (("--d",), ("--tangent", "--inc", "--hyperplanes", "--special-codim")),
    "family N": (("--d",), ("--tangent", "--inc", "--hyperplanes", "--special-codim")),
    "family R": (("--d",), ("--inc", "--hyperplanes")),
    "family NR": (("--d1", "--d2"), ("--tangent", "--inc", "--hyperplanes",
                                     "--special-codim", "--joint-k")),
    "family RR2": (("--d1", "--d2"), ("--tangent", "--inc", "--hyperplanes",
                                      "--joint-k", "--joint-l")),
    # the grid sets its own conditions in every cell
    "--table": (("--d",), ("--points",)),
}
_OPTIONAL = ("--d", "--d1", "--d2", "--tangent", "--inc", "--hyperplanes",
             "--special-codim", "--joint-k", "--joint-l", "--points")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _check_flags(cfg: argparse.Namespace) -> None:
    """Reject every optional flag the mode does not take and require its degrees."""
    _require(cfg.family == "S" or not cfg.table, "--table applies to family S")
    mode = "--table" if cfg.table else "family %s" % cfg.family
    required, optional = _FLAGS[mode]
    for flag in _OPTIONAL:
        given = getattr(cfg, flag[2:].replace("-", "_")) not in (None, [])
        _require(not given or flag in required + optional,
                 "%s does not apply to %s" % (flag, mode))
        _require(given or flag not in required,
                 "%s is required for %s" % (flag, mode))
    for flag in ("--tangent", "--hyperplanes", "--special-codim", "--joint-k",
                 "--joint-l", "--points"):
        value = getattr(cfg, flag[2:].replace("-", "_"))
        _require(value is None or value >= 0, "negative %s" % flag)


def _incidences(cfg: argparse.Namespace) -> dict[int, int]:
    """Sum the repeated ``--inc`` flags per codimension."""
    inc: dict[int, int] = {}
    for codim, count in cfg.inc:
        _require(codim >= 1 and count >= 0,
                 "--inc %d:%d needs a codimension >= 1 and a count >= 0" % (codim, count))
        inc[codim] = inc.get(codim, 0) + count
    return inc


def run_count(cfg: argparse.Namespace, engine: CuspEngine) -> tuple[str, int]:
    oracle = engine.oracle
    base = Constraint.build(cfg.tangent or 0, _incidences(cfg), cfg.hyperplanes or 0)
    family = Family(cfg.family)
    if family is Family.R:
        return render_key((family, cfg.r, cfg.d, base)), oracle.gw_count(cfg.r, cfg.d, base)
    if family in (Family.S, Family.N):
        delta = base.with_special(cfg.special_codim or 0)
        count = engine.count if family is Family.S else oracle.n_count
        return render_key((family, cfg.r, cfg.d, delta)), count(cfg.r, cfg.d, delta)
    if family is Family.NR:
        node = cfg.special_codim or 0
        c = cfg.joint_k or 0
        key = "NR-split;r=%d;d1=%d;d2=%d;D=[%s];s=%d;c=%d" % (
            cfg.r, cfg.d1, cfg.d2, base.render(), node, c)
        return key, oracle.nr_split_count(cfg.r, cfg.d1, cfg.d2, base, node, c)
    k = cfg.joint_k or 0
    l = cfg.joint_l or 0
    key = "RR2-split;r=%d;d1=%d;d2=%d;D=[%s];k=%d;l=%d" % (
        cfg.r, cfg.d1, cfg.d2, base.render(), k, l)
    return key, oracle.rr2_split_count(cfg.r, cfg.d1, cfg.d2, base, k, l)


def _format_count(key: str, value: int, fmt: str) -> str:
    if fmt == "plain":
        return str(value)
    if fmt == "csv":
        return "query,value\n%s,%d" % (key, value)
    if fmt == "markdown":
        return "| query | value |\n| --- | --- |\n| %s | %d |" % (key, value)
    import json  # imported here: only JSON output pays for it
    return json.dumps({"query": key, "value": value}, sort_keys=True)


def run(cfg: argparse.Namespace, out=None) -> int:
    out = out or sys.stdout
    _check_flags(cfg)
    table = OracleTable()
    for path in cfg.oracle:
        table.load(path)
    engine = CuspEngine(NodalOracle(GWEngine(), table))
    if cfg.table:
        text = render(build_table(engine, TableSpec(cfg.r, cfg.d, cfg.points or 0)),
                      cfg.format)
    else:
        text = _format_count(*run_count(cfg, engine), cfg.format)
    out.write(text + "\n")
    return EXIT_OK


def main(argv: list | None = None) -> int:
    cfg = build_parser().parse_args(argv)
    try:
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
    except RecursionError:  # a fence, not a fix: the GW kernel recurses per degree
        print("error: degree %d recurses deeper than Python's limit of %d frames"
              % (cfg.d or cfg.d1 + cfg.d2, sys.getrecursionlimit()), file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
