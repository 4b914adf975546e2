"""Exact characteristic numbers of rational cuspidal curves in projective space."""

from . import blowup, plane
from .constraints import (Constraint, Family, enumerate_splits, parse_key,
                          render_key)
from .cusp import CuspEngine, ExpansionTerm
from .errors import (ConsistencyError, FinitenessError,
                     OracleDataMissingError, ValidationError)
from .gw import GWEngine
from .nodal import NodalOracle, OracleTable
from .tables import TableSpec, build_table, render

__version__ = "0.1.0"

__all__ = [
    "Constraint", "Family", "enumerate_splits",
    "parse_key", "render_key",
    "CuspEngine", "ExpansionTerm", "GWEngine", "NodalOracle", "OracleTable",
    "TableSpec", "build_table", "render",
    "ConsistencyError", "FinitenessError", "OracleDataMissingError",
    "ValidationError",
    "blowup", "plane",
]
