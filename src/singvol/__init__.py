"""Exact numerical invariants of normal surface and cone singularities.

The package computes, entirely in rational arithmetic:

* log discrepancies and volumes of normal surface singularities presented
  by resolution dual graphs (``graph``, ``envelope``);
* the bookkeeping of blowup towers and the invariants they preserve
  (``tower``);
* valuation traces, boundary-slope certificates and volume bounds for
  cone singularities over polarized curves and surfaces (``cone``);
* a catalog of standard examples and a JSON-reporting command line
  (``catalog``, ``io``, ``cli``).
"""

from .cone import (
    PolarizedCone,
    boundary_class,
    cone_log_discrepancy,
    curve_cone,
    dcc_scan,
    lc_boundary_exists,
    limiting_discrepancy,
    natural_valuation,
    valuation_limit,
    vol_plus_table,
    vol_upper_bound,
)
from .envelope import nef_envelope_trace, volume, zariski_oracle
from .errors import DomainError, MalformedInputError, OracleSizeError, SingularSystemError
from .graph import Edge, ResolutionGraph, Vertex
from .lattice import QVector, SymForm, rat, rat_str
from .tower import (
    FreeBlowup,
    ModelTower,
    SatelliteBlowup,
    blow_up,
    invariance_report,
    pullback,
    pushforward,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "Edge",
    "FreeBlowup",
    "MalformedInputError",
    "ModelTower",
    "OracleSizeError",
    "PolarizedCone",
    "QVector",
    "ResolutionGraph",
    "SatelliteBlowup",
    "SingularSystemError",
    "SymForm",
    "Vertex",
    "blow_up",
    "boundary_class",
    "cone_log_discrepancy",
    "curve_cone",
    "dcc_scan",
    "invariance_report",
    "lc_boundary_exists",
    "limiting_discrepancy",
    "natural_valuation",
    "nef_envelope_trace",
    "pullback",
    "pushforward",
    "rat",
    "rat_str",
    "valuation_limit",
    "vol_plus_table",
    "vol_upper_bound",
    "volume",
    "zariski_oracle",
]
