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

The public names below are imported on first use (PEP 562), so importing
the package, or running one command, loads only the modules it needs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cone": (
        "PolarizedCone",
        "boundary_class",
        "cone_log_discrepancy",
        "curve_cone",
        "dcc_scan",
        "lc_boundary_exists",
        "limiting_discrepancy",
        "natural_valuation",
        "valuation_limit",
        "vol_plus_table",
        "vol_upper_bound",
    ),
    "envelope": ("nef_envelope_trace", "volume", "zariski_oracle"),
    "errors": ("DomainError", "MalformedInputError", "OracleSizeError", "SingularSystemError"),
    "graph": ("Edge", "ResolutionGraph", "Vertex"),
    "lattice": ("QVector", "SymForm", "rat", "rat_str"),
    "tower": (
        "FreeBlowup",
        "ModelTower",
        "SatelliteBlowup",
        "blow_up",
        "invariance_report",
        "pushforward",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
