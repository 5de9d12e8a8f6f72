"""Structural invariants of plane curve germs and Goursat distributions.

Exact-arithmetic computation of RVT code words, Puiseux characteristics,
multiplicity sequences, proximity diagrams and vertical orders, with two
mutually checking engines: Nash lifting through the monster tower and
embedded resolution by point blowups.

Importing the package loads only ``errors``; every public name below is
imported from its submodule on first use (PEP 562), so a word-layer caller
never loads the series arithmetic or the engines, and an engine caller
loads ``words``, ``series``, ``tower``, ``blowup``, ``corpus``, ``records``,
``errors`` and ``defaults``, never the characteristic or panel modules
(``puiseux``, ``invariants``).
"""

import importlib

from . import errors

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "defaults": ("DEFAULT_MAX_LEVEL",),
    "series": ("TruncatedSeries", "parse_series"),
    "words": (
        "RvtWord", "VerticalOrders", "WordDecomposition", "count_words", "enumerate_words",
        "is_critical", "is_entirely_critical", "multiplicity_sequence", "parse_word",
    ),
    "puiseux": (
        "CaseTag", "EPair", "PuiseuxCharacteristic", "TRIVIAL_PC", "classify_case", "e_value",
        "essential_characteristic", "euclid", "is_restricted", "parse_pc", "pc_from_word_back",
        "pc_from_word_front", "peel_case", "restrict_pc", "word_from_pc",
        "word_from_pc_front_inverse",
    ),
    "invariants": (
        "InvariantPanel", "ProximityDiagram", "invariant_panel", "proximity_diagram",
        "restricted_vertical_orders", "vertical_orders",
    ),
    "tower": (
        "ChartStep", "CurveGerm", "LiftTrace", "curve_from_chart_data", "lift_once",
        "lift_trace", "parse_curve",
    ),
    "blowup": (
        "BlowupName", "BlowupTrace", "CrossCheckReport",
        "blowup_once", "blowup_resolve", "cross_check",
    ),
    "corpus": ("CurveSpec", "generate_corpus"),
}
_SUBMODULE = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
