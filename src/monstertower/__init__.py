"""Structural invariants of plane curve germs and Goursat distributions.

Exact-arithmetic computation of RVT code words, Puiseux characteristics,
multiplicity sequences, proximity diagrams and vertical orders, with two
mutually checking engines: Nash lifting through the monster tower and
embedded resolution by point blowups.
"""

from . import errors
from .series import DEFAULT_PRECISION, TruncatedSeries, parse_series
from .words import (
    GoursatWord,
    RvtWord,
    WordDecomposition,
    count_words,
    enumerate_words,
    is_critical,
    is_entirely_critical,
    parse_word,
)
from .puiseux import (
    CaseTag,
    EPair,
    PuiseuxCharacteristic,
    TRIVIAL_PC,
    classify_case,
    e_value,
    essential_characteristic,
    euclid,
    is_restricted,
    parse_pc,
    pc_from_word_back,
    pc_from_word_front,
    peel_case,
    restrict_pc,
    word_from_pc,
    word_from_pc_front_inverse,
)
from .invariants import (
    InvariantPanel,
    ProximityDiagram,
    VerticalOrders,
    invariant_panel,
    multiplicity_sequence,
    proximity_diagram,
    restricted_vertical_orders,
    vertical_orders,
)
from .tower import (
    DEFAULT_MAX_LEVEL,
    CurveGerm,
    LiftStep,
    LiftTrace,
    chart_equations,
    curve_from_chart_data,
    lift_once,
    lift_to_regularization,
    lift_trace,
    parse_curve,
)
from .blowup import (
    BlowupName,
    BlowupState,
    BlowupStep,
    BlowupTrace,
    CrossCheckReport,
    blowup_once,
    blowup_resolve,
    cross_check,
)
from .corpus import CurveSpec, generate_corpus, with_precision_retry

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PRECISION", "TruncatedSeries", "parse_series",
    "GoursatWord", "RvtWord", "WordDecomposition", "count_words", "enumerate_words",
    "is_critical", "is_entirely_critical", "parse_word",
    "CaseTag", "EPair", "PuiseuxCharacteristic", "TRIVIAL_PC", "classify_case", "e_value",
    "essential_characteristic", "euclid", "is_restricted", "parse_pc", "pc_from_word_back",
    "pc_from_word_front", "peel_case", "restrict_pc", "word_from_pc",
    "word_from_pc_front_inverse",
    "InvariantPanel", "ProximityDiagram", "VerticalOrders", "invariant_panel",
    "multiplicity_sequence", "proximity_diagram", "restricted_vertical_orders",
    "vertical_orders",
    "DEFAULT_MAX_LEVEL", "CurveGerm", "LiftStep", "LiftTrace", "chart_equations",
    "curve_from_chart_data", "lift_once", "lift_to_regularization", "lift_trace",
    "parse_curve",
    "BlowupName", "BlowupState", "BlowupStep", "BlowupTrace", "CrossCheckReport",
    "blowup_once", "blowup_resolve", "cross_check",
    "CurveSpec", "generate_corpus", "with_precision_retry",
]
