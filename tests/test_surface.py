"""The whole public surface probed with wrongly typed values (ROADMAP item 24).

Every callable of the package's lazy map is called once per parameter and
per value of one fixed table of wrong values (``WRONG``), the other
parameters taking valid values (``SURFACE``).  A value of a type the
parameter documents (a negative int where an int is taken, None where
None is, a str or an ``RvtWord`` where a word is) is not wrong, so it is
not substituted.  Each call must raise a ``MonsterTowerError``, or a
``TypeError`` whose message names the refused type (the value's, or an
entry's); nothing else is allowed, and neither is an answer, unless
``ACCEPTED`` lists the value with its reason.  An iterator that is
returned is drained, so a refusal made only on iteration is a gap.  The
gaps still open are pinned in ``PINNED``, each a strict xfail.
"""

import inspect
import re
from fractions import Fraction
from itertools import islice

import pytest

import monstertower
from monstertower.errors import MonsterTowerError
from monstertower.puiseux import parse_pc
from monstertower.series import parse_series
from monstertower.tower import parse_curve
from monstertower.words import RvtWord

# the fixed table of wrong values, by kind
WRONG = {
    "None": None, "bool": True, "float": 2.5, "bytes": b"RV", "str": "RV", "list of str": ["RV"],
    "dict": {1: 2}, "object": object(), "negative int": -3, "Fraction": Fraction(1, 2),
    "RvtWord": RvtWord("RV"),
}

# the kinds of WRONG a parameter's documented type holds
INT = frozenset({"negative int"})
OPTIONAL_INT = INT | {"None"}
WORD = frozenset({"str", "RvtWord"})  # a word or its text
STR = frozenset({"str"})
ANY = frozenset()  # a value of a type no kind of the table has

_GERM = parse_curve("x=t^2, y=t^3")[0]
_PC = parse_pc("[4;6,7]")
_T, _T2, _T3 = (parse_series(text) for text in ("t", "t^2", "t^3"))

# name -> {parameter: (a valid value, the kinds it documents)}, in
# signature order
SURFACE = {
    "TruncatedSeries": {"coefficients": ([1, 2], ANY)},
    "parse_series": {"text": ("t^2", STR)},
    "RvtWord": {"symbols": ("RV", STR)},
    "VerticalOrders": {"values": ((1, 2), ANY), "first_level": (2, INT)},
    "WordDecomposition": {"prefix": (RvtWord(""), {"RvtWord"}), "rho": (2, INT),
                          "critical_block": ("V", STR)},
    "count_words": {"n": (3, INT)},
    "enumerate_words": {"max_len": (3, INT), "min_len": (1, INT)},
    "is_critical": {"symbols": ("RV", WORD)},
    "is_entirely_critical": {"symbols": ("VT", WORD)},
    "multiplicity_sequence": {"word": ("RVV", WORD)},
    "parse_word": {"text": ("RV", STR)},
    "CaseTag": {"kind": ("B", STR), "tau": (1, OPTIONAL_INT)},
    "PuiseuxCharacteristic": {"lambdas": ((2, 3), ANY)},
    "classify_case": {"pc": (_PC, ANY)},
    "e_value": {"symbols": ("RV", WORD)},
    "essential_characteristic": {"leading": (3, INT), "exponents": ([4], ANY)},
    "euclid": {"a": (3, INT), "b": (5, INT)},
    "is_restricted": {"pc": (_PC, ANY)},
    "parse_pc": {"text": ("[2;3]", STR)},
    "pc_from_word_back": {"word": ("RVV", WORD)},
    "pc_from_word_front": {"word": ("RVV", WORD)},
    "peel_case": {"pc": (_PC, ANY)},
    "restrict_pc": {"pc": (parse_pc("[2;3]"), ANY)},
    "word_from_pc": {"pc": (_PC, ANY)},
    "word_from_pc_front_inverse": {"pc": (_PC, ANY)},
    "invariant_panel": {"word": ("RVV", WORD | {"None"}), "pc": (_PC, {"None"})},
    "proximity_diagram": {"word": ("RVV", WORD)},
    "restricted_vertical_orders": {"word": ("RVV", WORD)},
    "vertical_orders": {"word": ("RVV", WORD)},
    "CurveGerm": {"x": (_T2, ANY), "y": (_T3, ANY), "base_point": ((0, 0), ANY)},
    "LiftTrace": {"germ": (_GERM, ANY), "steps": ((), ANY),
                  "regularization_level": (None, OPTIONAL_INT)},
    "curve_from_chart_data": {"path": ("o", STR), "retained": (_T, ANY), "new_coord": (_T2, ANY),
                              "constants": (None, {"None"})},
    "lift_once": {"retained": (_T2, ANY), "new_coord": (_T3, ANY), "level": (1, INT),
                  "chain_origin": (None, OPTIONAL_INT)},
    "lift_trace": {"c": (_GERM, ANY), "levels": (None, OPTIONAL_INT), "max_level": (64, INT)},
    "parse_curve": {"text": ("x=t^2, y=t^3", STR), "precision": (None, {"None"})},
    "BlowupTrace": {"germ": (_GERM, ANY), "steps": ((), ANY),
                    "regularization_level": (None, OPTIONAL_INT)},
    "blowup_once": {"a": (_T2, ANY), "b": (_T3, ANY), "level": (1, INT),
                    "b_flag": (None, OPTIONAL_INT)},
    "blowup_resolve": {"c": (_GERM, ANY), "max_level": (64, INT)},
    "cross_check": {"c": (_GERM, ANY), "max_level": (64, INT)},
    "generate_corpus": {"count": (2, INT), "seed": (1, INT)},
}

# callables that take exactly one of their parameters, the others None
ONE_OF = {"invariant_panel"}

# the names of the lazy map that are not called, each with its reason
NOT_PROBED = {
    "DEFAULT_MAX_LEVEL": "a constant",
    "TRIVIAL_PC": "a constant",
    # records that check nothing (records.py): the engines and the panel
    # build them from values they have checked
    "InvariantPanel": "a record that checks nothing",
    "ProximityDiagram": "a record that checks nothing",
    "ChartStep": "a record that checks nothing",
    "BlowupName": "a record that checks nothing",
    "CrossCheckReport": "a record that checks nothing",
    "CurveSpec": "a record that checks nothing",
    "EPair": "a NamedTuple pair (a, b) that e_value builds from a checked word",
}

# cross-type values a parameter takes, each with its reason
ACCEPTED = {
    ("WordDecomposition", "prefix", "str"):
        "a word's text is read as the word (RvtWord(prefix)), as every word parameter is",
    **{("parse_curve", "precision", kind): "ignored; kept for bench/run.py until ROADMAP item 1"
       for kind in WRONG if kind != "None"},
}

# gaps left open, each pinned by a strict xfail
PINNED = {
    (name, p): "the per-step engine call checks no argument; a check would add work to every step"
    for name, params in (("lift_once", ("retained", "new_coord", "level", "chain_origin")),
                         ("blowup_once", ("a", "b", "level", "b_flag")))
    for p in params
}


def _outcome(name: str, param: str, value) -> str | None:
    """None when the call refuses ``value`` as the probe requires, "returned"
    when it answers, and else a description of the wrong outcome."""
    kwargs = {p: None if name in ONE_OF else valid for p, (valid, _) in SURFACE[name].items()}
    kwargs[param] = value
    try:
        result = getattr(monstertower, name)(**kwargs)
        if inspect.isgenerator(result):
            list(islice(result, 1000))
    except MonsterTowerError:
        return None
    except TypeError as exc:
        entries = value if isinstance(value, list) else ()
        names = {type(v).__name__ for v in (value, *entries)}
        if any(re.search(rf"\b{n}\b", str(exc)) for n in names):
            return None
        return f"TypeError naming no refused type: {exc}"
    except Exception as exc:  # any other exception is a finding
        return f"{type(exc).__name__}: {exc}"
    return "returned"


def _cases():
    for name, params in SURFACE.items():
        for param in params:
            reason = PINNED.get((name, param))
            marks = (pytest.mark.xfail(strict=True, reason=f"ROADMAP item 24: {reason}")
                     if reason else ())
            yield pytest.param(name, param, marks=marks, id=f"{name}.{param}")


def test_the_probe_walks_the_lazy_map():
    names = set(monstertower.__all__)
    assert len(names) == 49
    assert set(SURFACE) | set(NOT_PROBED) == names and not set(SURFACE) & set(NOT_PROBED)
    for name, params in SURFACE.items():
        assert list(inspect.signature(getattr(monstertower, name)).parameters) == list(params), name
    for name, param, _ in ACCEPTED:
        assert param in SURFACE[name]
    for name, param in PINNED:
        assert param in SURFACE[name]


@pytest.mark.parametrize("name, param", _cases())
def test_each_wrong_value_is_refused_by_its_type(name, param):
    documented = SURFACE[name][param][1]
    found = {}
    for kind, value in WRONG.items():
        if kind in documented:
            continue
        outcome = _outcome(name, param, value)
        if (name, param, kind) in ACCEPTED:
            outcome = None if outcome == "returned" else f"listed as accepted, but {outcome}"
        if outcome is not None:
            found[kind] = outcome
    assert found == {}


@pytest.mark.parametrize("kwargs, got", [({}, "NoneType, NoneType"),
                                         ({"word": "RVV", "pc": _PC}, "str, PuiseuxCharacteristic")],
                         ids=["neither", "both"])
def test_invariant_panel_takes_exactly_one_of_word_and_pc(kwargs, got):
    # None is a documented value of each parameter alone, so the probe
    # above leaves this refusal out
    with pytest.raises(TypeError, match=rf"^give exactly one of word, pc; got \({got}\)$"):
        monstertower.invariant_panel(**kwargs)
