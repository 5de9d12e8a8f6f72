"""Value semantics of the package's records: equality and hashing by field,
same class only, read-only fields, no instance dictionary, constructor
defaults and checks."""

import copy
import importlib
import pickle

import pytest

from monstertower.blowup import BlowupName, blowup_resolve, cross_check
from monstertower.corpus import generate_corpus
from monstertower.errors import (
    ConstantParameterization,
    InvalidCharacteristic,
    InvalidSymbol,
    NotCritical,
)
from monstertower.invariants import VerticalOrders, invariant_panel
from monstertower.puiseux import CaseTag, EPair, PuiseuxCharacteristic, classify_case, e_value
from monstertower.records import Record
from monstertower.series import parse_series
from monstertower.tower import CoordName, CurveGerm, lift_trace, parse_curve
from monstertower.words import RvtWord, WordDecomposition

MODULES = ("words", "puiseux", "invariants", "tower", "blowup", "corpus")


def _records() -> dict:
    """One record of every class, each built afresh by the code that makes it."""
    germ = parse_curve("x=t^4, y=t^6+t^7")[0]
    trace = lift_trace(germ)
    blow = blowup_resolve(germ)
    panel = invariant_panel(word="RVTVV")
    built = (
        panel.word, RvtWord("RRVTRV").decompose(), panel.pc, classify_case(panel.pc),
        panel.proximity, panel.orders, panel, trace.steps[0].new_name, germ, trace.steps[0],
        trace, blow.steps[0].new_name, blow.steps[0], blow, cross_check(germ),
        generate_corpus(1)[0],
    )
    return {type(r).__name__: r for r in built}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_class_is_covered():
    for module in MODULES:
        importlib.import_module(f"monstertower.{module}")
    assert {c.__name__ for c in _subclasses(Record)} == set(_records())


@pytest.mark.parametrize("name", sorted(_records()))
def test_equal_fields_give_equal_records(name):
    first, second = _records()[name], _records()[name]
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert repr(first) == repr(second)
    assert copy.copy(first) == first and copy.deepcopy(first) == first


@pytest.mark.parametrize("name", ["RvtWord", "PuiseuxCharacteristic", "CaseTag", "InvariantPanel",
                                  "CoordName", "BlowupName", "CurveSpec"])
def test_records_pickle(name):
    record = _records()[name]
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("name", sorted(_records()))
def test_fields_are_read_only_slots(name):
    record = _records()[name]
    field = record._fields[0]
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is value
    assert not hasattr(record, "__dict__")


def test_a_differing_field_breaks_equality():
    assert CoordName("x", 1) != CoordName("x", 2)
    assert RvtWord("RV") != RvtWord("RVT")
    assert PuiseuxCharacteristic((2, 3)) != PuiseuxCharacteristic((2, 5))


def test_equality_is_same_class_only():
    assert CoordName("x", 1) != BlowupName("x", 1)
    assert BlowupName("x", 1) != CoordName("x", 1)
    assert PuiseuxCharacteristic((2, 3)) != (2, 3)
    assert RvtWord("RV") != "RV"


def test_repr_names_the_fields():
    assert repr(CaseTag("B", 1)) == "CaseTag(kind='B', tau=1)"
    assert repr(BlowupName("y", 2)) == "BlowupName(base='y', order=2)"


def test_defaults_and_normalisation():
    assert RvtWord() == RvtWord("")
    assert VerticalOrders((1, 2)).first_level == 2
    assert CaseTag("A").tau is None
    assert PuiseuxCharacteristic(["4", 6, 7]).lambdas == (4, 6, 7)
    assert CurveGerm(parse_series("t^2"), parse_series("t^3")).base_point == (0, 0)


def test_constructor_checks_still_raise():
    with pytest.raises(InvalidSymbol):
        RvtWord("X")
    with pytest.raises(NotCritical):
        WordDecomposition(RvtWord(""), 1, "TV")
    with pytest.raises(NotCritical):
        WordDecomposition(RvtWord("RR"), 1, "V")
    with pytest.raises(InvalidCharacteristic):
        PuiseuxCharacteristic((4, 6))
    with pytest.raises(ConstantParameterization):
        CurveGerm(parse_series("0"), parse_series("0"))


def test_epair_is_a_plain_tuple_pair():
    pair = e_value("RV")
    assert isinstance(pair, EPair) and isinstance(pair, tuple)
    assert pair == (pair.a, pair.b) and hash(pair) == hash((pair.a, pair.b))
    assert EPair(2, 3) == (2, 3)


def test_blowup_records_hold_steps_and_traces():
    records = _records()
    assert records["BlowupStep"]._fields == (
        "level", "chart_letter", "denominator", "new_coord", "denominator_name", "new_name",
        "symbol", "divisor_flag", "orders",
    )
    assert records["BlowupTrace"]._fields == ("germ", "steps")
    assert records["CrossCheckReport"]._fields == ("nash", "blowup", "word_multiplicities", "ok")
    report = records["CrossCheckReport"]
    assert (report.nash, report.blowup) == (records["LiftTrace"], records["BlowupTrace"])
