"""Value semantics of the package's records: equality and hashing by field,
same class only, read-only fields, no instance dictionary, constructor
defaults and checks."""

import copy
import importlib
import json
import operator
import pickle
import re

import pytest

from monstertower.blowup import BlowupName, CrossCheckReport, blowup_resolve, cross_check
from monstertower.corpus import CurveSpec, generate_corpus
from monstertower.errors import (
    ConstantParameterization,
    InvalidCharacteristic,
    InvalidSymbol,
    NotCritical,
)
from monstertower.invariants import (
    InvariantPanel,
    ProximityDiagram,
    VerticalOrders,
    invariant_panel,
)
from monstertower.puiseux import CaseTag, EPair, PuiseuxCharacteristic, classify_case, e_value
from monstertower.records import Record
from monstertower.series import parse_series
from monstertower.tower import (
    ChartStep, CoordName, CurveGerm, Trace, _name_walk, lift_trace, parse_curve,
)
from monstertower.words import RvtWord, WordDecomposition

MODULES = ("words", "puiseux", "invariants", "tower", "blowup", "corpus")


def _records() -> dict:
    """One record of every class, each built afresh by the code that makes
    it, keyed by its class name; the two engines' steps, both of class
    ``ChartStep``, are keyed by the engine that makes them, LiftStep and
    BlowupStep.  A step holds no coordinate name, so the two name classes
    are built by their constructors."""
    germ = parse_curve("x=t^4, y=t^6+t^7")[0]
    trace = lift_trace(germ)
    blow = blowup_resolve(germ)
    panel = invariant_panel(word="RVTVV")
    built = (
        panel.word, RvtWord("RRVTRV").decompose(), panel.pc, classify_case(panel.pc),
        panel.proximity, panel.orders, panel, CoordName("y", 1), germ, trace,
        BlowupName("y", 1), blow, cross_check(germ), generate_corpus(1)[0],
    )
    steps = {"LiftStep": trace.steps[0], "BlowupStep": blow.steps[0]}
    return {**{type(r).__name__: r for r in built}, **steps}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_class_is_covered():
    # Trace is the base of both engines' traces, with no instances of its own
    for module in MODULES:
        importlib.import_module(f"monstertower.{module}")
    classes = {type(r).__name__ for r in _records().values()}
    assert {c.__name__ for c in _subclasses(Record)} == classes | {"Trace"}


@pytest.mark.parametrize("name", sorted(_records()))
def test_equal_fields_give_equal_records(name):
    first, second = _records()[name], _records()[name]
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert repr(first) == repr(second)
    assert copy.copy(first) == first and copy.deepcopy(first) == first


# the records that hold a lazy series, whose pending ``extend`` closure does
# not pickle
LAZY = {"LiftStep", "LiftTrace", "BlowupStep", "BlowupTrace", "CrossCheckReport"}


@pytest.mark.parametrize("name", sorted(set(_records()) - LAZY))
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


# the records that iterate, each over one field; no record is a sequence
ITERABLE = {"RvtWord": "symbols", "PuiseuxCharacteristic": "lambdas", "VerticalOrders": "values"}


def _raises(message, operation, *args):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        operation(*args)


@pytest.mark.parametrize("name", sorted(_records()))
def test_records_are_not_sequences(name):
    record = _records()[name]
    kind = type(record).__name__
    field = ITERABLE.get(name)
    if field is None:
        _raises(f"'{kind}' object is not iterable", iter, record)
        _raises(f"argument of type '{kind}' is not iterable", lambda: "R" in record)
        with pytest.raises(TypeError):
            json.dumps(record)
    else:
        values = getattr(record, field)
        assert list(record) == list(values)
        assert ("R" in record) == ("R" in values) and (values[0] in record) is True
    if name == "RvtWord":
        assert len(record) == len(record.symbols) and bool(record) and not RvtWord("")
    else:
        _raises(f"object of type '{kind}' has no len()", len, record)
        assert bool(record) is True
    _raises(f"'{kind}' object is not subscriptable", lambda: record[0])
    _raises(f"'{kind}' object is not reversible", reversed, record)
    for op, compare in (("<", operator.lt), ("<=", operator.le), (">", operator.gt),
                        (">=", operator.ge)):
        _raises(f"'{op}' not supported between instances of '{kind}' and '{kind}'",
                compare, record, record)
    _raises(f"unsupported operand type(s) for +: '{kind}' and '{kind}'", lambda: record + record)
    _raises(f"unsupported operand type(s) for *: '{kind}' and 'int'", lambda: record * 2)
    _raises(f"unsupported operand type(s) for *: 'int' and '{kind}'", lambda: 2 * record)
    assert not hasattr(record, "count") and not hasattr(record, "index")
    fields = tuple(getattr(record, f) for f in record._fields)
    assert record != fields and fields != record and not record == fields


def test_names_of_two_classes_with_equal_fields_bump_apart():
    # the name walk bumps a name within its class: a CoordName and a
    # BlowupName with equal fields hash alike but are never equal
    [(_, coord, _)] = _name_walk(CoordName("x", 11), CoordName("y", 11), "o")
    [(_, blow, _)] = _name_walk(BlowupName("x", 11), BlowupName("y", 11), "o")
    assert (coord, blow) == (CoordName("y", 12), BlowupName("y", 12))
    assert hash(coord) == hash(blow) and coord != blow


def test_a_lift_shares_its_names():
    # a step holds no name: two lifts of one germ read the same names off
    # their letters, each a CoordName
    first, second = (lift_trace(parse_curve("x=t^4, y=t^6+t^7")[0]) for _ in range(2))
    assert first._names(first.steps) == second._names(second.steps)
    for names in first._names(first.steps):
        assert {type(n) for n in names} == {CoordName}


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


# the records that check nothing, built by Record.__new__; BlowupName
# inherits CoordName's fields
PASS_THROUGH = (CoordName, BlowupName, ChartStep, CrossCheckReport, ProximityDiagram,
                InvariantPanel, CurveSpec)
# the records that check or default their values, each with its own __new__
CHECKED = (RvtWord, WordDecomposition, PuiseuxCharacteristic, CurveGerm, Trace,
           VerticalOrders, CaseTag)


@pytest.mark.parametrize("cls", PASS_THROUGH, ids=lambda cls: cls.__name__)
def test_a_record_that_checks_nothing_has_no_constructor(cls):
    assert "__new__" not in cls.__dict__ and cls.__new__ is Record.__new__


@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
def test_a_record_that_checks_keeps_its_constructor(cls):
    assert "__new__" in cls.__dict__


@pytest.mark.parametrize("cls", PASS_THROUGH, ids=lambda cls: cls.__name__)
def test_a_wrong_number_of_values_is_a_type_error(cls):
    n = len(cls._fields)
    for values in ((0,) * (n - 1), (0,) * (n + 1)):
        message = f"{cls.__name__} takes {n} values ({', '.join(cls._fields)}), got {len(values)}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            cls(*values)


def test_a_record_takes_its_values_by_position_only():
    with pytest.raises(TypeError):
        CoordName(base="y", order=4)


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
    assert type(records["BlowupStep"]) is type(records["LiftStep"])
    assert records["BlowupStep"]._fields == (
        "level", "chart_letter", "retained", "new_coord", "symbol", "chain_origin", "orders",
    )
    assert records["BlowupTrace"]._fields == ("germ", "steps", "regularization_level")
    assert records["LiftTrace"]._fields == ("germ", "steps", "regularization_level")
    assert records["CrossCheckReport"]._fields == ("nash", "blowup", "word_multiplicities", "ok")
    report = records["CrossCheckReport"]
    assert (report.nash, report.blowup) == (records["LiftTrace"], records["BlowupTrace"])
