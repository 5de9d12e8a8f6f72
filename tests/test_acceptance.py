"""Acceptance suite: every criterion at zero tolerance (exact arithmetic).

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; each test also prints its own summary line.
"""

from fractions import Fraction as F

from monstertower.blowup import blowup_resolve, cross_check
from monstertower.corpus import generate_corpus
from monstertower.errors import RemainderInvalid
from monstertower.invariants import (
    multiplicity_sequence,
    proximity_diagram,
    restricted_vertical_orders,
    vertical_orders,
)
from monstertower.puiseux import (
    e_value,
    essential_characteristic,
    euclid,
    parse_pc,
    pc_from_word_back,
    pc_from_word_front,
    restrict_pc,
    word_from_pc,
    word_from_pc_front_inverse,
)
from monstertower.series import parse_series
from monstertower.tower import lift_trace, parse_curve
from monstertower.words import enumerate_words, parse_word


def _ok(n, message):
    print(f"ACCEPTANCE {n:02d} PASS: {message}")


def test_criterion_01_puiseux_recursions():
    word = "RRVTRRRVTTTV"
    assert str(pc_from_word_front(word)) == "[27;63,83]"
    assert str(pc_from_word_back(word)) == "[27;63,83]"
    chain = {
        "R": "[1;]",
        "RV": "[2;3]",
        "RRRRV": "[2;9]",
        "RVTTTV": "[9;11]",
        "RRRRRVTTTV": "[9;47]",
        "RVTRRRVTTTV": "[27;36,56]",
    }
    for w, expect in chain.items():
        assert str(pc_from_word_front(w)) == expect
    assert e_value("RVT") == (3, 7)
    assert e_value("RRRVTTTV") == (9, 38)
    assert e_value("RRRRVV") == (3, 17)
    _ok(1, "PC(RRVTRRRVTTTV)=[27;63,83] by both recursions; chain and E values exact")


def test_criterion_02_cw_and_euclid():
    assert euclid(2, 7) == "TTV"
    assert euclid(5, 8) == "VVV"
    assert word_from_pc(parse_pc("[2;7]")).symbols == "RRRV"
    assert word_from_pc(parse_pc("[4;6,7]")).symbols == "RVRV"
    assert word_from_pc_front_inverse(parse_pc("[10;15,27]")).symbols == "RVRRRVTVR"
    _ok(2, "Euc(2,7)=TTV, Euc(5,8)=VVV, CW[2;7]=RRRV, CW[4;6,7]=RVRV, "
           "front-inverse [10;15,27]=RVRRRVTVR")


def test_criterion_03_four_word_family():
    base = parse_word("RRRVRVRV")
    preimages = {u.symbols for u in base.lift_preimages()}
    expect = {
        "RRRRVRVRV": "[8;36,38,39]",
        "RVRRVRVRV": "[16;24,36,38,39]",
        "RVTRVRVRV": "[24;32,36,38,39]",
        "RVTTVRVRV": "[28;36,38,39]",
    }
    assert preimages == set(expect)
    for word, pc in expect.items():
        assert str(pc_from_word_front(word)) == pc
    assert str(pc_from_word_front(base)) == "[8;28,30,31]"
    _ok(3, "four lift-preimages of RRRVRVRV carry the expected characteristics")


def test_criterion_04_quintic_lift():
    c, _ = parse_curve("x=t^5, y=t^7")
    trace = lift_trace(c, levels=5)
    golden = ["7/5*t^2", "25/14*t^3", "375/196*t", "2744/1875*t", "537824/703125"]
    for step, series in zip(trace.steps, golden):
        assert step.new_coord == parse_series(series)
    assert trace.chart_path == "oioio"
    assert trace.word.symbols == "RVTVR"
    assert lift_trace(c).curve_word(0).symbols == "RVTV"
    assert lift_trace(c).regularization_level == 4
    w = parse_word("RVTV")
    chain = []
    for _ in range(4):
        w = w.lift()
        chain.append(w.symbols)
    assert chain == ["RRV", "RV", "R", ""]
    _ok(4, "x=t^5,y=t^7: exact series, chart oioio, RVTVR/RVTV, r=4, lift chain")


def test_criterion_05_level_seven_germ():
    c, _ = parse_curve("x=t^14, y=14*t^18+14*t^19")
    assert lift_trace(c).curve_word(2).symbols == "RRVRV"
    trace = lift_trace(c, levels=7)
    assert trace.chart_path == "oiooioi"
    assert trace.data_point == (0, 0, 0, 0, 0, 0, 0, F(8707129344, 1225), 0)
    assert trace.word.symbols == "RVTTVRV"
    _ok(5, "level-7 germ: word RRVRV at k=2, data point 8707129344/1225 in oiooioi")


def test_criterion_06_invariant_examples():
    assert multiplicity_sequence("RVTVV") == (8, 3, 3, 2, 1, 1)
    assert tuple(vertical_orders("RVVVRVT")) == (6, 3, 3, 0, 2, 0)
    assert tuple(vertical_orders("RRVVRVT")) == (0, 3, 3, 0, 2, 0)
    profile = (15, 24, 9, 6, 3, 3, 0, 2, 1)
    c, _ = parse_curve("x=t^15, y=t^24+t^25")
    assert lift_trace(c).order_profile() == profile
    assert blowup_resolve(c).profile == profile
    _ok(6, "multiplicities of RVTVV, VO vectors, and the order profile by both engines")


def test_criterion_07_dual_recursion_exhaustive():
    words = list(enumerate_words(12, min_len=0))
    mismatches = [
        w.symbols for w in words if pc_from_word_front(w) != pc_from_word_back(w)
    ]
    assert mismatches == []
    assert len(words) == 46369  # empty word plus 46368 nonempty ones
    _ok(7, f"front = back on all {len(words)} valid words of length <= 12")


def test_criterion_08_round_trips():
    count = 0
    for w in enumerate_words(12):
        if w.is_critical():
            assert word_from_pc(pc_from_word_front(w)) == w
            count += 1
    dual = 0
    for w in enumerate_words(10, min_len=0):
        for u in w.lift_preimages():
            assert u.lift() == w
            dual += 1
    by_lift = {}
    for u in enumerate_words(10):
        by_lift.setdefault(u.lift().symbols, set()).add(u.symbols)
    for w in enumerate_words(9, min_len=0):
        assert by_lift.get(w.symbols, set()) == {u.symbols for u in w.lift_preimages()}
    _ok(8, f"CW round-trip on {count} critical words <= 12; "
           f"lift/preimage duality on {dual} pairs <= 10")


def test_criterion_09_proximity_and_orders():
    checked = 0
    for w in enumerate_words(12, min_len=0):
        diagram = proximity_diagram(w)
        assert diagram.check_sums(), w.symbols
        m = diagram.multiplicities()
        vo = tuple(m[j] - m[j + 1] for j in range(max(len(m) - 2, 0)))
        assert all(v >= 0 for v in vo)
        if len(w):
            assert sum(vo) == m[0] - 1
        checked += 1
    groups = {}
    for w in enumerate_words(10):
        groups.setdefault(w.goursat_word().symbols, set()).add(
            tuple(restricted_vertical_orders(w))
        )
    assert all(len(ros) == 1 for ros in groups.values())
    _ok(9, f"proximity sums, VO telescoping on {checked} words <= 12; "
           f"RO constant on {len(groups)} Goursat classes <= 10")


GOLDEN_CURVES = (
    "x=t^5, y=t^7",
    "x=t^2, y=t^4+t^5",
    "x=t^15, y=t^24+t^25",
    "x=t^14, y=14*t^18+14*t^19",
    "x=t, y=t^2",
)


def test_criterion_10_engine_equivalence():
    for text in GOLDEN_CURVES:
        c, _ = parse_curve(text)
        assert cross_check(c).ok
    # both corpus seeds
    for seed in (178212, 20230817):
        specs = generate_corpus(220, seed)
        assert len(specs) == 220
        for spec in specs:
            report = cross_check(spec.curve())
            assert report.ok, str(spec)
    _ok(10, f"Nash and blowup engines agree on {len(GOLDEN_CURVES)} golden curves "
            f"and on 220/220 curves of each of two corpora")


def test_criterion_11_direct_puiseux_oracle():
    specs = generate_corpus(220)
    for spec in specs:
        direct = essential_characteristic(spec.n, spec.exponents)
        c = spec.curve()
        via_word = pc_from_word_front(lift_trace(c).curve_word(0))
        assert direct == via_word, str(spec)
    _ok(11, f"essential-exponent scan equals the word route on all {len(specs)} "
            "corpus curves")


def test_restriction_consistency_bonus():
    # supporting check for the restricted characteristic: remainder rule vs
    # Goursat route wherever the rule applies (length <= 10)
    for w in enumerate_words(10):
        pc = pc_from_word_front(w)
        try:
            direct = restrict_pc(pc)
        except RemainderInvalid:
            continue
        assert direct == pc_from_word_front(w.goursat_word())
