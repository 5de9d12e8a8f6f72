import random
from fractions import Fraction as F
from math import factorial

import pytest

from monstertower.corpus import generate_corpus
from monstertower.errors import (
    ConstantParameterization,
    IntegrationMismatch,
    LevelOutOfRange,
    MaxLevelExceeded,
    MonsterTowerError,
    NonPrimitiveParameterization,
    ParseError,
)
from monstertower.series import TruncatedSeries, parse_series
from monstertower.tower import (
    CoordName,
    CurveGerm,
    curve_from_chart_data,
    lift_once,
    lift_trace,
    parse_curve,
    parse_curve_trace,
)
from monstertower.invariants import vertical_orders
from monstertower.words import parse_word
from conftest import agree_on_prefix


def germ(text, precision=None):
    # parse_curve accepts a term budget for the benchmark and ignores it;
    # tests parametrized by the budgets they once ran at pass it through
    return parse_curve(text, precision)[0]


QUINTIC = "x=t^5, y=t^7"
# the germs of the benchmark's deep lifts, the corpus-shaped ones as printed
DEEP_LIFT_GERMS = (
    "x=t^15, y=t^24+t^25",
    "x=t^13, y=1*t^61",
    "x=t^11, y=1*t^57",
    "x=t^12, y=1*t^30 + 1*t^61",
    "x=t^12, y=1*t^14 + 1*t^16 + 1*t^57",
    "x=t^6+t^9, y=t^8+t^11",
    "x=t^4+t^5, y=t^6+t^7",
    "x=t^6+t^7, y=t^9+t^10",
    "x=t^8+t^9, y=t^12+t^14+t^15",
    "x=t^3+t^4, y=t^7",
    "@level 7 chart=oioioio, r=t, n=t",
    "@level 5 chart=ooioi, r=t, n=t",
    "@level 6 chart=oiiooi, r=t, n=t",
    "@level 8 chart=oiioioii, r=t, n=t",
)
# Lifts that the tests build twice and compare on 64 terms of each series:
# their exact equality reads thousands of terms (e is about 3,300 at level 7
# of x=t^14, y=14*t^18+14*t^19, whose numerators reach 7,502 bits).
DEEP_COMPARES = {
    "x=t^15, y=t^24+t^25",
    "x=t^12, y=1*t^30 + 1*t^61",
    "x=t^12, y=1*t^14 + 1*t^16 + 1*t^57",
    "x=t^6+t^7, y=t^9+t^10",
    "x=t^8+t^9, y=t^12+t^14+t^15",
    "x=t^14, y=14*t^18+14*t^19",
}


def same_lift(text, a, b):
    """a == b, on 64 terms of each series for the germs of DEEP_COMPARES."""
    return agree_on_prefix(a, b, 64) if text in DEEP_COMPARES else a == b


class TestLiftOnce:
    def test_first_step_ordinary(self):
        step = lift_once(parse_series("t^5"), parse_series("t^7"), level=1)
        assert (step.chart_letter, step.symbol) == ("o", "R")
        assert step.new_coord == parse_series("7/5*t^2")

    def test_inverted_step(self):
        step = lift_once(
            parse_series("t^5"),
            parse_series("7/5*t^2"),
            level=2,
            retained_name=CoordName("x", 0),
            new_name=CoordName("y", 1),
        )
        assert (step.chart_letter, step.symbol) == ("i", "V")
        assert step.new_coord == parse_series("25/14*t^3")
        assert str(step.new_name) == "x'"

    def test_tangency_step(self):
        step = lift_once(
            parse_series("7/5*t^2"),
            parse_series("25/14*t^3"),
            level=3,
            retained_name=CoordName("y", 1),
            new_name=CoordName("x", 1),
            chain_origin=2,
        )
        assert (step.chart_letter, step.symbol) == ("o", "T")
        assert step.new_coord == parse_series("375/196*t")


class TestQuinticGolden:
    def test_series_and_point(self):
        trace = lift_trace(germ(QUINTIC), levels=5)
        expect = ["7/5*t^2", "25/14*t^3", "375/196*t", "2744/1875*t", "537824/703125"]
        names = ["y'", "x'", "x''", "y''", "y^(3)"]
        for step, series, name in zip(trace.steps, expect, names):
            assert step.new_coord == parse_series(series)
            assert str(step.new_name) == name
        assert trace.chart_path == "oioio"
        assert trace.word.symbols == "RVTVR"
        assert trace.data_point == (0, 0, 0, 0, 0, 0, F(537824, 703125))

    def test_regularization(self):
        trace = lift_trace(germ(QUINTIC))
        assert trace.regularization_level == 4
        assert trace.word.symbols == "RVTV"

    def test_curve_words_down_the_chain(self):
        trace = lift_trace(germ(QUINTIC))
        assert [trace.curve_word(k).symbols for k in range(6)] == [
            "RVTV", "RRV", "RV", "R", "", "",
        ]

    def test_lift_word_chain(self):
        w = parse_word("RVTV")
        chain = []
        for _ in range(4):
            w = w.lift()
            chain.append(w.symbols)
        assert chain == ["RRV", "RV", "R", ""]

    def test_data_point_convenience(self):
        trace = lift_trace(germ(QUINTIC), levels=5)
        assert trace.chart_path == "oioio"
        assert trace.data_point[-1] == F(537824, 703125)


class TestRamphoid:
    def test_word(self):
        assert lift_trace(germ("x=t^2, y=t^4+t^5")).curve_word(0).symbols == "RRV"

    def test_lift_series(self):
        trace = lift_trace(germ("x=t^2, y=t^4+t^5"), levels=3)
        assert trace.steps[0].new_coord == parse_series("2*t^2 + 5/2*t^3")
        assert trace.steps[1].new_coord == parse_series("2 + 15/4*t")
        assert trace.steps[2].new_coord == parse_series("8/15*t")
        assert trace.word.symbols == "RRV"
        assert trace.chart_path == "ooi"


class TestLevelledGermExample:
    # germ at level 2: x = t^14, y = 14(t^18 + t^19)
    CURVE = "x=t^14, y=14*t^18+14*t^19"

    def test_point_word(self):
        assert lift_trace(germ(self.CURVE), levels=7).word.symbols == "RVTTVRV"

    def test_curve_word_at_level_two(self):
        assert lift_trace(germ(self.CURVE)).curve_word(2).symbols == "RRVRV"

    def test_level_two_actives(self):
        trace = lift_trace(germ(self.CURVE), levels=2)
        assert trace.steps[0].new_coord == parse_series("18*t^4 + 19*t^5")
        x_prime = parse_series("14*t^10").quotient(parse_series("72 + 95*t"))
        assert trace.steps[1].new_coord == x_prime

    def test_data_point_level_seven(self):
        trace = lift_trace(germ(self.CURVE), levels=7)
        assert trace.chart_path == "oiooioi"
        assert trace.data_point == (0, 0, 0, 0, 0, 0, 0, F(8707129344, 1225), 0)


class TestTrivialGerms:
    def test_immersed_transverse(self):
        trace = lift_trace(germ("x=t, y=t^2"))
        assert trace.regularization_level == 1
        assert trace.word.symbols == "R"
        assert trace.curve_word(0).normalize().symbols == ""

    def test_point_word_all_r(self):
        assert lift_trace(germ("x=t, y=t^3"), levels=5).word.symbols == "RRRRR"

    def test_vertical_line(self):
        trace = lift_trace(germ("x=0*t, y=t"))
        assert trace.word.symbols == "R"


class TestWordConsistency:
    @pytest.mark.parametrize(
        "curve,precision",
        [(QUINTIC, 64), ("x=t^2, y=t^4+t^5", 64), ("x=t^14, y=14*t^18+14*t^19", 96)],
    )
    def test_split_recovers_curve_words(self, curve, precision):
        c = germ(curve, precision)
        trace = lift_trace(c)
        r = trace.regularization_level
        full = lift_trace(c, levels=r).word
        for k in range(r + 1):
            point, tail = full.split_at_level(k)
            assert point == lift_trace(c, levels=k).word
            if k < r:
                assert tail == trace.curve_word(k)
        assert trace.curve_word(0) == full.split_at_level(0)[1]

    def test_curve_words_match_the_split(self):
        # curve_word reads chain origins off the steps; split_at_level
        # re-scans the full word and is the reference
        germs = [spec.curve() for seed in (178212, 20230817)
                 for spec in generate_corpus(60, seed)]
        germs += [germ(text) for text in DEEP_LIFT_GERMS]
        for c in germs:
            trace = lift_trace(c)
            full = trace.word
            for k in range(len(full) + 1):
                assert trace.curve_word(k) == full.split_at_level(k)[1], (str(c), k)
        with pytest.raises(LevelOutOfRange):
            trace.curve_word(-1)

    def test_cut_equals_shorter_lift(self):
        c = germ("x=t^14, y=14*t^18+14*t^19", 96)
        trace = lift_trace(c, levels=9)
        for k in range(-1, 10):  # on 64 terms of each series, as in DEEP_COMPARES
            assert agree_on_prefix(trace.continued(levels=k), lift_trace(c, levels=k), 64)
        # r = 7: a cut keeps the regularization level at 7 and clears it below
        assert [trace.continued(levels=k).regularization_level for k in (6, 7, 8)] == [None, 7, 7]

    def test_views_need_regularization(self):
        c = germ(QUINTIC)
        short = lift_trace(c, levels=3)
        assert short.regularization_level is None
        for view in (short.order_profile, short.multiplicities, short.vertical_orders,
                     short.curve_word):
            with pytest.raises(MaxLevelExceeded):
                view()
        longer = lift_trace(c, levels=7)
        regular = lift_trace(c)
        assert longer.order_profile() == regular.order_profile()
        assert longer.multiplicities() == regular.multiplicities()
        assert longer.vertical_orders() == regular.vertical_orders()
        assert longer.curve_word(1) == regular.curve_word(1)

    def test_word_lengths(self, curve=QUINTIC):
        trace = lift_trace(germ(curve))
        r = trace.regularization_level
        for k in range(r + 1):
            assert len(trace.curve_word(k)) == r - k

    def test_pc_leading_entry(self):
        from monstertower.puiseux import pc_from_word_front

        for curve in (QUINTIC, "x=t^2, y=t^4+t^5", "x=t^15, y=t^24+t^25"):
            c = germ(curve, 96)
            pc = pc_from_word_front(lift_trace(c).curve_word(0))
            assert pc.leading == min(c.x.valuation(), c.y.valuation())


class TestVerticalOrdersFromCurve:
    def test_worked_example(self):
        trace = lift_trace(germ("x=t^15, y=t^24+t^25", 96))
        assert trace.order_profile() == (15, 24, 9, 6, 3, 3, 0, 2, 1)
        assert tuple(trace.vertical_orders()) == (6, 3, 3, 0, 2, 0)

    def test_immersed_all_zero(self):
        assert tuple(lift_trace(germ("x=t, y=t^3")).vertical_orders()) == ()

    def test_matches_word_differences(self):
        for curve in (QUINTIC, "x=t^2, y=t^4+t^5", "x=t^15, y=t^24+t^25"):
            trace = lift_trace(germ(curve, 96))
            assert tuple(trace.vertical_orders()) == tuple(
                vertical_orders(trace.curve_word(0))
            )


class TestMultiplicities:
    def test_quintic(self):
        assert lift_trace(germ(QUINTIC)).multiplicities() == (5, 2, 2, 1, 1)


@pytest.fixture
def derivative_calls(monkeypatch):
    """Every series ``TruncatedSeries.derivative`` is called on, in order."""
    calls = []
    original = TruncatedSeries.derivative

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(TruncatedSeries, "derivative", counting)
    return calls


@pytest.fixture
def lazy_made(monkeypatch):
    """Every series made by an operation, in order."""
    made = []
    original = TruncatedSeries._lazy.__func__

    def recording(cls, *args):
        made.append(original(cls, *args))
        return made[-1]

    monkeypatch.setattr(TruncatedSeries, "_lazy", classmethod(recording))
    return made


def slopes_made(trace):
    """The new coordinates of a trace that a lift makes as a series: all
    but the constant zeros, which are the zero polynomial."""
    return [id(s.new_coord) for s in trace.steps if s.new_coord.valuation_or_none() is not None]


class TestDerivativesPerLift:
    """A lift differentiates nothing: its series are x, y and one slope per
    step, steps + 2 in all, each new coordinate read off the active pair."""

    def test_quintic(self, derivative_calls, lazy_made):
        c = germ(QUINTIC)
        trace = lift_trace(c)
        assert len(trace.steps) == 4 and derivative_calls == []
        assert [id(s) for s in lazy_made] == slopes_made(trace)
        assert len(slopes_made(trace)) == 4

    @pytest.mark.parametrize(
        "curve,levels",
        [
            (QUINTIC, 2),
            (QUINTIC, 7),
            ("x=t^15, y=t^24+t^25", None),
            ("x=1+t^3, y=-2+t^4-3/7*t^5", None),
            ("x=t, y=t^3", None),
            ("@level 7 chart=oioioio, r=t, n=t", None),
        ],
    )
    def test_steps_plus_two(self, derivative_calls, lazy_made, curve, levels):
        c = germ(curve, 96)
        derivative_calls.clear()  # a leveled germ is integrated and re-lifted
        lazy_made.clear()
        trace = lift_trace(c, levels=levels)
        assert derivative_calls == []
        assert [id(s) for s in lazy_made] == slopes_made(trace)
        series = {id(c.x), id(c.y), *(id(s.new_coord) for s in trace.steps)}
        assert len(series) == len(trace.steps) + 2


def lift_facts(trace):
    """What the lift decided at each level, as the consumers of a trace read
    it: the JSON (names, letters, symbols, valuations, constant terms,
    chain origins, regularization level) and the deciding orders."""
    return trace.to_json_dict(), [s.orders for s in trace.steps]


class TestContinuedLift:
    """A trace continued from its last step, whether a shorter lift or a
    cut of a longer one, is the trace a fresh lift gives."""

    @pytest.mark.parametrize("corpus", ["default", "held-out", "charts"])
    def test_continuing_equals_a_fresh_lift(self, corpus):
        if corpus == "charts":
            germs = [germ(text) for text in DEEP_LIFT_GERMS if text.startswith("@level")]
        else:
            seed = 178212 if corpus == "default" else 20230817
            germs = [spec.curve() for spec in generate_corpus(60, seed)]
        for c in germs:
            regular = lift_trace(c)
            r = regular.regularization_level
            # from each level below regularity, as a cut and as a shorter
            # lift; lift_trace itself continues from level 0
            starts = [regular.continued(levels=j) for j in range(1, r)]
            for start in starts + [lift_trace(c, levels=j) for j in range(1, r)]:
                j = len(start.steps)
                assert lift_facts(start.continued()) == lift_facts(regular), (str(c), j)
                assert lift_facts(start.continued(levels=r)) == lift_facts(regular), (str(c), j)
            # a trace that reached regularity is continued by nothing, and
            # past it only to a level asked for
            assert regular.continued() == regular
            past = lift_trace(c, levels=r + 1)
            assert lift_facts(regular.continued(levels=r + 1)) == lift_facts(past), str(c)
            assert lift_facts(past.continued()) == lift_facts(past), str(c)

    @pytest.mark.parametrize("text", [QUINTIC, "x=t^14, y=14*t^18+14*t^19",
                                      "@level 7 chart=oioioio, r=t, n=t"])
    def test_series_equal_a_fresh_lift(self, text):
        # every coefficient of every step's series, not only what the views read
        c = germ(text)
        regular = lift_trace(c)
        r = regular.regularization_level
        full = lift_trace(c, levels=r + 2)
        for j in range(r + 3):
            start = full.continued(levels=j)
            assert same_lift(text, start.continued(levels=r + 2), full), j
            assert same_lift(text, start.continued(), regular if j <= r else start), j

    @pytest.mark.parametrize("text", DEEP_LIFT_GERMS + ("@level 2 chart=oo, r=t, n=t",))
    def test_parsed_trace_is_the_lift_to_the_presented_level(self, text):
        # a base germ's empty trace, or the rebuild's check trace of chart data
        trace = parse_curve_trace(text)
        c, level = parse_curve(text)
        assert same_lift(text, trace, lift_trace(c, levels=level))
        regular = lift_trace(c)
        r = regular.regularization_level
        assert same_lift(text, trace.continued(), regular if level <= r else trace)

    def test_budget_holds_for_a_trace_already_regular(self):
        # the check trace of oo reaches r = 1 at level 1; a budget of 0 still
        # refuses it, as a fresh lift does
        trace = parse_curve_trace("@level 2 chart=oo, r=t, n=t")
        assert trace.regularization_level == 1
        for start in (trace, trace.continued(levels=1), trace.continued(levels=0)):
            with pytest.raises(MaxLevelExceeded, match="^no regular lift within 0 levels;"):
                start.continued(max_level=0)
        assert trace.continued(max_level=1) == trace

    def test_budget_stops_a_continued_lift(self):
        trace = lift_trace(germ(QUINTIC), levels=2)
        with pytest.raises(MaxLevelExceeded, match="^no regular lift within 3 levels;"):
            trace.continued(max_level=3)
        with pytest.raises(MaxLevelExceeded, match="^no regular lift within 1 levels;"):
            trace.continued(max_level=1)


class TestErrors:
    @pytest.mark.parametrize("x,y,point", [("1+t^2", "t^3", (1, 0)), ("t^2", "5+t^3", (0, 5))])
    def test_germ_refuses_a_constant_term(self, x, y, point):
        # a germ stores recentered coordinates; from_series recenters them
        from monstertower.blowup import cross_check

        name = "x" if point[0] else "y"
        with pytest.raises(ValueError, match=rf"^{name} has constant term {max(point)};"
                                             r".*CurveGerm\.from_series$"):
            CurveGerm(parse_series(x), parse_series(y))
        c = CurveGerm.from_series(parse_series(x), parse_series(y))
        assert c.base_point == point
        report = cross_check(c)
        assert report.nash.data_point[:2] == point and report.nash.word.symbols == "RV"

    def test_non_primitive(self):
        # refused when it is built, before any engine runs
        with pytest.raises(NonPrimitiveParameterization, match="share the factor 2;"):
            CurveGerm.from_series(parse_series("t^2"), parse_series("t^4"))

    def test_max_level(self):
        with pytest.raises(MaxLevelExceeded):
            lift_trace(germ(QUINTIC), max_level=2)

    def test_constant(self):
        with pytest.raises(ConstantParameterization):
            germ("x=3, y=1/2")

    def test_determinism(self):
        a = lift_trace(germ(QUINTIC))
        b = lift_trace(germ(QUINTIC))
        assert a == b

    def test_both_active_derivatives_zero(self):
        # constant actives: both derivatives are exactly zero
        message = r"^both active derivatives dx/dt and dy'/dt vanish identically at level 3$"
        with pytest.raises(ConstantParameterization, match=message):
            lift_once(
                parse_series("2"),
                parse_series("1/2"),
                level=3,
                retained_name=CoordName("x", 0),
                new_name=CoordName("y", 1),
            )

    def test_zero_integration_variable(self):
        # r = 0: dy = y' dx cannot be integrated against x
        message = r"^integration variable x of dy is constant at level 1$"
        with pytest.raises(ConstantParameterization, match=message):
            curve_from_chart_data("o", parse_series("0"), parse_series("t"))

    def test_constant_integration_variable_named_at_its_level(self):
        # the given r = y' is constant, so dx = x' dy' cannot be integrated;
        # the retained coordinate of a chart step always moves
        message = r"^integration variable y' of dx is constant at level 2$"
        with pytest.raises(ConstantParameterization, match=message):
            curve_from_chart_data("oi", parse_series("5"), parse_series("t"))


def chart_germ_equations(path):
    """Equations of the lift of the chart germ with r = n = t along ``path``."""
    return lift_trace(germ(f"@level {len(path)} chart={path}, r=t, n=t"),
                      levels=len(path)).chart_equations()


class TestChartEquations:
    def test_worked_chart(self):
        assert chart_germ_equations("oioio") == [
            "dy = y' dx",
            "dx = x' dy'",
            "dx' = x'' dy'",
            "dy' = y'' dx''",
            "dy'' = y^(3) dx''",
        ]

    def test_single_level(self):
        assert chart_germ_equations("o") == ["dy = y' dx"]

    def test_two_levels(self):
        assert chart_germ_equations("oi") == ["dy = y' dx", "dx = x' dy'"]

    def test_rejects_inverted_start(self):
        # chart data is given in the chart family that retains x first
        with pytest.raises(ParseError, match="start with an ordinary choice"):
            parse_curve("@level 2 chart=io, r=t, n=t")


class TestCurveFromChartData:
    def test_integration_example(self):
        c = curve_from_chart_data("oio", parse_series("t"), parse_series("t"))
        assert c.x == parse_series("1/6*t^3")
        assert c.y == parse_series("1/8*t^4")

    def test_line_germ(self):
        c = curve_from_chart_data("o", parse_series("t"), parse_series("3"))
        assert c.y == parse_series("3*t")

    def test_lift_rebuild_round_trip(self):
        # every lifted active of this germ is a polynomial, so its top pair
        # is chart data
        base = germ("x=t, y=t^3+2*t^5")
        trace = lift_trace(base, levels=5)
        top = trace.steps[-1]
        rebuilt = curve_from_chart_data(
            trace.chart_path, top.retained, top.new_coord, trace.data_point
        )
        assert rebuilt.x == base.x
        assert rebuilt.y == base.y
        assert rebuilt.base_point == base.base_point

    def test_all_o_path_keeps_the_base_point_of_r(self):
        # the lift keeps x recentered, so r = 3 + t is x with x0 = 3
        c, _ = parse_curve("@level 1 chart=o, r=3+t, n=t")
        assert c.base_point == (3, 0)
        assert lift_trace(c, levels=1).data_point == (3, 0, 0)

    def test_refuses_a_stream(self):
        # chart data is polynomial: the integral of a stream has no degree bound
        stream = parse_series("t").quotient(parse_series("1 - t"))
        for r, n in ((stream, parse_series("t")), (parse_series("t"), stream)):
            with pytest.raises(ValueError, match="^the integrand is not a polynomial$"):
                curve_from_chart_data("oi", r, n)

    def test_relift_reproduces_the_actives(self):
        # The rebuild checks only the letters of its re-lift.  Once they
        # agree, the lift's top pair is (r, n), with r recentered on an
        # all-o path, where the retained coordinate is x.
        rng = random.Random(20)

        def poly():
            terms = [(F(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(0, 3))
                     for _ in range(rng.randint(1, 3))]
            return TruncatedSeries.from_terms(terms)

        passed = recentered = 0
        for _ in range(500):
            path = "o" + "".join(rng.choice("oi") for _ in range(rng.randint(0, 5)))
            r, n = poly(), poly()
            constants = None
            if rng.random() < 0.5:
                constants = [rng.randint(-2, 2) for _ in range(len(path) + 2)]
            try:
                c = curve_from_chart_data(path, r, n, constants)
            except MonsterTowerError:
                continue
            top = lift_trace(c, levels=len(path)).steps[-1]
            assert top.new_coord == n, (path, r, n)
            if "i" not in path and r.constant_term():
                r = r.recenter()[1]
                recentered += 1
            assert top.retained == r, (path, r, n)
            passed += 1
        assert passed >= 200 and recentered >= 20

    def test_constant_actives_rejected(self):
        with pytest.raises(ConstantParameterization):
            curve_from_chart_data("o", parse_series("2"), parse_series("3"))

    def test_path_conflict(self):
        # an inverted letter demands a new coordinate vanishing at t=0;
        # n = 1 + t puts the rebuilt curve in the ordinary chart instead
        with pytest.raises(IntegrationMismatch):
            curve_from_chart_data("oi", parse_series("t"), parse_series("1 + t"))


class TestCurveGrammar:
    def test_base(self):
        c, level = parse_curve("x=t^5, y=t^7")
        assert level == 0
        assert c.x.valuation() == 5

    def test_leveled(self):
        c, level = parse_curve("@level 3 chart=oio, r=t, n=t")
        assert level == 3
        assert c.x == parse_series("1/6*t^3")

    def test_leveled_with_constants(self):
        text = "@level 1 chart=o, r=t, n=2, constants=0,1,0"
        c, _ = parse_curve(text)
        assert c.base_point == (0, 1)
        assert c.y == parse_series("2*t")

    @pytest.mark.parametrize(
        "bad",
        [
            "x=t^5",
            "y=t^7",
            "@level 2 chart=o, r=t, n=t",
            "@level x chart=o, r=t, n=t",
            "z=t",
            "x=t^2, y=t^3, y=t^5",
            "x=t^2, y=t^3, z=5",
            "x=t^2, y=t^3, constants=1,2",
            "@level 2 chart=oi, r=t, n=t, foo=3",
            "@level 2 chart=oi, r=t, n=t, constants=0,0,abc,0",
            "@level 2 chart=oi, r=t, n=t, constants=",
            "@level 2 chart=oi, r=t, n=t, constants=0,0,1/0,0",
            "@level 2 chart=oi, r=t, n=t, constants=0,0,1e2,0",
            "@level 2 chart=oi, r=t, n=t, constants=0,0,1.5,0",
            "@level 2 chart=oi, r=t, n=t, constants=0,0,1e999999999,0",
            "x=t^2, y=1/0*t^3",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_curve(bad)

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("x=t^2, y=t^3, z=5", "unknown field 'z'; expected x, y"),
            ("x=t^2, y=t^3, constants=1,2", "unknown field 'constants'; expected x, y"),
            ("@level 2 chart=oi, r=t, n=t, foo=3",
             "unknown field 'foo'; expected chart, r, n, constants"),
        ],
    )
    def test_unknown_field_is_named(self, bad, message):
        with pytest.raises(ParseError) as info:
            parse_curve(bad)
        assert str(info.value) == message

    def test_corpus_spec_text_reads_back(self):
        # the text check prints for a failing corpus curve, "+ -11/4*t^58"
        # and all, is input that names the same curve
        for spec in generate_corpus(220):
            assert parse_curve(str(spec)) == (spec.curve(), 0), str(spec)

    def test_base_point_recentering(self):
        c, _ = parse_curve("x=1+t^2, y=2+t^3")
        assert c.base_point == (1, 2)
        assert c.x.valuation() == 2


class TestOnDemandCoefficients:
    """Lifts and rebuilds that read few coefficients of deep or wide series."""

    def test_level_400_chart_rebuilds_without_recursion(self):
        # Rebuilding integrates 400 times and the check re-lifts 400 levels;
        # reading the result walks all of them.  With r = t and n = t along
        # o^400 the curve is x = t, y = t^401/401!, one degree per
        # integration.
        c, level = parse_curve("@level 400 chart=" + "o" * 400 + ", r=t, n=t")
        assert level == 400
        assert c.x == parse_series("t")
        assert c.y == TruncatedSeries.from_terms([(F(1, factorial(401)), 401)])
        assert c.base_point == (0, 0)

    def test_wide_gap_lifts_to_level_301(self):
        c = CurveGerm.from_series(parse_series("t^2"), parse_series("t^601"))
        trace = lift_trace(c, max_level=1000)
        assert trace.regularization_level == 301
        assert trace.word.symbols == "R" * 300 + "V"

    def test_trace_does_not_depend_on_the_window(self):
        # the term budget that parse_curve accepts for the benchmark changes
        # nothing
        traces = [
            lift_trace(germ("x=t^15, y=t^24+t^25", p)).to_json_dict()
            for p in (None, 1, 192, 1536)
        ]
        assert traces[0]["word"] == "RVVVRVT"
        assert all(trace == traces[0] for trace in traces)


class TestCovers:
    """A coordinate that is identically constant while the retained one has
    order m + 1 > 1 makes the germ a cover of degree m + 1."""

    @pytest.mark.parametrize(
        "curve,level",
        [("x=t^2+t^3, y=2*t^2+2*t^3", 2), ("x=t^2+t^3, y=t^4+2*t^5+t^6", 3)],
    )
    def test_double_covers(self, curve, level):
        message = (rf"^dy\S*/dt vanishes identically at level {level} while dx/dt has "
                   "order 1: the germ is a cover of degree 2$")
        with pytest.raises(NonPrimitiveParameterization, match=message):
            lift_trace(germ(curve))

    def test_constant_base_coordinate(self):
        # the x axis traversed twice: y is constant from the start
        with pytest.raises(NonPrimitiveParameterization, match="cover of degree 2$"):
            lift_trace(germ("x=t^2+t^3, y=5"))


class TestPrimitiveWhenBuilt:
    """The exponent-gcd test runs once, when the germ is built, on
    polynomial coordinates; a stream coordinate is refused before it."""

    def test_even_stream_is_refused(self):
        # t^2 / (1 - t^2) = t^2 + t^4 + ... is a stream, refused as such,
        # also when it is y; t^2 + t^4 written out shares the factor 2
        x = parse_series("t^2").quotient(parse_series("1 - t^2"))
        for args, name in (((x, parse_series("t^6")), "x"), ((parse_series("t^6"), x), "y")):
            with pytest.raises(ValueError, match=rf"^{name} is a stream; a germ's coordinates "
                                                 "are polynomials, built with parse_series or "
                                                 r"TruncatedSeries\.from_terms$"):
                CurveGerm(*args)
        with pytest.raises(NonPrimitiveParameterization, match="share the factor 2;"):
            CurveGerm(parse_series("t^2 + t^4"), parse_series("t^6"))

    def test_chart_data_relift_reads_no_gcd(self, monkeypatch):
        # the rebuilt germ's x and y are read when it is built; the re-lift
        # that checks it, and a later lift, read nothing
        reads = []
        original = TruncatedSeries.exponent_gcd

        def counting(series):
            reads.append(series)
            return original(series)

        monkeypatch.setattr(TruncatedSeries, "exponent_gcd", counting)
        c = germ("@level 3 chart=oio, r=t, n=t")
        lift_trace(c)
        assert len(reads) == 2 and reads[0] is c.x and reads[1] is c.y
