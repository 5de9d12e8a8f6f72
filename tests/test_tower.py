from fractions import Fraction as F
from math import factorial

import pytest

from monstertower.corpus import generate_corpus
from monstertower.errors import (
    ConstantParameterization,
    IntegrationMismatch,
    LevelOutOfRange,
    MaxLevelExceeded,
    NonPrimitiveParameterization,
    ParseError,
)
from monstertower.series import TruncatedSeries, parse_series
from monstertower.tower import (
    CoordName,
    CurveGerm,
    chart_equations,
    curve_from_chart_data,
    lift_once,
    lift_trace,
    parse_curve,
)
from monstertower.invariants import vertical_orders
from monstertower.words import parse_word


def germ(text, precision=None):
    # parse_curve accepts a term budget for the benchmark and ignores it;
    # tests parametrized by the budgets they once ran at pass it through
    return parse_curve(text, precision)[0]


QUINTIC = "x=t^5, y=t^7"


class TestLiftOnce:
    def test_first_step_ordinary(self):
        step = lift_once(parse_series("t^5"), parse_series("t^7"), level=1)
        assert (step.chart_letter, step.symbol) == ("o", "R")
        assert step.new_coord.agrees_with(parse_series("7/5*t^2"))

    def test_inverted_step(self):
        step = lift_once(
            parse_series("t^5"),
            parse_series("7/5*t^2"),
            level=2,
            retained_name=CoordName("x", 0),
            new_name=CoordName("y", 1),
        )
        assert (step.chart_letter, step.symbol) == ("i", "V")
        assert step.new_coord.agrees_with(parse_series("25/14*t^3"))
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
        assert step.new_coord.agrees_with(parse_series("375/196*t"))


class TestQuinticGolden:
    def test_series_and_point(self):
        trace = lift_trace(germ(QUINTIC), levels=5)
        expect = ["7/5*t^2", "25/14*t^3", "375/196*t", "2744/1875*t", "537824/703125"]
        names = ["y'", "x'", "x''", "y''", "y^(3)"]
        for step, series, name in zip(trace.steps, expect, names):
            assert step.new_coord.agrees_with(parse_series(series))
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
        assert trace.steps[0].new_coord.agrees_with(parse_series("2*t^2 + 5/2*t^3"))
        assert trace.steps[1].new_coord.agrees_with(parse_series("2 + 15/4*t"))
        assert trace.steps[2].new_coord.agrees_with(parse_series("8/15*t"))
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
        assert trace.steps[0].new_coord.agrees_with(parse_series("18*t^4 + 19*t^5"))
        x_prime = parse_series("14*t^10").quotient(parse_series("72 + 95*t"))
        assert trace.steps[1].new_coord.agrees_with(x_prime)

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

    def test_prefix_equals_shorter_lift(self):
        c = germ("x=t^14, y=14*t^18+14*t^19", 96)
        trace = lift_trace(c, levels=9)
        for k in range(-1, 10):
            assert trace.prefix(k) == lift_trace(c, levels=k)
        with pytest.raises(LevelOutOfRange):
            trace.prefix(10)

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


class TestDerivativesPerLift:
    """A lift differentiates x, y and each fresh coordinate once; the chart
    choice, the regularity test and the next level share those derivatives."""

    def test_quintic(self, derivative_calls):
        c = germ(QUINTIC)
        assert len(lift_trace(c).steps) == 4
        assert len(derivative_calls) == 6

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
    def test_steps_plus_two(self, derivative_calls, curve, levels):
        c = germ(curve, 96)
        derivative_calls.clear()  # a leveled germ is integrated and re-lifted
        trace = lift_trace(c, levels=levels)
        assert len(derivative_calls) == len(trace.steps) + 2


class TestErrors:
    def test_non_primitive(self):
        with pytest.raises(NonPrimitiveParameterization):
            lift_trace(germ("x=t^2, y=t^4"))

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
        message = r"^integration variable x of dy vanishes identically at level 1$"
        with pytest.raises(ConstantParameterization, match=message):
            curve_from_chart_data("o", parse_series("0"), parse_series("t"))


class TestChartEquations:
    def test_worked_chart(self):
        assert chart_equations("oioio") == [
            "dy = y' dx",
            "dx = x' dy'",
            "dx' = x'' dy'",
            "dy' = y'' dx''",
            "dy'' = y^(3) dx''",
        ]

    def test_single_level(self):
        assert chart_equations("o") == ["dy = y' dx"]

    def test_two_levels(self):
        assert chart_equations("oi") == ["dy = y' dx", "dx = x' dy'"]

    def test_rejects_inverted_start(self):
        with pytest.raises(ParseError):
            chart_equations("io")


class TestCurveFromChartData:
    def test_integration_example(self):
        c = curve_from_chart_data("oio", parse_series("t"), parse_series("t"))
        assert c.x.agrees_with(parse_series("1/6*t^3"))
        assert c.y.agrees_with(parse_series("1/8*t^4"))

    def test_line_germ(self):
        c = curve_from_chart_data("o", parse_series("t"), parse_series("3"))
        assert c.y.agrees_with(parse_series("3*t"))

    def test_lift_rebuild_round_trip(self):
        base = germ(QUINTIC)
        trace = lift_trace(base, levels=5)
        top = trace.steps[-1]
        rebuilt = curve_from_chart_data(
            trace.chart_path, top.retained, top.new_coord, trace.data_point
        )
        assert rebuilt.x.agrees_with(base.x)
        assert rebuilt.y.agrees_with(base.y)

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
        assert c.x.agrees_with(parse_series("1/6*t^3"))

    def test_leveled_with_constants(self):
        text = "@level 1 chart=o, r=t, n=2, constants=0,1,0"
        c, _ = parse_curve(text)
        assert c.base_point == (0, 1)
        assert c.y.agrees_with(parse_series("2*t"))

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
        assert c.x.coefficients == parse_series("t").coefficients
        expected_y = TruncatedSeries.from_terms([(F(1, factorial(401)), 401)])
        assert c.y.coefficients == expected_y.coefficients
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
