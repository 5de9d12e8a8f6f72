import pytest

from monstertower.blowup import (
    BlowupName,
    BlowupState,
    blowup_once,
    blowup_resolve,
    cross_check,
)
from monstertower.corpus import generate_corpus
from monstertower.errors import (
    InsufficientPrecision,
    MaxLevelExceeded,
    MismatchReport,
    NonPrimitiveParameterization,
)
from monstertower.invariants import multiplicity_sequence
from monstertower.series import parse_series
from monstertower.tower import CurveGerm, lift_to_regularization, parse_curve


def germ(text, precision=64):
    return parse_curve(text, precision)[0]


class TestBlowupOnce:
    def test_first_quotient(self):
        c = germ("x=t^5, y=t^7")
        state = BlowupState(c.x, c.y, BlowupName("x", 0), BlowupName("y", 0), None, None, 0)
        state, step = blowup_once(state)
        assert step.new_coord.agrees_with(parse_series("t^2"))
        assert (str(step.new_name), step.symbol) == ("y_1", "R")

    def test_full_coordinate_chain(self):
        c = germ("x=t^5, y=t^7")
        state = BlowupState(c.x, c.y, BlowupName("x", 0), BlowupName("y", 0), None, None, 0)
        seen = []
        for _ in range(5):
            state, step = blowup_once(state)
            seen.append((str(step.new_name), str(step.new_coord).split(" + O")[0]))
        assert seen == [
            ("y_1", "t^2"),
            ("x_1", "t^3"),
            ("x_2", "t"),
            ("y_2", "t"),
            ("y_3", "1"),  # tie divides the newer coordinate by the older
        ]

    def test_recentering_divisor(self):
        # x = t^15, y = t^24 + t^25 passes through x_3 = 1, so later
        # quotients divide by x_3 - 1
        trace = blowup_resolve(germ("x=t^15, y=t^24+t^25", 96))
        assert trace.steps[4].new_coord.constant_term() == 1
        assert trace.profile == (15, 24, 9, 6, 3, 3, 0, 2, 1)


class TestBlowupResolve:
    def test_quintic(self):
        trace = blowup_resolve(germ("x=t^5, y=t^7"))
        assert trace.word.symbols == "RVTV"
        assert trace.regularity_level == 4
        assert trace.multiplicities == (5, 2, 2, 1, 1)

    def test_ramphoid_word(self):
        assert blowup_resolve(germ("x=t^2, y=t^4+t^5")).word.symbols == "RRV"

    def test_smooth_curve(self):
        trace = blowup_resolve(germ("x=t, y=t^3"))
        assert trace.word.symbols == "R"
        assert trace.regularity_level == 1

    def test_order_profile_example(self):
        trace = blowup_resolve(germ("x=t^15, y=t^24+t^25", 96))
        assert trace.word.symbols == "RVVVRVT"
        nash = lift_to_regularization(germ("x=t^15, y=t^24+t^25", 96))
        assert trace.profile == nash.order_profile()

    def test_non_primitive_rejected(self):
        with pytest.raises(NonPrimitiveParameterization):
            blowup_resolve(germ("x=t^3, y=t^6"))

    def test_budget(self):
        with pytest.raises(MaxLevelExceeded):
            blowup_resolve(germ("x=t^5, y=t^7"), max_level=2)


class TestConstantPair:
    """Coordinates that are exactly constant read constant to any budget."""

    def test_blowup_once(self):
        state = BlowupState(
            parse_series("0"), parse_series("3"), BlowupName("x", 2), BlowupName("y", 1),
            None, None, 4,
        )
        message = r"^both coordinates x_2 and y_1 constant to the term budget 64 at blowup 5$"
        with pytest.raises(InsufficientPrecision, match=message):
            blowup_once(state)

    def test_blowup_resolve(self):
        # CurveGerm refuses two constant coordinates itself; build one past
        # that check to reach the resolver's own
        c = object.__new__(CurveGerm)
        for field, value in (("x", parse_series("0")), ("y", parse_series("0")), ("base_point", (1, 2))):
            object.__setattr__(c, field, value)
        message = r"^both coordinates x_0 and y_0 constant to the term budget 64 at blowup 0$"
        with pytest.raises(InsufficientPrecision, match=message):
            blowup_resolve(c)


class TestCrossCheck:
    @pytest.mark.parametrize(
        "curve,precision",
        [
            ("x=t^5, y=t^7", 64),
            ("x=t^15, y=t^24+t^25", 96),
            ("x=t^2, y=t^4+t^5", 64),
            ("x=t, y=t^2", 64),
            ("x=t^14, y=14*t^18+14*t^19", 96),
        ],
    )
    def test_golden_curves_agree(self, curve, precision):
        report = cross_check(germ(curve, precision))
        assert report.ok
        assert report.nash_word == report.blowup_word

    def test_multiplicities_match_word_route(self):
        c = germ("x=t^5, y=t^7")
        report = cross_check(c)
        word = lift_to_regularization(c).word
        assert report.nash_multiplicities == multiplicity_sequence(word)
        assert report.blowup_multiplicities == report.nash_multiplicities

    def test_small_random_corpus(self):
        for spec in generate_corpus(25, seed=99):
            assert cross_check(spec.curve(64)).ok

    def test_vertical_orders_agree_with_word_route(self):
        # divisor-intersection orders along the lift vs multiplicity
        # differences read off the word
        from monstertower.invariants import vertical_orders

        def check(c):
            trace = lift_to_regularization(c)
            assert tuple(trace.vertical_orders()) == tuple(
                vertical_orders(trace.curve_word(0))
            )
            return True

        for spec in generate_corpus(25, seed=7):
            assert check(spec.curve(64))

    def test_lifts_once(self, lift_calls):
        assert cross_check(germ("x=t^15, y=t^24+t^25", 96)).ok
        assert lift_calls == [None]

    def test_mismatch_raises_with_report(self):
        # sanity: cross_check raising is observable via a doctored comparison
        c = germ("x=t^5, y=t^7")
        report = cross_check(c)
        assert report.to_json_dict()["agree"] is True
        with pytest.raises(MismatchReport):
            raise MismatchReport("forced", report)
