from fractions import Fraction as F
from itertools import product
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monstertower import blowup
from monstertower.blowup import BlowupTrace, blowup_once, blowup_resolve, cross_check
from monstertower.cli import main
from monstertower.corpus import CurveSpec, generate_corpus
from monstertower.errors import (
    ConstantParameterization,
    IndeterminateValuation,
    MaxLevelExceeded,
    MismatchReport,
    MonsterTowerError,
    NonPrimitiveParameterization,
)
from monstertower.invariants import multiplicity_sequence
from monstertower.series import TruncatedSeries, parse_series
from monstertower.tower import (
    ChartStep,
    CurveGerm,
    LiftTrace,
    _least,
    lift_trace,
    parse_curve,
    parse_curve_trace,
)
from monstertower.words import RvtWord
from cli_sweep import _DISAGREEING_REALIZATIONS
from conftest import agree_on_prefix
from realization import critical_words, realization, swapped


# (forces, extend calls, coefficients computed) of a germ's construction and
# cross-check, keyed by the germ.  At e69da29, before valuations were read off
# the operands, the first three took 37 forces and 176 coefficients, 23 and
# 43, 148 and 3,324.  Two more forces, the germ's exponent-gcd reads of x
# and y, went when polynomials became term tuples: a germ's constant terms,
# valuations and exponent gcd are read off its terms.  A series whose
# constant term is 0 is its own recentering, so the germ x=t^5, y=t^7
# computes nothing and forces nothing.  While the Nash step divided two
# derivative series, the first took 41 extend calls and 96 coefficients, the
# third 1,488 and 2,847, the fourth 259 and 1,217 and the fifth 51 and 433,
# with the same forces; its slope, read off the active pair, computes no
# derivative coefficient.  A quotient or slope of term polynomials by a
# single term c * t^m is a term polynomial, so every Nash step that keeps
# x = t^n and every blowup by the recentered x computes nothing; streams
# start at the first inversion.  Before that the first germ took (5, 27,
# 63), the third (110, 1068, 2044), the fourth (18, 172, 804) and the fifth
# (13, 32, 264).  A stream's tail searches its valuation on the stream
# itself when it is made, where the tail once searched its own copy of the
# prefix: the first germ took (3, 17, 35), the third (108, 1006, 1936) and
# the fourth (16, 136, 660) before.
COMPUTED = {
    "x=t^15, y=t^24+t^25": (2, 12, 34),
    "x=t^5, y=t^7": (0, 0, 0),
    "x=t^12, y=t^14+t^16+t^57": (86, 957, 1914),  # 29 Nash levels
    # Searches that read up to 38 and 41 coefficients, forced in doubling
    # batches: fewer forces, some coefficients computed past the valuation.
    # Forcing one coefficient at a time, as at e29abf9, took 86 forces and
    # 1,130 coefficients, and 87 and 467.  A batch stops at the numerator
    # bound of the searched series, where it once stopped at a term budget
    # of 64 or more: corpus curve 74 computed 653 coefficients against a
    # budget.
    "x=t^10, y=72/5*t^14-11/4*t^52+3*t^53+3*t^57": (14, 107, 598),  # 690 bits
    # corpus curve 74: regular before its first inversion, all polynomials
    "x=t^3, y=3*t^6-5/7*t^47+2*t^52": (0, 0, 0),
}


def germ(text):
    return parse_curve(text)[0]


def blowup_after(step):
    """``blowup_once`` on the chart pair a step keeps."""
    return blowup_once(step.retained, step.new_coord, level=step.level + 1,
                       b_flag=step.chain_origin)


def names(trace, steps=None):
    """The (retained, new, deactivated) names after each step, as text:
    the name walk over the letters, from (x_0, y_0)."""
    return [tuple(map(str, n)) for n in trace._names(trace.steps if steps is None else steps)]


class TestBlowupOnce:
    def test_first_quotient(self):
        # y divided by x keeps x, the first coordinate: the letter o
        c = germ("x=t^5, y=t^7")
        step = blowup_once(c.x, c.y, level=1)
        assert step.new_coord == parse_series("t^2")
        assert (step.chart_letter, step.symbol, step.retained) == ("o", "R", c.x)
        trace = blowup_resolve(c)
        assert step == trace.steps[0]
        assert names(trace)[0] == ("x_0", "y_1", "y_0")

    def test_full_coordinate_chain(self):
        # four blowups resolve the quintic; the fifth is made on the pair the
        # last step keeps
        trace = blowup_resolve(germ("x=t^5, y=t^7"))
        steps = (*trace.steps, blowup_after(trace.steps[-1]))
        seen = [(n, step.new_coord) for (_, n, _), step in zip(names(trace, steps), steps)]
        assert seen == [
            ("y_1", parse_series("t^2")),
            ("x_1", parse_series("t^3")),
            ("x_2", parse_series("t")),
            ("y_2", parse_series("t")),
            ("y_3", parse_series("1")),  # tie divides the newer coordinate by the older
        ]

    def test_recentering_divisor(self):
        # x = t^15, y = t^24 + t^25 passes through x_3 = 1, so later
        # quotients divide by x_3 - 1
        trace = blowup_resolve(germ("x=t^15, y=t^24+t^25"))
        assert trace.steps[4].new_coord.constant_term() == 1
        assert trace.order_profile() == (15, 24, 9, 6, 3, 3, 0, 2, 1)
        assert trace.steps[4].new_coord.recenter() == (1, trace.steps[5].retained)
        assert names(trace)[5][0] == "x_3"

    def test_each_step_blows_up_the_pair_before_it(self):
        # each step is built twice and compared exactly, but the last of
        # x=t^12, y=t^14+t^16+t^57: its level-29 coordinate, bounded (1205,
        # 1160, 1160), ran past 20 s where steps 2-28 take at most 6 ms
        # each (Python 3.11.7, 2-vCPU Xeon VM), so it is compared
        # on 64 terms of each series
        for text, deep in (("x=t^15, y=t^24+t^25", 0), ("x=t^6+t^7, y=t^9+t^10", 0),
                           ("x=t^8+t^9, y=t^12+t^14+t^15", 0), ("x=t^14, y=14*t^18+14*t^19", 0),
                           ("x=t^12, y=t^30+t^61", 0), ("x=t^12, y=t^14+t^16+t^57", 1)):
            trace = blowup_resolve(germ(text))
            steps = trace.steps
            built, n = [blowup_after(s) for s in steps[:-1]], len(steps) - 1 - deep
            assert built[:n] == list(steps[1:n + 1])
            assert agree_on_prefix(built[n:], list(steps[n + 1:]), 64)
            for s, (r, new, _) in zip(steps, names(trace)):
                assert s.retained.constant_term() == 0
                assert {r[0], new[0]} == {"x", "y"}


class TestBlowupResolve:
    def test_quintic(self):
        trace = blowup_resolve(germ("x=t^5, y=t^7"))
        assert trace.word.symbols == "RVTV"
        assert trace.regularization_level == 4
        assert trace.multiplicities() == (5, 2, 2, 1, 1)

    def test_ramphoid_word(self):
        assert blowup_resolve(germ("x=t^2, y=t^4+t^5")).word.symbols == "RRV"

    def test_smooth_curve(self):
        trace = blowup_resolve(germ("x=t, y=t^3"))
        assert trace.word.symbols == "R"
        assert trace.regularization_level == 1

    def test_order_profile_example(self):
        c = germ("x=t^15, y=t^24+t^25")
        trace = blowup_resolve(c)
        assert trace.word.symbols == "RVVVRVT"
        assert trace.order_profile() == lift_trace(c).order_profile()

    def test_non_primitive_rejected(self):
        # refused when it is built, before any engine runs
        with pytest.raises(NonPrimitiveParameterization, match="share the factor 3;"):
            CurveGerm.from_series(parse_series("t^3"), parse_series("t^6"))

    def test_budget(self):
        with pytest.raises(MaxLevelExceeded):
            blowup_resolve(germ("x=t^5, y=t^7"), max_level=2)


# Coefficients of either sign, integral or not.
coefficients = st.builds(F, st.sampled_from([-9, -2, -1, 1, 3, 14]), st.integers(1, 6))


@st.composite
def wide_germs(draw):
    """Germs wider than the corpus shape x = t^n: x has two to four
    nonconstant terms, the base point is drawn (often nonzero), and the
    coefficients are rational of either sign.  gcd(val x, val y) = 1, so the
    germ is primitive."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 16).filter(lambda m: gcd(n, m) == 1))

    def coordinate(valuation, min_extra):
        extra = draw(st.sets(st.integers(valuation + 1, valuation + 12),
                             min_size=min_extra, max_size=3))
        terms = [(F(draw(st.integers(-3, 3)), 2), 0), (draw(coefficients), valuation)]
        terms.extend((draw(coefficients), e) for e in sorted(extra))
        return TruncatedSeries.from_terms(terms)

    return CurveGerm.from_series(coordinate(n, 1), coordinate(m, 0))


def _letters_and_orders(trace):
    return [(s.chart_letter, s.orders) for s in trace.steps]


def _step_alike(c):
    """Whether both engines take the same letter from the same orders at
    every step of ``c``."""
    return _letters_and_orders(lift_trace(c)) == _letters_and_orders(blowup_resolve(c))


class TestOneMeaningOfTheLetter:
    """A step's letter means the same in both engines: ``o`` keeps the first
    coordinate of the pair and ``i`` the second, and both step from the
    base pair (x, y), so the engines' chart choices can be compared step by
    step on every germ, y of the smaller valuation included."""

    def test_the_engines_step_alike_on_both_corpora(self):
        differ = [str(spec) for seed in (178212, 20230817)
                  for spec in generate_corpus(220, seed) if not _step_alike(spec.curve())]
        assert differ == []

    @given(wide_germs())
    @settings(max_examples=200, deadline=None)
    def test_the_engines_step_alike_on_wide_germs(self, c):
        assert _step_alike(c)

    def test_the_engines_step_alike_on_swapped_realizations(self):
        # x = sum t^b, y = t^n: y has the smaller valuation, so both
        # engines' first step is inverted
        differ = [w.symbols for w in critical_words(9) if not _step_alike(swapped(realization(w)))]
        assert differ == []

    @pytest.mark.parametrize("text", _DISAGREEING_REALIZATIONS)
    def test_the_germs_of_item_9_take_the_same_letters(self, text):
        # ROADMAP item 9: the engines choose the same chart at every level,
        # but their recentered orders differ at one R level
        nash, blow = lift_trace(germ(text)), blowup_resolve(germ(text))
        assert [s.chart_letter for s in nash.steps] == [s.chart_letter for s in blow.steps]
        differ = [n.level for n, b in zip(nash.steps, blow.steps) if n.orders != b.orders]
        assert len(differ) == 1 and nash.word.symbols[differ[0] - 1] == "R"


def _steps_keeping_a_constant(nash, blow):
    """(engine, level) of each step past the first of either trace whose
    first coordinate, the one the step before kept, has no order."""
    return [(engine, s.level) for engine, trace in (("nash", nash), ("blowup", blow))
            for s in trace.steps[1:] if s.orders[0] is None]


class TestConstantPair:
    """Coordinates that are exactly constant are certified constant, and no
    run reaches a pair with both constant: the germ refuses one, and every
    step keeps a coordinate whose order it read, so the first coordinate of
    every pair past the base pair moves."""

    def test_every_kept_coordinate_moves(self):
        # both corpora, the realizations and the seeded chart data
        found, steps = [], 0
        for label, nash, blow in TestRegularityFromSteps.traces():
            steps += len(nash.steps) + len(blow.steps)
            found += [(label, *f) for f in _steps_keeping_a_constant(nash, blow)]
        assert found == [] and steps > 20_000

    @given(wide_germs())
    @settings(max_examples=100, deadline=None)
    def test_every_kept_coordinate_moves_on_wide_germs(self, c):
        assert _steps_keeping_a_constant(lift_trace(c), blowup_resolve(c)) == []

    @pytest.mark.parametrize("trace, pair", [
        (LiftTrace, ("2", "1/2")), (LiftTrace, ("0", "3")),
        # a blowup keeps its recentered denominator, so its constant is 0
        (BlowupTrace, ("0", "3")), (BlowupTrace, ("0", "0")),
    ], ids=["nash", "nash-zero", "blowup", "blowup-zero"])
    def test_a_hand_built_constant_pair_is_refused_by_the_ratio_kernel(self, trace, pair):
        # no run reaches this pair, so no step checks for it: the kernel
        # refuses the step's zero denominator
        last = ChartStep(1, "o", *map(parse_series, pair), "R", None, (2, 3))
        with pytest.raises(IndeterminateValuation, match="^the denominator is identically zero$"):
            trace(germ("x=t^2, y=t^3"), (last,)).continued()

    @pytest.mark.parametrize("pair", [("2", "1/2"), ("3", "0")], ids=["constant", "zero"])
    def test_a_hand_built_constant_blowup_pair_ends_in_a_tower_error(self, pair):
        # the next step records an order of 0 beside a constant, so both
        # coordinates are constant: the cover rule refuses the pair at that
        # step, naming it, instead of stepping into the level budget
        last = ChartStep(1, "o", *map(parse_series, pair), "R", None, (2, 3))
        message = "^x_0 and y_1 are both constant at level 2$"
        with pytest.raises(ConstantParameterization, match=message):
            BlowupTrace(germ("x=t^2, y=t^3"), (last,)).continued()

    def test_constant_b_over_a_singular_a(self):
        # b is constant while a has order 3: the pair factors through a.  The
        # step records the orders (3, None), and a trace refuses the cover,
        # naming the pair by the names its letters give
        step = blowup_once(parse_series("t^3 + t^4"), parse_series("3"), level=5)
        assert step.orders == (3, None)
        message = r"^y_1 is constant at blowup 2 while x_0 has order 2: the germ is a cover of degree 2$"
        with pytest.raises(NonPrimitiveParameterization, match=message):
            blowup_resolve(germ("x=t^2+t^3, y=2*t^2+2*t^3"))

    @pytest.mark.parametrize("text, nash, blowup", [
        ("x=0, y=t^2+t^3", "dx/dt vanishes identically at level 1 while dy/dt has order 1",
         "x_0 is constant at blowup 1 while y_0 has order 2"),
        ("x=t^2+t^3, y=0", "dy/dt vanishes identically at level 1 while dx/dt has order 1",
         "y_0 is constant at blowup 1 while x_0 has order 2"),
    ], ids=["x", "y"])
    def test_a_constant_coordinate_is_named_at_level_1(self, text, nash, blowup):
        # the cover rule reads either coordinate of the pair, so the step
        # from (x, y) refuses the cover whichever coordinate is constant
        for engine, message in ((lift_trace, nash), (blowup_resolve, blowup)):
            with pytest.raises(NonPrimitiveParameterization,
                               match=f"^{message}: the germ is a cover of degree 2$"):
                engine(germ(text))


# Both double covers of x = t^2 + t^3: y = 2x and y = x^2.
DOUBLE_COVERS = ("x=t^2+t^3, y=2*t^2+2*t^3", "x=t^2+t^3, y=t^4+2*t^5+t^6")


class TestCovers:
    @pytest.mark.parametrize("curve", DOUBLE_COVERS)
    def test_blowup_names_the_degree(self, curve):
        # without the Nash engine: b is certified constant over val a = 2
        with pytest.raises(NonPrimitiveParameterization, match=r"x_0 has order 2: .* degree 2$"):
            blowup_resolve(germ(curve))

    @pytest.mark.parametrize("curve", DOUBLE_COVERS)
    def test_cross_check_names_the_degree(self, curve):
        with pytest.raises(NonPrimitiveParameterization, match="cover of degree 2$"):
            cross_check(germ(curve))

    def test_cover_family(self):
        # x = t^2 + t^3, y = x^k expanded, k = 1..40.  Nash needs a zero read
        # of the k-th new coordinate's derivative, whose numerator bound
        # grows linearly in k; a bound that doubled at every derivative would
        # not finish.
        h = parse_series("t^2 + t^3")
        y = TruncatedSeries.from_terms([(1, 0)])
        for k in range(1, 41):
            y = y * h
            c = CurveGerm.from_series(h, TruncatedSeries(y.prefix(3 * k + 1)))
            for engine in (lift_trace, blowup_resolve):
                with pytest.raises(NonPrimitiveParameterization, match="cover of degree 2$"):
                    engine(c)


class TestCrossCheck:
    @pytest.mark.parametrize(
        "curve",
        ["x=t^5, y=t^7", "x=t^15, y=t^24+t^25", "x=t^2, y=t^4+t^5", "x=t, y=t^2",
         "x=t^14, y=14*t^18+14*t^19"],
    )
    def test_golden_curves_agree(self, curve):
        report = cross_check(germ(curve))
        assert report.ok
        assert report.nash.word == report.blowup.word

    def test_multiplicities_match_word_route(self):
        c = germ("x=t^5, y=t^7")
        report = cross_check(c)
        word = lift_trace(c).word
        assert report.nash.multiplicities() == multiplicity_sequence(word)
        assert report.blowup.multiplicities() == report.nash.multiplicities()

    def test_small_random_corpus(self):
        for spec in generate_corpus(25, seed=99):
            assert cross_check(spec.curve()).ok

    def test_vertical_orders_agree_with_word_route(self):
        # divisor-intersection orders along the lift vs multiplicity
        # differences read off the word
        from monstertower.invariants import vertical_orders

        def check(c):
            trace = lift_trace(c)
            assert tuple(trace.vertical_orders()) == tuple(
                vertical_orders(trace.curve_word(0))
            )
            return True

        for spec in generate_corpus(25, seed=7):
            assert check(spec.curve())

    def test_lifts_once(self, lift_calls):
        # one Nash step per level up to regularization, at level 7
        assert cross_check(germ("x=t^15, y=t^24+t^25")).ok
        assert lift_calls == [1, 2, 3, 4, 5, 6, 7]

    def test_one_gcd_read_per_germ(self, monkeypatch):
        # each coordinate's exponent gcd is read once, when spec.curve()
        # builds the germ; neither engine reads it again
        reads = []
        original = TruncatedSeries.exponent_gcd

        def counting(series):
            reads.append(series)
            return original(series)

        monkeypatch.setattr(TruncatedSeries, "exponent_gcd", counting)
        for spec in generate_corpus(10, seed=7):
            reads.clear()
            c = spec.curve()
            assert cross_check(c).ok
            assert len(reads) == 2 and reads[0] is c.x and reads[1] is c.y

    def test_stream_past_the_window(self):
        # t^2 / (1 - t^63) = t^2 + t^65 + ... is a stream, which a germ
        # refuses; the polynomial x = t^2 + t^65, whose first odd exponent
        # lies past 64 terms, is cross-checked
        with pytest.raises(ValueError, match=r"^x is a stream; .*TruncatedSeries\.from_terms$"):
            CurveGerm(parse_series("t^2").quotient(parse_series("1 - t^63")), parse_series("t^4"))
        report = cross_check(germ("x=t^2+t^65, y=t^4"))
        assert report.ok and len(report.blowup.word) == 34

    @pytest.mark.parametrize("curve", COMPUTED)
    def test_coefficients_computed(self, computed, curve):
        # the germ's recentered x and y are counted too; a stream reads a
        # polynomial operand off its terms, so no polynomial fills a prefix
        assert cross_check(germ(curve)).ok
        counts = (computed["force"], computed["extends"], computed["coefficients"])
        assert counts == COMPUTED[curve] and computed["fills"] == 0

    @pytest.mark.parametrize("seed, made, built", [(178212, 1899, 443), (20230817, 1682, 381)])
    def test_streams_stay_inert_until_computed(self, monkeypatch, computed, seed, made, built):
        # a stream builds its extend on the first walk that computes it, so
        # most streams of a corpus pass hold their operands and kernel only;
        # and it reads a polynomial operand off its terms, so no polynomial
        # fills a prefix (reading them through dense prefixes would make 962
        # fills of 6,699 coefficients over both corpora)
        streams, lazy = [], TruncatedSeries._lazy.__func__

        def recording(cls, *args):
            streams.append(lazy(cls, *args))
            return streams[-1]

        monkeypatch.setattr(TruncatedSeries, "_lazy", classmethod(recording))
        for spec in generate_corpus(220, seed):
            assert cross_check(spec.curve()).ok
        assert len(streams) == made
        assert sum(s._extend is not None for s in streams) == built
        # an extend is built exactly where a coefficient past the valuation was
        assert all((s._extend is not None) == (len(s._known) > s._zeros) for s in streams)
        assert computed["fills"] == 0 and computed["coefficients"] > 0

    def test_mismatch_raises_with_report(self):
        # sanity: cross_check raising is observable via a doctored comparison
        c = germ("x=t^5, y=t^7")
        report = cross_check(c)
        assert report.to_json_dict()["agree"] is True
        with pytest.raises(MismatchReport):
            raise MismatchReport("forced", report)

    def test_report_holds_both_traces(self):
        c = germ("x=t^15, y=t^24+t^25")
        report = cross_check(c)
        # each trace is built twice, and compared exactly
        assert report.nash == lift_trace(c)
        assert report.blowup == blowup_resolve(c)
        assert report.to_json_dict() == {
            "agree": True,
            "word": {"nash": "RVVVRVT", "blowup": "RVVVRVT"},
            "order_profile": {"nash": [15, 24, 9, 6, 3, 3, 0, 2, 1],
                              "blowup": [15, 24, 9, 6, 3, 3, 0, 2, 1]},
            "multiplicities": {"nash": [15, 9, 6, 3, 3, 1, 1, 1],
                               "blowup": [15, 9, 6, 3, 3, 1, 1, 1],
                               "word": [15, 9, 6, 3, 3, 1, 1, 1]},
        }


@pytest.fixture
def engines_disagree(monkeypatch):
    """The word route's multiplicities gain a spurious trailing 9, so the
    cross-check fails on every germ."""
    original = blowup.multiplicity_sequence
    monkeypatch.setattr(blowup, "multiplicity_sequence", lambda w: (*original(w), 9))


class TestMismatch:
    def test_cross_check_raises_with_both_traces(self, engines_disagree):
        c = germ("x=t^5, y=t^7")
        with pytest.raises(MismatchReport, match=r"^engines disagree on ") as caught:
            cross_check(c)
        report = caught.value.report
        assert report.ok is False
        assert report.to_json_dict()["agree"] is False
        assert report.to_json_dict()["multiplicities"]["word"] == [5, 2, 2, 1, 1, 9]
        assert report.nash == lift_trace(c)
        assert report.blowup == blowup_resolve(c)

    def test_curve_both_exits_2(self, capsys, engines_disagree):
        assert main(["curve", "x=t^5, y=t^7", "--engine", "both"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("consistency mismatch: engines disagree on ")

    def test_check_exits_2(self, capsys, engines_disagree):
        assert main(["check", "--max-len", "2", "--corpus-size", "3"]) == 2
        out, _ = capsys.readouterr()
        assert "engine-equivalence   3 checked, 3 failures" in out
        assert out.count("  FAIL engine-equivalence ") == 3


def recentered_order(series):
    """val(f - f(0)), None when f is constant."""
    return series.recenter()[1].valuation_or_none()


def recentered_multiplicities(pairs):
    """Multiplicity of each point from its active pair: the smaller valuation
    of the two recentered series, skipping one that reads constant."""
    return tuple(
        min(v for v in map(recentered_order, pair) if v is not None)
        for pair in pairs
    )


def _step_test_germs():
    """Both corpora, the high-order germs of the benchmark's deep lifts, and
    germs given at a level."""
    for seed in (178212, 20230817):
        for spec in generate_corpus(220, seed):
            yield str(spec), spec.curve()
    for text in (
        "x=t^15, y=t^24+t^25",
        "x=t^6+t^9, y=t^8+t^11", "x=t^4+t^5, y=t^6+t^7",
        "x=t^6+t^7, y=t^9+t^10", "x=t^8+t^9, y=t^12+t^14+t^15",
        "x=t^3+t^4, y=t^7",
    ):
        yield text, germ(text)
    for n, terms in ((13, ((1, 61),)), (11, ((1, 57),)), (12, ((1, 30), (1, 61))),
                     (12, ((1, 14), (1, 16), (1, 57)))):
        spec = CurveSpec(n, tuple((F(c), e) for c, e in terms))
        yield str(spec), spec.curve()
    charts = ["o" + "".join(p) for k in range(5) for p in product("oi", repeat=k)]
    charts += ["oioioio", "oiiooi", "oiioioii", "oiioioiioiio"]
    leveled = [f"@level {len(c)} chart={c}, r=t, n=t" for c in charts]
    leveled.append("@level 3 chart=oio, r=2*t-t^2, n=-1/3+t, constants=1,-2,3/4,0,0")
    for text in leveled:
        yield text, germ(text)


class TestMultiplicitiesFromSteps:
    """The engines read each multiplicity off the orders a step decided on;
    these must equal the smaller recentered valuation of every active pair,
    which they replace."""

    def test_equal_the_recentered_rule(self):
        differ = []
        for label, c in _step_test_germs():
            nash = lift_trace(c)
            steps = nash.steps[: nash.regularization_level]
            pairs = [(c.x, c.y), *((s.retained, s.new_coord) for s in steps)]
            if nash.multiplicities() != recentered_multiplicities(pairs):
                differ.append(("nash", label))
            blow = blowup_resolve(c)
            pairs = [(c.x, c.y), *((s.retained, s.new_coord) for s in blow.steps)]
            if blow.multiplicities() != recentered_multiplicities(pairs):
                differ.append(("blowup", label))
        assert differ == []


def seeded_chart_inputs(count, seed):
    """``@level`` chart inputs drawn from a seeded generator: a path of
    length 1 to 6 that starts with o, r and n of one to three terms, and
    small constants; inputs the grammar or the walk refuses are skipped."""
    rng, out = Random(seed), []
    while len(out) < count:
        path = "o" + "".join(rng.choice("oi") for _ in range(rng.randint(0, 5)))
        r, n = (" + ".join(f"{rng.choice(['1', '2', '-3', '1/2'])}*t^{e}"
                           for e in sorted(rng.sample(range(6), rng.randint(1, 3))))
                for _ in range(2))
        constants = ",".join(str(rng.randint(-2, 2)) for _ in range(len(path) + 2))
        text = f"@level {len(path)} chart={path}, r={r}, n={n}, constants={constants}"
        try:
            parse_curve_trace(text)
        except MonsterTowerError:
            continue
        out.append(text)
    return out


class TestRegularityFromSteps:
    """The regularity test reads the retained coordinate's order off the
    step: the smaller of its orders is val(retained - retained(0)) in both
    engines, read again here from the series."""

    @staticmethod
    def traces():
        for label, c in _step_test_germs():
            yield label, lift_trace(c), blowup_resolve(c)
        for w in critical_words(9):
            c = realization(w)
            yield w.symbols, lift_trace(c), blowup_resolve(c)
        for text in seeded_chart_inputs(120, seed=2718):
            try:
                walk = parse_curve_trace(text).continued()  # the walk's own steps
            except (MaxLevelExceeded, NonPrimitiveParameterization):
                continue
            yield text, walk, blowup_resolve(walk.germ)

    def test_least_order_is_the_retained_order(self):
        differ, steps = [], 0
        for label, nash, blow in self.traces():
            for engine, trace in (("nash", nash), ("blowup", blow)):
                for s in trace.steps:
                    steps += 1
                    if _least(s.orders) != recentered_order(s.retained):
                        differ.append((engine, label, s.level))
        assert differ == [] and steps > 20_000

    def test_orders_are_the_recentered_orders_of_the_pair_stepped_from(self):
        # the pair a step stepped from is the last step's, or the germ's
        # (x, y) at level 1
        differ, steps = [], 0
        for label, nash, blow in self.traces():
            for engine, trace in (("nash", nash), ("blowup", blow)):
                pair = (trace.germ.x, trace.germ.y)
                for s in trace.steps:
                    steps += 1
                    if s.orders != tuple(map(recentered_order, pair)):
                        differ.append((engine, label, s.level))
                    pair = (s.retained, s.new_coord)
        assert differ == [] and steps > 20_000

    def test_chain_origins_are_read_off_each_engines_word(self):
        # a Nash step records the level where the V/T chain through it
        # started (None on an R step); a blowup V or T step records its new
        # coordinate's divisor flag, one less, and a blowup R step may
        # carry a flag too.  Each engine is checked against its own word
        differ, steps = [], 0
        for label, nash, blow in self.traces():
            origins = nash.word.chain_origins()
            differ += [("nash", label, s.level) for s in nash.steps
                       if s.chain_origin != origins[s.level]]
            origins = blow.word.chain_origins()
            critical = [s for s in blow.steps if s.symbol != "R"]
            differ += [("blowup", label, s.level) for s in critical
                       if s.chain_origin != origins[s.level] - 1]
            steps += len(nash.steps) + len(critical)
        assert differ == [] and steps > 20_000

    def test_cross_check_reads_no_constant_term(self, monkeypatch):
        # the centre test of a blowup is the identity of the tail, and no
        # decision of either engine builds a Fraction
        germs = [spec.curve() for seed in (178212, 20230817)
                 for spec in generate_corpus(220, seed)]
        calls = []
        original = TruncatedSeries.constant_term

        def counting(series):
            calls.append(series)
            return original(series)

        monkeypatch.setattr(TruncatedSeries, "constant_term", counting)
        for c in germs:
            assert cross_check(c).ok
        assert calls == []


class TestWideGerms:
    @given(wide_germs())
    @settings(max_examples=200, deadline=None)
    def test_engines_agree(self, c):
        assert cross_check(c).ok

    def test_critical_words_are_realized(self):
        # tests/realization.py sweeps to length 12, and pins the germs whose
        # order profiles disagree there
        differ = []
        for w in critical_words(9):
            report = cross_check(realization(w))
            if (report.nash.word.normalize(), report.blowup.word.normalize()) != (w, w):
                differ.append(w.symbols)
        assert differ == []

    @pytest.mark.xfail(strict=True, raises=MismatchReport,
                       reason="ROADMAP item 9: the Nash coordinate of level 10 has a "
                              "nonzero constant term where the blowup one has 0")
    def test_order_profiles_of_a_length_11_realization(self):
        c = realization(RvtWord("RVVRVRVRRRV"))
        assert str(c) == "x=t^24, y=t^40 + t^44 + t^46 + t^51"
        cross_check(c)

    @pytest.mark.xfail(strict=True, raises=MismatchReport,
                       reason="ROADMAP item 9: the order profiles differ at an R level at "
                              "or past the chart data's own level")
    @pytest.mark.parametrize("text", [
        # the profiles differ at level 6, where the engines' coordinates are
        # the chart data
        "@level 6 chart=oioooo, r=t^3+3*t^4+t^5, n=3*t+2*t^2+t^4, "
        "constants=0,0,-2,0,0,-2,-2,-2",
        # two seeded chart inputs of the CLI digest: the words and
        # multiplicities agree, and at level 7 the Nash new coordinate has
        # valuation 1 where the blowup one has 0
        "@level 6 chart=oiioio, r=2*t^0 + 2*t^2 + 1*t^4, n=2*t^0 + 1*t^3",
        "@level 5 chart=oiiio, r=2*t^2, n=-3*t^0 + 2*t^2 + 1*t^5",
    ], ids=["oioooo", "oiioio", "oiiio"])
    def test_order_profiles_of_a_chart_data_germ(self, text):
        assert cross_check(parse_curve_trace(text)).ok

    @pytest.mark.xfail(strict=True, raises=MaxLevelExceeded,
                       reason="ROADMAP item 3: the (t^2+t^3)^2 cover passes the exponent gcd "
                              "test and gets the level-budget hedge")
    @pytest.mark.parametrize("engine", [lift_trace, blowup_resolve], ids=["nash", "blowup"])
    def test_a_cover_with_coprime_exponents_is_named(self, engine):
        # x = (t^2 + t^3)^2, y = (t^2 + t^3)^3 + (t^2 + t^3)^5
        text = ("x=t^4+2*t^5+t^6, "
                "y=t^6+3*t^7+3*t^8+t^9+t^10+5*t^11+10*t^12+10*t^13+5*t^14+t^15")
        with pytest.raises(NonPrimitiveParameterization, match=r"degree 2\b"):
            engine(parse_curve(text)[0])


def _pmul(p, q):
    """The product of two polynomials given as {exponent: Fraction}."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def _pcombine(*scaled):
    """The sum of c * p over the (c, p) pairs, zero terms dropped."""
    out = {}
    for c, p in scaled:
        for e, a in p.items():
            out[e] = out.get(e, 0) + c * a
    return {e: a for e, a in out.items() if a}


def _compose(p, s):
    """p(s(t)) for polynomials p and s with s(0) = 0."""
    out, power, done = {}, {0: F(1)}, 0
    for e in sorted(p):
        while done < e:
            power, done = _pmul(power, s), done + 1
        out = _pcombine((1, out), (p[e], power))
    return out


def transported(spec):
    """The corpus germ moved by a reparameterization t -> t + t^2 - t^3/2,
    then by the local diffeomorphism (x, y) -> (x + 2y + x^2, 3y - x + xy),
    whose linear part has determinant 5, then by the translation of its
    base point to (1/2, -3); every composition is made over Fraction."""
    s = {1: F(1), 2: F(1), 3: F(-1, 2)}
    x = _compose({spec.n: F(1)}, s)
    y = _compose({e: F(c) for c, e in spec.terms}, s)
    xx, xy = _pmul(x, x), _pmul(x, y)
    big_x = _pcombine((1, x), (2, y), (1, xx), (1, {0: F(1, 2)}))
    big_y = _pcombine((3, y), (-1, x), (1, xy), (1, {0: F(-3)}))
    return CurveGerm.from_series(
        *(TruncatedSeries.from_terms([(c, e) for e, c in p.items()]) for p in (big_x, big_y)))


class TestTransportInvariance:
    """A local diffeomorphism of the plane prolongs to every level of the
    tower (Montgomery and Zhitomirskii, Mem. AMS 2010), and so does a
    reparameterization, so the RVT word and the multiplicities do not move
    under them.  The order profile reads chart data (ROADMAP item 9) and is
    not compared."""

    @staticmethod
    def invariants(c):
        nash, blow = lift_trace(c), blowup_resolve(c)
        return (nash.word, blow.word, nash.multiplicities(), blow.multiplicities(),
                multiplicity_sequence(nash.word.normalize()))

    def test_words_and_multiplicities_are_invariant(self):
        specs = Random(36).sample(generate_corpus(), 20)
        differ = []
        for spec in specs:
            moved = transported(spec)
            assert moved.base_point == (F(1, 2), F(-3))
            if self.invariants(moved) != self.invariants(spec.curve()):
                differ.append(str(spec))
        assert differ == []
