"""Independent embedded-resolution oracle by iterated point blowups.

The state carries the two chart coordinates restricted to the curve plus a
flag per coordinate naming the exceptional divisor whose strict transform
is that coordinate's zero locus.  Each step recenters at the current point
and divides the coordinate of larger valuation by the other (ties divide
the newer coordinate by the older, matching the ordinary chart choice of
the Nash engine); the denominator slot picks up the fresh exceptional
divisor, and the quotient inherits the numerator's flag exactly when the
numerator vanished at the center.

Coordinates are a base letter and a blowup index (``y_1``).  The symbols read
off the flags reproduce the RVT code word, and the whole trace is
cross-checked against one Nash lift: words, order profiles and multiplicity
sequences must agree.
"""

from __future__ import annotations

from fractions import Fraction

from .defaults import DEFAULT_MAX_LEVEL
from .errors import InsufficientPrecision, MaxLevelExceeded, MismatchReport
from .invariants import multiplicity_sequence
from .records import Record, _set
from .series import TruncatedSeries
from .tower import CoordName, CurveGerm, lift_to_regularization
from .words import RvtWord


class BlowupName(CoordName):
    """Base letter and the number of blowups behind the coordinate: ``y_1``."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.base}_{self.order}"


class BlowupState(Record):
    """Chart coordinates along the curve after ``level`` blowups.

    Slot a holds the most recent denominator, recentered (it vanishes at the
    current point and its zero locus is the newest exceptional divisor);
    slot b holds the most recent quotient, unrecentered.
    """

    __slots__ = ("a", "b", "a_name", "b_name", "a_flag", "b_flag", "level")

    def __init__(self, a: TruncatedSeries, b: TruncatedSeries, a_name: BlowupName,
                 b_name: BlowupName, a_flag: int | None, b_flag: int | None, level: int):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "a_name", a_name)
        _set(self, "b_name", b_name)
        _set(self, "a_flag", a_flag)
        _set(self, "b_flag", b_flag)
        _set(self, "level", level)


class BlowupStep(Record):
    __slots__ = ("level", "chart_letter", "new_coord", "new_name", "symbol", "divisor_flag",
                 "orders")

    def __init__(self, level: int, chart_letter: str, new_coord: TruncatedSeries,
                 new_name: BlowupName, symbol: str, divisor_flag: int | None,
                 orders: tuple[int | None, int | None]):
        _set(self, "level", level)
        _set(self, "chart_letter", chart_letter)  # "o" when the y-like coordinate was divided
        _set(self, "new_coord", new_coord)
        _set(self, "new_name", new_name)
        _set(self, "symbol", symbol)
        _set(self, "divisor_flag", divisor_flag)  # flag inherited by the new coordinate
        _set(self, "orders", orders)  # val(a), val(b - b(0)) that decided the chart


class BlowupTrace(Record):
    __slots__ = ("steps", "regularity_level", "word", "chart_path", "base_point", "profile",
                 "multiplicities")

    def __init__(self, steps: tuple[BlowupStep, ...], regularity_level: int | None,
                 word: RvtWord, chart_path: str, base_point: tuple[Fraction, Fraction],
                 profile: tuple[int | None, ...], multiplicities: tuple[int, ...]):
        _set(self, "steps", steps)
        _set(self, "regularity_level", regularity_level)
        _set(self, "word", word)
        _set(self, "chart_path", chart_path)
        _set(self, "base_point", base_point)
        _set(self, "profile", profile)
        _set(self, "multiplicities", multiplicities)

    def to_json_dict(self) -> dict:
        return {
            "engine": "blowup",
            "base_point": [str(c) for c in self.base_point],
            "levels": [
                {
                    "level": s.level,
                    "chart": s.chart_letter,
                    "symbol": s.symbol,
                    "new_coordinate": str(s.new_name),
                    "valuation": s.new_coord.valuation_or_none(),
                    "constant_term": str(s.new_coord.constant_term()),
                    "chain_origin": s.divisor_flag,
                }
                for s in self.steps
            ],
            "word": self.word.symbols,
            "chart_path": self.chart_path,
            "regularization_level": self.regularity_level,
        }


def _constant_pair_error(state: BlowupState, blowup: int) -> InsufficientPrecision:
    budget = max(state.a.precision, state.b.precision)
    return InsufficientPrecision(
        f"both coordinates {state.a_name} and {state.b_name} constant to the "
        f"term budget {budget} at blowup {blowup}"
    )


def blowup_once(state: BlowupState) -> tuple[BlowupState, BlowupStep]:
    """Blow up the current point of the curve and restrict to the chart the
    strict transform passes through."""
    level = state.level + 1
    a = state.a  # already recentered
    b0, b_rec = state.b.recenter()
    va = a.valuation_or_none()
    vb = b_rec.valuation_or_none()
    if va is None and vb is None:
        raise _constant_pair_error(state, level)
    divide_b = va is not None and (vb is None or vb >= va)
    if divide_b:
        quotient = b_rec.quotient(a)
        inherited = state.b_flag if b0 == 0 else None
        new_state = BlowupState(
            a=a,
            b=quotient,
            a_name=state.a_name,
            b_name=state.b_name.bump(),
            a_flag=level,
            b_flag=inherited,
            level=level,
        )
    else:
        quotient = a.quotient(b_rec)
        inherited = state.a_flag  # slot a always vanishes at the center
        new_state = BlowupState(
            a=b_rec,
            b=quotient,
            a_name=state.b_name,
            b_name=state.a_name.bump(),
            a_flag=level,
            b_flag=inherited,
            level=level,
        )
    meets_old = inherited is not None and quotient.constant_term() == 0
    if meets_old:
        symbol = "V" if inherited == level - 1 else "T"
    else:
        symbol = "R"
    step = BlowupStep(
        level=level,
        chart_letter="o" if new_state.b_name.base == "y" else "i",
        new_coord=quotient,
        new_name=new_state.b_name,
        symbol=symbol,
        divisor_flag=inherited,
        orders=(va, vb),
    )
    return new_state, step


def _is_regular(state: BlowupState, symbol: str) -> bool:
    """Strict transform regular: nonsingular and transverse to every
    exceptional divisor through its point.  The curve always meets the
    newest divisor (slot a), so val(a) must be 1; a critical symbol means
    it also meets the inherited divisor, whose order must then be 1."""
    if state.a.valuation_or_none() != 1:
        return False
    if symbol == "R":
        return True
    return state.b.valuation_or_none() == 1


def blowup_resolve(c: CurveGerm, max_level: int = DEFAULT_MAX_LEVEL) -> BlowupTrace:
    """Iterate point blowups until the strict transform is regular."""
    c.check_primitive()
    state = BlowupState(
        a=c.x, b=c.y, a_name=BlowupName("x", 0), b_name=BlowupName("y", 0),
        a_flag=None, b_flag=None, level=0,
    )
    profile: list[int | None] = [c.x.valuation_or_none(), c.y.valuation_or_none()]
    if profile == [None, None]:
        raise _constant_pair_error(state, 0)
    steps: list[BlowupStep] = []
    while not (steps and _is_regular(state, steps[-1].symbol)):
        if state.level >= max_level:
            raise MaxLevelExceeded(
                f"no regular strict transform within {max_level} blowups"
            )
        state, step = blowup_once(state)
        steps.append(step)
    profile.extend(s.new_coord.valuation_or_none() for s in steps)
    # The multiplicity of each point is the smaller order of its recentered
    # pair; the regular point's is 1.
    mults = (*(min(v for v in s.orders if v is not None) for s in steps), 1)
    return BlowupTrace(
        steps=tuple(steps),
        regularity_level=state.level,
        word=RvtWord("".join(s.symbol for s in steps)),
        chart_path="".join(s.chart_letter for s in steps),
        base_point=c.base_point,
        profile=tuple(profile),
        multiplicities=mults,
    )


class CrossCheckReport(Record):
    __slots__ = ("nash_word", "blowup_word", "nash_profile", "blowup_profile",
                 "nash_multiplicities", "blowup_multiplicities", "word_multiplicities", "ok")

    def __init__(self, nash_word: str, blowup_word: str, nash_profile: tuple[int | None, ...],
                 blowup_profile: tuple[int | None, ...], nash_multiplicities: tuple[int, ...],
                 blowup_multiplicities: tuple[int, ...], word_multiplicities: tuple[int, ...],
                 ok: bool):
        _set(self, "nash_word", nash_word)
        _set(self, "blowup_word", blowup_word)
        _set(self, "nash_profile", nash_profile)
        _set(self, "blowup_profile", blowup_profile)
        _set(self, "nash_multiplicities", nash_multiplicities)
        _set(self, "blowup_multiplicities", blowup_multiplicities)
        _set(self, "word_multiplicities", word_multiplicities)
        _set(self, "ok", ok)

    def to_json_dict(self) -> dict:
        return {
            "agree": self.ok,
            "word": {"nash": self.nash_word, "blowup": self.blowup_word},
            "order_profile": {
                "nash": list(self.nash_profile),
                "blowup": list(self.blowup_profile),
            },
            "multiplicities": {
                "nash": list(self.nash_multiplicities),
                "blowup": list(self.blowup_multiplicities),
                "word": list(self.word_multiplicities),
            },
        }


def cross_check(c: CurveGerm, max_level: int = DEFAULT_MAX_LEVEL) -> CrossCheckReport:
    """Run both engines and require identical words, order profiles, and
    multiplicity sequences (also against the word-derived sequence).  The
    germ is lifted once; every Nash value is read off that trace.
    Raises MismatchReport carrying the report when anything differs."""
    nash = lift_to_regularization(c, max_level)
    blow = blowup_resolve(c, max_level)
    word, profile, mults = nash.word, nash.order_profile(), nash.multiplicities()
    word_mults = multiplicity_sequence(word)
    ok = (
        word.symbols == blow.word.symbols
        and profile == blow.profile
        and mults == blow.multiplicities
        and mults == word_mults
    )
    report = CrossCheckReport(
        nash_word=word.symbols,
        blowup_word=blow.word.symbols,
        nash_profile=profile,
        blowup_profile=blow.profile,
        nash_multiplicities=mults,
        blowup_multiplicities=blow.multiplicities,
        word_multiplicities=word_mults,
        ok=ok,
    )
    if not ok:
        raise MismatchReport(f"engines disagree on {c}", report)
    return report
