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

from dataclasses import dataclass, replace
from fractions import Fraction

from .defaults import DEFAULT_MAX_LEVEL
from .errors import InsufficientPrecision, MaxLevelExceeded, MismatchReport
from .invariants import multiplicity_sequence
from .series import TruncatedSeries
from .tower import (
    CoordName,
    CurveGerm,
    lift_to_regularization,
    pair_multiplicity,
)
from .words import RvtWord


@dataclass(frozen=True)
class BlowupName(CoordName):
    """Base letter and the number of blowups behind the coordinate: ``y_1``."""

    def __str__(self) -> str:
        return f"{self.base}_{self.order}"


@dataclass(frozen=True)
class BlowupState:
    """Chart coordinates along the curve after ``level`` blowups.

    Slot a holds the most recent denominator, recentered (it vanishes at the
    current point and its zero locus is the newest exceptional divisor);
    slot b holds the most recent quotient, unrecentered.
    """

    a: TruncatedSeries
    b: TruncatedSeries
    a_name: BlowupName
    b_name: BlowupName
    a_flag: int | None
    b_flag: int | None
    level: int


@dataclass(frozen=True)
class BlowupStep:
    level: int
    chart_letter: str          # "o" when the y-like coordinate was divided
    new_coord: TruncatedSeries
    new_name: BlowupName
    symbol: str
    divisor_flag: int | None   # flag inherited by the new coordinate


@dataclass(frozen=True)
class BlowupTrace:
    steps: tuple[BlowupStep, ...]
    regularity_level: int | None
    word: RvtWord
    chart_path: str
    base_point: tuple[Fraction, Fraction]
    profile: tuple[int | None, ...]
    multiplicities: tuple[int, ...]

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
    steps: list[BlowupStep] = []
    mults: list[int] = []
    while True:
        m = pair_multiplicity(state.a, state.b)
        if m is None:
            raise _constant_pair_error(state, state.level)
        mults.append(m)
        if steps and _is_regular(state, steps[-1].symbol):
            break
        if state.level >= max_level:
            raise MaxLevelExceeded(
                f"no regular strict transform within {max_level} blowups"
            )
        state, step = blowup_once(state)
        steps.append(step)
    profile: list[int | None] = [c.x.valuation_or_none(), c.y.valuation_or_none()]
    profile.extend(s.new_coord.valuation_or_none() for s in steps)
    return BlowupTrace(
        steps=tuple(steps),
        regularity_level=state.level,
        word=RvtWord("".join(s.symbol for s in steps)),
        chart_path="".join(s.chart_letter for s in steps),
        base_point=c.base_point,
        profile=tuple(profile),
        multiplicities=tuple(mults),
    )


@dataclass(frozen=True)
class CrossCheckReport:
    nash_word: str
    blowup_word: str
    nash_profile: tuple[int | None, ...]
    blowup_profile: tuple[int | None, ...]
    nash_multiplicities: tuple[int, ...]
    blowup_multiplicities: tuple[int, ...]
    word_multiplicities: tuple[int, ...]
    ok: bool

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
    report = CrossCheckReport(
        nash_word=nash.word.symbols,
        blowup_word=blow.word.symbols,
        nash_profile=nash.order_profile(),
        blowup_profile=blow.profile,
        nash_multiplicities=nash.multiplicities(),
        blowup_multiplicities=blow.multiplicities,
        word_multiplicities=multiplicity_sequence(nash.word),
        ok=True,
    )
    ok = (
        report.nash_word == report.blowup_word
        and report.nash_profile == report.blowup_profile
        and report.nash_multiplicities == report.blowup_multiplicities
        and report.nash_multiplicities == report.word_multiplicities
    )
    if not ok:
        report = replace(report, ok=False)
        raise MismatchReport(f"engines disagree on {c}", report)
    return report
