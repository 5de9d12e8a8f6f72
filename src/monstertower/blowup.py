"""Independent embedded-resolution oracle by iterated point blowups.

Each step recenters at the current point and divides the coordinate of
larger valuation by the other (ties divide the newer coordinate by the
older, matching the ordinary chart choice of the Nash engine).  It keeps the
chart pair after it: the recentered denominator, whose zero locus is the
step's own exceptional divisor, and the quotient, which inherits the
numerator's divisor flag exactly when the numerator vanished at the center.

Coordinates are a base letter and a blowup index (``y_1``).  A germ is
resolved once into a ``BlowupTrace``; its word (the symbols read off the
flags), chart path, order profile and multiplicities are views of its steps,
and ``cross_check`` compares them against one Nash lift.
"""

from __future__ import annotations

from fractions import Fraction

from .defaults import DEFAULT_MAX_LEVEL
from .errors import (
    ConstantParameterization,
    MaxLevelExceeded,
    MismatchReport,
    NonPrimitiveParameterization,
)
from .invariants import multiplicity_sequence
from .records import Record, _set
from .series import TruncatedSeries
from .tower import CoordName, CurveGerm, LiftTrace, lift_trace
from .words import RvtWord


class BlowupName(CoordName):
    """Base letter and the number of blowups behind the coordinate: ``y_1``."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.base}_{self.order}"


class BlowupStep(Record):
    """One blowup and the chart pair after it.  The denominator's zero locus
    is the exceptional divisor of this step, so its flag is ``level``."""

    __slots__ = ("level", "chart_letter", "denominator", "new_coord", "denominator_name",
                 "new_name", "symbol", "divisor_flag", "orders")

    def __init__(self, level: int, chart_letter: str, denominator: TruncatedSeries,
                 new_coord: TruncatedSeries, denominator_name: BlowupName,
                 new_name: BlowupName, symbol: str, divisor_flag: int | None,
                 orders: tuple[int | None, int | None]):
        _set(self, "level", level)
        _set(self, "chart_letter", chart_letter)  # "o" when the y-like coordinate was divided
        _set(self, "denominator", denominator)    # recentered
        _set(self, "new_coord", new_coord)        # the quotient, unrecentered
        _set(self, "denominator_name", denominator_name)
        _set(self, "new_name", new_name)
        _set(self, "symbol", symbol)
        _set(self, "divisor_flag", divisor_flag)  # flag inherited by the new coordinate
        _set(self, "orders", orders)  # val(a), val(b - b(0)) that decided the chart


class BlowupTrace(Record):
    """One resolution of a germ: its steps end at the first regular strict
    transform, and every value is read off them."""

    __slots__ = ("germ", "steps")

    def __init__(self, germ: CurveGerm, steps: tuple[BlowupStep, ...]):
        _set(self, "germ", germ)
        _set(self, "steps", steps)

    @property
    def regularity_level(self) -> int:
        return len(self.steps)

    @property
    def word(self) -> RvtWord:
        return RvtWord("".join(s.symbol for s in self.steps))

    @property
    def chart_path(self) -> str:
        return "".join(s.chart_letter for s in self.steps)

    @property
    def base_point(self) -> tuple[Fraction, Fraction]:
        return self.germ.base_point

    @property
    def profile(self) -> tuple[int | None, ...]:
        """Valuations of x, y and the new coordinate of every blowup."""
        return (
            self.germ.x.valuation_or_none(),
            self.germ.y.valuation_or_none(),
            *(s.new_coord.valuation_or_none() for s in self.steps),
        )

    @property
    def multiplicities(self) -> tuple[int, ...]:
        """The multiplicity of each point is the smaller order of its
        recentered pair; the regular point's is 1."""
        return (*(min(v for v in s.orders if v is not None) for s in self.steps), 1)

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


def blowup_once(a: TruncatedSeries, b: TruncatedSeries, *, level: int,
                a_name: BlowupName = BlowupName("x", 0), b_name: BlowupName = BlowupName("y", 0),
                b_flag: int | None = None) -> BlowupStep:
    """Blow up the current point of the curve and restrict to the chart the
    strict transform passes through.  (a, b) is the pair after the previous
    blowup: a recentered, its flag ``level - 1`` (none on the base surface),
    and b unrecentered with the flag ``b_flag``.

    A constant b while val a = d > 1 makes every coordinate a function of a,
    so the germ factors through a, of order d: NonPrimitiveParameterization
    names the cover of degree d."""
    b0, b_rec = b.recenter()
    va = a.valuation_or_none()
    vb = b_rec.valuation_or_none()
    if vb is None:
        if va is None:
            raise ConstantParameterization(
                f"both coordinates {a_name} and {b_name} vanish identically "
                f"after recentering at blowup {level}"
            )
        if va > 1:
            raise NonPrimitiveParameterization(
                f"{b_name} is constant at blowup {level} while {a_name} has order "
                f"{va}: the germ is a cover of degree {va}"
            )
    if va is not None and (vb is None or vb >= va):
        denominator, denominator_name = a, a_name
        quotient, new_name = b_rec.quotient(a), b_name.bump()
        inherited = b_flag if b0 == 0 else None
    else:
        denominator, denominator_name = b_rec, b_name
        quotient, new_name = a.quotient(b_rec), a_name.bump()
        inherited = level - 1 or None  # a's flag: a always vanishes at the center
    if inherited is not None and quotient.constant_term() == 0:
        symbol = "V" if inherited == level - 1 else "T"
    else:
        symbol = "R"
    letter = "o" if new_name.base == "y" else "i"
    return BlowupStep(level, letter, denominator, quotient, denominator_name, new_name, symbol,
                      inherited, (va, vb))


def _is_regular(step: BlowupStep) -> bool:
    """Strict transform regular: nonsingular and transverse to every
    exceptional divisor through its point.  The curve always meets the
    newest divisor (the denominator's), so its order must be 1; a critical
    symbol means it also meets the inherited divisor, whose order must then
    be 1."""
    if step.denominator.valuation_or_none() != 1:
        return False
    return step.symbol == "R" or step.new_coord.valuation_or_none() == 1


def blowup_resolve(c: CurveGerm, max_level: int = DEFAULT_MAX_LEVEL) -> BlowupTrace:
    """Iterate point blowups until the strict transform is regular."""
    c.check_primitive()
    a, b = c.x, c.y
    a_name, b_name = BlowupName("x", 0), BlowupName("y", 0)
    b_flag = None
    steps: list[BlowupStep] = []
    while not (steps and _is_regular(steps[-1])):
        if len(steps) >= max_level:
            raise MaxLevelExceeded(f"no regular strict transform within {max_level} blowups")
        step = blowup_once(a, b, level=len(steps) + 1, a_name=a_name, b_name=b_name,
                           b_flag=b_flag)
        steps.append(step)
        a, b, b_flag = step.denominator, step.new_coord, step.divisor_flag
        a_name, b_name = step.denominator_name, step.new_name
    return BlowupTrace(c, tuple(steps))


class CrossCheckReport(Record):
    """Both engines' traces of one germ, the multiplicities read off the
    Nash word, and whether all of them agree."""

    __slots__ = ("nash", "blowup", "word_multiplicities", "ok")

    def __init__(self, nash: LiftTrace, blowup: BlowupTrace,
                 word_multiplicities: tuple[int, ...], ok: bool):
        _set(self, "nash", nash)
        _set(self, "blowup", blowup)
        _set(self, "word_multiplicities", word_multiplicities)
        _set(self, "ok", ok)

    def to_json_dict(self) -> dict:
        nash, blow = self.nash, self.blowup
        return {
            "agree": self.ok,
            "word": {"nash": nash.word.symbols, "blowup": blow.word.symbols},
            "order_profile": {
                "nash": list(nash.order_profile()),
                "blowup": list(blow.profile),
            },
            "multiplicities": {
                "nash": list(nash.multiplicities()),
                "blowup": list(blow.multiplicities),
                "word": list(self.word_multiplicities),
            },
        }


def cross_check(c: CurveGerm, max_level: int = DEFAULT_MAX_LEVEL) -> CrossCheckReport:
    """Run both engines and require identical words, order profiles, and
    multiplicity sequences (also against the word-derived sequence).  The
    germ is lifted once; every Nash value is read off that trace.
    Raises MismatchReport carrying the report when anything differs."""
    nash = lift_trace(c, max_level=max_level)
    blow = blowup_resolve(c, max_level)
    mults = nash.multiplicities()
    word_mults = multiplicity_sequence(nash.word)
    ok = (
        nash.word.symbols == blow.word.symbols
        and nash.order_profile() == blow.profile
        and mults == blow.multiplicities
        and mults == word_mults
    )
    report = CrossCheckReport(nash, blow, word_mults, ok)
    if not ok:
        raise MismatchReport(f"engines disagree on {c}", report)
    return report
