"""Independent embedded-resolution oracle by iterated point blowups.

Each step recenters at the current point and divides the coordinate of
larger valuation by the other (ties divide the newer coordinate by the
older, matching the ordinary chart choice of the Nash engine).  It keeps the
chart pair after it in a ``ChartStep``, the Nash lift's record: the
recentered denominator is retained, its zero locus the step's own
exceptional divisor, and the quotient is new, its chain origin the
numerator's divisor flag, which it inherits exactly when the numerator
vanished at the center.  The recentered denominator is often the previous
step's quotient itself: a series that vanishes at the center is its own
recentering, its tail (``TruncatedSeries._tail``), so the center test is
the tail's identity and no constant term is made.  Every decision of a
step reads the two valuations it has already read: the quotient takes
them, and the step records them as its orders, the recentered orders a
Nash step records too, off which ``Trace`` reads the multiplicities and
the regularity test.

A step's letter means what a Nash step's does: ``o`` when it divides b by
a, keeping the first coordinate of the pair, ``i`` when it divides a by
b.  Both engines step from the base pair (x, y), and the first blowup, on
the base surface, is an R in either chart, as the Nash lift's level 1 is,
so the engines' letters agree step by step on every germ.  Each step is
one record allocation and holds no names: coordinates are a base letter
and a blowup index (``y_1``), named by the Nash lift's walk over the
letters from (x_0, y_0).  A germ is resolved once into a
``BlowupTrace``, run by the loop the Nash lift runs (``Trace.continued``),
which also refuses a cover; the engine supplies only ``blowup_once`` as
its step.  Word (the symbols read off the flags), order profile and
multiplicities are views of its steps; its chart path is its standard
charts, ``o`` where the new coordinate descends from y, read off the
names.  ``cross_check`` compares the word, order profile and
multiplicities against the Nash lift it is given or makes, reading each
view of either trace once; the blowup word is compared as its string of
symbols, which the Nash word has validated.
"""

from __future__ import annotations

from .defaults import DEFAULT_MAX_LEVEL
from .errors import ConstantParameterization, MismatchReport
from .records import Record, _new
from .series import TruncatedSeries
from .tower import ChartStep, CoordName, CurveGerm, LiftTrace, Trace, lift_trace
from .words import multiplicity_sequence


class BlowupName(CoordName):
    """Base letter and the number of blowups behind the coordinate: ``y_1``."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.base}_{self.order}"


class BlowupTrace(Trace):
    """One resolution of a germ: ``continued`` blows up until the strict
    transform is regular, and every value is read off the steps."""

    __slots__ = ()
    _engine = "blowup"
    _budget = "no regular strict transform within {} blowups"
    _cover = ("{n} is constant at blowup {level} while {r} has order {m}: "
              "the germ is a cover of degree {m}")

    _first_names = (BlowupName("x", 0), BlowupName("y", 0))

    def _step(self, steps: list[ChartStep]) -> ChartStep:
        """The blowup of the chart pair the last step kept or, before the
        first step, of the base pair (x, y)."""
        if not steps:
            return blowup_once(self.germ.x, self.germ.y, level=1)
        s = steps[-1]
        return blowup_once(s.retained, s.new_coord, level=s.level + 1, b_flag=s.chain_origin)

    @property
    def chart_path(self) -> str:
        """The standard chart of each blowup: ``o`` where the new coordinate
        descends from y, ``i`` where it descends from x."""
        return "".join(["o" if n.base == "y" else "i" for _, n, _ in self._names(self.steps)])


def blowup_once(a: TruncatedSeries, b: TruncatedSeries, *, level: int,
                b_flag: int | None = None) -> ChartStep:
    """Blow up the current point of the curve and restrict to the chart the
    strict transform passes through.  (a, b) is the pair after the previous
    blowup: a recentered, its flag ``level - 1`` (none on the base surface),
    and b unrecentered with the flag ``b_flag``.  b vanished at the center
    exactly when its tail is b itself, and the quotient is given the two
    valuations the step read.  The letter is ``o`` when the step divides b
    by a, and ``i`` when it divides a by b.

    Both coordinates constant after recentering is
    ConstantParameterization.  A constant b while val a = d > 1 is a step
    of orders (d, None), whose cover ``Trace`` refuses."""
    b_rec = b._tail()
    va = a.valuation_or_none()
    vb = b_rec.valuation_or_none()
    if va is None and vb is None:
        raise ConstantParameterization(
            f"both coordinates vanish identically after recentering at blowup {level}")
    if va is not None and (vb is None or vb >= va):
        letter, denominator, quotient = "o", a, b_rec._ratio(a, va, vb, 0)
        inherited = b_flag if b_rec is b else None
    else:
        letter, denominator, quotient = "i", b_rec, a._ratio(b_rec, vb, va, 0)
        inherited = level - 1 or None  # a's flag: a always vanishes at the center
    if inherited is not None and quotient.valuation_or_none() != 0:
        symbol = "V" if inherited == level - 1 else "T"
    else:
        symbol = "R"
    return _new(ChartStep, (level, letter, denominator, quotient, symbol, inherited, (va, vb)))


def blowup_resolve(c: CurveGerm, max_level: int = DEFAULT_MAX_LEVEL) -> BlowupTrace:
    """Iterate point blowups until the strict transform is regular:
    ``BlowupTrace.continued`` on the empty trace of ``c``."""
    return BlowupTrace(c, ()).continued(max_level=max_level)


class CrossCheckReport(Record):
    """Both engines' traces of one germ, the multiplicities read off the
    Nash word, and whether all of them agree."""

    __slots__ = ()
    _fields = ("nash", "blowup", "word_multiplicities", "ok")

    def to_json_dict(self) -> dict:
        nash, blow = self.nash, self.blowup
        return {
            "agree": self.ok,
            "word": {"nash": nash.word.symbols, "blowup": blow.word.symbols},
            "order_profile": {
                "nash": list(nash.order_profile()),
                "blowup": list(blow.order_profile()),
            },
            "multiplicities": {
                "nash": list(nash.multiplicities()),
                "blowup": list(blow.multiplicities()),
                "word": list(self.word_multiplicities),
            },
        }


def cross_check(c: CurveGerm | LiftTrace,
                max_level: int = DEFAULT_MAX_LEVEL) -> CrossCheckReport:
    """Run both engines and require identical words, order profiles, and
    multiplicity sequences (also against the word-derived sequence).  ``c``
    is a germ, which is lifted, or a lift of one, which is continued, so
    the germ is lifted once; every Nash value is read off that lift, cut to
    its regularization level, which the report holds.  Raises
    MismatchReport carrying the report when anything differs."""
    nash = (c.continued(max_level=max_level) if isinstance(c, LiftTrace)
            else lift_trace(c, max_level=max_level))
    nash = nash.continued(levels=nash.regularization_level)
    blow = blowup_resolve(nash.germ, max_level)
    word, mults = nash.word, nash.multiplicities()
    word_mults = multiplicity_sequence(word)
    ok = (
        word.symbols == "".join([s.symbol for s in blow.steps])
        and nash.order_profile() == blow.order_profile()
        and mults == blow.multiplicities()
        and mults == word_mults
    )
    report = CrossCheckReport(nash, blow, word_mults, ok)
    if not ok:
        raise MismatchReport(f"engines disagree on {nash.germ}", report)
    return report
