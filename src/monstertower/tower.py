"""Nash-lifting engine through the monster tower charts.

A curve germ (x(t), y(t)) is lifted one level at a time.  At each level the
two active coordinates (r, n) are compared by the valuations of their
t-derivatives:

* ordinary choice (chart letter ``o``), taken when val(dr) <= val(dn):
  the new coordinate is dn/dr, r stays retained and n is deactivated;
* inverted choice (chart letter ``i``), forced when val(dr) > val(dn):
  the new coordinate is dr/dn, n becomes retained and r is deactivated.

Each level reads the pair's slope orders once, takes its letter from them,
and makes its new coordinate as one series, the slope read straight off
the active pair by the ratio kernel ``TruncatedSeries._ratio``, which is
handed the two orders; no derivative series is made, and a stream has
none.

Both engines step from the base pair (x, y).  Past level 1 the inverted
choice is exactly an encounter with the divisor at infinity of the new
level, so the code-word symbol there is V; level 1 has no divisor, so its
point is regular and an inverted first step is an R, as a blowup's is.  An
ordinary step whose new coordinate vanishes at t=0 while a V/T chain is
alive continues the chain with a T; everything else is an R.  A step is
one ``ChartStep``, the record both engines make (``records``), and holds
only what the step decided: its letter, the pair after it, its symbol, its
chain origin and its orders, so a level costs its series.  The letter
means the same in both engines: ``o`` keeps the first coordinate of the
pair and ``i`` the second.  A coordinate's name is a function of the chart
path, so names are a view: one walk over the letters from (x, y)
(``_name_walk``) names them with the calculus convention x, y, y', x',
x'', ... as structured ``CoordName``s, for the chart equations, the JSON
and the cover messages.  Chart data walks from (x, y) too, so every lift's
chart path is chart data.
A germ is lifted once into a ``LiftTrace``, which every reader continues.
A germ given by chart data is rebuilt by integrating down its chart path,
and that walk is its lift to the presented level (``chart_data_trace``):
each level is the lift's own step, carrying the walk's polynomial as its
new coordinate, so the lift goes on from polynomials.
``Trace``, the base of both engines' traces, holds the one step-until-regular
loop: ``continued`` steps on from the last step or, with ``levels=k``, cuts
it, and each engine supplies only its next step, its kernel (``lift_once``
here), which checks no argument and is not a public name.  No run reaches
a pair with both coordinates constant: the germ refuses one, and a step
keeps a coordinate that moves.  ``Trace`` also refuses a cover, in one
place (``_stepped``), for both engines.  A step records the
orders of the pair it stepped from, val(r - r(0)) and val(n - n(0)), as a
blowup does: the slope orders the letter compares, plus one.  So the word,
chart path, base point, order profile, multiplicities and the regularity
test are views ``Trace`` shares, the last two reading the smaller order
of each step (``_least``), the retained coordinate's; data point, chart
equations, vertical orders and curve words are views of the lift.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .defaults import DEFAULT_MAX_LEVEL
from .errors import (
    ConstantParameterization,
    IntegrationMismatch,
    MaxLevelExceeded,
    NonPrimitiveParameterization,
    ParseError,
    literal_text,
    wrong_type,
)
from .records import Record, _new
from .series import _COEFF, TruncatedSeries, _require_series, parse_series
from .words import RvtWord, VerticalOrders


class CoordName(Record):
    """A base letter, "x" or "y", and its number of primes."""

    __slots__ = ()
    _fields = ("base", "order")

    def __str__(self) -> str:
        if self.order == 0:
            return self.base
        if self.order <= 2:
            return self.base + "'" * self.order
        return f"{self.base}^({self.order})"


_X, _Y = CoordName("x", 0), CoordName("y", 0)


def _name_walk(r: CoordName, n: CoordName, letters) -> list[tuple[CoordName, CoordName, CoordName]]:
    """The (retained, new, deactivated) names after each chart step of
    ``letters``, from the pair named (r, n): ``o`` keeps r and deactivates
    n, ``i`` keeps n and deactivates r, and the new coordinate is the
    deactivated name one order up.  A name is a function of the chart
    path, so no step stores one."""
    names = []
    for letter in letters:
        kept, gone = (r, n) if letter == "o" else (n, r)
        r, n = kept, type(gone)(gone.base, gone.order + 1)
        names.append((r, n, gone))
    return names


# the types of a base point's coordinates and of chart-data constants; a
# bool is not one
_NUMBERS = frozenset((int, Fraction))


class CurveGerm(Record):
    """Parameterized germ on the base surface; x and y are stored recentered
    (zero constant term) with the base point kept separately.

    A germ is checked once, when it is built.  A coordinate that is not a
    ``TruncatedSeries`` is ParseError, and a base point that is not a tuple
    of two int or Fraction values is TypeError.  Its coordinates are
    polynomials, as the grammar, the corpus and chart data make them: a
    stream coordinate is ValueError, and so is one with a nonzero constant
    term (``from_series`` recenters).  Both coordinates constant is
    ConstantParameterization, and exponents that all share a factor d > 1
    (``TruncatedSeries.exponent_gcd``) make it a function of t^d, which is
    NonPrimitiveParameterization."""

    __slots__ = ()
    _fields = ("x", "y", "base_point")

    def __new__(cls, x: TruncatedSeries, y: TruncatedSeries,
                base_point: tuple[Fraction, Fraction] = (Fraction(0), Fraction(0))):
        if (base_point.__class__ is not tuple or len(base_point) != 2
                or not {base_point[0].__class__, base_point[1].__class__} <= _NUMBERS):
            raise wrong_type("base_point must be a tuple of two int or Fraction values",
                               base_point, (tuple,))
        for name, s in (("x", x), ("y", y)):
            _require_series(name, s)
            if not s.is_polynomial:
                raise ValueError(f"{name} is a stream; a germ's coordinates are polynomials, "
                                 "built with parse_series or TruncatedSeries.from_terms")
            if s._tail() is not s:
                raise ValueError(f"{name} has constant term {s.constant_term()}; a germ stores "
                                 "recentered coordinates, so build it with CurveGerm.from_series")
        if x.valuation_or_none() is None and y.valuation_or_none() is None:
            raise ConstantParameterization("both coordinates are constant")
        d = gcd(x.exponent_gcd(), y.exponent_gcd())
        if d > 1:
            raise NonPrimitiveParameterization(
                f"all exponents share the factor {d}; reparameterization would "
                "leave the rational field, so the germ is rejected"
            )
        return _new(cls, (x, y, base_point))

    @staticmethod
    def from_series(x: TruncatedSeries, y: TruncatedSeries) -> "CurveGerm":
        x0, x_tail = _require_series("x", x).recenter()
        y0, y_tail = _require_series("y", y).recenter()
        return CurveGerm(x_tail, y_tail, (x0, y0))

    def __str__(self) -> str:
        return f"x={self.x}, y={self.y}"


class ChartStep(Record):
    """One step of either engine, as the engine decided it: its letter, the
    chart pair after it, the symbol (R, V or T), its chain origin, and the
    orders of the pair (r, n) it stepped from, val(r - r(0)) and val(n -
    n(0)), None for a constant one.  The chain origin is not the same
    value in both engines: a Nash step records the level where the V/T
    chain through it started (``RvtWord.chain_origins`` of the trace's
    word at the step's level, None on an R step), and a blowup step its
    new coordinate's divisor flag, the blowup whose exceptional divisor
    that coordinate cuts out, which on a V or T step is the chain origin
    less one and which an R step may carry too.  The
    letter means the same in both engines: ``o`` keeps r, the first
    coordinate of the pair, and ``i`` keeps n.  A Nash step keeps a
    coordinate of the active pair and makes the pair's slope its new one;
    a blowup keeps the recentered denominator, whose zero locus is its own
    exceptional divisor, and makes the quotient, not recentered, its new
    coordinate.  In both the kept coordinate is the one of smaller order.
    A step holds no names: ``Trace`` reads them off the letters.  Each
    engine builds its steps with one ``_new`` call, since the engine's
    own code fixes their arity."""

    __slots__ = ()
    _fields = ("level", "chart_letter", "retained", "new_coord", "symbol", "chain_origin",
               "orders")


def _least(orders: tuple[int | None, int | None]) -> int:
    """The smaller present order of the pair a step stepped from (a step
    has at least one): the order of the coordinate the step retains, and
    the multiplicity of the point it stepped from."""
    a, b = orders
    return b if a is None or b is not None and b < a else a


class Trace(Record):
    """The steps of one engine's run on a germ and its regularization level
    (None while the run has not reached it), with what both engines share:
    the one step-until-regular loop ``continued``, the regularity test
    ``_is_regular``, the one cover rule (``_stepped``) and the views read
    off the steps (word, chart path, base point, order profile,
    multiplicities, names, JSON).  An engine supplies only its next step
    (``_step``), the names of its base pair (x, y) (``_first_names``), its
    budget and cover messages (``_budget``, ``_cover``), its name and any
    per-level JSON fields of its own.  A germ that is not a
    ``CurveGerm`` is refused when the trace is made.  The invariant views
    read only ``steps[:regularization_level]``, so they work on any trace
    that reached the regularization level.  Steps that are not a tuple,
    or a regularization level that is neither None nor an int, are
    TypeError.  Traces compare exactly: each
    pair of series is read up to the bounds of its difference
    (``TruncatedSeries.__eq__``).  That is a few hundred terms on most
    lifts (e = 82 at level 7 of x=t^14, y=14*t^18+14*t^19), but the
    deepest still read thousands (e = 10,822 at level 12 of x=t^12,
    y=t^30+t^61), so no command compares traces."""

    __slots__ = ()
    _fields = ("germ", "steps", "regularization_level")

    def __new__(cls, germ: CurveGerm, steps: tuple, regularization_level: int | None = None):
        if not isinstance(germ, CurveGerm):
            raise ParseError(f"expected a CurveGerm, got {type(germ).__name__}; "
                             "parse text with parse_curve")
        if steps.__class__ is not tuple:
            raise wrong_type("steps must be a tuple", steps)
        if regularization_level is not None and regularization_level.__class__ is not int:
            raise wrong_type("regularization_level must be None or an int", regularization_level)
        return _new(cls, (germ, steps, regularization_level))

    @property
    def word(self) -> RvtWord:
        """Full incidence word: one symbol per step, chains from every origin."""
        return RvtWord("".join([s.symbol for s in self.steps]))

    @property
    def chart_path(self) -> str:
        return "".join([s.chart_letter for s in self.steps])

    @property
    def base_point(self) -> tuple[Fraction, Fraction]:
        return self.germ.base_point

    def _regular_steps(self) -> tuple:
        if self.regularization_level is None:
            raise MaxLevelExceeded(f"trace stops at level {len(self.steps)}, before regularity")
        return self.steps[: self.regularization_level]

    def multiplicities(self) -> tuple[int, ...]:
        """The multiplicity of each point, from the base germ to
        regularization: the smaller order of the recentered pair each step
        stepped from (``_least``); the regular point's is 1."""
        return (*[_least(s.orders) for s in self._regular_steps()], 1)

    @staticmethod
    def _is_regular(step: ChartStep) -> bool:
        """Regularity after a step: the retained coordinate, whose order is
        the smaller of the step's (``_least``), has order 1, and so does
        the new coordinate of a critical step (V or T), where the curve
        meets the chain's divisor too.  That coordinate vanishes at t=0 in
        both engines, so its valuation is its recentered order."""
        return _least(step.orders) == 1 and (
            step.symbol == "R" or step.new_coord.valuation_or_none() == 1)

    def _names(self, steps) -> list[tuple[CoordName, CoordName, CoordName]]:
        """The (retained, new, deactivated) names after each of ``steps``:
        the name walk from the engine's first pair over their letters."""
        return _name_walk(*self._first_names, [s.chart_letter for s in steps])

    def _stepped(self, steps: list) -> ChartStep:
        """The engine's next step on ``steps``, unless it shows a cover: a
        step from a pair with one constant coordinate while the other has
        order m > 1 makes every coordinate a function of the other, of
        order m in t, so the germ factors through it, and
        NonPrimitiveParameterization names the cover of degree m, the
        constant coordinate as n and the other as r (``_cover``).  An
        order of 0 beside the constant one, which only a hand-built blowup
        pair records, makes both constant: ConstantParameterization."""
        step = self._step(steps)
        a, b = step.orders
        if (a is None or b is None) and (m := _least(step.orders)) != 1:
            pair = self._names(steps)[-1][:2] if steps else self._first_names
            n, r = pair if a is None else pair[::-1]
            if not m:
                raise ConstantParameterization(
                    f"{r} and {n} are both constant at level {step.level}")
            raise NonPrimitiveParameterization(
                self._cover.format(r=r, n=n, level=step.level, m=m, slope=m - 1))
        return step

    def order_profile(self) -> tuple[int | None, ...]:
        """Valuations of x, y and the new coordinate of every level up to
        regularization.  None marks a coordinate that is identically zero."""
        return (
            self.germ.x.valuation_or_none(),
            self.germ.y.valuation_or_none(),
            *[s.new_coord.valuation_or_none() for s in self._regular_steps()],
        )

    def continued(self, *, levels: int | None = None,
                  max_level: int = DEFAULT_MAX_LEVEL) -> "Trace":
        """The run continued from the last step (from the base germ when the
        trace is empty).  With ``levels=None``, step until the engine's
        regularity test fires, keeping steps already made past it; a
        regularization level above ``max_level`` is MaxLevelExceeded, also
        when this trace already reached it.  With ``levels=k``, exactly k
        steps (none for k < 0): a shorter trace is continued, recording the
        regularization level if it is reached, and a longer one is cut,
        keeping it only if it is at most k.  A run re-made, or continued
        from a cut or a shorter run, gives a bit-identical trace.  The germ
        was checked when it was built, so no step makes a primitivity check
        of its own; a cover a step meets is refused by ``_stepped``.  A
        ``levels`` or ``max_level`` that is not an int is TypeError."""
        if levels is not None and levels.__class__ is not int:
            raise wrong_type("levels must be an int", levels)
        if max_level.__class__ is not int:
            raise wrong_type("max_level must be an int", max_level)
        if levels == len(self.steps):
            return self
        if levels is not None and levels < len(self.steps):
            k, r = max(levels, 0), self.regularization_level
            return type(self)(self.germ, self.steps[:k], r if r is not None and r <= k else None)
        steps, regular_at = list(self.steps), self.regularization_level
        stepped, is_regular, append = self._stepped, self._is_regular, steps.append
        while (len(steps) < levels if levels is not None
               else regular_at is None and len(steps) < max_level):
            step = stepped(steps)
            append(step)
            if regular_at is None and is_regular(step):
                regular_at = step.level
        if levels is None and (regular_at is None or regular_at > max_level):
            raise MaxLevelExceeded(self._budget.format(max_level))
        return type(self)(self.germ, tuple(steps), regular_at)

    def to_json_dict(self) -> dict:
        path = self.chart_path
        return {
            "engine": self._engine,
            "base_point": [str(c) for c in self.base_point],
            "levels": [
                {
                    "level": s.level,
                    "chart": letter,
                    "symbol": s.symbol,
                    "new_coordinate": str(names[1]),
                    "valuation": s.new_coord.valuation_or_none(),
                    "constant_term": str(s.new_coord.constant_term()),
                    "chain_origin": s.chain_origin,
                    **self._level_json(*names),
                }
                for s, letter, names in zip(self.steps, path, self._names(self.steps))
            ],
            "word": self.word.symbols,
            "chart_path": path,
            "regularization_level": self.regularization_level,
        }

    @staticmethod
    def _level_json(retained: CoordName, new: CoordName, deactivated: CoordName) -> dict:
        return {}


class LiftTrace(Trace):
    """One Nash lift of a germ, and the only source of its chart data.  A
    trace grows, or is cut, by ``continued``, so a germ is lifted once
    however many levels its readers ask for.  Word, chart path, data point
    and chart equations cover every level lifted and name coordinates as
    the lift meets them, from (x, y)."""

    __slots__ = ()
    _engine = "nash"
    _budget = "no regular lift within {} levels; the germ may be critical or the budget too small"
    _cover = ("d{n}/dt vanishes identically at level {level} while d{r}/dt has order {slope}: "
              "the germ is a cover of degree {m}")

    _first_names = (_X, _Y)

    def _step(self, steps: list[ChartStep]) -> ChartStep:
        """The chart step on the active pair the last step kept or, before
        the first step, on the base pair (x, y)."""
        if not steps:
            return lift_once(self.germ.x, self.germ.y, 1)
        s = steps[-1]
        return lift_once(s.retained, s.new_coord, s.level + 1, s.chain_origin)

    @property
    def data_point(self) -> tuple[Fraction, ...]:
        """x0, y0, then the value of each new coordinate at t=0."""
        return (*self.germ.base_point, *(s.new_coord.constant_term() for s in self.steps))

    def vertical_orders(self) -> VerticalOrders:
        """Orders of vanishing of the divisor equations along the lift: at an
        inverted level the new coordinate cuts the divisor at infinity, so its
        valuation is the vertical order; ordinary levels contribute zero."""
        return _new(VerticalOrders, (tuple(
            s.new_coord.valuation() if s.chart_letter == "i" else 0
            for s in self._regular_steps()[1:]
        ), 2))

    def chart_equations(self) -> list[str]:
        """Pfaffian equations of the focal bundle along the lift: one per
        level, d(deactivated) = new d(retained)."""
        return [f"d{d} = {n} d{r}" for r, n, d in self._names(self.steps)]

    def curve_word(self, k: int = 0) -> RvtWord:
        """Code word of the germ lifted k times, of length r - k: the
        regular word split at level k (``RvtWord.split_at_level``), empty
        past r.  A k that is not an int is TypeError."""
        if k.__class__ is not int:
            raise wrong_type("k must be an int", k)
        word = RvtWord("".join([s.symbol for s in self._regular_steps()]))
        return word.split_at_level(min(k, len(word)))[1]

    @staticmethod
    def _level_json(retained: CoordName, new: CoordName, deactivated: CoordName) -> dict:
        return {"retained_coordinate": str(retained), "deactivated_coordinate": str(deactivated)}

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "data_point": [str(c) for c in self.data_point]}


def lift_once(
    retained: TruncatedSeries,
    new_coord: TruncatedSeries,
    level: int,
    chain_origin: int | None = None,
) -> ChartStep:
    """One chart step on the active pair (r, n).  The chart letter is decided
    by comparing val(dr/dt) with val(dn/dt), read off the slope orders of
    the pair; ties take the ordinary choice, since a vertical encounter
    forces strict inequality.  An inverted step past level 1 is a V whose
    chain starts at its level; at level 1, which has no divisor, it is an
    R with no chain, as a first blowup is.  The new coordinate is the
    pair's slope, dn/dr or dr/dn, one series, made by the ratio kernel
    (``_ratio``) from the two orders already read.  The step records the pair's recentered
    orders, val(r - r(0)) and val(n - n(0)): in characteristic 0 each is
    its slope order plus one.

    This is the Nash engine's step, run once per step by ``LiftTrace``,
    and it checks no argument; it is not a public name, and k steps are
    ``lift_trace(c, levels=k)``.  A derivative with no valuation is
    identically zero, so its coordinate is constant.  No lift reaches a
    pair with both constant: the germ refuses one, and a step keeps a
    coordinate whose slope order it read.  One constant coordinate while
    the other's slope order is m >= 1 is a step of orders (m + 1, None) or
    (None, m + 1), whose cover ``Trace`` refuses.
    """
    vr = retained.slope_order()
    vn = new_coord.slope_order()
    if vr is None or (vn is not None and vr > vn):
        letter, kept, fresh = "i", new_coord, retained._ratio(new_coord, vn, vr, 1)
        symbol, chain = ("V", level) if level > 1 else ("R", None)
    else:
        letter, kept, fresh = "o", retained, new_coord._ratio(retained, vr, vn, 1)
        on_prolongation = chain_origin is not None and fresh.valuation_or_none() != 0
        symbol, chain = ("T", chain_origin) if on_prolongation else ("R", None)
    return _new(ChartStep, (level, letter, kept, fresh, symbol, chain,
                            (None if vr is None else vr + 1, None if vn is None else vn + 1)))


def lift_trace(
    c: CurveGerm,
    *,
    levels: int | None = None,
    max_level: int = DEFAULT_MAX_LEVEL,
) -> LiftTrace:
    """Lift the germ through the tower: ``LiftTrace.continued`` on the empty
    trace of ``c``.  With ``levels=None``, iterate until the regularity
    criterion fires (MaxLevelExceeded past the budget); with ``levels=k``,
    perform exactly k chart steps."""
    return LiftTrace(c, ()).continued(levels=levels, max_level=max_level)


# kept for bench/run.py until ROADMAP item 1; the package calls lift_trace
def lift_to_regularization(c: CurveGerm, max_level: int = DEFAULT_MAX_LEVEL) -> LiftTrace:
    """Trace ending exactly at the regularization level."""
    return lift_trace(c, max_level=max_level)


# -- charts in the opposite direction -----------------------------------------


def _walk_names(path: str) -> list[tuple[str, CoordName, CoordName, int]]:
    """Per level of a chart path: the letter, the retained and deactivated
    names after the step, by the lift's own name walk (``_name_walk``), and
    the data-point slot of the deactivated coordinate (x, y, then the new
    coordinate of each level).  The walk starts from (x, y), as the lift
    does, so a path may start with either letter."""
    slot = {_X: 0, _Y: 1}
    plan = []
    for level, (letter, (r, n, deactivated)) in enumerate(zip(path, _name_walk(_X, _Y, path)), 1):
        if letter not in "oi":
            raise ParseError(f"chart letter {letter!r} is not o or i")
        slot[n] = level + 1
        plan.append((letter, r, deactivated, slot[deactivated]))
    return plan


def curve_from_chart_data(
    path: str,
    retained: TruncatedSeries,
    new_coord: TruncatedSeries,
    constants=None,
) -> CurveGerm:
    """Rebuild the base curve whose lift along ``path`` has the given active
    parameterizations: the germ of ``chart_data_trace``."""
    return chart_data_trace(path, retained, new_coord, constants).germ


def chart_data_trace(path: str, retained: TruncatedSeries, new_coord: TruncatedSeries,
                     constants=None) -> LiftTrace:
    """Rebuild the base curve whose lift along ``path`` has the given active
    parameterizations, integrating one deactivated coordinate per level,
    and return its check trace: the rebuilt germ lifted k = len(path)
    levels, where a caller that needs more levels continues it.  The walk
    down is that trace: each level is the lift's own step (``_stepped``) on
    the steps below it, checked against the path's letter and stored with
    the walk's polynomial N_j as its new coordinate.  The lift steps from
    (x, y), so ``path`` may start with either letter.

    ``constants`` supplies the integration constants in data-point order
    (x, y, then new coordinates); the entries at the two final active
    positions are ignored.  Defaults to all zeros.  Chart data is
    polynomial: ``TruncatedSeries.integrate`` refuses a stream with
    ValueError.  IntegrationMismatch signals a path letter that conflicts
    with the valuations actually encountered; it names the path of the
    rebuilt germ's lift to level k.  The letters are the whole check.  A
    ``path`` that is not a str, or a ``retained`` or ``new_coord`` that is
    not a ``TruncatedSeries``, is ParseError; ``constants`` that are not a
    list or tuple of int or Fraction values (a bool is neither) are
    TypeError.

    Why a step may carry N_j.  At level j the walk integrates the
    coordinate that level deactivates, D = integral of N_j dR_j + c, where
    (R_j, N_j) is the active pair after level j.  The lift, taking the same
    letter on the pair below, makes dD/dR_j its new coordinate there, which
    is N_j exactly and for any c, and keeps R_j.  Derivatives ignore the
    recentering of the base point, so from the base up, while the letters
    agree, the lift's new coordinates are the walk's, and its retained
    coordinates, which the lift's step supplies, are too, with one
    exception: the lift keeps x and y recentered, and one of them is the
    top retained coordinate only on a path whose letters past the first
    are all ``o`` (x after an ``o``, y after an ``i``).  There the top pair
    is (r - r(0), n), and r(0) is that coordinate's entry of the base
    point.
    """
    if not isinstance(path, str):
        raise ParseError(f"expected a str chart path, got {type(path).__name__}")
    k = len(path)
    plan = _walk_names(path)
    if constants is None:
        constants = [Fraction(0)] * (k + 2)
    elif (constants.__class__ not in (list, tuple)
          or not {c.__class__ for c in constants} <= _NUMBERS):
        raise wrong_type("constants must be a list or tuple of int or Fraction values",
                           constants, (list, tuple))
    else:
        constants = [c if c.__class__ is Fraction else Fraction(c) for c in constants]
    if len(constants) != k + 2:
        raise ParseError(f"need {k + 2} constants for a level-{k} chart")
    cur_r, cur_n = _require_series("r", retained), _require_series("n", new_coord)
    if cur_r.slope_order() is None and cur_n.slope_order() is None:
        raise ConstantParameterization("both active parameterizations are constant")
    news = []  # N_k down to N_1
    for level in range(k, 0, -1):
        letter, r_name, deactivated, slot = plan[level - 1]
        if cur_r.slope_order() is None:
            raise ConstantParameterization(
                f"integration variable {r_name} of d{deactivated} is constant at level {level}"
            )
        news.append(cur_n)
        d_series = cur_n.integrate(cur_r, constants[slot])
        if letter == "o":
            cur_n = d_series
        else:
            cur_r, cur_n = d_series, cur_r
    trace, steps = LiftTrace(CurveGerm.from_series(cur_r, cur_n), ()), []
    for letter, new in zip(path, reversed(news)):
        s = trace._stepped(steps)
        if s.chart_letter != letter:
            lifted = LiftTrace(trace.germ, (*steps, s)).continued(levels=k).chart_path
            raise IntegrationMismatch(f"rebuilt curve lifts along {lifted!r}, not {path!r}")
        steps.append(ChartStep(s.level, letter, s.retained, new, s.symbol, s.chain_origin,
                               s.orders))
    regular_at = next((s.level for s in steps if trace._is_regular(s)), None)
    return LiftTrace(trace.germ, tuple(steps), regular_at)


# -- curve text grammar --------------------------------------------------------


# precision is kept for bench/run.py until ROADMAP item 1, and ignored
def parse_curve(text: str, precision=None) -> tuple[CurveGerm, int]:
    """Parse curve input into the germ and its presentation level:
    ``parse_curve_trace`` without the lift."""
    trace = parse_curve_trace(text)
    return trace.germ, len(trace.steps)


def parse_curve_trace(text: str) -> LiftTrace:
    """Parse curve input into the germ lifted to its presentation level.

    Base germ: ``x=t^5, y=t^7``, returned as its empty trace.  Germ at
    level k: ``@level 3 chart=oio, r=t, n=t`` with an optional
    ``constants=0,0,...`` field (data-point order); the base curve is
    rebuilt by integration, and the k-level check trace of the rebuild
    (``chart_data_trace``) is returned.  Fields are comma separated.
    """
    body = literal_text(text, "curve").strip()
    if body.startswith("@level"):
        parts = body.split(None, 2)
        if len(parts) < 3:
            raise ParseError("expected '@level k chart=... r=..., n=...'")
        try:
            level = int(parts[1])
        except ValueError as exc:
            raise ParseError(f"bad level {parts[1]!r}") from exc
        fields = _split_fields(parts[2])
        for needed in ("chart", "r", "n"):
            if needed not in fields:
                raise ParseError(f"leveled germs need a {needed}= field")
        _reject_unknown(fields, ("chart", "r", "n", "constants"))
        path = fields["chart"].strip()
        if len(path) != level:
            raise ParseError(f"chart path {path!r} does not have length {level}")
        constants = None
        if "constants" in fields:
            constants = [_parse_constant(c) for c in fields["constants"]]
        return chart_data_trace(path, parse_series(fields["r"]), parse_series(fields["n"]),
                                constants)
    fields = _split_fields(body)
    for needed in ("x", "y"):
        if needed not in fields:
            raise ParseError("expected 'x=<series>, y=<series>'")
    _reject_unknown(fields, ("x", "y"))
    return LiftTrace(CurveGerm.from_series(parse_series(fields["x"]), parse_series(fields["y"])),
                     ())


# the coefficient grammar of series literals, with its sign
_CONSTANT_RE = re.compile(rf"[+-]?\s*{_COEFF}")


def _parse_constant(text: str) -> Fraction:
    if _CONSTANT_RE.fullmatch(text):
        try:
            return Fraction("".join(text.split()))
        except ZeroDivisionError:
            pass
    raise ParseError(f"bad constant {text!r}; expected an integer or a fraction p/q")


def _reject_unknown(fields: dict, known: tuple[str, ...]) -> None:
    for name in fields:
        if name not in known:
            raise ParseError(f"unknown field {name!r}; expected {', '.join(known)}")


def _split_fields(text: str) -> dict[str, str | list[str]]:
    """Split 'a=..., b=...' where a series value may itself contain commas
    only in a constants= list (collected as a list of chunks)."""
    fields: dict[str, str | list[str]] = {}
    name = None
    for chunk in text.split(","):
        if "=" in chunk:
            name, value = chunk.split("=", 1)
            name = name.strip()
            if name in fields:
                raise ParseError(f"field {name!r} given more than once")
            fields[name] = [value.strip()] if name == "constants" else value.strip()
        elif name == "constants":
            fields[name].append(chunk.strip())
        else:
            raise ParseError(f"expected name=value, got {chunk.strip()!r}")
    return fields
