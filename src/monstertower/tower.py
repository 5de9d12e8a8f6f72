"""Nash-lifting engine through the monster tower charts.

A curve germ (x(t), y(t)) is lifted one level at a time.  At each level the
two active coordinates (r, n) are compared by the valuations of their
t-derivatives:

* ordinary choice (chart letter ``o``), taken when val(dr) <= val(dn):
  the new coordinate is dn/dr, r stays retained and n is deactivated;
* inverted choice (chart letter ``i``), forced when val(dr) > val(dn):
  the new coordinate is dr/dn, n becomes retained and r is deactivated.

Each level makes its new coordinate as one series, the slope read straight
off the active pair (``TruncatedSeries.slope``), and reads the letter off
the pair's slope orders; no derivative series is made.

The inverted choice is exactly an encounter with the divisor at infinity of
the new level, so the code-word symbol there is V.  An ordinary step whose
new coordinate vanishes at t=0 while a V/T chain is alive continues the
chain with a T; everything else is an R.  Coordinates are named with the
calculus convention x, y, y', x', x'', ... as the lift meets them (one rule,
``_step_names``, for both letters) and carried as structured ``CoordName``s.
A germ is lifted once into a ``LiftTrace``, which every reader continues:
``continued`` lifts on from the last step or, with ``levels=k``, cuts it.
Its word, data point, chart equations and every Nash-derived invariant
(order profile, multiplicities, vertical orders, curve words) are views of
it; the word, chart path and base point live on ``Trace``, its base.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .defaults import DEFAULT_MAX_LEVEL
from .errors import (
    ConstantParameterization,
    IntegrationMismatch,
    LevelOutOfRange,
    MaxLevelExceeded,
    NonPrimitiveParameterization,
    ParseError,
)
from .invariants import VerticalOrders
from .records import Record, _set
from .series import TruncatedSeries, parse_series
from .words import RvtWord


class CoordName(Record):
    __slots__ = ("base", "order")

    def __init__(self, base: str, order: int):
        _set(self, "base", base)    # "x" or "y"
        _set(self, "order", order)  # number of primes

    def bump(self) -> "CoordName":
        return type(self)(self.base, self.order + 1)

    def __str__(self) -> str:
        if self.order == 0:
            return self.base
        if self.order <= 2:
            return self.base + "'" * self.order
        return f"{self.base}^({self.order})"


class CurveGerm(Record):
    """Parameterized germ on the base surface; x and y are stored recentered
    (zero constant term) with the base point kept separately.

    A germ is checked once, when it is built.  Its coordinates are
    polynomials, as the grammar, the corpus and chart data make them: a
    stream coordinate is ValueError, and so is one with a nonzero constant
    term (``from_series`` recenters).  Both coordinates constant is
    ConstantParameterization, and exponents that all share a factor d > 1
    (``TruncatedSeries.exponent_gcd``) make it a function of t^d, which is
    NonPrimitiveParameterization."""

    __slots__ = ("x", "y", "base_point")

    def __init__(self, x: TruncatedSeries, y: TruncatedSeries,
                 base_point: tuple[Fraction, Fraction] = (Fraction(0), Fraction(0))):
        for name, s in (("x", x), ("y", y)):
            if not s.is_polynomial:
                raise ValueError(f"{name} is a stream; a germ's coordinates are polynomials, "
                                 "built with parse_series or TruncatedSeries.from_terms")
            c = s.constant_term()
            if c:
                raise ValueError(f"{name} has constant term {c}; a germ stores recentered "
                                 "coordinates, so build it with CurveGerm.from_series")
        if x.valuation_or_none() is None and y.valuation_or_none() is None:
            raise ConstantParameterization("both coordinates are constant")
        d = gcd(x.exponent_gcd(), y.exponent_gcd())
        if d > 1:
            raise NonPrimitiveParameterization(
                f"all exponents share the factor {d}; reparameterization would "
                "leave the rational field, so the germ is rejected"
            )
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "base_point", base_point)

    @staticmethod
    def from_series(x: TruncatedSeries, y: TruncatedSeries) -> "CurveGerm":
        x0, x_tail = x.recenter()
        y0, y_tail = y.recenter()
        return CurveGerm(x_tail, y_tail, (x0, y0))

    def __str__(self) -> str:
        return f"x={self.x}, y={self.y}"


class LiftStep(Record):
    __slots__ = ("level", "chart_letter", "retained", "new_coord", "retained_name", "new_name",
                 "deactivated", "symbol", "chain_origin", "orders")

    def __init__(self, level: int, chart_letter: str, retained: TruncatedSeries,
                 new_coord: TruncatedSeries, retained_name: CoordName, new_name: CoordName,
                 deactivated: CoordName, symbol: str, chain_origin: int | None,
                 orders: tuple[int | None, int | None]):
        _set(self, "level", level)
        _set(self, "chart_letter", chart_letter)    # "o" or "i"
        _set(self, "retained", retained)
        _set(self, "new_coord", new_coord)
        _set(self, "retained_name", retained_name)
        _set(self, "new_name", new_name)
        _set(self, "deactivated", deactivated)      # the coordinate that went passive
        _set(self, "symbol", symbol)                # R, V, or T
        _set(self, "chain_origin", chain_origin)    # level of the divisor whose chain is alive
        _set(self, "orders", orders)  # val(dr/dt), val(dn/dt) that decided the letter


class Trace(Record):
    """The steps of one engine's run on a germ, and the views both engines'
    traces share: the word, the chart path and the base point."""

    __slots__ = ("germ", "steps")

    def __init__(self, germ: CurveGerm, steps: tuple):
        _set(self, "germ", germ)
        _set(self, "steps", steps)

    @property
    def word(self) -> RvtWord:
        """Full incidence word: one symbol per step, chains from every origin."""
        return RvtWord("".join(s.symbol for s in self.steps))

    @property
    def chart_path(self) -> str:
        return "".join(s.chart_letter for s in self.steps)

    @property
    def base_point(self) -> tuple[Fraction, Fraction]:
        return self.germ.base_point


class LiftTrace(Trace):
    """One lift of a germ, and the only source of its chart data.  A trace
    grows, or is cut, by ``continued``, so a germ is lifted once however
    many levels its readers ask for.  Word, chart path, data point and
    chart equations cover every level lifted and name coordinates as the
    lift did; the invariant views read only ``steps[:regularization_level]``,
    so they work on any trace that reached the regularization level.
    Traces compare exactly: each pair of series is read up to the bounds of
    its difference (``TruncatedSeries.__eq__``), which on a deep lift can be
    thousands of terms, so no command compares traces."""

    __slots__ = ("regularization_level",)

    def __init__(self, germ: CurveGerm, steps: tuple[LiftStep, ...],
                 regularization_level: int | None):
        super().__init__(germ, steps)
        _set(self, "regularization_level", regularization_level)

    @property
    def data_point(self) -> tuple[Fraction, ...]:
        """x0, y0, then the value of each new coordinate at t=0."""
        return (*self.germ.base_point, *(s.new_coord.constant_term() for s in self.steps))

    def _regular_steps(self) -> tuple[LiftStep, ...]:
        if self.regularization_level is None:
            raise MaxLevelExceeded(f"trace stops at level {len(self.steps)}, before regularity")
        return self.steps[: self.regularization_level]

    def order_profile(self) -> tuple[int | None, ...]:
        """Valuations of x, y and the new coordinate of every level up to
        regularization.  None marks a coordinate that is identically zero."""
        return (
            self.germ.x.valuation_or_none(),
            self.germ.y.valuation_or_none(),
            *(s.new_coord.valuation_or_none() for s in self._regular_steps()),
        )

    def multiplicities(self) -> tuple[int, ...]:
        """Multiplicity of each lift: the smaller valuation of the recentered
        active pair, level by level from the base germ to regularization.
        In characteristic 0, val(f - f(0)) = val(df/dt) + 1, so each step's
        deciding orders give the multiplicity of the pair it lifted; the
        regular pair has multiplicity 1."""
        steps = self._regular_steps()
        return (*(min(v for v in s.orders if v is not None) + 1 for s in steps), 1)

    def vertical_orders(self) -> VerticalOrders:
        """Orders of vanishing of the divisor equations along the lift: at an
        inverted level the new coordinate cuts the divisor at infinity, so its
        valuation is the vertical order; ordinary levels contribute zero."""
        return VerticalOrders(tuple(
            s.new_coord.valuation() if s.chart_letter == "i" else 0
            for s in self._regular_steps()[1:]
        ))

    def chart_equations(self) -> list[str]:
        """Pfaffian equations of the focal bundle along the lift: one per
        level, d(deactivated) = new d(retained)."""
        return [f"d{s.deactivated} = {s.new_name} d{s.retained_name}" for s in self.steps]

    def curve_word(self, k: int = 0) -> RvtWord:
        """Code word of the germ lifted k times: length r - k, read off the
        steps past level k.  A step keeps its symbol when its chain started at
        level k+2 or above, and is an R otherwise (``split_at_level`` on the
        full word gives the same word)."""
        steps = self._regular_steps()
        if k < 0:
            raise LevelOutOfRange(f"level {k} outside word of length {len(steps)}")
        return RvtWord("".join(
            s.symbol if s.chain_origin is not None and s.chain_origin >= k + 2 else "R"
            for s in steps[k:]
        ))

    def continued(self, *, levels: int | None = None,
                  max_level: int = DEFAULT_MAX_LEVEL) -> "LiftTrace":
        """The lift continued from the last step (from the base germ when the
        trace is empty).  With ``levels=None``, lift until the regularity
        criterion fires, keeping steps already lifted past it; a
        regularization level above ``max_level`` is MaxLevelExceeded, also
        when this trace already reached it.  With ``levels=k``, exactly k
        levels (none for k < 0): a shorter trace is lifted on, recording the
        regularization level if it is reached, and a longer one is cut,
        keeping it only if it is at most k.  A lift re-run, or continued
        from a cut or a shorter lift, gives a bit-identical trace.  The germ
        was checked when it was built, so the lift makes no primitivity
        check of its own; a cover it meets is named by the constant
        coordinate that shows it."""
        if levels == len(self.steps):
            return self
        if levels is not None and levels < len(self.steps):
            k, r = max(levels, 0), self.regularization_level
            return LiftTrace(self.germ, self.steps[:k], r if r is not None and r <= k else None)
        steps, regular_at = list(self.steps), self.regularization_level
        (r_name, r), (n_name, n), chain = _actives(self.germ, steps)
        while (len(steps) < levels if levels is not None
               else regular_at is None and len(steps) < max_level):
            step = lift_once(r, n, len(steps) + 1, r_name, n_name, chain)
            steps.append(step)
            (r_name, r), (n_name, n), chain = _actives(self.germ, steps)
            if regular_at is None and _is_regular(step.symbol, r, n):
                regular_at = step.level
        if levels is None and (regular_at is None or regular_at > max_level):
            raise MaxLevelExceeded(
                f"no regular lift within {max_level} levels; the germ may be "
                "critical or the budget too small"
            )
        return LiftTrace(self.germ, tuple(steps), regular_at)

    def to_json_dict(self) -> dict:
        return {
            "engine": "nash",
            "base_point": [str(c) for c in self.base_point],
            "levels": [
                {
                    "level": s.level,
                    "chart": s.chart_letter,
                    "symbol": s.symbol,
                    "new_coordinate": str(s.new_name),
                    "retained_coordinate": str(s.retained_name),
                    "deactivated_coordinate": str(s.deactivated),
                    "valuation": s.new_coord.valuation_or_none(),
                    "constant_term": str(s.new_coord.constant_term()),
                    "chain_origin": s.chain_origin,
                }
                for s in self.steps
            ],
            "word": self.word.symbols,
            "chart_path": self.chart_path,
            "regularization_level": self.regularization_level,
            "data_point": [str(c) for c in self.data_point],
        }


def lift_once(
    retained: TruncatedSeries,
    new_coord: TruncatedSeries,
    level: int,
    retained_name: CoordName = CoordName("x", 0),
    new_name: CoordName = CoordName("y", 0),
    chain_origin: int | None = None,
) -> LiftStep:
    """One chart step on the active pair (r, n).  The chart letter is decided
    by comparing val(dr/dt) with val(dn/dt), read off the slope orders of
    the pair; ties take the ordinary choice, since a vertical encounter
    forces strict inequality.  The new coordinate is the pair's slope,
    dn/dr or dr/dn, one series.

    A derivative with no valuation is identically zero, so its coordinate
    is constant.  Both constant is ConstantParameterization.  A constant
    new coordinate while val(dr/dt) = m >= 1 makes every coordinate a
    function of r, of order m + 1 in t, so the germ factors through r:
    NonPrimitiveParameterization names the cover of degree m + 1.
    """
    vr = retained.slope_order()
    vn = new_coord.slope_order()
    if vn is None:
        if vr is None:
            raise ConstantParameterization(
                f"both active derivatives d{retained_name}/dt and d{new_name}/dt "
                f"vanish identically at level {level}"
            )
        if vr >= 1:
            raise NonPrimitiveParameterization(
                f"d{new_name}/dt vanishes identically at level {level} while "
                f"d{retained_name}/dt has order {vr}: the germ is a cover of degree {vr + 1}"
            )
    if vr is None or (vn is not None and vr > vn):
        letter, kept, fresh = "i", new_coord, retained.slope(new_coord)
        symbol, chain = "V", level
    else:
        letter, kept, fresh = "o", retained, new_coord.slope(retained)
        on_prolongation = chain_origin is not None and fresh.constant_term() == 0
        symbol, chain = ("T", chain_origin) if on_prolongation else ("R", None)
    kept_name, fresh_name, deactivated = _step_names(letter, retained_name, new_name)
    return LiftStep(
        level=level,
        chart_letter=letter,
        retained=kept,
        new_coord=fresh,
        retained_name=kept_name,
        new_name=fresh_name,
        deactivated=deactivated,
        symbol=symbol,
        chain_origin=chain,
        orders=(vr, vn),
    )


def _step_names(letter: str, retained: CoordName, new: CoordName):
    """The (retained, new, deactivated) names after a chart step on the
    active pair (r, n): ``o`` keeps r and deactivates n, ``i`` keeps n and
    deactivates r; the new coordinate bumps the deactivated name."""
    if letter == "o":
        return retained, new.bump(), new
    return new, retained.bump(), retained


def _actives(c: CurveGerm, steps):
    """The named active pair (r, n) after the lift ``steps`` of ``c``, and
    the level of the chain alive there.  Before the first step, retain
    whichever base coordinate has the smaller valuation (tie: x)."""
    if steps:
        s = steps[-1]
        return (s.retained_name, s.retained), (s.new_name, s.new_coord), s.chain_origin
    vx = c.x.valuation_or_none()
    vy = c.y.valuation_or_none()
    if vx is not None and (vy is None or vx <= vy):
        return (CoordName("x", 0), c.x), (CoordName("y", 0), c.y), None
    return (CoordName("y", 0), c.y), (CoordName("x", 0), c.x), None


def _is_regular(symbol: str, retained: TruncatedSeries, new_coord: TruncatedSeries) -> bool:
    """Regularity after a chart step: the retained coordinate moves at unit
    speed and the new coordinate either does too or carries no chain."""
    if retained.slope_order() != 0:
        return False
    return symbol == "R" or new_coord.slope_order() == 0


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
    return LiftTrace(c, (), None).continued(levels=levels, max_level=max_level)


# kept for bench/run.py until ROADMAP item 1; the package calls lift_trace
def lift_to_regularization(c: CurveGerm, max_level: int = DEFAULT_MAX_LEVEL) -> LiftTrace:
    """Trace ending exactly at the regularization level."""
    return lift_trace(c, max_level=max_level)


# -- charts in the opposite direction -----------------------------------------


def _walk_names(path: str) -> list[tuple[str, CoordName, CoordName, int]]:
    """Per level of a chart path: the letter, the retained and deactivated
    names after the step, by the lift's own rule ``_step_names``, and the
    data-point slot of the deactivated coordinate (x, y, then the new
    coordinate of each level).  Chart data is given in the chart family that
    retains x first, so the path starts with an ordinary choice."""
    if path and path[0] != "o":
        raise ParseError("chart paths start with an ordinary choice")
    r, n = CoordName("x", 0), CoordName("y", 0)
    slot = {r: 0, n: 1}
    plan = []
    for level, letter in enumerate(path, 1):
        if letter not in "oi":
            raise ParseError(f"chart letter {letter!r} is not o or i")
        r, n, deactivated = _step_names(letter, r, n)
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
    levels, where a caller that needs more levels continues it.

    ``constants`` supplies the integration constants in data-point order
    (x, y, then new coordinates); the entries at the two final active
    positions are ignored.  Defaults to all zeros.  Chart data is
    polynomial: ``TruncatedSeries.integrate`` refuses a stream with
    ValueError.  IntegrationMismatch signals path letters of the check
    trace that conflict with the valuations actually encountered.  The
    letters are the whole check, since once they agree the lift reproduces
    the given actives.

    Proof.  At level j the walk integrates the coordinate that level
    deactivates, D = integral of N_j dR_j + c, where (R_j, N_j) is the
    active pair after level j.  The lift, taking the same letter, makes
    dD/dR_j its new coordinate there, which is N_j exactly and for any c,
    and keeps R_j.  Derivatives ignore the recentering of the base point,
    so from the base up the lift meets the walk's pairs, and its top pair
    is (r, n) exactly, with one exception: the lift keeps x recentered,
    and x is the top retained coordinate only on an all-``o`` path.  There
    the top pair is (r - r(0), n), and the base point is (r(0), ...).
    """
    k = len(path)
    plan = _walk_names(path)
    if constants is None:
        constants = [Fraction(0)] * (k + 2)
    constants = [Fraction(c) for c in constants]
    if len(constants) != k + 2:
        raise ParseError(f"need {k + 2} constants for a level-{k} chart")
    _, r_tail = retained.recenter()
    _, n_tail = new_coord.recenter()
    if r_tail.valuation_or_none() is None and n_tail.valuation_or_none() is None:
        raise ConstantParameterization("both active parameterizations are constant")
    cur_r, cur_n = retained, new_coord
    for level in range(k, 0, -1):
        letter, r_name, deactivated, slot = plan[level - 1]
        if cur_r.recenter()[1].valuation_or_none() is None:
            raise ConstantParameterization(
                f"integration variable {r_name} of d{deactivated} is constant at level {level}"
            )
        d_series = cur_n.integrate(cur_r, constants[slot])
        if letter == "o":
            cur_n = d_series
        else:
            cur_r, cur_n = d_series, cur_r
    trace = lift_trace(CurveGerm.from_series(cur_r, cur_n), levels=k)
    if trace.chart_path != path:
        raise IntegrationMismatch(f"rebuilt curve lifts along {trace.chart_path!r}, not {path!r}")
    return trace


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
    body = text.strip()
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
                     (), None)


# the coefficient grammar of series literals, with its sign
_CONSTANT_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


def _parse_constant(text: str) -> Fraction:
    if _CONSTANT_RE.fullmatch(text):
        try:
            return Fraction(text)
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
