"""Nash-lifting engine through the monster tower charts.

A curve germ (x(t), y(t)) is lifted one level at a time.  At each level the
two active coordinates (r, n) are compared by the valuations of their
t-derivatives:

* ordinary choice (chart letter ``o``), taken when val(dr) <= val(dn):
  the new coordinate is dn/dr, r stays retained and n is deactivated;
* inverted choice (chart letter ``i``), forced when val(dr) > val(dn):
  the new coordinate is dr/dn, n becomes retained and r is deactivated.

The inverted choice is exactly an encounter with the divisor at infinity of
the new level, so the code-word symbol there is V.  An ordinary step whose
new coordinate vanishes at t=0 while a V/T chain is alive continues the
chain with a T; everything else is an R.  Coordinates are named with the
calculus convention x, y, y', x', x'', ... in the chart family that retains
x first, and carried as structured ``CoordName``s.  A germ is lifted once
into a ``LiftTrace``; its word, data point and every Nash-derived invariant
(order profile, multiplicities, vertical orders, curve words) are views of it.
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
    (zero constant term) with the base point kept separately."""

    __slots__ = ("x", "y", "base_point")

    def __init__(self, x: TruncatedSeries, y: TruncatedSeries,
                 base_point: tuple[Fraction, Fraction] = (Fraction(0), Fraction(0))):
        if x.valuation_or_none() is None and y.valuation_or_none() is None:
            raise ConstantParameterization("both coordinates are constant")
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "base_point", base_point)

    @staticmethod
    def from_series(x: TruncatedSeries, y: TruncatedSeries) -> "CurveGerm":
        x0, x_tail = x.recenter()
        y0, y_tail = y.recenter()
        return CurveGerm(x_tail, y_tail, (x0, y0))

    def check_primitive(self) -> None:
        d = 0
        for e in self.x.support:
            d = gcd(d, e)
        for e in self.y.support:
            d = gcd(d, e)
        if d > 1:
            raise NonPrimitiveParameterization(
                f"all exponents share the factor {d}; reparameterization would "
                "leave the rational field, so the germ is rejected"
            )

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


class LiftTrace(Record):
    """One lift of a germ.  Word, chart path and data point cover every level
    lifted; the invariant views read only ``steps[:regularization_level]``,
    so they work on any trace that reached the regularization level."""

    __slots__ = ("germ", "steps", "regularization_level")

    def __init__(self, germ: CurveGerm, steps: tuple[LiftStep, ...],
                 regularization_level: int | None):
        _set(self, "germ", germ)
        _set(self, "steps", steps)
        _set(self, "regularization_level", regularization_level)

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

    @property
    def data_point(self) -> tuple[Fraction, ...]:
        """x0, y0, then the value of each new coordinate at t=0."""
        return (*self.germ.base_point, *(s.new_coord.constant_term() for s in self.steps))

    def prefix(self, levels: int) -> "LiftTrace":
        """The trace ``lift_trace(self.germ, levels=levels)`` returns, cut
        from this one instead of lifted again."""
        k = max(levels, 0)
        if k > len(self.steps):
            raise LevelOutOfRange(f"level {k} beyond a trace of {len(self.steps)} levels")
        r = self.regularization_level
        return LiftTrace(self.germ, self.steps[:k], r if r is not None and r <= k else None)

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

    def curve_word(self, k: int = 0) -> RvtWord:
        """Code word of the germ lifted k times: length r - k, with chains that
        started at level k+1 or below flattened to R's."""
        steps = self._regular_steps()
        if k >= len(steps):
            return RvtWord("")
        return RvtWord("".join(s.symbol for s in steps)).split_at_level(k)[1]

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
    *,
    level: int,
    retained_name: CoordName = CoordName("x", 0),
    new_name: CoordName = CoordName("y", 0),
    chain_origin: int | None = None,
) -> LiftStep:
    """One chart step on the active pair (r, n).  The chart letter is decided
    by comparing val(dr/dt) with val(dn/dt); ties take the ordinary choice,
    since a vertical encounter forces strict inequality.

    A derivative with no valuation is identically zero, so its coordinate
    is constant.  Both constant is ConstantParameterization.  A constant
    new coordinate while val(dr/dt) = m >= 1 makes every coordinate a
    function of r, of order m + 1 in t, so the germ factors through r:
    NonPrimitiveParameterization names the cover of degree m + 1.
    """
    step, _, _ = _lift(
        retained, new_coord, retained.derivative(), new_coord.derivative(),
        level, retained_name, new_name, chain_origin,
    )
    return step


def _lift(retained, new_coord, dr, dn, level, retained_name, new_name, chain_origin):
    """``lift_once`` on the pair and its derivatives (dr, dn).  Also returns
    the derivatives of the new active pair, so that a lift differentiates
    each coordinate once."""
    vr = dr.valuation_or_none()
    vn = dn.valuation_or_none()
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
    inverted = vr is None or (vn is not None and vr > vn)
    if inverted:
        fresh = dr.quotient(dn)
        step = LiftStep(
            level=level,
            chart_letter="i",
            retained=new_coord,
            new_coord=fresh,
            retained_name=new_name,
            new_name=retained_name.bump(),
            deactivated=retained_name,
            symbol="V",
            chain_origin=level,
            orders=(vr, vn),
        )
        return step, dn, fresh.derivative()
    fresh = dn.quotient(dr)
    on_prolongation = chain_origin is not None and fresh.constant_term() == 0
    step = LiftStep(
        level=level,
        chart_letter="o",
        retained=retained,
        new_coord=fresh,
        retained_name=retained_name,
        new_name=new_name.bump(),
        deactivated=new_name,
        symbol="T" if on_prolongation else "R",
        chain_origin=chain_origin if on_prolongation else None,
        orders=(vr, vn),
    )
    return step, dr, fresh.derivative()


def _initial_actives(c: CurveGerm):
    """Retain whichever base coordinate has the smaller valuation (tie: x)."""
    vx = c.x.valuation_or_none()
    vy = c.y.valuation_or_none()
    if vx is not None and (vy is None or vx <= vy):
        return (CoordName("x", 0), c.x), (CoordName("y", 0), c.y)
    return (CoordName("y", 0), c.y), (CoordName("x", 0), c.x)


def _is_regular(symbol: str, d_retained: TruncatedSeries, d_new: TruncatedSeries) -> bool:
    """Regularity after a chart step: the retained coordinate moves at unit
    speed and the new coordinate either does too or carries no chain."""
    if d_retained.valuation_or_none() != 0:
        return False
    return symbol == "R" or d_new.valuation_or_none() == 0


def lift_trace(
    c: CurveGerm,
    *,
    levels: int | None = None,
    max_level: int = DEFAULT_MAX_LEVEL,
) -> LiftTrace:
    """Lift the germ through the tower.

    With ``levels=None``, iterate until the regularity criterion fires
    (MaxLevelExceeded past the budget).  With ``levels=k``, perform exactly
    k chart steps, recording the regularization level if it is reached on
    the way.  Re-running a lift yields a bit-identical trace.
    """
    c.check_primitive()
    (r_name, r_series), (n_name, n_series) = _initial_actives(c)
    dr, dn = r_series.derivative(), n_series.derivative()
    steps: list[LiftStep] = []
    chain: int | None = None
    regular_at: int | None = None
    level = 0
    while True:
        if levels is not None:
            if level >= levels:
                break
        elif regular_at is not None:
            break
        elif level >= max_level:
            raise MaxLevelExceeded(
                f"no regular lift within {max_level} levels; the germ may be "
                "critical or the budget too small"
            )
        level += 1
        step, dr, dn = _lift(r_series, n_series, dr, dn, level, r_name, n_name, chain)
        steps.append(step)
        chain = step.chain_origin
        r_series, n_series = step.retained, step.new_coord
        r_name, n_name = step.retained_name, step.new_name
        if regular_at is None and _is_regular(step.symbol, dr, dn):
            regular_at = level
    return LiftTrace(germ=c, steps=tuple(steps), regularization_level=regular_at)


# kept for bench/run.py until ROADMAP item 1; the package calls lift_trace
def lift_to_regularization(c: CurveGerm, max_level: int = DEFAULT_MAX_LEVEL) -> LiftTrace:
    """Trace ending exactly at the regularization level."""
    return lift_trace(c, max_level=max_level)


# -- charts in the opposite direction -----------------------------------------


def _walk_names(path: str):
    """Coordinate names along a chart path (always retaining x first).
    Returns the coordinate list in data-point order and, per level,
    (letter, deactivated index, retained index, new index) after the step."""
    coords = [CoordName("x", 0), CoordName("y", 0)]
    r_idx, n_idx = 0, 1
    plan = []
    for letter in path:
        if letter == "o":
            coords.append(coords[n_idx].bump())
            deact = n_idx
            n_idx = len(coords) - 1
        elif letter == "i":
            coords.append(coords[r_idx].bump())
            deact = r_idx
            r_idx, n_idx = n_idx, len(coords) - 1
        else:
            raise ParseError(f"chart letter {letter!r} is not o or i")
        plan.append((letter, deact, r_idx, n_idx))
    return coords, plan


def chart_equations(path: str) -> list[str]:
    """Pfaffian equations of the focal bundle in the chart: one adjoined
    equation per level, d(deactivated) = new * d(retained)."""
    if path and path[0] != "o":
        raise ParseError("chart paths start with an ordinary choice")
    coords, plan = _walk_names(path)
    return [
        f"d{coords[deact]} = {coords[n_idx]} d{coords[r_idx]}"
        for (letter, deact, r_idx, n_idx) in plan
    ]


def curve_from_chart_data(
    path: str,
    retained: TruncatedSeries,
    new_coord: TruncatedSeries,
    constants=None,
) -> CurveGerm:
    """Rebuild the base curve whose lift along ``path`` has the given active
    parameterizations, integrating one deactivated coordinate per level.

    ``constants`` supplies the integration constants in data-point order
    (x, y, then new coordinates); the entries at the two final active
    positions are ignored.  Defaults to all zeros.  The result is re-lifted
    as a check; IntegrationMismatch signals path letters that conflict with
    the valuations actually encountered.
    """
    if path and path[0] != "o":
        raise ParseError("chart paths start with an ordinary choice")
    k = len(path)
    coords, plan = _walk_names(path)
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
        letter, deact, r_idx, _ = plan[level - 1]
        if cur_r.valuation_or_none() is None:
            raise ConstantParameterization(
                f"integration variable {coords[r_idx]} of d{coords[deact]} vanishes "
                f"identically at level {level}"
            )
        d_series = cur_n.integrate(cur_r, constants[deact])
        if letter == "o":
            cur_n = d_series
        else:
            cur_r, cur_n = d_series, cur_r
    germ = CurveGerm.from_series(cur_r, cur_n)
    if k:
        check = lift_trace(germ, levels=k)
        if check.chart_path[:k] != path:
            raise IntegrationMismatch(
                f"rebuilt curve lifts along {check.chart_path[:k]!r}, not {path!r}"
            )
        top = check.steps[k - 1]
        if not (top.new_coord.agrees_with(new_coord) and top.retained.agrees_with(retained)):
            raise IntegrationMismatch("re-lift does not reproduce the given actives")
    return germ


# -- curve text grammar --------------------------------------------------------


# precision is kept for bench/run.py until ROADMAP item 1, and ignored
def parse_curve(text: str, precision=None) -> tuple[CurveGerm, int]:
    """Parse curve input.

    Base germ: ``x=t^5, y=t^7``.  Germ at level k: ``@level 3 chart=oio,
    r=t, n=t`` with an optional ``constants=0,0,...`` field (data-point
    order); the base curve is rebuilt by integration.  Fields are comma
    separated.  Returns the germ together with the presentation level.
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
        germ = curve_from_chart_data(
            path,
            parse_series(fields["r"]),
            parse_series(fields["n"]),
            constants,
        )
        return germ, level
    fields = _split_fields(body)
    for needed in ("x", "y"):
        if needed not in fields:
            raise ParseError("expected 'x=<series>, y=<series>'")
    _reject_unknown(fields, ("x", "y"))
    germ = CurveGerm.from_series(parse_series(fields["x"]), parse_series(fields["y"]))
    return germ, 0


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
