"""Exact truncated formal power series in one parameter t.

Coefficients are ``fractions.Fraction`` values, so every operation is exact;
there is no floating point anywhere in the package.  A series is known
modulo t^precision: the coefficients of t^0 .. t^(precision-1) are
determined, terms of degree >= precision are unknown, *not* zero.  Keeping
the two notions separate is what lets the lifting engines compare
valuations honestly: a window of zeros is reported as
:class:`~monstertower.errors.IndeterminateValuation` instead of being
silently treated as the zero series.

An operation fixes the precision of its result and checks its arguments
when it is called, but computes coefficients only when they are read, from
the front (online recurrences, as in McIlroy, "Power series, power serious",
1999).  The lifting engines read valuations and constant terms, so they
compute the leading terms they decide on and their cost does not grow with
the window.  Reading a whole window (``coefficients``, ``support``,
``agrees_with``, equality, printing) computes all of it.

Only the operations needed by the chart and blowup recursions are provided:
ring arithmetic, d/dt, series quotient, recentering, and integration against
another series.  There is deliberately no composition or substitution.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import (
    IndeterminateValuation,
    InsufficientPrecision,
    NegativeValuation,
    ParseError,
)

DEFAULT_PRECISION = 64

_TERM_RE = re.compile(
    r"([+-]?)\s*(?:(\d+(?:\s*/\s*\d+)?)\s*\*?\s*)?(t(?:\^(\d+))?)?\s*$"
)
_ZERO = Fraction(0)


def _as_fraction(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _term_text(coeff: Fraction, exponent: int) -> str:
    if exponent == 0:
        return str(coeff)
    t = "t" if exponent == 1 else f"t^{exponent}"
    if coeff == 1:
        return t
    if coeff == -1:
        return f"-{t}"
    return f"{coeff}*{t}"


class TruncatedSeries:
    """Immutable exact power series known modulo t^precision.

    ``TruncatedSeries(coefficients)`` holds the given window.  A series made
    by an operation starts with no coefficients computed:

    * ``_known`` is the prefix computed so far;
    * ``_zeros`` counts leading coefficients known to be zero from the
      valuations of the operands (val(a*b) = val(a) + val(b), val(a/b) =
      val(a) - val(b), one less for d/dt); they are filled in without
      computing anything, and the count becomes the valuation once that is
      read;
    * ``_operands`` holds ``(series, offset)`` pairs: the first m
      coefficients need the first ``m + offset`` of that operand, clipped to
      its window;
    * ``_extend(known, m)`` appends coefficients up to m once those are there.

    The operands and ``_extend`` are dropped when the window is complete.
    """

    __slots__ = ("_precision", "_zeros", "_known", "_operands", "_extend")

    def __init__(self, coefficients):
        known = [_as_fraction(c) for c in coefficients]
        self._precision = len(known)
        self._zeros = next((i for i, c in enumerate(known) if c), len(known))
        self._known = known
        self._operands = ()
        self._extend = None

    @classmethod
    def _lazy(cls, precision: int, zeros: int, operands, extend) -> "TruncatedSeries":
        series = cls.__new__(cls)
        series._precision = precision
        series._zeros = min(zeros, precision)
        series._known = []
        series._operands = operands
        series._extend = extend
        return series

    @classmethod
    def _termwise(cls, precision: int, zeros: int, operands, term) -> "TruncatedSeries":
        """Series whose coefficient i is ``term(i)``."""

        def extend(known, n):
            known.extend(map(term, range(len(known), n)))

        return cls._lazy(precision, zeros, operands, extend)

    def _force(self, n: int) -> list[Fraction]:
        """Compute the first n coefficients (at most the window) and return
        the computed prefix.  Pending operands are worked off with an
        explicit stack, so a series at the end of a chain of thousands of
        operations is computed without one recursion per ancestor."""
        known = self._known
        if len(known) >= n or self._extend is None:
            return known
        stack = [(self, min(n, self._precision))]
        while stack:
            series, want = stack[-1]
            done = series._known
            if len(done) < series._zeros:
                done.extend([_ZERO] * (min(want, series._zeros) - len(done)))
            if len(done) < want:
                ready = True
                for operand, offset in series._operands:
                    need = min(want + offset, operand._precision)
                    if len(operand._known) < need:
                        stack.append((operand, need))
                        ready = False
                if not ready:
                    continue
                series._extend(done, want)
            stack.pop()
            if len(done) == series._precision:
                series._operands = ()
                series._extend = None
        return known

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_terms(terms, precision: int = DEFAULT_PRECISION) -> "TruncatedSeries":
        """Build a series from (coefficient, exponent) pairs.

        Polynomials are embedded at the full requested precision, not at
        degree + 1, so later quotients keep headroom.  A nonzero term of
        degree >= precision raises InsufficientPrecision: dropping it would
        make the window describe a different curve.
        """
        coeffs = [Fraction(0)] * precision
        for coeff, exponent in terms:
            if exponent < 0:
                raise ValueError("exponents must be nonnegative")
            coeff = _as_fraction(coeff)
            if exponent < precision:
                coeffs[exponent] += coeff
            elif coeff:
                raise InsufficientPrecision(
                    f"term {_term_text(coeff, exponent)} does not fit in a "
                    f"window of precision {precision}"
                )
        return TruncatedSeries(coeffs)

    @staticmethod
    def zero(precision: int = DEFAULT_PRECISION) -> "TruncatedSeries":
        return TruncatedSeries((Fraction(0),) * precision)

    @staticmethod
    def constant(value, precision: int = DEFAULT_PRECISION) -> "TruncatedSeries":
        return TruncatedSeries.from_terms([(value, 0)], precision)

    @staticmethod
    def monomial(coeff, exponent: int, precision: int = DEFAULT_PRECISION) -> "TruncatedSeries":
        return TruncatedSeries.from_terms([(coeff, exponent)], precision)

    # -- basic queries -------------------------------------------------------

    @property
    def precision(self) -> int:
        return self._precision

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The whole window."""
        return tuple(self._force(self._precision))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coefficients) if c)

    def valuation_or_none(self) -> int | None:
        known = self._known
        for i in range(self._zeros, self._precision):
            if i >= len(known):
                self._force(i + 1)
            if known[i]:
                self._zeros = i
                return i
        self._zeros = self._precision
        return None

    def valuation(self) -> int:
        """Index of the first nonzero coefficient.

        Raises IndeterminateValuation when the series is zero to its stored
        precision; callers must never read a valuation out of truncated
        zeros.
        """
        v = self.valuation_or_none()
        if v is None:
            raise IndeterminateValuation(
                f"series is zero to precision {self.precision}"
            )
        return v

    def constant_term(self) -> Fraction:
        if self.precision == 0:
            raise InsufficientPrecision("no stored coefficients")
        return self._force(1)[0]

    def agrees_with(self, other: "TruncatedSeries") -> bool:
        """Coefficient-wise equality up to the common precision."""
        n = min(self.precision, other.precision)
        return self._force(n)[:n] == other._force(n)[:n]

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.precision == other.precision and self.agrees_with(other)

    def __hash__(self) -> int:
        return hash((self.coefficients,))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        a, b = self._known, other._known
        return self._termwise(
            min(self.precision, other.precision),
            min(self._zeros, other._zeros),
            ((self, 0), (other, 0)),
            lambda i: a[i] + b[i],
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        a, b = self._known, other._known
        return self._termwise(
            min(self.precision, other.precision),
            min(self._zeros, other._zeros),
            ((self, 0), (other, 0)),
            lambda i: a[i] - b[i],
        )

    def __neg__(self) -> "TruncatedSeries":
        a = self._known
        return self._termwise(self.precision, self._zeros, ((self, 0),), lambda i: -a[i])

    def scale(self, value) -> "TruncatedSeries":
        k = _as_fraction(value)
        a = self._known
        return self._termwise(
            self.precision, self._zeros, ((self, 0),), lambda i: k * a[i]
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        # a is exact mod t^pa, so a*b is exact mod t^min(pa+val(b), pb+val(a));
        # an all-zero window contributes its full precision as the bound.
        va = self.valuation_or_none()
        vb = other.valuation_or_none()
        pa, pb = self.precision, other.precision
        bound_a = pa if va is None else va
        bound_b = pb if vb is None else vb
        n = min(pa + bound_b, pb + bound_a)
        a, b = self._known, other._known
        # nonzero indices of a and b below ``scanned``
        support_a: list[int] = []
        support_b: list[int] = []
        scanned = 0

        def extend(out, m):
            nonlocal scanned
            for k in range(len(out), m):
                while scanned <= k:
                    if scanned < pa and a[scanned]:
                        support_a.append(scanned)
                    if scanned < pb and b[scanned]:
                        support_b.append(scanned)
                    scanned += 1
                acc = _ZERO
                if len(support_a) <= len(support_b):
                    for i in support_a:
                        j = k - i
                        if j < pb and b[j]:
                            acc += a[i] * b[j]
                else:
                    for j in support_b:
                        i = k - j
                        if i < pa and a[i]:
                            acc += a[i] * b[j]
                out.append(acc)

        zeros = n if va is None or vb is None else va + vb
        return self._lazy(n, zeros, ((self, 0), (other, 0)), extend)

    def derivative(self) -> "TruncatedSeries":
        """Formal d/dt; costs one term of precision."""
        if self.precision < 1:
            raise InsufficientPrecision("cannot differentiate an empty window")
        a = self._known
        return self._termwise(
            self.precision - 1,
            max(self._zeros - 1, 0),
            ((self, 1),),
            lambda i: (i + 1) * a[i + 1],
        )

    def quotient(self, den: "TruncatedSeries") -> "TruncatedSeries":
        """Exact series quotient self / den.

        Requires valuation(den) <= valuation(self).  A numerator that is zero
        to precision is accepted (the quotient is zero to the reduced
        precision) as long as its window reaches past valuation(den).
        """
        vd = den.valuation_or_none()
        if vd is None:
            raise IndeterminateValuation("denominator is zero to stored precision")
        vn = self.valuation_or_none()
        if vn is not None and vn < vd:
            raise NegativeValuation(
                f"valuation {vn} of numerator below valuation {vd} of denominator"
            )
        if vn is None and self.precision < vd:
            raise IndeterminateValuation(
                "numerator window too short to clear the denominator valuation"
            )
        n = min(self.precision, den.precision) - vd
        if n <= 0:
            return TruncatedSeries(())
        num, dc = self._known, den._known
        lead = dc[vd]
        # j >= 1 below ``scanned`` with den[vd + j] != 0
        den_support: list[int] = []
        scanned = 1

        def extend(out, m):
            nonlocal scanned
            for k in range(len(out), m):
                while scanned <= k:
                    if dc[vd + scanned]:
                        den_support.append(scanned)
                    scanned += 1
                acc = num[vd + k]
                for j in den_support:
                    acc -= dc[vd + j] * out[k - j]
                out.append(acc / lead)

        zeros = n if vn is None else vn - vd
        return self._lazy(n, zeros, ((self, vd), (den, vd)), extend)

    def recenter(self) -> tuple[Fraction, "TruncatedSeries"]:
        """Split off the value at t=0: returns (constant, self - constant)."""
        c = self.constant_term()
        a = self._known
        tail = self._termwise(
            self.precision,
            max(self._zeros, 1),
            ((self, 0),),
            lambda i: a[i] if i else _ZERO,
        )
        return c, tail

    def integrate(self, wrt: "TruncatedSeries", constant=Fraction(0)) -> "TruncatedSeries":
        """Solve d(result)/dt = self * d(wrt)/dt with result(0) = constant."""
        if wrt.valuation_or_none() is None:
            raise IndeterminateValuation("integration variable is zero to precision")
        g = self * wrt.derivative()
        c = _as_fraction(constant)
        gc = g._known
        return self._termwise(
            g.precision + 1,
            0 if c else g._zeros + 1,
            ((g, -1),),
            lambda i: gc[i - 1] / i if i else c,
        )

    # -- presentation --------------------------------------------------------

    def __str__(self) -> str:
        parts = [_term_text(c, i) for i, c in enumerate(self.coefficients) if c]
        body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
        return f"{body} + O(t^{self.precision})"

    def __repr__(self) -> str:
        return f"TruncatedSeries({self})"


def parse_series(text: str, precision: int = DEFAULT_PRECISION) -> TruncatedSeries:
    """Parse a series literal: a sum of terms ``c*t^k``.

    ``c`` is an integer or a fraction ``p/q``; the ``*`` and the exponent are
    optional (``t`` means ``t^1``, a bare coefficient means ``c*t^0``).
    Whitespace is insignificant.  Example: ``7/5*t^2 + t^3``.
    """
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty series literal", 0)
    chunks = re.split(r"(?=[+-])", stripped)
    terms: list[tuple[Fraction, int]] = []
    pos = 0
    for chunk in chunks:
        if not chunk.strip():
            pos += len(chunk)
            continue
        m = _TERM_RE.fullmatch(chunk.strip())
        if m is None or (m.group(2) is None and m.group(3) is None):
            raise ParseError(f"bad series term {chunk.strip()!r}", pos)
        sign, coeff_text, t_part, exp_text = m.groups()
        coeff = Fraction(coeff_text.replace(" ", "")) if coeff_text else Fraction(1)
        if sign == "-":
            coeff = -coeff
        if t_part is None:
            exponent = 0
        elif exp_text is None:
            exponent = 1
        else:
            exponent = int(exp_text)
        terms.append((coeff, exponent))
        pos += len(chunk)
    return TruncatedSeries.from_terms(terms, precision)
