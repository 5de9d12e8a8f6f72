"""Exact formal power series in one parameter t, read up to a term budget.

Coefficients are ``fractions.Fraction`` values.  A series built from finitely
many terms is the polynomial it names, zero beyond its last term, and knows
its degree; derivative, recentering, product and integral of polynomials are
polynomials, and a quotient is an exact stream.  Nothing is ever truncated.

``precision`` is a term budget: the number of leading coefficients that a
valuation search and the whole-series reads (``coefficients``, ``agrees_with``,
equality, printing) read.  It covers a polynomial's degree and a stream's
known leading zeros, and an operation's result takes the largest budget of
its operands.  A search that finds nothing within the budget answers None
(``valuation`` raises IndeterminateValuation): a polynomial is then zero, a
stream only zero to the budget.

Coefficients are computed when read, from the front (McIlroy, "Power series,
power serious", 1999; van der Hoeven, "Relax, but don't be too lazy", 2002),
so the engines, which read valuations and constant terms, pay only for the
leading terms they decide on.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .defaults import DEFAULT_PRECISION
from .errors import IndeterminateValuation, NegativeValuation, ParseError

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
    """Immutable exact power series read up to a budget of ``precision`` terms.

    ``TruncatedSeries(coefficients)`` is the polynomial with those
    coefficients, with a budget of their number.  A series made by an
    operation starts with no coefficients computed:

    * ``_known`` is the prefix computed so far;
    * ``_degree`` is a polynomial's degree (-1 for zero), None for a stream;
    * ``_zeros`` counts leading coefficients known to be zero from the
      operands' valuations; it becomes the valuation once that is read;
    * ``_operands`` holds ``(series, offset)`` pairs: the first m
      coefficients need the first ``m + offset`` of that operand;
    * ``_extend(known, m)`` appends coefficients up to m once those are there.

    Zeros, leading or past the degree, cost no arithmetic; the operands and
    ``_extend`` are dropped once a polynomial is complete."""

    __slots__ = ("_precision", "_degree", "_zeros", "_known", "_operands", "_extend")

    def __init__(self, coefficients):
        known = [_as_fraction(c) for c in coefficients]
        self._precision = len(known)
        while known and not known[-1]:
            known.pop()
        self._degree = len(known) - 1
        self._zeros = next((i for i, c in enumerate(known) if c), len(known))
        self._known = known
        self._operands = ()
        self._extend = None

    @classmethod
    def _lazy(cls, precision: int, degree, zeros: int, operands, extend) -> "TruncatedSeries":
        series = cls.__new__(cls)
        series._precision = max(precision, (zeros if degree is None else degree) + 1)
        series._degree = degree
        series._zeros = zeros
        series._known = []
        series._operands = operands
        series._extend = extend
        return series

    @classmethod
    def _termwise(cls, precision: int, degree, zeros: int, operands, term) -> "TruncatedSeries":
        """Series whose coefficient i is ``term(i)``."""
        return cls._lazy(
            precision, degree, zeros, operands,
            lambda known, n: known.extend(map(term, range(len(known), n))),
        )

    def _force(self, n: int) -> list[Fraction]:
        """Compute the first n coefficients and return the computed prefix,
        working pending operands off an explicit stack, so that a chain of
        thousands of operations needs no recursion per ancestor."""
        known = self._known
        if len(known) >= n:
            return known
        stack = [(self, n)]
        while stack:
            series, want = stack[-1]
            done = series._known
            degree = series._degree
            if series._extend is not None:
                upto = want if degree is None else min(want, degree + 1)
                if len(done) < series._zeros:
                    done.extend([_ZERO] * (min(upto, series._zeros) - len(done)))
                if len(done) < upto:
                    ready = True
                    for operand, offset in series._operands:
                        if len(operand._known) < upto + offset:
                            stack.append((operand, upto + offset))
                            ready = False
                    if not ready:
                        continue
                    series._extend(done, upto)
                if degree is not None and len(done) > degree:
                    series._operands = ()
                    series._extend = None
            if len(done) < want:  # past the degree of a complete polynomial
                done.extend([_ZERO] * (want - len(done)))
            stack.pop()
        return known

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_terms(terms, precision: int = DEFAULT_PRECISION) -> "TruncatedSeries":
        """The polynomial with the given (coefficient, exponent) terms, with a
        budget of ``precision`` terms, raised to reach its last term."""
        terms = list(terms)
        coeffs = [_ZERO] * max([0, *(e + 1 for _, e in terms)])
        for coeff, exponent in terms:
            if exponent < 0:
                raise ValueError("exponents must be nonnegative")
            coeffs[exponent] += coeff
        series = TruncatedSeries(coeffs)
        series._precision = max(series._precision, precision)
        return series

    @staticmethod
    def zero(precision: int = DEFAULT_PRECISION) -> "TruncatedSeries":
        return TruncatedSeries((_ZERO,) * precision)

    @staticmethod
    def monomial(coeff, exponent: int, precision: int = DEFAULT_PRECISION) -> "TruncatedSeries":
        return TruncatedSeries.from_terms([(coeff, exponent)], precision)

    # -- basic queries -------------------------------------------------------

    @property
    def precision(self) -> int:  # the term budget
        return self._precision

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The first ``precision`` coefficients."""
        n = self._precision
        return tuple(self._force(n)[:n])

    @property
    def support(self) -> tuple[int, ...]:
        n = self._precision if self._degree is None else self._degree + 1
        return tuple(i for i, c in enumerate(self._force(n)[:n]) if c)

    def valuation_or_none(self) -> int | None:
        known = self._known
        end = self._precision if self._degree is None else self._degree + 1
        for i in range(self._zeros, end):
            if i >= len(known):
                self._force(i + 1)
            if known[i]:
                self._zeros = i
                return i
        self._zeros = max(self._zeros, end)
        return None

    def valuation(self) -> int:
        """Index of the first nonzero coefficient; IndeterminateValuation when
        the budget runs out first, which is never a property of the series."""
        v = self.valuation_or_none()
        if v is None:
            raise IndeterminateValuation(f"series is zero to precision {self.precision}")
        return v

    def constant_term(self) -> Fraction:
        return self._force(1)[0]

    def agrees_with(self, other: "TruncatedSeries") -> bool:
        """Coefficient-wise equality over the larger of the two budgets."""
        n = max(self.precision, other.precision)
        return self._force(n)[:n] == other._force(n)[:n]

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.precision == other.precision and self.agrees_with(other)

    def __hash__(self) -> int:
        return hash((self.coefficients,))

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        va, vb = self.valuation_or_none(), other.valuation_or_none()
        da, db = self._degree, other._degree
        degree = -1 if -1 in (da, db) else None if None in (da, db) else da + db
        a, b = self._known, other._known
        support: list[int] = []  # nonzero indices of a below ``scanned``
        scanned = 0

        def extend(out, m):
            nonlocal scanned
            for k in range(len(out), m):
                while scanned <= k:
                    if a[scanned]:
                        support.append(scanned)
                    scanned += 1
                acc = _ZERO
                for i in support:
                    if b[k - i]:
                        acc += a[i] * b[k - i]
                out.append(acc)

        # a factor that reads zero to its budget contributes the budget
        zeros = (self.precision if va is None else va) + (other.precision if vb is None else vb)
        precision = max(self.precision, other.precision)
        return self._lazy(precision, degree, zeros, ((self, 0), (other, 0)), extend)

    def derivative(self) -> "TruncatedSeries":
        """Formal d/dt."""
        a, d = self._known, self._degree
        degree = None if d is None else max(d - 1, -1)
        return self._termwise(
            self.precision, degree, max(self._zeros - 1, 0), ((self, 1),),
            lambda i: (i + 1) * a[i + 1] if a[i + 1] else _ZERO,
        )

    def quotient(self, den: "TruncatedSeries") -> "TruncatedSeries":
        """Exact series quotient self / den, a stream; needs val(den) <=
        val(self), and a numerator that reads zero is accepted."""
        vd = den.valuation_or_none()
        if vd is None:
            raise IndeterminateValuation("denominator is zero to stored precision")
        vn = self.valuation_or_none()
        if vn is not None and vn < vd:
            raise NegativeValuation(
                f"valuation {vn} of numerator below valuation {vd} of denominator"
            )
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
                    if out[k - j]:
                        acc -= dc[vd + j] * out[k - j]
                out.append(acc / lead if acc else _ZERO)

        zeros = max((self.precision if vn is None else vn) - vd, 0)
        degree = -1 if self._degree == -1 else None
        precision = max(self.precision, den.precision)
        return self._lazy(precision, degree, zeros, ((self, vd), (den, vd)), extend)

    def recenter(self) -> tuple[Fraction, "TruncatedSeries"]:
        """Split off the value at t=0: returns (constant, self - constant)."""
        a, d = self._known, self._degree
        degree = d if d is None or d > 0 else -1
        tail = self._termwise(
            self.precision, degree, max(self._zeros, 1), ((self, 0),),
            lambda i: a[i] if i else _ZERO,
        )
        return self.constant_term(), tail

    def integrate(self, wrt: "TruncatedSeries", constant=Fraction(0)) -> "TruncatedSeries":
        """Solve d(result)/dt = self * d(wrt)/dt with result(0) = constant."""
        if wrt.valuation_or_none() is None:
            raise IndeterminateValuation("integration variable is zero to precision")
        g = self * wrt.derivative()
        c = _as_fraction(constant)
        gc, d = g._known, g._degree
        if d is not None:  # a zero g integrates to the constant
            d = d + 1 if d >= 0 or c else -1
        return self._termwise(
            g.precision, d, 0 if c else g._zeros + 1, ((g, -1),),
            lambda i: (gc[i - 1] / i if gc[i - 1] else _ZERO) if i else c,
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
