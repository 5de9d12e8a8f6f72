"""Exact formal power series in one parameter t, read up to a term budget.

Coefficients are exact rationals stored as reduced integer pairs, a
numerator over a positive denominator; the arithmetic reduces each
coefficient it computes once (Knuth, TAOCP vol. 2, 4.5.1), and
``fractions.Fraction`` values are made only where a caller reads
coefficients.  A series built from finitely many terms is the polynomial it
names, zero beyond its last term, and knows its degree; derivative,
recentering, product and integral of polynomials are polynomials, and a
quotient is an exact stream.  Nothing is ever truncated.

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
leading terms they decide on.  A valuation that the operands fix costs no
coefficient at all: val(f/g) = val f - val g, val(fg) = val f + val g, and
in characteristic 0 val f' = val f - 1 and val (f - f(0)) = val f when
val f >= 1; an integral from 0 has the valuation of its integrand plus one,
and an integral from a nonzero constant has valuation 0.  Such a series
carries its valuation from construction.  Its budget always covers it, so a
search would have found the same index.

A search that must compute reads the coefficients in order but forces them
in doubling batches of 1, 2, 4, ... capped at the end of the search, so one
that reads k coefficients walks the chain of pending operands O(log k)
times, not k, and each walk hands every operand a block of coefficients.  It
computes fewer than 2k coefficients of the searched series; its operands
may compute up to the same overshoot, which a deeper search often reads
anyway.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .defaults import DEFAULT_PRECISION
from .errors import IndeterminateValuation, NegativeValuation, ParseError

_TERM_RE = re.compile(
    r"([+-]?)\s*(?:(\d+(?:\s*/\s*\d+)?)\s*\*?\s*)?(t(?:\^(\d+))?)?\s*$"
)
_ZERO = Fraction(0)


def _dot(out, dens, acc, den, xn, xd, yn, yd, indices, top, sn=1, sd=1) -> None:
    """Append (acc/den + the sum of x[i] * y[top - i] over ``indices``) * sn/sd
    to ``out``/``dens``, sd > 0: the products are summed over a running
    denominator, the lcm of theirs, and the sum is reduced by one gcd."""
    for i in indices:
        c = yn[top - i]
        if c:
            n, d = xn[i] * c, xd[i] * yd[top - i]
            if d == den:
                acc += n
            else:
                g = gcd(den, d)
                acc = acc * (d // g) + n * (den // g)
                den = den // g * d
    acc, den = acc * sn, den * sd
    g = gcd(acc, den)
    out.append(acc // g)
    dens.append(den // g)


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

    * ``_known`` and ``_dens`` are the prefix computed so far: coprime
      numerators and positive denominators, a zero as 0/1;
    * ``_degree`` is a polynomial's degree (-1 for zero), None for a stream;
    * ``_zeros`` counts leading coefficients known to be zero from the
      operands' valuations, so a constant term past them is 0 for free;
    * ``_exact`` says that ``_zeros`` is the valuation: a nonzero polynomial,
      a result whose operands' valuations fix it, or a series whose search
      found it; ``valuation_or_none`` then reads it without computing;
    * ``_operands`` holds ``(series, offset)`` pairs: the first m
      coefficients need the first ``m + offset`` of that operand;
    * ``_extend(known, dens, m)`` computes up to m once the operands are ready.

    Zeros, leading or past the degree, cost no arithmetic; the operands and
    ``_extend`` are dropped once a polynomial is complete."""

    __slots__ = ("_precision", "_degree", "_zeros", "_exact", "_known", "_dens",
                 "_operands", "_extend")

    def __init__(self, coefficients):
        known = [c if c.__class__ is int or c.__class__ is Fraction else Fraction(c)
                 for c in coefficients]
        self._precision = len(known)
        while known and not known[-1]:
            known.pop()
        self._degree = len(known) - 1
        self._zeros = next((i for i, c in enumerate(known) if c), len(known))
        self._exact = self._degree >= 0
        self._known = [c.numerator for c in known]
        self._dens = [c.denominator for c in known]
        self._operands = ()
        self._extend = None

    @classmethod
    def _lazy(
        cls, precision: int, degree, zeros: int, exact: bool, operands, extend
    ) -> "TruncatedSeries":
        series = cls.__new__(cls)
        series._precision = max(precision, (zeros if degree is None else degree) + 1)
        series._degree = degree
        series._zeros = zeros
        series._exact = exact
        series._known = []
        series._dens = []
        series._operands = operands
        series._extend = extend
        return series

    def _force(self, n: int) -> list[int]:
        """Compute the first n coefficients and return the computed
        numerators (``_dens`` holds their denominators), working pending
        operands off an explicit stack, so that a chain of thousands of
        operations needs no recursion per ancestor."""
        known = self._known
        if len(known) >= n:
            return known
        stack = [(self, n)]
        while stack:
            series, want = stack[-1]
            done, dens, degree = series._known, series._dens, series._degree
            if series._extend is not None:
                upto = want if degree is None else min(want, degree + 1)
                if len(done) < series._zeros:
                    fill = min(upto, series._zeros) - len(done)
                    done.extend([0] * fill)
                    dens.extend([1] * fill)
                if len(done) < upto:
                    ready = True
                    for operand, offset in series._operands:
                        if len(operand._known) < upto + offset:
                            stack.append((operand, upto + offset))
                            ready = False
                    if not ready:
                        continue
                    series._extend(done, dens, upto)
                if degree is not None and len(done) > degree:
                    series._operands = ()
                    series._extend = None
            if len(done) < want:  # past the degree of a complete polynomial
                dens.extend([1] * (want - len(done)))
                done.extend([0] * (want - len(done)))
            stack.pop()
        return known

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_terms(terms, precision: int = DEFAULT_PRECISION) -> "TruncatedSeries":
        """The polynomial with the given (coefficient, exponent) terms, with a
        budget of ``precision`` terms, raised to reach its last term."""
        terms = list(terms)
        coeffs = [0] * max([0, *(e + 1 for _, e in terms)])
        for coeff, exponent in terms:
            if exponent < 0:
                raise ValueError("exponents must be nonnegative")
            coeffs[exponent] = coeff + coeffs[exponent]  # Fraction + int: Fraction's fast path
        series = TruncatedSeries(coeffs)
        series._precision = max(series._precision, precision)
        return series

    @staticmethod
    def zero(precision: int = DEFAULT_PRECISION) -> "TruncatedSeries":
        return TruncatedSeries((0,) * precision)

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
        return tuple(map(Fraction, self._force(n)[:n], self._dens[:n]))

    @property
    def support(self) -> tuple[int, ...]:
        n = self._precision if self._degree is None else self._degree + 1
        return tuple(i for i, c in enumerate(self._force(n)[:n]) if c)

    def valuation_or_none(self) -> int | None:
        """Index of the first nonzero coefficient within the budget (a
        polynomial's within its degree), or None.  A search that must compute
        forces doubling batches, 1, 2, 4, ... coefficients capped at its end,
        so reading k coefficients walks the pending operands O(log k) times
        and computes fewer than 2k of this series' coefficients."""
        if self._exact:
            return self._zeros
        known = self._known
        end = self._precision if self._degree is None else self._degree + 1
        batch = 1
        for i in range(self._zeros, end):
            if i >= len(known):
                self._force(min(i + batch, end))
                batch *= 2
            if known[i]:
                self._zeros = i
                self._exact = True
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
        return _ZERO if self._zeros else Fraction(self._force(1)[0], self._dens[0])

    def agrees_with(self, other: "TruncatedSeries") -> bool:
        """Coefficient-wise equality over the larger of the two budgets."""
        n = max(self.precision, other.precision)
        return self._force(n)[:n] == other._force(n)[:n] and self._dens[:n] == other._dens[:n]

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
        a, ad, b, bd = self._known, self._dens, other._known, other._dens
        support: list[int] = []  # nonzero indices of a below ``scanned``
        scanned = 0

        def extend(out, dens, m):
            nonlocal scanned
            for k in range(len(out), m):
                while scanned <= k:
                    if a[scanned]:
                        support.append(scanned)
                    scanned += 1
                _dot(out, dens, 0, 1, a, ad, b, bd, support, k)

        # a factor that reads zero to its budget contributes the budget
        zeros = (self.precision if va is None else va) + (other.precision if vb is None else vb)
        exact = va is not None and vb is not None
        precision = max(self.precision, other.precision)
        return self._lazy(precision, degree, zeros, exact, ((self, 0), (other, 0)), extend)

    def derivative(self) -> "TruncatedSeries":
        """Formal d/dt; val f' = val f - 1 when val f >= 1 is known."""
        a, ad, d = self._known, self._dens, self._degree
        degree = None if d is None else max(d - 1, -1)

        def extend(out, dens, m):  # i * a[i], reduced against i alone
            for i in range(len(out) + 1, m + 1):
                g = gcd(i, ad[i])
                out.append(i // g * a[i])
                dens.append(ad[i] // g)

        return self._lazy(
            self.precision, degree, max(self._zeros - 1, 0),
            self._exact and self._zeros >= 1, ((self, 1),), extend,
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
        nn, nd, dn, dd = self._known, self._dens, den._known, den._dens
        # vd + j for j >= 1 below ``scanned`` with den[vd + j] != 0
        den_support: list[int] = []
        scanned = 1

        def extend(out, dens, m):
            nonlocal scanned
            # (num - sum) / lead as (sum - num) * sn / sd with sd > 0
            sn, sd = (-dd[vd], dn[vd]) if dn[vd] > 0 else (dd[vd], -dn[vd])
            for k in range(vd + len(out), vd + m):
                while scanned <= k - vd:
                    if dn[vd + scanned]:
                        den_support.append(vd + scanned)
                    scanned += 1
                _dot(out, dens, -nn[k], nd[k], dn, dd, out, dens, den_support, k, sn, sd)

        zeros = max((self.precision if vn is None else vn) - vd, 0)
        degree = -1 if self._degree == -1 else None
        precision = max(self.precision, den.precision)
        return self._lazy(precision, degree, zeros, vn is not None, ((self, vd), (den, vd)), extend)

    def recenter(self) -> tuple[Fraction, "TruncatedSeries"]:
        """Split off the value at t=0: returns (constant, self - constant)."""
        a, ad, d = self._known, self._dens, self._degree
        degree = d if d is None or d > 0 else -1

        def extend(out, dens, m):  # index 0 is a known zero, filled in by _force
            dens.extend(ad[len(out):m])
            out.extend(a[len(out):m])

        tail = self._lazy(
            self.precision, degree, max(self._zeros, 1),
            self._exact and self._zeros >= 1, ((self, 0),), extend,
        )
        return self.constant_term(), tail

    def integrate(self, wrt: "TruncatedSeries", constant=Fraction(0)) -> "TruncatedSeries":
        """Solve d(result)/dt = self * d(wrt)/dt with result(0) = constant."""
        if wrt.valuation_or_none() is None:
            raise IndeterminateValuation("integration variable is zero to precision")
        g = self * wrt.derivative()
        c = Fraction(constant)
        gn, gd, d = g._known, g._dens, g._degree
        if d is not None:  # a zero g integrates to the constant
            d = d + 1 if d >= 0 or c else -1

        def extend(out, dens, m):  # g[i - 1] / i, reduced against i alone
            for i in range(len(out), m):
                h = gcd(gn[i - 1], i)
                out.append(gn[i - 1] // h)
                dens.append(gd[i - 1] * (i // h))

        result = self._lazy(
            g.precision, d, 0 if c else g._zeros + 1, bool(c) or g._exact, ((g, -1),), extend,
        )
        result._known, result._dens = [c.numerator], [c.denominator]  # coefficient 0
        return result

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
    optional (``t`` means ``t^1``, a bare coefficient means ``c*t^0``).  A
    ``+`` before a negative term is that term, as ``CurveSpec`` prints it.
    Whitespace is insignificant.  Example: ``7/5*t^2 + t^3 + -1/2*t^5``.
    """
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty series literal", 0)
    chunks = re.split(r"(?=[+-])", stripped)
    terms: list[tuple[Fraction, int]] = []
    pos = 0
    for chunk, after in zip(chunks, chunks[1:] + [""]):
        if not chunk.strip() or (chunk.strip() == "+" and after[:1] == "-"):
            pos += len(chunk)
            continue
        m = _TERM_RE.fullmatch(chunk.strip())
        if m is None or (m.group(2) is None and m.group(3) is None):
            raise ParseError(f"bad series term {chunk.strip()!r}", pos)
        sign, coeff_text, t_part, exp_text = m.groups()
        try:
            coeff = Fraction(coeff_text.replace(" ", "")) if coeff_text else Fraction(1)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in series term {chunk.strip()!r}", pos) from None
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
