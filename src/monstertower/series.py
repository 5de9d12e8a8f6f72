"""Exact formal power series in one parameter t, with an exact zero test.

Coefficients are exact rationals stored as reduced integer pairs, a
numerator over a positive denominator; the arithmetic reduces each
coefficient it computes once (Knuth, TAOCP vol. 2, 4.5.1), and
``fractions.Fraction`` values are made only where a caller reads
coefficients.  A series built from finitely many terms is the polynomial it
names, zero beyond its last term, and knows its degree; derivative,
recentering, product and integral of polynomials are polynomials, and a
quotient is an exact stream.  Nothing is ever truncated.

Every series made from polynomials by products, quotients, derivatives and
recenterings is a rational function f = P/D, and carries three degree
bounds (a, q, r): deg P <= a, deg D <= q, and the distinct factors of D
have total degree <= r.  A polynomial has (deg, 0, 0); a product adds the
bounds; a quotient f/g has (a1 + q2, q1 + a2, r1 + a2); a derivative
(P'D - PD')/D^2 reduces over the radical of D to (a + r - 1, q + r, r);
a recentering (max(a, q), q, r).  Since P = f * D as power series, a
series whose coefficients 0..a all vanish is identically zero, so a
valuation search answers None only for the zero series, and the series is
the zero polynomial from then on.  An integral of a stream is not rational
in general and gets no bound: its valuation is read off its integrand
(the integral from 0 of g is zero iff g is), and a search on a series with
no bound that reads zero over its first ``WINDOW`` terms raises
IndeterminateValuation instead of answering.

The whole-series reads (``coefficients``, ``support``, ``agrees_with``,
equality, hashing, printing) read a fixed window of max(``WINDOW``,
degree + 1) terms of a polynomial and ``WINDOW`` terms of a stream.

Coefficients are computed when read, from the front (McIlroy, "Power series,
power serious", 1999; van der Hoeven, "Relax, but don't be too lazy", 2002),
so the engines, which read valuations and constant terms, pay only for the
leading terms they decide on.  A valuation that the operands fix costs no
coefficient at all: val(f/g) = val f - val g, val(fg) = val f + val g, and
in characteristic 0 val f' = val f - 1 and val (f - f(0)) = val f when
val f >= 1; an integral from 0 has the valuation of its integrand plus one,
and an integral from a nonzero constant has valuation 0.  Such a series
carries its valuation from construction.

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

from .errors import IndeterminateValuation, NegativeValuation, ParseError

_TERM_RE = re.compile(
    r"([+-]?)\s*(?:(\d+(?:\s*/\s*\d+)?)\s*\*?\s*)?(t(?:\^(\d+))?)?\s*$"
)
_ZERO = Fraction(0)
_ZERO_BOUND = (-1, 0, 0)  # the zero polynomial
WINDOW = 64  # terms of a stream that the whole-series reads read


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
    """Immutable exact power series, read through an exact zero test.

    ``TruncatedSeries(coefficients)`` is the polynomial with those
    coefficients.  A series made by an operation starts with no coefficients
    computed:

    * ``_known`` and ``_dens`` are the prefix computed so far: coprime
      numerators and positive denominators, a zero as 0/1;
    * ``_bound`` is (a, q, r), the degree bounds of the module docstring,
      or None for a series with no bound;
    * ``_degree`` is a polynomial's degree (q = 0; -1 for zero), None for a
      stream;
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

    __slots__ = ("_bound", "_degree", "_zeros", "_exact", "_known", "_dens",
                 "_operands", "_extend")

    def __init__(self, coefficients):
        known = [c if c.__class__ is int or c.__class__ is Fraction else Fraction(c)
                 for c in coefficients]
        while known and not known[-1]:
            known.pop()
        self._degree = len(known) - 1
        self._bound = (self._degree, 0, 0)
        self._zeros = next((i for i, c in enumerate(known) if c), len(known))
        self._exact = self._degree >= 0
        self._known = [c.numerator for c in known]
        self._dens = [c.denominator for c in known]
        self._operands = ()
        self._extend = None

    @classmethod
    def _lazy(cls, bound, zeros: int, exact: bool, operands, extend) -> "TruncatedSeries":
        series = cls.__new__(cls)
        if bound is not None and zeros > bound[0]:  # no room left for a nonzero term
            bound, exact = _ZERO_BOUND, False
        series._bound = bound
        series._degree = None if bound is None or bound[1] else bound[0]
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
    def from_terms(terms) -> "TruncatedSeries":
        """The polynomial with the given (coefficient, exponent) terms."""
        terms = list(terms)
        coeffs = [0] * max([0, *(e + 1 for _, e in terms)])
        for coeff, exponent in terms:
            if exponent < 0:
                raise ValueError("exponents must be nonnegative")
            coeffs[exponent] = coeff + coeffs[exponent]  # Fraction + int: Fraction's fast path
        return TruncatedSeries(coeffs)

    @staticmethod
    def zero() -> "TruncatedSeries":
        return TruncatedSeries(())

    @staticmethod
    def monomial(coeff, exponent: int) -> "TruncatedSeries":
        return TruncatedSeries.from_terms([(coeff, exponent)])

    # -- basic queries -------------------------------------------------------

    def _window(self) -> int:
        """Terms the whole-series reads read: max(WINDOW, degree + 1)."""
        return WINDOW if self._degree is None else max(WINDOW, self._degree + 1)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The coefficients of the window."""
        n = self._window()
        return tuple(map(Fraction, self._force(n)[:n], self._dens[:n]))

    @property
    def support(self) -> tuple[int, ...]:
        n = self._window()
        return tuple(i for i, c in enumerate(self._force(n)[:n]) if c)

    def valuation_or_none(self) -> int | None:
        """Index of the first nonzero coefficient, or None for the zero
        series.  The search ends past the numerator bound a, where a zero
        read certifies zero; on a series with no bound it raises
        IndeterminateValuation past its window instead.  It forces doubling
        batches, 1, 2, 4, ... coefficients capped at its end, so reading k
        coefficients walks the pending operands O(log k) times and computes
        fewer than 2k of this series' coefficients."""
        if self._exact:
            return self._zeros
        known, bound = self._known, self._bound
        end = WINDOW if bound is None else bound[0] + 1
        batch = 1
        for i in range(self._zeros, end):
            if i >= len(known):
                self._force(min(i + batch, end))
                batch *= 2
            if known[i]:
                self._zeros = i
                self._exact = True
                return i
        if bound is None:
            raise IndeterminateValuation(f"no degree bound, and the first {WINDOW} terms are zero")
        self._bound, self._degree = _ZERO_BOUND, -1  # _force drops the operands
        return None

    def valuation(self) -> int:
        """Index of the first nonzero coefficient; IndeterminateValuation for
        the zero series."""
        v = self.valuation_or_none()
        if v is None:
            raise IndeterminateValuation("the series is identically zero")
        return v

    def constant_term(self) -> Fraction:
        return _ZERO if self._zeros else Fraction(self._force(1)[0], self._dens[0])

    def agrees_with(self, other: "TruncatedSeries") -> bool:
        """Coefficient-wise equality over the larger of the two windows."""
        n = max(self._window(), other._window())
        return self._force(n)[:n] == other._force(n)[:n] and self._dens[:n] == other._dens[:n]

    def __eq__(self, other) -> bool:
        return self.agrees_with(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        # equal series agree on the first WINDOW terms, whatever their windows
        return hash(self.coefficients[:WINDOW])

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        va, vb = self.valuation_or_none(), other.valuation_or_none()
        if va is None or vb is None:
            return TruncatedSeries.zero()
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

        x, y = self._bound, other._bound  # a missing bound stays missing
        bound = x and y and (x[0] + y[0], x[1] + y[1], x[2] + y[2])
        return self._lazy(bound, va + vb, True, ((self, 0), (other, 0)), extend)

    def derivative(self) -> "TruncatedSeries":
        """Formal d/dt; val f' = val f - 1 when val f >= 1 is known."""
        a, ad, bound = self._known, self._dens, self._bound

        def extend(out, dens, m):  # i * a[i], reduced against i alone
            for i in range(len(out) + 1, m + 1):
                g = gcd(i, ad[i])
                out.append(i // g * a[i])
                dens.append(ad[i] // g)

        bound = bound and (bound[0] + bound[2] - 1, bound[1] + bound[2], bound[2])
        return self._lazy(
            bound, max(self._zeros - 1, 0), self._exact and self._zeros >= 1,
            ((self, 1),), extend,
        )

    def quotient(self, den: "TruncatedSeries") -> "TruncatedSeries":
        """Exact series quotient self / den, a stream; needs val(den) <=
        val(self), and a zero numerator is accepted."""
        vd = den.valuation_or_none()
        if vd is None:
            raise IndeterminateValuation("the denominator is identically zero")
        vn = self.valuation_or_none()
        if vn is None:
            return TruncatedSeries.zero()
        if vn < vd:
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

        x, y = self._bound, den._bound
        bound = x and y and (x[0] + y[1], x[1] + y[0], x[2] + y[0])
        return self._lazy(bound, vn - vd, True, ((self, vd), (den, vd)), extend)

    def recenter(self) -> tuple[Fraction, "TruncatedSeries"]:
        """Split off the value at t=0: returns (constant, self - constant)."""
        a, ad, bound = self._known, self._dens, self._bound

        def extend(out, dens, m):  # index 0 is a known zero, filled in by _force
            dens.extend(ad[len(out):m])
            out.extend(a[len(out):m])

        bound = bound and (max(bound[0], bound[1]), bound[1], bound[2])
        tail = self._lazy(
            bound, max(self._zeros, 1), self._exact and self._zeros >= 1, ((self, 0),), extend,
        )
        return self.constant_term(), tail

    def integrate(self, wrt: "TruncatedSeries", constant=Fraction(0)) -> "TruncatedSeries":
        """Solve d(result)/dt = self * d(wrt)/dt with result(0) = constant.
        The integrand g is a product, whose operands fix its valuation (or
        which is zero), so the integral's valuation is known too.  The
        integral of a polynomial is a polynomial, and that of a stream gets
        no degree bound."""
        if wrt.valuation_or_none() is None:
            raise IndeterminateValuation("the integration variable is identically zero")
        g = self * wrt.derivative()
        c = Fraction(constant)
        gn, gd, d = g._known, g._dens, g._degree

        def extend(out, dens, m):  # g[i - 1] / i, reduced against i alone
            for i in range(len(out), m):
                h = gcd(gn[i - 1], i)
                out.append(gn[i - 1] // h)
                dens.append(gd[i - 1] * (i // h))

        # a zero g integrates to the constant, which _lazy reads off the bound
        bound = None if d is None else (d + 1, 0, 0)
        result = self._lazy(bound, 0 if c else g._zeros + 1, True, ((g, -1),), extend)
        result._known, result._dens = [c.numerator], [c.denominator]  # coefficient 0
        return result

    # -- presentation --------------------------------------------------------

    def __str__(self) -> str:
        parts = [_term_text(c, i) for i, c in enumerate(self.coefficients) if c]
        body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
        return f"{body} + O(t^{self._window()})"

    def __repr__(self) -> str:
        return f"TruncatedSeries({self})"


def parse_series(text: str) -> TruncatedSeries:
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
    return TruncatedSeries.from_terms(terms)
