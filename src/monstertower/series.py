"""Exact formal power series in one parameter t, with an exact zero test.

Coefficients are exact rationals stored as reduced integer pairs, a
numerator over a positive denominator; the arithmetic reduces each
coefficient it computes once (Knuth, TAOCP vol. 2, 4.5.1), and
``fractions.Fraction`` values are made only where a caller reads
coefficients.  A series built from finitely many terms is the polynomial it
names, zero beyond its last term, and knows its degree; derivative,
recentering and product of polynomials are polynomials, and a quotient is
an exact stream, as is a slope f'/g', read straight off f and g.  Only a
polynomial is integrated, and its integral is a polynomial; the integral of
a stream is not rational in general, so it is refused.  Nothing is ever
truncated.

Every series is therefore a rational function f = P/D, and carries three
degree bounds (a, q, r): deg P <= a, deg D <= q, and the distinct factors
of D have total degree <= r.  A polynomial has (deg, 0, 0); a product adds
the bounds; a quotient f/g has (a1 + q2, q1 + a2, r1 + a2); a derivative
(P'D - PD')/D^2 reduces over the radical of D to (a + r - 1, q + r, r),
and a slope has the quotient bound of the two derivative bounds.  A series
whose constant term is 0 is its own recentering, with its bounds
unchanged; any other recentering has (max(a, q), q, r).  Since P = f * D as
power series, a series whose coefficients 0..a all vanish is identically
zero, so a valuation search answers None only for the zero series, and the
series is the zero polynomial from then on.  No zero test depends on a
window.

Every read is exact or given its length by the caller.  Equality is
exact: f - g = (P1 D2 - P2 D1) / (D1 D2) has a numerator of degree at most
e = max(a1 + q2, a2 + q1), so by the same argument f = g exactly when
coefficients 0..e agree.  A hash reads a short fixed prefix, which equal
series share.  ``prefix(n)`` reads coefficients 0..n - 1.  A polynomial
prints whole; a stream prints its bounds and reads no coefficient.
``exponent_gcd`` reads the deg + 1 terms of a polynomial.

Coefficients are computed when read, from the front (McIlroy, "Power series,
power serious", 1999; van der Hoeven, "Relax, but don't be too lazy", 2002),
so the engines, which read valuations and constant terms, pay only for the
leading terms they decide on.  A valuation that the operands fix costs no
coefficient at all: val(f/g) = val f - val g, val(fg) = val f + val g, and
in characteristic 0 val f' = val f - 1 and val (f - f(0)) = val f when
val f >= 1, so ``slope_order`` reads val f' off f and searches f only when
val f is 0 or unknown; an integral from 0 has the valuation of its
integrand plus one, and an integral from a nonzero constant has valuation
0.  Such a series carries its valuation from construction.

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


def _dot(out, dens, xn, xd, yn, yd, indices, top) -> None:
    """Append the sum of x[i] * y[top - i] over ``indices`` to ``out``/``dens``:
    the products are summed over a running denominator, the lcm of theirs,
    and the sum is reduced by one gcd."""
    acc, den = 0, 1
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
    * ``_bound`` is (a, q, r), the degree bounds of the module docstring;
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
        self._polynomial([c.numerator for c in known], [c.denominator for c in known])

    def _polynomial(self, nums: list[int], dens: list[int]) -> None:
        """Make this series the polynomial with the reduced pairs nums/dens,
        dropping the zeros past its last term."""
        while nums and not nums[-1]:
            nums.pop()
            dens.pop()
        self._degree = len(nums) - 1
        self._bound = (self._degree, 0, 0)
        self._zeros = next((i for i, c in enumerate(nums) if c), len(nums))
        self._exact = self._degree >= 0
        self._known, self._dens = nums, dens
        self._operands = ()
        self._extend = None

    @classmethod
    def _lazy(cls, bound, zeros: int, exact: bool, operands, extend) -> "TruncatedSeries":
        series = cls.__new__(cls)
        if zeros > bound[0]:  # no room left for a nonzero term
            bound, exact = _ZERO_BOUND, False
        series._bound = bound
        series._degree = None if bound[1] else bound[0]
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
        operations needs no recursion per ancestor.  A series with unready
        operands is pushed back marked, under them, and extended unchecked
        when popped again: LIFO order has made them ready."""
        known = self._known
        if len(known) >= n:
            return known
        stack = [(self, n, False)]
        pop, push = stack.pop, stack.append
        while stack:
            series, want, marked = pop()
            done, dens, extend = series._known, series._dens, series._extend
            if extend is not None:
                degree = series._degree
                upto = want if degree is None else min(want, degree + 1)
                if marked:
                    extend(done, dens, upto)
                elif len(done) < upto:
                    if len(done) < series._zeros:
                        fill = min(upto, series._zeros) - len(done)
                        done.extend([0] * fill)
                        dens.extend([1] * fill)
                    if len(done) < upto:
                        ready = True
                        for operand, offset in series._operands:
                            if len(operand._known) < upto + offset:
                                if ready:
                                    push((series, want, True))
                                    ready = False
                                push((operand, upto + offset, False))
                        if not ready:
                            continue
                        extend(done, dens, upto)
                if degree is not None and len(done) > degree:
                    series._operands = ()
                    series._extend = None
            if len(done) < want:  # past the degree of a complete polynomial
                dens.extend([1] * (want - len(done)))
                done.extend([0] * (want - len(done)))
        return known

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_terms(terms) -> "TruncatedSeries":
        """The polynomial with the given (coefficient, exponent) terms,
        written straight into reduced pairs: terms that share an exponent
        are added, and no other coefficient is converted twice."""
        terms = list(terms)
        size = max([0, *(e + 1 for _, e in terms)])
        try:
            nums, dens = [0] * size, [1] * size
        except OverflowError:  # a length past the index range, so past memory too
            raise MemoryError(f"a polynomial of degree {size - 1}") from None
        for coeff, exponent in terms:
            if exponent < 0:
                raise ValueError("exponents must be nonnegative")
            if coeff.__class__ is not int and coeff.__class__ is not Fraction:
                coeff = Fraction(coeff)
            if nums[exponent]:
                coeff = Fraction(nums[exponent], dens[exponent]) + coeff
            nums[exponent], dens[exponent] = coeff.numerator, coeff.denominator
        series = TruncatedSeries.__new__(TruncatedSeries)
        series._polynomial(nums, dens)
        return series

    @staticmethod
    def zero() -> "TruncatedSeries":
        return TruncatedSeries(())

    # -- basic queries -------------------------------------------------------

    @property
    def is_polynomial(self) -> bool:
        """Whether the series was built as a polynomial (denominator bound
        0), so that it is zero past its numerator bound."""
        return self._degree is not None

    def prefix(self, n: int) -> tuple[Fraction, ...]:
        """Coefficients 0..n - 1, as Fractions."""
        return tuple(map(Fraction, self._force(n)[:n], self._dens[:n]))

    # kept for bench/spans.py until ROADMAP item 1
    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The first max(64, degree + 1) coefficients."""
        return self.prefix(64 if self._degree is None else max(64, self._degree + 1))

    def exponent_gcd(self) -> int:
        """The gcd of the exponents of a polynomial's terms, 0 for the zero
        polynomial, read off its deg + 1 coefficients; a stream is refused
        with ValueError, since it has no last term."""
        if self._degree is None:
            raise ValueError("the exponent gcd of a stream is not read")
        return gcd(*[i for i, c in enumerate(self._force(self._degree + 1)) if c])

    def _first_nonzero(self, start: int, end: int) -> int | None:
        """Index of the first nonzero coefficient in start..end - 1, or None,
        forced in doubling batches (module docstring)."""
        known = self._known
        batch = 1
        for i in range(start, end):
            if i >= len(known):
                self._force(min(i + batch, end))
                batch *= 2
            if known[i]:
                return i
        return None

    def valuation_or_none(self) -> int | None:
        """Index of the first nonzero coefficient, or None for the zero
        series.  The search ends past the numerator bound a, where a zero
        read certifies zero."""
        if self._exact:
            return self._zeros
        v = self._first_nonzero(self._zeros, self._bound[0] + 1)
        if v is None:
            self._bound, self._degree = _ZERO_BOUND, -1  # _force drops the operands
        else:
            self._zeros, self._exact = v, True
        return v

    def slope_order(self) -> int | None:
        """val f', None when f' is identically zero.  It is v - 1 for free
        when f's valuation v >= 1 is exact, and otherwise one less than the
        first nonzero index of f from 1, searched up to min(max(a, q), a + r).

        Proof that a zero read there certifies f' = 0.  f - f(0) = (P - f(0)
        D)/D has numerator bound max(a, q) and the coefficients of f past
        index 0, so it is 0 if f[1..max(a, q)] vanish.  f' has numerator
        bound a + r - 1 and coefficient j equal to (j + 1) f[j + 1], so it
        is 0 if f[1..a + r] vanish."""
        if self._exact and self._zeros:
            return self._zeros - 1
        a, q, r = self._bound
        i = self._first_nonzero(max(self._zeros, 1), min(max(a, q), a + r) + 1)
        return None if i is None else i - 1

    def valuation(self) -> int:
        """Index of the first nonzero coefficient; IndeterminateValuation for
        the zero series."""
        v = self.valuation_or_none()
        if v is None:
            raise IndeterminateValuation("the series is identically zero")
        return v

    def constant_term(self) -> Fraction:
        return _ZERO if self._zeros else Fraction(self._force(1)[0], self._dens[0])

    def __eq__(self, other) -> bool:
        """Exact equality: coefficients 0..e agree, e = max(a1 + q2, a2 + q1)
        (module docstring), compared in doubling batches up to the first
        difference."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        (a1, q1, _), (a2, q2, _) = self._bound, other._bound
        end, done, batch = max(a1 + q2, a2 + q1) + 1, 0, 1
        while done < end and self is not other:
            n = min(done + batch, end)
            if (self._force(n)[done:n] != other._force(n)[done:n]
                    or self._dens[done:n] != other._dens[done:n]):
                return False
            done, batch = n, 2 * batch
        return True

    def __hash__(self) -> int:
        return hash(self.prefix(8))  # equal series share every prefix

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
                _dot(out, dens, a, ad, b, bd, support, k)

        x, y = self._bound, other._bound
        bound = (x[0] + y[0], x[1] + y[1], x[2] + y[2])
        return self._lazy(bound, va + vb, True, ((self, 0), (other, 0)), extend)

    def derivative(self) -> "TruncatedSeries":
        """Formal d/dt; val f' = val f - 1 when val f >= 1 is known."""
        a, ad, bound = self._known, self._dens, self._bound

        def extend(out, dens, m):  # i * a[i], reduced against i alone
            for i in range(len(out) + 1, m + 1):
                g = gcd(i, ad[i])
                out.append(i // g * a[i])
                dens.append(ad[i] // g)

        bound = (bound[0] + bound[2] - 1, bound[1] + bound[2], bound[2])
        return self._lazy(
            bound, max(self._zeros - 1, 0), self._exact and self._zeros >= 1,
            ((self, 1),), extend,
        )

    def quotient(self, den: "TruncatedSeries") -> "TruncatedSeries":
        """Exact series quotient self / den, a stream; needs val(den) <=
        val(self), and a zero numerator is accepted."""
        return self._ratio(den, TruncatedSeries.valuation_or_none, 0)

    def slope(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """The slope f'/g' of f = self over g = other, read straight off f
        and g, where coefficient j of f' is (j + 1) f[j + 1]: the quotient
        of the derivatives, with their bounds and exceptions."""
        return self._ratio(other, TruncatedSeries.slope_order, 1)

    def _ratio(self, den, order, shift: int) -> "TruncatedSeries":
        """The quotient recurrence of self / den (shift 0) or of self' / den'
        (shift 1), with the valuations ``order`` reads: index i of an operand
        gives the term i - shift, its coefficient times i ** shift."""
        vd = order(den)
        if vd is None:
            raise IndeterminateValuation("the denominator is identically zero")
        vn = order(self)
        if vn is None:
            return TruncatedSeries.zero()
        if vn < vd:
            raise NegativeValuation(
                f"valuation {vn} of numerator below valuation {vd} of denominator"
            )
        nn, nd, dn, dd = self._known, self._dens, den._known, den._dens
        lead = vd + shift
        support = []  # (i, den[i] * i ** shift, dd[i]), den[i] != 0, lead < i < scanned
        scanned = lead + 1

        def extend(out, dens, m):
            nonlocal scanned
            # (num - sum) / lead as (sum - num) * sn / sd with sd > 0
            c = dn[lead] * lead ** shift
            sn, sd = (-dd[lead], c) if c > 0 else (dd[lead], -c)
            for k in range(lead + len(out), lead + m):
                while scanned <= k:
                    if dn[scanned]:
                        support.append((scanned, dn[scanned] * scanned ** shift, dd[scanned]))
                    scanned += 1
                acc, den_k = -nn[k] * k ** shift, nd[k]
                for i, x, y in support:
                    c = out[k - i]
                    if c:
                        n, d = x * c, y * dens[k - i]
                        if d == den_k:
                            acc += n
                        else:
                            g = gcd(den_k, d)
                            acc = acc * (d // g) + n * (den_k // g)
                            den_k = den_k // g * d
                acc, den_k = acc * sn, den_k * sd
                g = gcd(acc, den_k)
                out.append(acc // g)
                dens.append(den_k // g)

        x, y = self._bound, den._bound
        if shift:  # the bounds of self' and den'
            x = (x[0] + x[2] - 1, x[1] + x[2], x[2])
            y = (y[0] + y[2] - 1, y[1] + y[2], y[2])
        bound = (x[0] + y[1], x[1] + y[0], x[2] + y[0])
        return self._lazy(bound, vn - vd, True, ((self, lead), (den, lead)), extend)

    def recenter(self) -> tuple[Fraction, "TruncatedSeries"]:
        """Split off the value at t=0: returns (constant, self - constant).
        A series whose constant term is 0 is its own recentering, with its
        own bounds; any other tail is a new series."""
        c = self.constant_term()
        if not c:
            return c, self
        a, ad, bound = self._known, self._dens, self._bound

        def extend(out, dens, m):  # index 0 is a known zero, filled in by _force
            dens.extend(ad[len(out):m])
            out.extend(a[len(out):m])

        bound = (max(bound[0], bound[1]), bound[1], bound[2])
        return c, self._lazy(bound, 1, False, ((self, 0),), extend)

    def integrate(self, wrt: "TruncatedSeries", constant=Fraction(0)) -> "TruncatedSeries":
        """Solve d(result)/dt = self * d(wrt)/dt with result(0) = constant.
        The integrand g is a product, whose operands fix its valuation (or
        which is zero), so the integral's valuation is known too.  The
        integrand must be a polynomial, and so is the integral; a stream is
        refused with ValueError, since its integral is not rational in
        general and would carry no degree bound."""
        if wrt.valuation_or_none() is None:
            raise IndeterminateValuation("the integration variable is identically zero")
        g = self * wrt.derivative()
        gn, gd, d = g._known, g._dens, g._degree
        if d is None:
            raise ValueError("the integrand is not a polynomial")
        c = Fraction(constant)

        def extend(out, dens, m):  # g[i - 1] / i, reduced against i alone
            for i in range(len(out), m):
                h = gcd(gn[i - 1], i)
                out.append(gn[i - 1] // h)
                dens.append(gd[i - 1] * (i // h))

        # a zero g integrates to the constant, which _lazy reads off the bound
        result = self._lazy((d + 1, 0, 0), 0 if c else g._zeros + 1, True, ((g, -1),), extend)
        result._known, result._dens = [c.numerator], [c.denominator]  # coefficient 0
        return result

    # -- presentation --------------------------------------------------------

    def __str__(self) -> str:
        """A polynomial whole; a stream by its bounds, reading nothing."""
        if self._degree is None:
            return f"P/D with deg P <= {self._bound[0]}, deg D <= {self._bound[1]}"
        parts = [_term_text(c, i) for i, c in enumerate(self.prefix(self._degree + 1)) if c]
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

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
    chunks = re.split(r"(?<!\^)(?=[+-])", stripped)  # a sign after ^ is in its term
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
