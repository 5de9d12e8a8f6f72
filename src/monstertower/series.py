"""Exact formal power series in one parameter t, with an exact zero test.

Coefficients are exact rationals stored as reduced integer pairs, a
numerator over a positive denominator; the arithmetic reduces each
coefficient it computes once (Knuth, TAOCP vol. 2, 4.5.1), and
``fractions.Fraction`` values are made only where a caller reads
coefficients.  A series built from finitely many terms is the polynomial it
names, stored as the tuple of its nonzero terms (Johnson, "Sparse
polynomial arithmetic", 1974), zero beyond its last term.  Derivative,
recentering, integral and product of such polynomials are computed at once,
term by term, so they cost their terms and not their degree; so are a
quotient f/g by a single term g = c * t^m and a slope f'/g' whose g' = c *
t^m is one, each term of f (or f') divided by c and shifted down by m,
where the valuations put every exponent at m or above.  Every other
quotient or slope, read straight off f and g by the ratio kernel
``_ratio``, is an exact stream, even where its bounds make it a
polynomial, and so is the tail f - f(0) of a stream: streams come only
from the ratio kernel and the tail.  Only polynomials are differentiated,
multiplied and integrated: the engines read f' only inside a slope and
multiply no stream, and the integral of a stream is not rational in
general, so a stream operand is refused.  Nothing is ever truncated.

Every series is therefore a rational function f = P/D with D(0) != 0, and
carries three degree bounds (a, q, r): deg P <= a, deg D <= q, and the
distinct factors of D have total degree <= r.  Each operation keeps D(0)
!= 0, and each bound is read off the representation it builds:

* a polynomial is P/1, bounded (deg P, 0, 0);
* the derivative f' that a slope reads, (P'D - PD')/D^2, is
  (P'R - P * D'R/D)/(DR) over the radical R of D (D'R/D is a polynomial),
  bounded (a + r - 1, q + r, r), and R(0) != 0 since R divides D;
* a tail f - f(0) is (P - f(0) D)/D, bounded (max(a, q), q, r).  A series
  whose constant term is 0 is its own tail, the same object with its
  bounds unchanged, so a caller reads "f vanishes at t=0" as the tail's
  identity, with no Fraction made;
* a quotient f/g, with v = val g <= val f: since D_f(0) and D_g(0) are not
  0, val P_f = val f and val P_g = v, so t^v divides both P_f and P_g, and
  f/g = (P_f/t^v * D_g)/(D_f * P_g/t^v), whose denominator is not 0 at 0.
  It is bounded (a1 + q2 - v, q1 + a2 - v, r1 + a2 - v), and a slope f'/g'
  is the quotient of the two derivatives, with v = val g'.

Since P = f * D as power series, a stream whose coefficients 0..a all
vanish is identically zero.  Every stream is born knowing its valuation,
and is never zero: the ratio kernel reads it off its operands, and the
tail of a stream with f(0) != 0 is one more than its slope order, searched
once when the tail is made, and is the zero term polynomial when f' = 0.
A series never changes kind after it is made, and no zero test depends on
a window.

Every read is exact or given its length by the caller.  A polynomial's
valuation, constant term, val f', exponent gcd and text are read off its
terms, and two polynomials are equal when their terms are.  Otherwise
equality is exact through the bounds: f - g = (P1 D2 - P2 D1) / (D1 D2)
has a numerator of degree at most e = max(a1 + q2, a2 + q1), so by the
same argument f = g exactly when coefficients 0..e agree.  A hash reads a
short fixed prefix, which equal series share.  ``prefix(n)`` reads
coefficients 0..n - 1.  A polynomial prints whole; a stream prints its
bounds and reads no coefficient.

Stream coefficients are computed when read, from the front (McIlroy,
"Power series, power serious", 1999; van der Hoeven, "Relax, but don't be
too lazy", 2002), so the engines, which read valuations and tails, pay
only for the leading terms they decide on.  A stream reads a stream
operand through its dense prefix and a polynomial through its terms, so a
quotient by a polynomial costs its terms, not its degree; only a read of
the polynomial itself fills a dense prefix, and a prefix past the index range
raises MemoryError.  A valuation that the operands fix costs no coefficient at
all: val(f/g) = val f - val g, and in characteristic 0 val f' = val f - 1
and val (f - f(0)) = val f when val f >= 1, so ``slope_order`` reads val f'
off f and searches f only when val f is 0, and ``valuation_or_none``
computes nothing.  An engine that has read both orders of a pair hands
them to the ratio kernel (``_ratio``), which reads neither again.  A
stream holds only its operands, bounds, valuation and kernel until the
first walk that computes it, when the kernel builds its recurrence, so a
stream that no read reaches costs no more; and a zero that no term of the
recurrence reaches costs no reduction: a sum of 0 is stored as 0/1.

A search that must compute reads the coefficients in order but forces them
in doubling batches of 1, 2, 4, ... capped at the end of the search, so one
that reads k coefficients walks the chain of pending operands O(log k)
times, not k, and each walk hands every operand a block of coefficients.  It
computes fewer than 2k coefficients of the searched series; its operands
may compute up to the same overshoot, which a deeper search often reads
anyway.  A walk is one loop over an explicit stack of (series, length)
pairs, each taking the same path: a series whose operands are not yet
ready is pushed back under them and checked again when it comes off.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from itertools import islice, repeat
from math import gcd

from .errors import IndeterminateValuation, NegativeValuation, ParseError, literal_text, wrong_type

# a coefficient: an integer or a fraction p/q, spaces allowed around the /
_COEFF = r"\d+(?:\s*/\s*\d+)?"
_TERM_RE = re.compile(rf"([+-]?)\s*(?:({_COEFF})\s*\*?\s*)?(t(?:\s*\^\s*(\d+))?)?\s*$")
_ZERO = Fraction(0)
_ZERO_BOUND = (-1, 0, 0)  # the zero polynomial


def _sum_terms(terms) -> tuple:
    """The term tuple of the polynomial with these (coefficient, exponent)
    terms: terms that share an exponent are added, and those that sum to
    zero are dropped.  A term that is not an int or Fraction coefficient
    and an int exponent (a bool is neither) is TypeError, and a negative
    exponent ValueError."""
    sums = {}
    for coeff, exponent in terms:
        if exponent.__class__ is not int or (coeff.__class__ is not int
                                             and coeff.__class__ is not Fraction):
            raise wrong_type("a term is an int or Fraction coefficient and an int exponent",
                             (coeff, exponent), (tuple,))
        if exponent < 0:
            raise ValueError("exponents must be nonnegative")
        if exponent in sums:
            coeff += sums[exponent]
        sums[exponent] = coeff
    return tuple((e, c.numerator, c.denominator) for e, c in sorted(sums.items()) if c)


def _product(xs: tuple, ys: tuple) -> tuple:
    """The terms of the product of the polynomials with terms xs and ys:
    the products that share an exponent are summed over a running
    denominator, and each sum is reduced by one gcd."""
    sums: dict[int, tuple[int, int]] = {}
    for e1, n1, d1 in xs:
        for e2, n2, d2 in ys:
            e, n, d = e1 + e2, n1 * n2, d1 * d2
            if e in sums:
                acc, den = sums[e]
                if d == den:
                    n += acc
                else:
                    g = gcd(den, d)
                    n, d = acc * (d // g) + n * (den // g), den // g * d
            sums[e] = (n, d)
    out = []
    for e in sorted(sums):
        n, d = sums[e]
        if n:
            g = gcd(n, d)
            out.append((e, n // g, d // g))
    return tuple(out)


def _derivative(terms: tuple) -> tuple:
    """The terms of the derivative, e * c * t^(e - 1) of each term c * t^e,
    each reduced against e alone."""
    out = []
    for e, n, d in terms:
        if e:
            g = gcd(e, d)
            out.append((e - 1, e // g * n, d // g))
    return tuple(out)


def _fill(terms: tuple, known: list[int], dens: list[int], upto: int) -> None:
    """Extend the dense prefix known/dens of the polynomial with these terms
    to ``upto`` coefficients: zeros, then the terms that fall there.  The
    denominators grow first, so an allocation that fails leaves no
    numerator without its denominator, and each list grows from ``repeat``,
    so the fill makes no temporary list as long as itself."""
    start = len(known)
    dens.extend(repeat(1, upto - start))
    known.extend(repeat(0, upto - start))
    for e, n, d in islice(terms, bisect_left(terms, (start,)), None):
        if e >= upto:
            break
        known[e] = n
        dens[e] = d


def _ratio_kernel(shift: int, f, g, lead: int):
    """The extend of the quotient recurrence of f / g (shift 0) or f' / g'
    (shift 1), built by the first walk that computes the stream: index i of
    an operand gives the term i - shift, its coefficient times i ** shift.
    A stream is read off the prefix its walk computed, a term polynomial off
    its terms: f[k] is looked up among them, and g's terms past lead join
    the support once, here, where a stream g's join as an extend scans it.
    A sum of 0, most often one that no term reaches, is 0/1 with no gcd."""
    nn, nd, dn, dd, terms = f._known, f._dens, g._known, g._dens, g._terms
    nums = None if f._terms is None else {e: (n, d) for e, n, d in f._terms}
    # g[lead], and the support: (i, g[i] * i ** shift, g's denominator at i), lead < i
    cn, cd = (dn[lead], dd[lead]) if terms is None else terms[bisect_left(terms, (lead,))][1:]
    support = [] if terms is None else [(e, n * e ** shift, d) for e, n, d in terms if e > lead]
    scanned = lead + 1
    # (num - sum) / lead as (num - sum) * sn / sd with sd > 0
    c = cn * lead ** shift
    sn, sd = (cd, c) if c > 0 else (-cd, -c)

    def extend(out, dens, m):
        nonlocal scanned
        if terms is None:
            for i in range(scanned, lead + m):
                if dn[i]:
                    support.append((i, dn[i] * i ** shift, dd[i]))
            scanned = lead + m
        for k in range(lead + len(out), lead + m):
            if nums is None:
                acc, den_k = nn[k], nd[k]
            else:
                acc, den_k = nums.get(k, (0, 1))
            if shift and acc:
                acc *= k
            for i, x, y in support:
                if i > k:
                    break
                c = out[k - i]
                if c:
                    # over the lcm of the denominators, most often d itself
                    n, d = x * c, y * dens[k - i]
                    q, r = divmod(d, den_k)
                    if r:
                        g = gcd(den_k, d)
                        q, n = d // g, n * (den_k // g)
                    acc, den_k = acc * q - n, den_k * q
            if acc:
                acc, den_k = acc * sn, den_k * sd
                g = gcd(acc, den_k)
                out.append(acc // g)
                dens.append(den_k // g)
            else:
                out.append(0)
                dens.append(1)

    return extend


def _tail_kernel(f):
    """The extend of the tail f - f(0) of a stream f, which copies f's
    coefficients: those below its valuation are zeros that ``_force`` fills."""
    fn, fd = f._known, f._dens

    def extend(out, dens, m):
        dens.extend(fd[len(out):m])
        out.extend(fn[len(out):m])

    return extend


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
    coefficients, a list or tuple of int or Fraction values (anything else
    is TypeError).  A polynomial holds its terms; a series made by a stream
    operation starts with no coefficients computed:

    * ``_terms`` is a term polynomial's tuple of nonzero terms
      ``(exponent, numerator, denominator)``, in increasing exponent, each
      coefficient reduced; None for a series made by a stream operation;
    * ``_known`` and ``_dens`` are the dense prefix computed or filled in so
      far: coprime numerators and positive denominators, a zero as 0/1; a
      polynomial's is filled only when the polynomial itself is read;
    * ``_bound`` is (a, q, r), the degree bounds of the module docstring,
      (degree, 0, 0) for a term polynomial (-1 for zero);
    * ``_zeros`` is the valuation, set when the series is made (0 for the
      zero polynomial): a stream with ``_zeros`` 0 has a nonzero constant
      term, and a constant term past the zeros is 0 for free;
    * ``_operands`` holds a stream's ``(stream, offset)`` pairs: the first
      m coefficients need the first ``m + offset`` of that operand, which
      its walk computes first; a polynomial operand is read off its terms;
    * ``_kernel()`` builds ``_extend``: ``_ratio_kernel`` or
      ``_tail_kernel`` bound to a stream's operands; None for a polynomial;
    * ``_extend(known, dens, m)`` computes up to m once the operands are
      ready; None until the first walk that computes the stream builds it.

    Leading zeros, and the zeros of a term polynomial, cost no arithmetic."""

    __slots__ = ("_bound", "_zeros", "_terms", "_known", "_dens", "_operands", "_kernel", "_extend")

    def __init__(self, coefficients):
        if coefficients.__class__ is not list and coefficients.__class__ is not tuple:
            raise wrong_type("coefficients must be a list or tuple", coefficients)
        self._write(_sum_terms((c, i) for i, c in enumerate(coefficients)), None, 0, (), None)

    def _write(self, terms, bound, zeros: int, operands, kernel) -> "TruncatedSeries":
        """Write every slot and return the series, with nothing computed: a
        polynomial has its terms, its bound and valuation read off them,
        and no operands or kernel; a stream has no terms, and the given
        bound, valuation, operands and kernel."""
        if terms is not None:
            bound = (terms[-1][0], 0, 0) if terms else _ZERO_BOUND
            zeros = terms[0][0] if terms else 0
        self._terms, self._bound, self._zeros = terms, bound, zeros
        self._known, self._dens = [], []
        self._operands, self._kernel, self._extend = operands, kernel, None
        return self

    @classmethod
    def _of_terms(cls, terms: tuple) -> "TruncatedSeries":
        """A new polynomial with these terms."""
        return cls.__new__(cls)._write(terms, None, 0, (), None)

    @classmethod
    def _lazy(cls, bound, zeros: int, operands, kernel) -> "TruncatedSeries":
        """A new stream of valuation ``zeros``, not zero, whose ``kernel()``
        builds its extend when it is first computed."""
        return cls.__new__(cls)._write(None, bound, zeros, operands, kernel)

    def _force(self, n: int) -> list[int]:
        """Compute the first n coefficients and return the computed
        numerators (``_dens`` holds their denominators).  A term polynomial
        writes its terms into its prefix; a stream works its pending stream
        operands off an explicit stack, so a chain of thousands of operations
        needs no recursion per ancestor: a stream with unready operands is
        pushed back under them, and when it comes off again LIFO order has made
        them ready, so it extends, its first extend built by its kernel.
        MemoryError when n is past the index range."""
        known = self._known
        if len(known) >= n:
            return known
        stack = [(self, n)]
        pop, push = stack.pop, stack.append
        try:
            if self._kernel is None:
                _fill(self._terms, known, self._dens, n)
                return known
            while stack:
                series, want = pop()
                done = series._known
                if (have := len(done)) >= want:
                    continue
                if have < series._zeros:
                    fill = min(want, series._zeros)
                    series._dens.extend(repeat(1, fill - have))
                    done.extend(repeat(0, fill - have))
                    if fill >= want:
                        continue
                ready = True
                for operand, offset in series._operands:
                    if len(operand._known) < want + offset:
                        if ready:
                            push((series, want))
                            ready = False
                        push((operand, want + offset))
                if ready:
                    extend = series._extend
                    if extend is None:
                        extend = series._extend = series._kernel()
                    extend(done, series._dens, want)
        except OverflowError:  # a length past the index range, so past memory too
            raise MemoryError(f"a prefix of {n} coefficients") from None
        return known

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_terms(terms) -> "TruncatedSeries":
        """The polynomial with the given (coefficient, exponent) terms: int or
        Fraction coefficients and int exponents (anything else is
        TypeError)."""
        return TruncatedSeries._of_terms(_sum_terms(terms))

    @staticmethod
    def zero() -> "TruncatedSeries":
        return TruncatedSeries._of_terms(())

    # -- basic queries -------------------------------------------------------

    @property
    def is_polynomial(self) -> bool:
        """Whether the series is a term polynomial, zero past its last term."""
        return self._terms is not None

    def prefix(self, n: int) -> tuple[Fraction, ...]:
        """Coefficients 0..n - 1, as Fractions; an n that is not an int is
        TypeError, and a negative one ValueError."""
        if n.__class__ is not int:
            raise wrong_type("n must be an int", n)
        if n < 0:
            raise ValueError(f"prefix length {n} is negative")
        return tuple(map(Fraction, self._force(n)[:n], self._dens[:n]))

    # kept for bench/spans.py until ROADMAP item 1
    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The first max(64, degree + 1) coefficients."""
        return self.prefix(64 if self._terms is None else max(64, self._bound[0] + 1))

    def exponent_gcd(self) -> int:
        """The gcd of the exponents of a polynomial's terms, 0 for the zero
        polynomial; a stream is refused with ValueError, since it has no
        last term."""
        if self._terms is None:
            raise ValueError("the exponent gcd of a stream is not read")
        return gcd(*[e for e, _, _ in self._terms])

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
        series, read off ``_zeros`` with no coefficient computed."""
        return None if self._terms == () else self._zeros

    def slope_order(self) -> int | None:
        """val f', None when f' is identically zero.  It is v - 1 for free
        when f's valuation v is 1 or more, and otherwise one less than the
        first nonzero index of f from 1, searched up to min(max(a, q), a + r).

        Proof that a zero read there certifies f' = 0.  f - f(0) = (P - f(0)
        D)/D has numerator bound max(a, q) and the coefficients of f past
        index 0, so it is 0 if f[1..max(a, q)] vanish.  f' has numerator
        bound a + r - 1 and coefficient j equal to (j + 1) f[j + 1], so it
        is 0 if f[1..a + r] vanish.  A term polynomial with f(0) != 0, or
        zero, has the exponent of its next term, if any, less one."""
        if self._zeros:
            return self._zeros - 1
        terms = self._terms
        if terms is not None:
            return terms[1][0] - 1 if len(terms) > 1 else None
        a, q, r = self._bound
        i = self._first_nonzero(1, min(max(a, q), a + r) + 1)
        return None if i is None else i - 1

    def valuation(self) -> int:
        """Index of the first nonzero coefficient; IndeterminateValuation for
        the zero series."""
        v = self.valuation_or_none()
        if v is None:
            raise IndeterminateValuation("the series is identically zero")
        return v

    def constant_term(self) -> Fraction:
        if self._zeros:
            return _ZERO
        terms = self._terms
        if terms is not None:  # the zero polynomial, or a first term at t^0
            return Fraction(terms[0][1], terms[0][2]) if terms else _ZERO
        return Fraction(self._force(1)[0], self._dens[0])

    def __eq__(self, other) -> bool:
        """Exact equality: the terms of two term polynomials agree, and
        otherwise coefficients 0..e, e = max(a1 + q2, a2 + q1) (module
        docstring), compared in doubling batches up to the first
        difference."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._terms is not None and other._terms is not None:
            return self._terms == other._terms
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

    # kept for bench/spans.py until ROADMAP item 1
    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """The product of two term polynomials, computed at once, term by
        term; a stream operand is refused with ValueError before anything
        is computed, since neither engine multiplies streams, and a factor
        that is not a series by its type (``_require_series``)."""
        if _require_series("other", other)._terms is None or self._terms is None:
            raise ValueError("the product of a stream is not computed")
        return self._of_terms(_product(self._terms, other._terms))

    # kept for bench/spans.py until ROADMAP item 1
    def derivative(self) -> "TruncatedSeries":
        """Formal d/dt of a term polynomial: its terms' derivatives,
        e * c * t^(e - 1), each reduced against e alone.  A stream is
        refused with ValueError before anything is computed: the engines
        read f' inside a slope, through ``_ratio``."""
        if self._terms is None:
            raise ValueError("the derivative of a stream is not computed")
        return self._of_terms(_derivative(self._terms))

    # kept for bench/spans.py until ROADMAP item 1
    def quotient(self, den: "TruncatedSeries") -> "TruncatedSeries":
        """Exact series quotient self / den, a stream unless both are
        polynomials and den is a single term c * t^m; needs val(den) <=
        val(self), and a zero numerator is accepted.  A den that is not a
        series is refused by its type (``_require_series``)."""
        vd = _require_series("den", den).valuation_or_none()
        return self._ratio(den, vd, None if vd is None else self.valuation_or_none(), 0)

    def _ratio(self, den, vd: int | None, vn: int | None, shift: int) -> "TruncatedSeries":
        """The quotient recurrence of self / den (shift 0) or of self' / den'
        (shift 1), given the valuations vd of den (den') and vn of self
        (self'), which the engines have read when they call it: index i of
        an operand gives the term i - shift, its coefficient times i **
        shift.  A zero denominator is refused before vn is looked at.  Term
        polynomials whose den (or den') is a single term c * t^vd, c =
        cn/cd, divide term by term: each term of self (or self') times
        cd/cn, reduced by one gcd, and shifted down by vd, which the
        valuation check puts at or below every exponent.  Any other ratio
        is a stream whose bounds leave out the factor t^vd of both
        numerators (module docstring), and whose recurrence
        ``_ratio_kernel`` builds when it is first computed."""
        if vd is None:
            raise IndeterminateValuation("the denominator is identically zero")
        if vn is None:
            return TruncatedSeries.zero()
        if vn < vd:
            raise NegativeValuation(
                f"valuation {vn} of numerator below valuation {vd} of denominator"
            )
        terms, den_terms = self._terms, den._terms
        lead = vd + shift
        if (terms is not None and den_terms is not None
                and len(den_terms) - (shift and den_terms[0][0] == 0) == 1):
            # den's last term is c * t^lead, and den (den') is that term (its
            # derivative); every exponent of self but a constant is >= lead
            _, cn, cd = den_terms[-1]
            cn *= lead ** shift
            if cn < 0:
                cn, cd = -cn, -cd
            out = []
            for e, n, d in terms:
                if e >= lead:
                    n, d = n * e ** shift * cd, d * cn
                    g = gcd(n, d)
                    out.append((e - lead, n // g, d // g))
            return self._of_terms(tuple(out))
        x, y = self._bound, den._bound
        if shift:  # the bounds of self' and den'
            x = (x[0] + x[2] - 1, x[1] + x[2], x[2])
            y = (y[0] + y[2] - 1, y[1] + y[2], y[2])
        bound = (x[0] + y[1] - vd, x[1] + y[0] - vd, x[2] + y[0] - vd)
        operands = ((self, lead),) if terms is None else ()  # the streams, which a walk computes
        operands += ((den, lead),) if den_terms is None else ()
        return self._lazy(bound, vn - vd, operands, partial(_ratio_kernel, shift, self, den, lead))

    def recenter(self) -> tuple[Fraction, "TruncatedSeries"]:
        """Split off the value at t=0: returns (constant, self - constant),
        the tail ``_tail``."""
        return self.constant_term(), self._tail()

    def _tail(self) -> "TruncatedSeries":
        """self - self(0), read with no Fraction: a series whose constant
        term is 0 is its own tail, the same object with its own bounds, so
        ``s._tail() is s`` says that s vanishes at t=0; any other tail is a
        new series, a term polynomial's its terms past the first.  A stream
        with ``_zeros`` 0 has f(0) != 0, and its tail's valuation is its
        slope order plus one, searched once by ``slope_order`` to the bound
        it proves: the zero term polynomial when f' = 0, else a stream that
        carries it."""
        if self._zeros:
            return self
        terms = self._terms
        if terms is not None:  # the zero polynomial, or a first term at t^0
            return self._of_terms(terms[1:]) if terms else self
        order = self.slope_order()
        if order is None:
            return self._of_terms(())
        a, q, r = self._bound
        return self._lazy((max(a, q), q, r), order + 1, ((self, 0),), partial(_tail_kernel, self))

    def integrate(self, wrt: "TruncatedSeries", constant=Fraction(0)) -> "TruncatedSeries":
        """Solve d(result)/dt = self * d(wrt)/dt with result(0) = constant,
        term by term: c * t^e of the integrand g gives c/(e + 1) * t^(e + 1),
        reduced against e + 1 alone.  The integrand and the variable must be
        polynomials, and so is the integral; a stream is refused with
        ValueError before anything is computed, since its integral is not
        rational in general and would carry no degree bound.  A wrt that is
        not a series, or a constant that is not an int or Fraction, is
        refused by its type."""
        try:
            wrt_terms = wrt._terms
        except AttributeError:  # refused where the read fails: a valid call checks nothing
            _require_series("wrt", wrt)
            raise
        if wrt_terms == ():
            raise IndeterminateValuation("the integration variable is identically zero")
        if self._terms is None or wrt_terms is None:
            raise ValueError("the integrand is not a polynomial")
        if constant.__class__ is not Fraction and constant.__class__ is not int:
            raise wrong_type("constant must be an int or Fraction", constant)
        terms = [(0, constant.numerator, constant.denominator)] if constant else []
        for e, n, d in _product(self._terms, _derivative(wrt_terms)):
            h = gcd(n, e + 1)
            terms.append((e + 1, n // h, d * ((e + 1) // h)))
        return self._of_terms(tuple(terms))

    # -- presentation --------------------------------------------------------

    def __str__(self) -> str:
        """A polynomial whole; a stream by its bounds, reading nothing."""
        if self._terms is None:
            return f"P/D with deg P <= {self._bound[0]}, deg D <= {self._bound[1]}"
        parts = [_term_text(Fraction(n, d), e) for e, n, d in self._terms]
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    def __repr__(self) -> str:
        return f"TruncatedSeries({self})"


def _require_series(name: str, s) -> TruncatedSeries:
    """``s``, refused with ParseError naming its type if it is not a series."""
    if not isinstance(s, TruncatedSeries):
        raise ParseError(f"expected a TruncatedSeries for {name}, got {type(s).__name__}; "
                         "parse text with parse_series")
    return s


def parse_series(text: str) -> TruncatedSeries:
    """Parse a series literal: a sum of terms ``c*t^k``.

    ``c`` is an integer or a fraction ``p/q``; the ``*`` and the exponent are
    optional (``t`` means ``t^1``, a bare coefficient means ``c*t^0``).  A
    ``+`` before a negative term is that term, as ``CurveSpec`` prints it.
    Whitespace is insignificant.  Example: ``7/5*t^2 + t^3 + -1/2*t^5``.
    """
    stripped = literal_text(text, "series").strip()
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
            coeff = Fraction("".join(coeff_text.split())) if coeff_text else Fraction(1)
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
