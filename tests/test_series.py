from contextlib import contextmanager
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from monstertower.errors import IndeterminateValuation, NegativeValuation, ParseError
from monstertower.series import TruncatedSeries, parse_series

S = parse_series


def slope(f, g):
    """f'/g' as the engines make it: the ratio kernel handed val g' and,
    when g' is not zero, val f'."""
    vd = g.slope_order()
    return f._ratio(g, vd, None if vd is None else f.slope_order(), 1)


def naive_product(a, b):
    # independent convolution oracle on the terms of two polynomials
    terms_a, terms_b = (s.prefix(s._bound[0] + 1) for s in (a, b))
    return TruncatedSeries.from_terms(
        [(ca * cb, i + j) for i, ca in enumerate(terms_a) for j, cb in enumerate(terms_b)]
    )


class TestArith:
    def test_cancellation(self):
        r = S("1 + t") * S("1 - t")
        assert r == S("1 - t^2")
        assert r.recenter()[1].valuation() == 2

    def test_monomial_product(self):
        assert S("t^2") * S("t^3") == S("t^5")

    def test_shifted_product_matches_convolution_oracle(self):
        a, b = S("t^24"), S("1 + t")
        prod = a * b
        assert prod == naive_product(a, b)
        assert prod == S("t^24 + t^25")

    def test_mul_precision_bound(self):
        # the product of polynomials is the polynomial of degree 25, zero
        # past it
        prod = S("t^24") * S("1 + t")
        assert prod._bound == (25, 0, 0) and prod.is_polynomial
        assert prod.prefix(30) == (0,) * 24 + (1, 1, 0, 0, 0, 0)

    def test_a_stream_operand_is_refused(self, computed):
        # only polynomials are multiplied and integrated, and a stream is
        # refused before any of its coefficients is computed
        stream, poly = S("1 + t").quotient(S("1 - t")), S("t^2")
        computed.clear()
        for build in (lambda: stream * poly, lambda: poly * stream):
            with pytest.raises(ValueError, match="^the product of a stream is not computed$"):
                build()
        for build in (lambda: stream.integrate(poly), lambda: poly.integrate(stream)):
            with pytest.raises(ValueError, match="^the integrand is not a polynomial$"):
                build()
        assert computed == {}


class TestDerivative:
    def test_monomial(self):
        assert S("t^7").derivative() == S("7*t^6")

    def test_binomial_with_coefficient(self):
        d = S("14*t^18 + 14*t^19").derivative()
        assert d == S("252*t^17 + 266*t^18")
        # 14*(18 t^17 + 19 t^18)
        assert d.prefix(19)[17:] == (14 * 18, 14 * 19)

    def test_constant(self):
        d = S("5").derivative()
        assert d.valuation_or_none() is None

    def test_empty_window(self):
        # no terms name the zero polynomial, whose derivative is zero too
        d = TruncatedSeries(()).derivative()
        assert d.valuation_or_none() is None
        assert d.constant_term() == 0

    def test_a_stream_is_refused(self, computed):
        # only polynomials are differentiated: the engines read f' inside a
        # slope, so a stream is refused before any coefficient is computed
        stream = S("t^3 + t^4").quotient(S("1 - t"))
        computed.clear()
        with pytest.raises(ValueError, match="^the derivative of a stream is not computed$"):
            stream.derivative()
        assert computed == {}


class TestQuotient:
    def test_monomials(self):
        q = S("7*t^6").quotient(S("5*t^4"))
        assert q == S("7/5*t^2")

    def test_ramphoid_chart_quotient(self):
        # dx / dy'' for x = t^2, y'' = 2 + 15/4 t
        q = S("t^2").derivative().quotient(S("2 + 15/4*t").derivative())
        assert q == S("8/15*t")

    def test_self_quotient(self):
        s = S("3*t^2 + t^5")
        assert s.quotient(s) == S("1")

    def test_negative_valuation(self):
        with pytest.raises(NegativeValuation):
            S("t^2").quotient(S("t^3"))

    def test_zero_denominator(self):
        with pytest.raises(IndeterminateValuation):
            S("t").quotient(TruncatedSeries.zero())

    def test_zero_numerator_allowed(self):
        q = TruncatedSeries.zero().quotient(S("1 + t"))
        assert q.valuation_or_none() is None

    def test_precision_tracking(self):
        # a quotient loses no terms to the denominator's valuation, and its
        # bounds drop the t^2 that both share: (t^4 + t^5)/(t^2 + t^3) is the
        # stream t^2, with the degree bounds (5 + 0 - 2, 0 + 3 - 2, 0 + 3 - 2)
        # of P = t^2 + t^3, D = 1 + t, and equal to the polynomial t^2
        # exactly; t^4/t^2 is that polynomial at once
        q = S("t^4 + t^5").quotient(S("t^2 + t^3"))
        assert q._bound == (3, 1, 1) and not q.is_polynomial
        assert q == S("t^2") == S("t^4").quotient(S("t^2"))


class TestValuation:
    def test_monomial(self):
        assert S("t^15").valuation() == 15

    def test_unit(self):
        assert S("1 + t").valuation() == 0

    def test_rational_function_restriction(self):
        # 14 t^10 / (72 + 95 t) has order 10
        q = S("14*t^10").quotient(S("72 + 95*t"))
        assert q.valuation() == 10

    def test_indeterminate(self):
        with pytest.raises(IndeterminateValuation):
            TruncatedSeries.zero().valuation()


class TestRecenter:
    def test_with_constant(self):
        c, tail = S("2 + 15/4*t").recenter()
        assert c == 2
        assert tail == S("15/4*t")

    def test_pure_power(self):
        c, tail = S("t^3").recenter()
        assert c == 0
        assert tail == S("t^3")

    def test_unit_shift(self):
        c, tail = S("1 + t").recenter()
        assert (c, tail.valuation()) == (1, 1)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: S("t^3 + 2*t^5"),
            lambda: TruncatedSeries.zero(),
            lambda: S("t^3").quotient(S("1 + t")),
            lambda: slope(S("1 + t^2").quotient(S("1 + t^3")), S("t")),
        ],
        ids=["polynomial", "zero", "stream", "slope"],
    )
    def test_zero_constant_is_its_own_recentering(self, build):
        series = build()
        bound = series._bound
        c, tail = series.recenter()
        assert c == 0 and tail is series and tail._bound == bound


def _old_from_terms(terms):
    """``from_terms`` as it was, through ``TruncatedSeries(coefficients)``:
    the reference for the direct construction."""
    coeffs = [0] * max([0, *(e + 1 for _, e in terms)])
    for coeff, exponent in terms:
        coeffs[exponent] = coeff + coeffs[exponent]
    return TruncatedSeries(coeffs)


# terms with repeated exponents, int and Fraction coefficients, and the
# negation of some of them, so that exponents cancel, the top ones too
term_lists = st.lists(
    st.tuples(st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4), st.integers(0, 6)),
    max_size=8,
).flatmap(lambda terms: st.lists(st.sampled_from(terms), max_size=4).map(
    lambda picked: terms + [(-c, e) for c, e in picked]) if terms else st.just(terms))


class TestFromTerms:
    @given(term_lists)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_construction_from_coefficients(self, terms):
        new, old = TruncatedSeries.from_terms(terms), _old_from_terms(terms)
        for slot in ("_terms", "_known", "_dens", "_bound", "_zeros", "_exact", "_operands",
                     "_extend"):
            assert getattr(new, slot) == getattr(old, slot), slot
        # nonzero reduced terms in increasing exponent, and no dense prefix
        assert [e for e, _, _ in new._terms] == sorted({e for e, _, _ in new._terms})
        for _, num, den in new._terms:
            assert num
            _assert_reduced(num, den)
        assert new._known == []

    def test_negative_exponent(self):
        with pytest.raises(ValueError, match="nonnegative"):
            TruncatedSeries.from_terms([(1, 2), (1, -1)])


class TestIntegrate:
    def test_double_integration_example(self):
        # actives y' = t, x'' = t in chart oio rebuild to x = t^3/6, y = t^4/8
        y_prime, x_second = S("t"), S("t")
        x_prime = x_second.integrate(y_prime, 0)
        x = x_prime.integrate(y_prime, 0)
        assert x == S("1/6*t^3")
        y = y_prime.integrate(x, 0)
        assert y == S("1/8*t^4")

    def test_integrate_zero(self):
        r = TruncatedSeries.zero().integrate(S("t"), F(5))
        assert r.constant_term() == 5
        assert r == S("5")

    def test_derivative_round_trip(self):
        a, wrt = S("7/5*t^2"), S("t^5")
        r = a.integrate(wrt, 0)
        assert r == S("t^7")
        assert r.derivative() == a * wrt.derivative()

    def test_indeterminate_wrt(self):
        with pytest.raises(IndeterminateValuation):
            S("t").integrate(TruncatedSeries.zero(), 0)

    def test_refuses_a_stream(self):
        # the integral of a stream is not rational in general, so it would
        # carry no degree bound
        stream = S("t").quotient(S("1 - t"))
        for a, wrt in ((stream, S("t^2")), (S("t^2"), stream)):
            with pytest.raises(ValueError, match="^the integrand is not a polynomial$"):
                a.integrate(wrt, 1)


coeffs = st.fractions(min_value=-40, max_value=40, max_denominator=9)


def series_strategy(min_val=0):
    return st.lists(coeffs, min_size=0, max_size=6).map(
        lambda cs: TruncatedSeries.from_terms(
            [(c, i + min_val) for i, c in enumerate(cs)]
        )
    )


class TestProperties:
    @given(series_strategy(), series_strategy())
    @settings(max_examples=120, deadline=None)
    def test_valuation_additivity(self, a, b):
        va, vb = a.valuation_or_none(), b.valuation_or_none()
        if va is None or vb is None:
            return
        assert (a * b).valuation() == va + vb

    @given(series_strategy(), series_strategy(min_val=1))
    @settings(max_examples=120, deadline=None)
    def test_quotient_multiply_round_trip(self, a, b):
        va, vb = a.valuation_or_none(), b.valuation_or_none()
        if vb is None or (va is not None and va < vb):
            return
        q = a.quotient(b)
        # q * b - a = (P_q b - a D_q) / D_q has a numerator of degree at most
        # e = max(a_q + deg b, deg a + q_q), so q * b = a exactly when
        # coefficients 0..e agree, and a prefix of q fixes those of q * b
        (a_q, q_q, _), deg_b = q._bound, b._bound[0]
        n = max(a_q + deg_b, a._bound[0] + q_q) + 1
        head = TruncatedSeries.from_terms(zip(q.prefix(n), range(n)))
        assert (head * b).prefix(n) == a.prefix(n)

    @given(series_strategy(), series_strategy(min_val=1))
    @settings(max_examples=120, deadline=None)
    def test_integrate_derivative_identity(self, a, wrt):
        if wrt.valuation_or_none() is None:
            return
        r = a.integrate(wrt, F(3, 7))
        assert r.constant_term() == F(3, 7)
        assert r.derivative() == a * wrt.derivative()

    @given(series_strategy(), series_strategy())
    @settings(max_examples=60, deadline=None)
    def test_product_matches_convolution_oracle(self, a, b):
        assert a * b == naive_product(a, b)

    def test_determinism(self):
        runs = [S("t^7").derivative().quotient(S("t^5").derivative()) for _ in range(2)]
        assert runs[0] == runs[1]


class TestParse:
    @pytest.mark.parametrize(
        "text,expect",
        [
            ("7/5*t^2 + t^3", [(F(7, 5), 2), (F(1), 3)]),
            ("14*t^18+14*t^19", [(F(14), 18), (F(14), 19)]),
            ("2 + 15/4 * t", [(F(2), 0), (F(15, 4), 1)]),
            ("t", [(F(1), 1)]),
            ("-t^2 + 3", [(F(-1), 2), (F(3), 0)]),
            # a "+" before a negative term, as CurveSpec prints one
            ("3/2*t^31 + 3*t^46 + -11/4*t^58", [(F(3, 2), 31), (F(3), 46), (F(-11, 4), 58)]),
            ("t+-2*t^2", [(F(1), 1), (F(-2), 2)]),
            # whitespace is insignificant around ^ and inside p / q too
            ("t ^ 2", [(F(1), 2)]),
            ("3 / 4 * t ^ 5 - t\t^\t3", [(F(3, 4), 5), (F(-1), 3)]),
            ("3\t/4*t", [(F(3, 4), 1)]),
        ],
    )
    def test_literals(self, text, expect):
        assert parse_series(text) == TruncatedSeries.from_terms(expect)

    @pytest.mark.parametrize(
        "bad",
        ["", "q^2", "t^", "1//2*t", "t^2 ^3", "1/0*t^3", "t + 2/0", "t^-2", "t^3 - t^-2",
         "t ^ 2 ^ 3", "t ^ -2", "3 / 0 * t", "1.5*t", "1e2*t"],
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_series(bad)

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("t^2 + + t^3", "bad series term '+' (at position 4)"),
            ("t^2 +", "bad series term '+' (at position 4)"),
            ("t - - t^2", "bad series term '-' (at position 2)"),
            # a sign after ^ belongs to its term, so the whole term is named
            ("t^-2", "bad series term 't^-2' (at position 0)"),
            ("t^3 - t^-2", "bad series term '- t^-2' (at position 4)"),
        ],
    )
    def test_lone_sign_is_named(self, bad, message):
        with pytest.raises(ParseError) as info:
            parse_series(bad)
        assert str(info.value) == message

    def test_polynomials_embed_at_full_precision(self):
        # a polynomial knows its degree and is zero past it
        s = parse_series("t^2")
        assert s._bound == (2, 0, 0)
        assert s.prefix(70) == (0, 0, 1) + (0,) * 67


class TestTermsOutsideTheWindow:
    # every read is exact or given its length, so no term is ever dropped
    def test_nonzero_term_at_precision_raises(self):
        s = TruncatedSeries.from_terms([(1, 2), (1, 3)])
        assert s.prefix(5) == (0, 0, 1, 1, 0)
        assert s == S("t^2 + t^3")

    def test_coefficient_is_named(self):
        s = parse_series("t^2 + 7/5*t^70")
        assert s.prefix(71)[70] == F(7, 5)
        assert s != S("t^2")
        assert str(s) == "t^2 + 7/5*t^70"

    def test_polynomials_print_exactly(self):
        # a polynomial prints whole (a quotient by a constant is one); a
        # stream prints its bounds and reads no coefficient
        assert str(S("t^2").quotient(S("2"))) == "1/2*t^2"
        assert str(S("t") * S("1 - t")) == "t - t^2"
        assert str(S("5").recenter()[1]) == "0"
        stream = S("1").quotient(S("1 - t^40"))
        assert str(stream) == "P/D with deg P <= 0, deg D <= 40"
        assert repr(stream) == "TruncatedSeries(P/D with deg P <= 0, deg D <= 40)"
        assert stream._known == []

    def test_zero_term_outside_is_harmless(self):
        assert TruncatedSeries.from_terms([(1, 2), (0, 70)]) == S("t^2")


class TestTermRatios:
    """A quotient by a single term c * t^m and a slope over a polynomial
    whose derivative is a single term are divided term by term into term
    polynomials: printing, the exponent gcd and integration read their terms
    and fill no dense prefix.  Any other ratio is a stream, even one whose
    bounds make it a polynomial."""

    @pytest.mark.parametrize(
        "build,text,gcd_,integral",
        [
            (lambda: S("t + t^5000").quotient(S("2")), "1/2*t + 1/2*t^5000", 1,
             "1/4*t^2 + 1/10002*t^5001"),
            (lambda: slope(S("t + t^5000"), S("2*t")), "1/2 + 2500*t^4999", 4999,
             "1/2*t + 1/2*t^5000"),
            (lambda: S("t^3 + t^5000").quotient(S("-2*t^2")), "-1/2*t - 1/2*t^4998", 1,
             "-1/4*t^2 - 1/9998*t^4999"),
            (lambda: slope(S("t^7 + t^5000"), S("1 + 2*t^3")), "7/6*t^4 + 2500/3*t^4997", 1,
             "7/30*t^5 + 1250/7497*t^4998"),
        ],
        ids=["quotient", "slope", "quotient by a monomial", "slope over a monomial derivative"],
    )
    def test_hold_their_terms(self, build, text, gcd_, integral):
        series = build()
        assert series.is_polynomial
        assert str(series) == text
        assert series.exponent_gcd() == gcd_
        assert str(series.integrate(S("t"))) == integral
        assert series._known == []

    def test_any_other_ratio_is_a_stream(self):
        # t / (1 / (1 - t)) is t - t^2, with the bounds (2, 0, 0), but its
        # denominator is a stream
        s = S("t").quotient(S("1").quotient(S("1 - t")))
        assert not s.is_polynomial and s.prefix(4) == (0, 1, -1, 0)
        assert str(s) == "P/D with deg P <= 2, deg D <= 0"
        with pytest.raises(ValueError, match="^the integrand is not a polynomial$"):
            s.integrate(S("t"))


class TestExponentGcd:
    """The gcd of a polynomial's exponents, read off its terms, also when a
    quotient by a constant made it; a stream has no last term and is
    refused, having read nothing."""

    @pytest.mark.parametrize(
        "series,gcd_,read",
        [
            (S("t^4 + 6*t^70"), 2, 0),         # a polynomial: its terms
            # a quotient by a constant: its terms
            (S("t^4 + 6*t^70").quotient(S("2")), 2, 0),
            (S("0"), 0, 0),
            # t^2 / (1 - t^63) = t^2 + t^65 + ...
            (S("t^2").quotient(S("1 - t^63")), None, 0),
            # t^2 / (1 - t^2) = t^2 + t^4 + ...
            (S("t^2").quotient(S("1 - t^2")), None, 0),
            # the slope 3*t^2 / (1 + 7*t^6) of t^3 over t + t^7
            (slope(S("t^3"), S("t + t^7")), None, 0),
        ],
        ids=["polynomial", "quotient-polynomial", "zero", "past-the-window", "even-stream",
             "slope"],
    )
    def test_reads_to_the_bound(self, series, gcd_, read):
        if gcd_ is None:
            with pytest.raises(ValueError, match="^the exponent gcd of a stream is not read$"):
                series.exponent_gcd()
        else:
            assert series.exponent_gcd() == gcd_
        assert len(series._known) == read

    def test_support_beyond_the_bound_agrees(self):
        # polynomials made by operations: the gcd read off the degree bound
        # is that of every exponent seen later
        for series in (S("t^2") * S("1 + t^4"), S("t^3 + t^9").derivative(),
                       S("1 + t^6 + t^8").recenter()[1], S("t^2").integrate(S("t^4"), 0)):
            d = 0
            for i, c in enumerate(series._force(400)[:400]):
                if c:
                    d = gcd(d, i)
            assert series.exponent_gcd() == d != 1


# -- eager reference ------------------------------------------------------------
#
# Each operation computed over its whole window at once, on plain coefficient
# tuples, with the straightforward loops of a series known modulo t^n.  Exact
# series, which compute coefficients on demand, must succeed wherever they
# do, agree with them on every term of the window, and find the same
# valuation wherever a window shows a nonzero term.


def ref_valuation(a):
    return next((i for i, c in enumerate(a) if c), None)


def ref_mul(a, b):
    va, vb = ref_valuation(a), ref_valuation(b)
    bound_a = len(a) if va is None else va
    bound_b = len(b) if vb is None else vb
    n = min(len(a) + bound_b, len(b) + bound_a)
    out = [F(0)] * n
    for i in (i for i, c in enumerate(a) if c):
        for j in range(min(len(b), n - i)):
            if b[j]:
                out[i + j] += a[i] * b[j]
    return tuple(out)


def ref_derivative(a):
    if len(a) < 1:
        raise IndeterminateValuation("cannot differentiate an empty window")
    return tuple(i * a[i] for i in range(1, len(a)))


def ref_quotient(num, den):
    vd = ref_valuation(den)
    if vd is None:
        raise IndeterminateValuation("the denominator window is zero")
    vn = ref_valuation(num)
    if vn is not None and vn < vd:
        raise NegativeValuation(
            f"valuation {vn} of numerator below valuation {vd} of denominator"
        )
    if vn is None and len(num) < vd:
        raise IndeterminateValuation(
            "numerator window too short to clear the denominator valuation"
        )
    n = min(len(num), len(den)) - vd
    if n <= 0:
        return ()
    num_shift, den_shift = num[vd : vd + n], den[vd : vd + n]
    den_support = [j for j in range(1, n) if den_shift[j]]
    out = []
    for k in range(n):
        acc = num_shift[k]
        for j in den_support:
            if j > k:
                break
            acc -= den_shift[j] * out[k - j]
        out.append(acc / den_shift[0])
    return tuple(out)


def ref_recenter_tail(a):
    if not a:
        raise IndeterminateValuation("no stored coefficients")
    return (F(0),) + a[1:]


def ref_integrate(a, wrt, constant):
    if ref_valuation(wrt) is None:
        raise IndeterminateValuation("the integration variable window is zero")
    g = ref_mul(a, ref_derivative(wrt))
    return (F(constant),) + tuple(g[k] / (k + 1) for k in range(len(g)))


# name -> (on-demand operation, reference operation) of operands a, b and a
# fraction k; unary operations ignore b, and k is read by integrate
OPERATIONS = {
    "mul": (lambda a, b, k: a * b, lambda a, b, k: ref_mul(a, b)),
    "derivative": (lambda a, b, k: a.derivative(), lambda a, b, k: ref_derivative(a)),
    "quotient": (lambda a, b, k: a.quotient(b), lambda a, b, k: ref_quotient(a, b)),
    "slope": (lambda a, b, k: slope(a, b),
              lambda a, b, k: ref_quotient(ref_derivative(a), ref_derivative(b))),
    "recenter": (lambda a, b, k: a.recenter()[1], lambda a, b, k: ref_recenter_tail(a)),
    "integrate": (lambda a, b, k: a.integrate(b, k), lambda a, b, k: ref_integrate(a, b, k)),
}

# a window of 0-12 coefficients, often with a run of leading zeros; one
# value is wide enough that products and sums reach past a machine word
BIG = F(-(2**67) - 3, 3**41)
window = st.tuples(
    st.sampled_from([0, 0, 0, 1, 2, 4]),
    st.lists(st.sampled_from([F(0), F(1), F(-2), F(3, 4), F(-7, 5), F(5), BIG]), max_size=8),
).map(lambda zeros_coeffs: (F(0),) * zeros_coeffs[0] + tuple(zeros_coeffs[1]))


def _gap_stream(zeros, gap, c, later):
    """t^zeros * (1 + c*t^gap) / (1 - t^(gap + later)) as (numerator,
    denominator) windows reaching past both: a stream whose next term after
    its lead is ``gap`` places on, so that a search on it or on its
    derivative reads a long run of zeros."""
    h = gap + later
    num = [F(0)] * (zeros + h + 1)
    num[zeros], num[zeros + gap] = F(1), c
    den = [F(0)] * (zeros + h + 1)
    den[0], den[h] = F(1), F(-1)
    return tuple(num), tuple(den)


# a polynomial window (no denominator) or a stream with a gap of up to 40
start = st.one_of(
    window.map(lambda w: (w, None)),
    st.builds(
        _gap_stream, st.sampled_from([0, 1, 2]), st.integers(8, 40),
        st.sampled_from([F(1), F(-7, 5), BIG]), st.integers(1, 12),
    ),
)


def _start(num, den):
    """A pool entry: the on-demand series and its reference window."""
    if den is None:
        return TruncatedSeries(num), num
    return TruncatedSeries(num).quotient(TruncatedSeries(den)), ref_quotient(num, den)


def _outcome(fn):
    try:
        return "ok", fn()
    except (IndeterminateValuation, NegativeValuation) as exc:
        return "raised", (type(exc), str(exc))


def _assert_reduced(num, den):
    """A stored coefficient: an int numerator over a positive int
    denominator, coprime, so that a zero is 0/1."""
    assert type(num) is int and type(den) is int, (num, den)
    assert den > 0 and gcd(num, den) == 1, (num, den)


def _head(series, n):
    """The first n coefficients, also past the window (they are exact), built
    from the stored pairs, each of which must be reduced."""
    pairs = list(zip(series._force(n)[:n], series._dens[:n]))
    assert len(pairs) == n
    for num, den in pairs:
        _assert_reduced(num, den)
    return tuple(F(num, den) for num, den in pairs)


@contextmanager
def _every_computed_pair_reduced():
    """Check each coefficient that a series made by an operation computes, as
    it is appended, including those of operands that no test reads."""
    lazy = TruncatedSeries._lazy.__func__

    def checking_lazy(cls, *args):
        series = lazy(cls, *args)
        extend = series._extend
        if extend is None:  # the zero term polynomial, which computes nothing
            return series

        def checking_extend(out, dens, m):
            before = len(out)
            extend(out, dens, m)
            assert len(out) == len(dens) == m
            for num, den in zip(out[before:], dens[before:]):
                _assert_reduced(num, den)

        series._extend = checking_extend
        return series

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TruncatedSeries, "_lazy", classmethod(checking_lazy))
        yield


def _same_valuation(lazy, ref):
    # A nonzero term in the window is the valuation.  A window of zeros is a
    # zero series or one whose valuation lies past it.
    ref_v = ref_valuation(ref)
    v = lazy.valuation_or_none()
    if ref_v is not None:
        return v == ref_v
    return v is None or v >= len(ref)


class TestEagerReference:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    @_every_computed_pair_reduced()
    def test_chains_match_eager_loops(self, data):
        # pool of (on-demand series, reference tuple); results join the pool,
        # so later operations read partly computed operands
        starts = data.draw(st.lists(start, min_size=1, max_size=3))
        pool = [_start(num, den) for num, den in starts]
        for _ in range(data.draw(st.integers(1, 4))):
            name = data.draw(st.sampled_from(sorted(OPERATIONS)))
            lazy_op, ref_op = OPERATIONS[name]
            (a, ra), (b, rb) = (data.draw(st.sampled_from(pool)) for _ in range(2))
            k = data.draw(st.sampled_from([F(0), F(2), F(-1, 3)]))
            ref_kind, ref = _outcome(lambda: ref_op(ra, rb, k))
            if ref_kind == "raised":
                continue
            try:
                lazy = lazy_op(a, b, k)
            except ValueError:
                # only polynomials are differentiated, multiplied and integrated
                operands = (a,) if name == "derivative" else (a, b)
                assert name in ("derivative", "integrate", "mul")
                assert None in [x._terms for x in operands]
                continue
            # read the leading terms first on some results, the whole window
            # later or never, so operands are at every stage of completion
            if data.draw(st.booleans()):
                assert _same_valuation(lazy, ref), name
            if data.draw(st.booleans()):
                assert _head(lazy, len(ref)) == ref, name
            pool.append((lazy, ref))
        for lazy, ref in pool:
            assert _same_valuation(lazy, ref)
            assert _head(lazy, len(ref)) == ref

    @pytest.mark.parametrize(
        "name,a,b",
        [
            ("quotient", "3 - 2*t", "-5/7 + 4*t^2"),  # a negative leading coefficient
            ("quotient", "t^2 - 1/6*t^3", "-3/4*t^2 + 5/9*t^3"),
            ("mul", "1/2 - 1/3*t", "1/3 + 1/2*t - 1/5*t^2"),
            ("derivative", "1/6*t^3 - 5/4*t^4", "1"),
            ("slope", "t^2 - 1/6*t^3", "-3/4*t^2 + 5/9*t^3"),
            ("recenter", "7/3 - 1/6*t^3", "1"),
            ("integrate", "2*t - 4/9*t^2", "3/2*t + t^3"),
        ],
    )
    def test_rational_operands(self, name, a, b):
        # denominators that cancel against the running lcm and the index
        lazy_op, ref_op = OPERATIONS[name]
        a, b = S(a), S(b)
        ref = ref_op(a.prefix(12), b.prefix(12), F(-1, 3))
        with _every_computed_pair_reduced():
            series = lazy_op(a, b, F(-1, 3))
            assert _head(series, len(ref)) == ref
        assert all(type(c) is F for c in series.prefix(12))


# up to five terms with exponents below 150, so that the dense references,
# quadratic in the degree, stay cheap; a window of 300 reaches past every
# product and integral
sparse_terms = st.lists(
    st.tuples(st.sampled_from([F(1), F(-1), F(-2), F(3, 4), F(-7, 5), BIG]), st.integers(0, 149)),
    max_size=5,
)
SPARSE_WINDOW = 300


def _dense(terms):
    """The reference window of the polynomial with these (coefficient,
    exponent) terms."""
    window = [F(0)] * SPARSE_WINDOW
    for c, e in terms:
        window[e] += c
    return tuple(window)


def _terms_of(window):
    return tuple((i, c.numerator, c.denominator) for i, c in enumerate(window) if c)


def ref_text(window):
    """The text of the polynomial with this window: its nonzero terms from
    the lowest, a leading minus folded into the separator."""
    parts = []
    for i, c in enumerate(window):
        if c:
            t = "t" if i == 1 else f"t^{i}"
            parts.append(str(c) if i == 0 else t if c == 1 else f"-{t}" if c == -1 else f"{c}*{t}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


class TestSparseTerms:
    """A polynomial is the tuple of its nonzero terms, and so is each
    product, derivative, recentering and integral of polynomials: the
    terms, gcd and text of each agree with the dense reference window, and
    so does its dense prefix, filled in two reads."""

    @given(sparse_terms, sparse_terms, st.sampled_from([F(0), F(2), F(-1, 3)]),
           st.integers(0, SPARSE_WINDOW))
    @settings(max_examples=150, deadline=None)
    def test_operations_match_the_dense_references(self, terms_a, terms_b, k, first_read):
        a, b = TruncatedSeries.from_terms(terms_a), TruncatedSeries.from_terms(terms_b)
        ra, rb = _dense(terms_a), _dense(terms_b)
        results = [(a, ra), (a * b, ref_mul(ra, rb)), (a.derivative(), ref_derivative(ra)),
                   (a.recenter()[1], ref_recenter_tail(ra))]
        if b.valuation_or_none() is not None:
            results.append((a.integrate(b, k), ref_integrate(ra, rb, k)))
        for series, window in results:
            assert series._terms == _terms_of(window)
            assert series.exponent_gcd() == gcd(*[i for i, c in enumerate(window) if c])
            assert str(series) == ref_text(window)
            n = series._bound[0] + 2  # a zero past the last term
            assert _head(series, min(first_read, n)) == window[:min(first_read, n)]
            assert _head(series, n) == window[:n]

    @given(st.lists(st.tuples(st.sampled_from([F(1), F(-1), F(3, 4), F(-7, 5), BIG]),
                              st.integers(0, 24)), max_size=4),
           st.sampled_from([F(1), F(-2), F(5, 3), BIG]), st.integers(0, 12),
           st.sampled_from([F(0), F(1), F(-1, 2)]))
    @settings(max_examples=100, deadline=None)
    def test_single_term_divisors(self, terms, c, m, c0):
        # f / (c * t^m) and f' / g' with g = c0 + c * t^(m + 1) are exact
        # term polynomials, with the prefix of the same ratio over a stream
        # equal to the divisor, (g * h) / h
        h = S("1 - 2*t")
        g = TruncatedSeries.from_terms([(c, m)])
        f = TruncatedSeries.from_terms([(a, e + m) for a, e in terms])
        g_stream = (g * h).quotient(h)
        q, stream = f.quotient(g), f.quotient(g_stream)
        assert q.is_polynomial and q * g == f and not g_stream.is_polynomial
        assert q.prefix(q._bound[0] + 2) == stream.prefix(q._bound[0] + 2)
        g = TruncatedSeries.from_terms([(c0, 0), (c, m + 1)])
        f = TruncatedSeries.from_terms([(c0, 0), *[(a, e + m + 1) for a, e in terms]])
        g_stream = (g * h).quotient(h)
        s, stream = slope(f, g), slope(f, g_stream)
        assert s.is_polynomial and s * g.derivative() == f.derivative()
        assert not g_stream.is_polynomial
        assert s.prefix(s._bound[0] + 2) == stream.prefix(s._bound[0] + 2)


def _stream(text, den="1 + t"):
    """A stream with the valuation of ``text``, no coefficient computed."""
    return S(text).quotient(S(den))


class TestValuationFromOperands:
    """A valuation that the operands fix is read without computing a
    coefficient; the answer is still the first nonzero coefficient."""

    @pytest.mark.parametrize(
        "build,expect",
        [
            pytest.param(lambda: S("2*t^5 + t^6").quotient(S("3*t^2 - t^4")), 3, id="quotient"),
            pytest.param(
                lambda: _stream("t^7").quotient(_stream("t^3", "2 - t")), 4,
                id="quotient of streams",
            ),
            pytest.param(lambda: S("t^2 - t^3") * S("-3*t^5 + t^8"), 7, id="product"),
            # a quotient by a constant is divided term by term
            pytest.param(
                lambda: S("t^4 + t^9") * S("2*t").quotient(S("2")), 5,
                id="product with a polynomial",
            ),
            pytest.param(lambda: slope(_stream("5*t^3"), S("t^2")), 1, id="slope"),
            pytest.param(
                lambda: slope(_stream("t^4"), _stream("t^2", "2 - t")), 2, id="slope of streams",
            ),
            pytest.param(lambda: _stream("t^2 + t^3").recenter()[1], 2, id="recenter"),
            pytest.param(lambda: S("t^2").integrate(S("t^3"), 0), 5, id="integrate"),
            pytest.param(
                lambda: S("1 + t").integrate(S("t"), 3), 0, id="integrate from a constant",
            ),
        ],
    )
    def test_read_off_the_operands(self, computed, build, expect):
        series = build()
        computed.clear()
        v = series.valuation_or_none()
        assert computed == {}
        assert v == expect == ref_valuation(series.prefix(64))

    def test_quotient_reads_the_lead_lazily(self, computed):
        num, den = _stream("t^5"), _stream("2*t^3")
        computed.clear()
        q = num.quotient(den)
        assert computed == {}
        assert q.prefix(3)[2] == F(1, 2)

    def test_known_zero_constant_term(self, computed):
        d = slope(_stream("t^3"), S("t"))
        computed.clear()
        assert d.constant_term() == 0
        assert computed == {}

    def test_still_searches(self, computed):
        series = _stream("2 + t^2").recenter()[1]
        computed.clear()
        v = series.valuation_or_none()
        assert computed["force"] > 0
        assert v == 1 == ref_valuation(series.prefix(64))

    @pytest.mark.parametrize(
        "num,den,expect",
        [
            # at valuation 0, val f' depends on coefficient 1 on
            pytest.param("1 + t^3", "1 - t", 0, id="unit quotient"),
            pytest.param("1 + t + t^2", "1 + t", 1, id="unit with a linear gap"),
            # (2 + 2t) / (1 + t) is the stream 2, whose coefficients 1..1
            # read zero up to min(max(a, q), a + r) = 1, which certifies
            # f' = 0; the slope over t is then the zero polynomial
            pytest.param("2 + 2*t", "1 + t", None, id="zero to the budget"),
        ],
    )
    def test_slope_order_still_searches(self, computed, num, den, expect):
        # a slope's valuation is fixed by its operands' slope orders, which
        # search f itself when f(0) != 0
        f = _stream(num, den)
        computed.clear()
        s = slope(f, S("t"))
        assert computed["force"] > 0
        assert s.valuation_or_none() == expect == ref_valuation(ref_derivative(f.prefix(64)))


class TestSearchCost:
    """A search reads coefficients in order and forces them in doubling
    batches: reading k coefficients walks the pending operands O(log k)
    times and computes fewer than 2k of the searched series'."""

    def test_slope_order_of_a_unit_with_a_long_gap(self, computed):
        # 1 + t^40 + ... has derivative 40*t^39 + ...: 40 coefficients read
        f = _stream("1 + t^40", "1 - t^50")
        computed.clear()
        assert f.slope_order() == 39
        assert computed["walks"] <= 7  # 1, 2, 4, ..., 32: six walks, not 40
        assert len(f._known) < 2 * 41

    def test_zero_to_a_budget_of_1024(self, computed):
        # (1 + t^1023) / (1 + t^1023) is 1; the tail of its recentering has
        # the numerator bound 1023, so a zero read covers 1,024 terms
        one = S("1 + t^1023").quotient(S("1 + t^1023"))
        d = one.recenter()[1]
        assert d._bound == (1023, 1023, 1023)
        computed.clear()
        assert d.valuation_or_none() is None
        assert computed["walks"] <= 12  # 1, 2, ..., 512 and the last one
        assert len(d._known) == 1024

    def test_batches_stop_at_the_search_bound(self, computed):
        # (1 - t + t^27 - t^28) / ((1 - t^2) / (1 + t)) is a stream equal to
        # 1 + t^27, with the bounds (29, 2, 2); its slope order is searched
        # on f from index 1 up to min(max(a, q), a + r) = 29, where the
        # batch of 16 that reaches t^27 stops
        f = S("1 - t + t^27 - t^28").quotient(S("1 - t^2").quotient(S("1 + t")))
        assert f._bound == (29, 2, 2) and not f.is_polynomial
        computed.clear()
        assert f.slope_order() == 26
        assert computed["walks"] == 5
        assert len(f._known) == 30

    @pytest.mark.parametrize("num, order", [("1 + t^40", 39), ("1 - t^50", None), ("3 + 2*t", 0)])
    def test_a_second_slope_order_searches_nothing(self, monkeypatch, num, order):
        # a nonzero constant term leaves val f' to a search from index 1,
        # made once: the next read of the same series returns what it found
        f = _stream(num, "1 - t^50")
        searches = []
        first_nonzero = TruncatedSeries._first_nonzero

        def counting(self, start, end):
            searches.append((start, end))
            return first_nonzero(self, start, end)

        monkeypatch.setattr(TruncatedSeries, "_first_nonzero", counting)
        assert f.slope_order() == order and len(searches) == 1
        assert f.slope_order() == order and len(searches) == 1


class TestIdenticallyZero:
    """A series that reads zero up to its numerator bound is zero, and has
    no valuation."""

    def test_derivative_of_a_constant_polynomial(self):
        d = S("7").derivative()
        assert d.valuation_or_none() is None
        with pytest.raises(IndeterminateValuation):
            d.valuation()

    def test_second_derivative_of_a_stream(self):
        # (t^2 + t^3) / (t + t^2) is the stream t, and its slope over t the
        # stream 1, whose slope order reads zero up to its bound; the second
        # slope is then the zero polynomial
        d2 = slope(slope(_stream("t^2 + t^3", "t + t^2"), S("t")), S("t"))
        assert d2.valuation_or_none() is None
        assert d2._bound == (-1, 0, 0)
        with pytest.raises(IndeterminateValuation, match="identically zero"):
            d2.valuation()


# -- exact zero test ------------------------------------------------------------
#
# A reference that keeps each series as an exact pair of polynomials (P, D),
# coefficient lists of Fractions, so that a series is zero iff P is.


def _trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _padd(p, q):
    n = max(len(p), len(q))
    return _trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def _pmul(p, q):
    out = [F(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _pscale(p, c):
    return _trim([c * a for a in p])


def _pderiv(p):
    return _trim([i * p[i] for i in range(1, len(p))])


def _pval(p):
    return next((i for i, c in enumerate(p) if c), None)


def _pdivmod(p, q):
    """(quotient, remainder) of p by the nonzero polynomial q."""
    quo, rem = [F(0)] * max(len(p) - len(q) + 1, 0), list(p)
    while len(rem) >= len(q):
        c, shift = rem[-1] / q[-1], len(rem) - len(q)
        quo[shift] = c
        rem = _trim(x - c * q[i - shift] if i >= shift else x for i, x in enumerate(rem))
    return quo, rem


def _pgcd(p, q):
    while q:
        p, q = q, _pdivmod(p, q)[1]
    return p


def _check_bound(series, f):
    """The degree bounds (a, q, r) of the series hold for its reference f =
    P/D in lowest terms: deg P <= a, deg D <= q, and the squarefree part
    D / gcd(D, D') of D has degree <= r."""
    p, d = f
    if not p:
        p, d = [], [F(1)]
    elif len(d) > 1:  # a constant D is in lowest terms and its own radical
        g = _pgcd(d, p)
        p, d = _pdivmod(p, g)[0], _pdivmod(d, g)[0]
    radical = _pdivmod(d, _pgcd(d, _pderiv(d)))[0] if len(d) > 1 else d
    a, q, r = series._bound
    assert len(p) - 1 <= a and len(d) - 1 <= q and len(radical) - 1 <= r, (series._bound, f)


def _rval(f):
    """Valuation of the power series P/D, None when P = 0."""
    p, d = f
    return None if not p else _pval(p) - _pval(d)


def _rvalue_at_0(f):
    p, d = f
    vd = _pval(d)
    return p[vd] / d[vd] if p and _pval(p) == vd else F(0)


def _rquotient(f, g):
    return _pmul(f[0], g[1]), _pmul(f[1], g[0])


def _rhead(f, n):
    """The first n power-series coefficients of P/D, by long division."""
    p, d = f
    if not p:
        return (F(0),) * n
    v = _pval(d)
    p, d = p[v:] + [F(0)] * n, d[v:] + [F(0)] * n
    out = []
    for k in range(n):
        out.append((p[k] - sum(d[j] * out[k - j] for j in range(1, k + 1))) / d[0])
    return tuple(out)


def _rderiv(f):
    """(P'D - PD', D^2), the derivative of P/D."""
    p, d = f
    return _padd(_pmul(_pderiv(p), d), _pscale(_pmul(p, _pderiv(d)), -1)), _pmul(d, d)


EXACT_OPERATIONS = {
    "mul": (lambda a, b: a * b, lambda f, g: (_pmul(f[0], g[0]), _pmul(f[1], g[1]))),
    "quotient": (lambda a, b: a.quotient(b), _rquotient),
    "slope": (slope, lambda f, g: _rquotient(_rderiv(f), _rderiv(g))),
    "derivative": (lambda a, b: a.derivative(), lambda f, g: _rderiv(f)),
    "recenter": (
        lambda a, b: a.recenter()[1],
        lambda f, g: (_padd(f[0], _pscale(f[1], -_rvalue_at_0(f))), f[1]),
    ),
}

# small polynomials, mostly units, so that quotients nest and expressions
# reach identically zero series by cancellation (a constant quotient,
# recentered)
small_polynomial = st.lists(st.sampled_from([F(1), F(-1), F(2), F(0), F(-1, 2)]), max_size=3).map(
    lambda tail: [F(1), *tail]
) | st.just([F(0), F(1)])


def _expression(children):
    unary = st.tuples(st.sampled_from(["derivative", "recenter"]), children, st.none())
    binary = st.tuples(st.sampled_from(["mul", "quotient", "slope"]), children, children)
    return st.one_of(unary, binary)


expressions = st.recursive(small_polynomial, _expression, max_leaves=8)


# the refusal of a stream operand by an operation of polynomials only
REFUSED = {"mul": "^the product of a stream is not computed$",
           "derivative": "^the derivative of a stream is not computed$"}


def _evaluate(tree, checked):
    """(exact series, (P, D)) of an expression, or None when it has a zero
    denominator, a pole, or a product or derivative of a stream, which is
    refused; checks the degree bounds of every subexpression and appends it
    to ``checked``.  A slope checks the derivative bound rule inside its own
    bounds."""
    if isinstance(tree, list):
        result = TruncatedSeries(tree), (_trim(tree), [F(1)])
    else:
        name, left, right = tree
        a = _evaluate(left, checked)
        b = a if right is None else _evaluate(right, checked)
        if a is None or b is None:
            return None
        (a, f), (b, g) = a, b
        if name in ("quotient", "slope"):
            vf, vg = (_rval(f), _rval(g)) if name == "quotient" else (
                _rval(_rderiv(f)), _rval(_rderiv(g)))
            if vg is None or (vf is not None and vf < vg):
                return None
        op, ref_op = EXACT_OPERATIONS[name]
        if name in REFUSED and not (a.is_polynomial and b.is_polynomial):
            with pytest.raises(ValueError, match=REFUSED[name]):
                op(a, b)
            return None
        result = op(a, b), ref_op(f, g)
    _check_bound(*result)
    checked.append(result)
    return result


class TestExactZero:
    # one expression per bound rule that a random draw reaches rarely:
    # a quotient by a stream, a second derivative (a slope over t of a
    # slope over t) and a recentering of a stream whose denominator
    # outgrows its numerator
    @example(("quotient", [F(1)], ("quotient", [F(1)], [F(1), F(1)])))
    @example(("slope", ("slope", ("quotient", [F(1)], [F(1), F(1)]), [F(0), F(1)]),
              [F(0), F(1)]))
    @example(("recenter", ("quotient", [F(1)], [F(1), F(1)]), None))
    # a quotient by a denominator of valuation 1, whose bounds (0, 1, 1)
    # are those of t/(t + t^2) = 1/(1 + t) in lowest terms
    @example(("quotient", [F(0), F(1)], [F(0), F(1), F(1)]))
    @given(expressions)
    @settings(max_examples=200, deadline=None)
    def test_chains_match_rational_reference(self, tree):
        # products, quotients, slopes, derivatives and recenterings of small
        # polynomials: None exactly for P = 0, otherwise the same index
        checked = []
        _evaluate(tree, checked)
        for lazy, ref in checked:
            assert lazy.valuation_or_none() == _rval(ref), tree
            assert lazy.prefix(6) == _rhead(ref, 6), tree

    @example(("quotient", [F(1), F(2)], [F(1), F(1)]))
    @given(expressions)
    @settings(max_examples=200, deadline=None)
    def test_recentering_by_a_nonzero_constant(self, tree):
        # f - f(0) for every subexpression f with f(0) != 0, read against
        # the rational reference (P - f(0) D, D)
        checked = []
        _evaluate(tree, checked)
        for lazy, (p, d) in checked:
            c = _rvalue_at_0((p, d))
            if not c:
                continue
            value, tail = lazy.recenter()
            ref = (_padd(p, _pscale(d, -c)), d)
            assert value == c and tail is not lazy, tree
            assert tail.valuation_or_none() == _rval(ref), tree
            assert tail.prefix(6) == _rhead(ref, 6), tree

    # a constant, a unit, t, a stream with a nonzero constant, and the zero
    # stream left by recentering a constant stream
    @example([F(1)])
    @example([F(1), F(-1), F(2)])
    @example([F(0), F(1)])
    @example(("quotient", [F(1), F(2)], [F(1), F(1)]))
    @example(("recenter", ("quotient", [F(1), F(1)], [F(1), F(1)]), None))
    @given(expressions)
    @settings(max_examples=200, deadline=None)
    def test_slope_order_is_the_valuation_of_the_derivative(self, tree):
        # read off f itself, against the reference, and against f' built
        # separately where f is a polynomial
        checked, again = [], []
        _evaluate(tree, checked)
        _evaluate(tree, again)
        for (lazy, f), (other, _) in zip(checked, again):
            expect = _rval(_rderiv(f))
            assert lazy.slope_order() == expect, tree
            if other.is_polynomial:
                assert other.derivative().valuation_or_none() == expect, tree

    @example([F(1)], [F(0), F(1)])
    @example([F(0), F(1)], [F(1)])
    @example([F(0), F(1)], [F(0), F(0), F(1)])
    @example(("quotient", [F(1), F(2)], [F(1), F(1)]), [F(0), F(1), F(-1, 2)])
    # a slope whose g' = 2t + 3t^2 has valuation 1: 2t/(2t + 3t^2) = 2/(2 + 3t)
    # has the bounds (0, 1, 1) of its lowest terms
    @example([F(0), F(0), F(1)], [F(0), F(0), F(1), F(1)])
    @given(expressions, expressions)
    @settings(max_examples=200, deadline=None)
    def test_slope_is_the_quotient_of_derivatives(self, f_tree, g_tree):
        # the ratio kernel's f'/g' against (P'D - PD')/D^2 over the same of
        # g: the exception the reference calls for, or its bounds, valuation
        # and head, and, where f and g are polynomials, f'.quotient(g')
        built = [_evaluate(tree, []) for tree in (f_tree, g_tree)]
        assume(None not in built)
        (f, rf), (g, rg) = built
        df, dg = _rderiv(rf), _rderiv(rg)
        kind, s = _outcome(lambda: slope(f, g))
        vf, vg = _rval(df), _rval(dg)
        if vg is None or (vf is not None and vf < vg):
            raised = IndeterminateValuation if vg is None else NegativeValuation
            assert kind == "raised" and s[0] is raised, (f_tree, g_tree)
            return
        exact = _rquotient(df, dg)
        assert kind == "ok", (f_tree, g_tree)
        _check_bound(s, exact)
        assert s.valuation_or_none() == _rval(exact), (f_tree, g_tree)
        assert s.prefix(6) == _rhead(exact, 6), (f_tree, g_tree)
        if f.is_polynomial and g.is_polynomial:
            assert s == f.derivative().quotient(g.derivative()), (f_tree, g_tree)


class TestExactEquality:
    """Equality reads coefficients 0..max(a1 + q2, a2 + q1), where the
    numerator of the difference ends, in doubling batches up to the first
    difference; a hash reads a fixed prefix."""

    @pytest.mark.parametrize("num", ["1", "t^2"])
    def test_difference_past_64_terms(self, num):
        # num / (1 - t^70) = num + num*t^70 + ...: the first 70 terms agree
        stream = S(num).quotient(S("1 - t^70"))
        assert stream.prefix(70) == S(num).prefix(70)
        assert stream != S(num) and S(num) != stream

    def test_stream_equal_to_a_polynomial(self):
        # (t^3 + t^4) / (t + t^2) is a stream with the bounds (3, 1) of
        # (t^2 + t^3) / (1 + t), equal to t^2
        stream = S("t^3 + t^4").quotient(S("t + t^2"))
        assert not stream.is_polynomial
        assert stream == S("t^2") and hash(stream) == hash(S("t^2"))
        assert stream != S("t^2 + t^9")

    def test_stops_at_the_first_difference(self, computed):
        a = S("1 + t").quotient(S("1 - t^4000"))
        b = S("1 + 2*t").quotient(S("1 - t^4000"))
        computed.clear()
        assert a != b
        assert computed["coefficients"] == 6  # batches of 1 and 2 terms of each
        computed.clear()
        assert a == a and computed == {}

    def test_prefix(self):
        assert S("1").quotient(S("1 - t")).prefix(4) == (1, 1, 1, 1)
        assert S("1/2*t").prefix(3) == (0, F(1, 2), 0)
        assert all(type(c) is F for c in S("t").prefix(3))
        assert S("t").prefix(0) == ()

    def test_negative_prefix_is_refused(self):
        # a negative length is refused, not sliced from what is computed
        q = S("t").quotient(S("t - t^2"))
        assert q.prefix(3) == (1, 1, 1)
        with pytest.raises(ValueError, match="prefix length -2 is negative"):
            q.prefix(-2)

    @example(("quotient", [F(1), F(1)], [F(1), F(1)]), [F(1)])
    @example(("recenter", ("quotient", [F(1), F(2)], [F(1), F(1)]), None), [F(0), F(1)])
    @given(expressions, st.none() | expressions)
    @settings(max_examples=60, deadline=None)
    def test_chains_match_rational_reference(self, f_tree, g_tree):
        # f == g exactly when the reference agrees up to e, which is when
        # P1 D2 = P2 D1; equal series hash equal.  No g tree rebuilds f.
        f, g = _evaluate(f_tree, []), _evaluate(f_tree if g_tree is None else g_tree, [])
        assume(f is not None and g is not None)
        (f, (p1, d1)), (g, (p2, d2)) = f, g
        (a1, q1, _), (a2, q2, _) = f._bound, g._bound
        n = max(a1 + q2, a2 + q1, -1) + 1
        same = _rhead((p1, d1), n) == _rhead((p2, d2), n)
        assert same == (_pmul(p1, d2) == _pmul(p2, d1)), (f_tree, g_tree)
        assert (f == g) == same == (g == f), (f_tree, g_tree)
        if same:
            assert hash(f) == hash(g), (f_tree, g_tree)


def _quotient_or_slope(num, den, derive):
    """num / den, a stream when den is not a single term, or its slope over
    t, its derivative made by the ratio kernel."""
    s = TruncatedSeries(num).quotient(TruncatedSeries(den))
    return slope(s, S("t")) if derive else s


# series with and without a constant term: term polynomials, quotients by a
# denominator that does not vanish at 0 and their slopes over t, and the
# streams with a long gap after their lead
tail_inputs = st.one_of(
    term_lists.map(TruncatedSeries.from_terms),
    st.builds(_quotient_or_slope, window, window.filter(lambda w: w and w[0]),
              st.booleans()),
    start.filter(lambda s: s[1] is not None).map(lambda s: _start(*s)[0]),
)


class TestTail:
    @given(tail_inputs, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_recenter(self, series, read_first):
        # some series have their valuation read first, so the tail is taken
        # of a partly computed series, or of one certified zero
        if read_first:
            series.valuation_or_none()
        a, q, r = bound = series._bound
        head = series.prefix(12)
        tail = series._tail()
        c, recentered = series.recenter()
        assert c == head[0] and tail.prefix(12) == (0, *head[1:])
        if c == 0:
            assert tail is series and recentered is series and tail._bound == bound
            return
        assert tail is not series and recentered is not series
        assert tail.prefix(12) == recentered.prefix(12)
        assert (tail._bound, tail._zeros, tail._exact) == (
            recentered._bound, recentered._zeros, recentered._exact)
        if series.is_polynomial:
            assert tail.is_polynomial and tail._terms == series._terms[1:]
        else:
            assert (tail._bound, tail._zeros, tail._exact) == ((max(a, q), q, r), 1, False)
