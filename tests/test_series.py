from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monstertower.errors import (
    IndeterminateValuation,
    InsufficientPrecision,
    NegativeValuation,
    ParseError,
)
from monstertower.series import TruncatedSeries, parse_series


def S(text, precision=64):
    return parse_series(text, precision)


def naive_product(a, b, n):
    # independent convolution oracle
    out = [F(0)] * n
    for i, ca in enumerate(a.coefficients):
        for j, cb in enumerate(b.coefficients):
            if i + j < n:
                out[i + j] += ca * cb
    return tuple(out)


class TestArith:
    def test_cancellation(self):
        r = S("t^4 + t^5") - S("t^4")
        assert r.agrees_with(S("t^5"))
        assert r.valuation() == 5

    def test_monomial_product(self):
        assert (S("t^2") * S("t^3")).agrees_with(S("t^5"))

    def test_shifted_product_matches_convolution_oracle(self):
        a, b = S("t^24"), S("1 + t")
        prod = a * b
        assert prod.coefficients == naive_product(a, b, prod.precision)
        assert prod.agrees_with(S("t^24 + t^25"))

    def test_mul_precision_bound(self):
        prod = S("t^24") * S("1 + t")
        assert prod.precision == 64  # min(64 + 0, 64 + 24)


class TestDerivative:
    def test_monomial(self):
        assert S("t^7").derivative().agrees_with(S("7*t^6"))

    def test_binomial_with_coefficient(self):
        d = S("14*t^18 + 14*t^19").derivative()
        assert d.agrees_with(S("252*t^17 + 266*t^18"))
        # 14*(18 t^17 + 19 t^18)
        assert d.coefficients[17] == 14 * 18
        assert d.coefficients[18] == 14 * 19

    def test_constant(self):
        d = S("5").derivative()
        assert d.valuation_or_none() is None

    def test_empty_window(self):
        with pytest.raises(InsufficientPrecision):
            TruncatedSeries(()).derivative()


class TestQuotient:
    def test_monomials(self):
        q = S("7*t^6").quotient(S("5*t^4"))
        assert q.agrees_with(S("7/5*t^2"))

    def test_ramphoid_chart_quotient(self):
        # dx / dy'' for x = t^2, y'' = 2 + 15/4 t
        q = S("t^2").derivative().quotient(S("2 + 15/4*t").derivative())
        assert q.agrees_with(S("8/15*t"))

    def test_self_quotient(self):
        s = S("3*t^2 + t^5")
        assert s.quotient(s).agrees_with(S("1"))

    def test_negative_valuation(self):
        with pytest.raises(NegativeValuation):
            S("t^2").quotient(S("t^3"))

    def test_zero_denominator(self):
        with pytest.raises(IndeterminateValuation):
            S("t").quotient(TruncatedSeries.zero(8))

    def test_zero_numerator_allowed(self):
        q = TruncatedSeries.zero(8).quotient(S("1 + t", 8))
        assert q.valuation_or_none() is None

    def test_precision_tracking(self):
        q = S("t^4", 10).quotient(S("t^2", 10))
        assert q.precision == 8


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
            TruncatedSeries.zero(4).valuation()


class TestRecenter:
    def test_with_constant(self):
        c, tail = S("2 + 15/4*t").recenter()
        assert c == 2
        assert tail.agrees_with(S("15/4*t"))

    def test_pure_power(self):
        c, tail = S("t^3").recenter()
        assert c == 0
        assert tail.agrees_with(S("t^3"))

    def test_unit_shift(self):
        c, tail = S("1 + t").recenter()
        assert (c, tail.valuation()) == (1, 1)


class TestIntegrate:
    def test_double_integration_example(self):
        # actives y' = t, x'' = t in chart oio rebuild to x = t^3/6, y = t^4/8
        y_prime, x_second = S("t"), S("t")
        x_prime = x_second.integrate(y_prime, 0)
        x = x_prime.integrate(y_prime, 0)
        assert x.agrees_with(S("1/6*t^3"))
        y = y_prime.integrate(x, 0)
        assert y.agrees_with(S("1/8*t^4"))

    def test_integrate_zero(self):
        r = TruncatedSeries.zero(8).integrate(S("t", 8), F(5))
        assert r.constant_term() == 5
        assert r.coefficients[1:] == (F(0),) * (r.precision - 1)

    def test_derivative_round_trip(self):
        a, wrt = S("7/5*t^2"), S("t^5")
        r = a.integrate(wrt, 0)
        assert r.agrees_with(S("t^7"))
        assert r.derivative().agrees_with(a * wrt.derivative())

    def test_indeterminate_wrt(self):
        with pytest.raises(IndeterminateValuation):
            S("t").integrate(TruncatedSeries.zero(8), 0)


coeffs = st.fractions(min_value=-40, max_value=40, max_denominator=9)


def series_strategy(min_val=0):
    return st.lists(coeffs, min_size=0, max_size=6).map(
        lambda cs: TruncatedSeries.from_terms(
            [(c, i + min_val) for i, c in enumerate(cs)], 24
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
        assert (q * b).agrees_with(a)

    @given(series_strategy(), series_strategy(min_val=1))
    @settings(max_examples=120, deadline=None)
    def test_integrate_derivative_identity(self, a, wrt):
        if wrt.valuation_or_none() is None:
            return
        r = a.integrate(wrt, F(3, 7))
        assert r.constant_term() == F(3, 7)
        assert r.derivative().agrees_with(a * wrt.derivative())

    @given(series_strategy(), series_strategy())
    @settings(max_examples=60, deadline=None)
    def test_product_matches_convolution_oracle(self, a, b):
        prod = a * b
        assert prod.coefficients == naive_product(a, b, prod.precision)

    def test_determinism(self):
        runs = [
            S("t^7").derivative().quotient(S("t^5").derivative()).coefficients
            for _ in range(2)
        ]
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
        ],
    )
    def test_literals(self, text, expect):
        assert parse_series(text).agrees_with(TruncatedSeries.from_terms(expect))

    @pytest.mark.parametrize("bad", ["", "q^2", "t^", "1//2*t", "t^2 ^3"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_series(bad)

    def test_polynomials_embed_at_full_precision(self):
        assert parse_series("t^2", 50).precision == 50


class TestTermsOutsideTheWindow:
    def test_nonzero_term_at_precision_raises(self):
        message = r"^term t\^3 does not fit in a window of precision 3$"
        with pytest.raises(InsufficientPrecision, match=message):
            TruncatedSeries.from_terms([(1, 2), (1, 3)], 3)

    def test_coefficient_is_named(self):
        with pytest.raises(InsufficientPrecision, match=r"term 7/5\*t\^70 .* precision 64"):
            parse_series("t^2 + 7/5*t^70", 64)

    def test_zero_term_outside_is_harmless(self):
        assert TruncatedSeries.from_terms([(1, 2), (0, 70)], 64).agrees_with(S("t^2"))


# -- eager reference ------------------------------------------------------------
#
# Each operation computed over its whole window at once, on plain coefficient
# tuples, with the straightforward loops.  Series, which compute coefficients
# on demand, must match them in precision, coefficients, valuation and raised
# errors.


def ref_valuation(a):
    return next((i for i, c in enumerate(a) if c), None)


def ref_add(a, b):
    return tuple(a[i] + b[i] for i in range(min(len(a), len(b))))


def ref_sub(a, b):
    return tuple(a[i] - b[i] for i in range(min(len(a), len(b))))


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
        raise InsufficientPrecision("cannot differentiate an empty window")
    return tuple(i * a[i] for i in range(1, len(a)))


def ref_quotient(num, den):
    vd = ref_valuation(den)
    if vd is None:
        raise IndeterminateValuation("denominator is zero to stored precision")
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
        raise InsufficientPrecision("no stored coefficients")
    return (F(0),) + a[1:]


def ref_integrate(a, wrt, constant):
    if ref_valuation(wrt) is None:
        raise IndeterminateValuation("integration variable is zero to precision")
    g = ref_mul(a, ref_derivative(wrt))
    return (F(constant),) + tuple(g[k] / (k + 1) for k in range(len(g)))


# name -> (on-demand operation, reference operation) of operands a, b and a
# fraction k; unary operations ignore b, and k is read by scale and integrate
OPERATIONS = {
    "add": (lambda a, b, k: a + b, lambda a, b, k: ref_add(a, b)),
    "sub": (lambda a, b, k: a - b, lambda a, b, k: ref_sub(a, b)),
    "neg": (lambda a, b, k: -a, lambda a, b, k: tuple(-c for c in a)),
    "scale": (lambda a, b, k: a.scale(k), lambda a, b, k: tuple(k * c for c in a)),
    "mul": (lambda a, b, k: a * b, lambda a, b, k: ref_mul(a, b)),
    "derivative": (lambda a, b, k: a.derivative(), lambda a, b, k: ref_derivative(a)),
    "quotient": (lambda a, b, k: a.quotient(b), lambda a, b, k: ref_quotient(a, b)),
    "recenter": (lambda a, b, k: a.recenter()[1], lambda a, b, k: ref_recenter_tail(a)),
    "integrate": (lambda a, b, k: a.integrate(b, k), lambda a, b, k: ref_integrate(a, b, k)),
}

# a window of 0-12 coefficients, often with a run of leading zeros
window = st.tuples(
    st.sampled_from([0, 0, 0, 1, 2, 4]),
    st.lists(st.sampled_from([F(0), F(1), F(-2), F(3, 4), F(-7, 5), F(5)]), max_size=8),
).map(lambda zeros_coeffs: (F(0),) * zeros_coeffs[0] + tuple(zeros_coeffs[1]))


def _outcome(fn):
    try:
        return "ok", fn()
    except (IndeterminateValuation, InsufficientPrecision, NegativeValuation) as exc:
        return "raised", (type(exc), str(exc))


class TestEagerReference:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_chains_match_eager_loops(self, data):
        # pool of (on-demand series, reference tuple); results join the pool,
        # so later operations read partly computed operands
        starts = data.draw(st.lists(window, min_size=1, max_size=3))
        pool = [(TruncatedSeries(w), w) for w in starts]
        for _ in range(data.draw(st.integers(1, 4))):
            name = data.draw(st.sampled_from(sorted(OPERATIONS)))
            lazy_op, ref_op = OPERATIONS[name]
            (a, ra), (b, rb) = (data.draw(st.sampled_from(pool)) for _ in range(2))
            k = data.draw(st.sampled_from([F(0), F(2), F(-1, 3)]))
            kind, lazy = _outcome(lambda: lazy_op(a, b, k))
            ref_kind, ref = _outcome(lambda: ref_op(ra, rb, k))
            assert kind == ref_kind, name
            if kind == "raised":
                assert lazy == ref
                continue
            assert lazy.precision == len(ref)
            # read the leading terms first on some results, the whole window
            # later or never, so operands are at every stage of completion
            if data.draw(st.booleans()):
                assert lazy.valuation_or_none() == ref_valuation(ref)
            if data.draw(st.booleans()):
                assert lazy.coefficients == ref
            pool.append((lazy, ref))
        for lazy, ref in pool:
            assert lazy.valuation_or_none() == ref_valuation(ref)
            assert lazy.coefficients == ref
