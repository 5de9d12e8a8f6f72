"""Deterministic curve corpus for the engine-equivalence checks.

Curves have the shape x = t^n, y = sum of rational-coefficient terms, with
small n, bounded exponents, and a primitive exponent set.  Generation is
seeded, so every run sees the same corpus.  Every curve is an exact
polynomial, so it lifts in one attempt at any term budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .series import TruncatedSeries
from .tower import CurveGerm

DEFAULT_SEED = 178212
COEFF_POOL = [
    Fraction(1), Fraction(-1), Fraction(2), Fraction(3), Fraction(-2),
    Fraction(14), Fraction(3, 2), Fraction(-5, 7), Fraction(72, 5),
    Fraction(7, 5), Fraction(-11, 4), Fraction(95, 3),
]


@dataclass(frozen=True)
class CurveSpec:
    """x = t^n, y = sum(c_i t^(e_i)); exponents strictly above n."""

    n: int
    terms: tuple[tuple[Fraction, int], ...]

    def curve(self, precision: int) -> CurveGerm:
        x = TruncatedSeries.monomial(1, self.n, precision)
        y = TruncatedSeries.from_terms(self.terms, precision)
        return CurveGerm.from_series(x, y)

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.terms)

    def __str__(self) -> str:
        y = " + ".join(f"{c}*t^{e}" for c, e in self.terms)
        return f"x=t^{self.n}, y={y}"


def generate_corpus(
    count: int = 220,
    seed: int = DEFAULT_SEED,
    max_n: int = 12,
    max_exponent: int = 60,
) -> list[CurveSpec]:
    rng = random.Random(seed)
    out: list[CurveSpec] = []
    seen: set[tuple] = set()
    while len(out) < count:
        n = rng.randint(1, max_n)
        n_terms = rng.randint(1, 4)
        lo = n + 1
        if lo > max_exponent:
            continue
        exponents = sorted(rng.sample(range(lo, max_exponent + 1), min(n_terms, max_exponent + 1 - lo)))
        d = n
        for e in exponents:
            d = gcd(d, e)
        if d != 1:
            continue
        terms = tuple((rng.choice(COEFF_POOL), e) for e in exponents)
        key = (n, terms)
        if key in seen:
            continue
        seen.add(key)
        out.append(CurveSpec(n, terms))
    return out


def with_precision_retry(fn, spec: CurveSpec, start: int = 96):
    """fn(spec.curve(start)).  The series are exact, so one attempt decides;
    the name remains for the benchmark harness, which calls it."""
    return fn(spec.curve(start))
